//! Chunked transfer-coding with trailers (RFC 7230 §4.1).
//!
//! This is the corner of HTTP/1.1 the piggyback protocol lives in: the
//! server sends the response body in chunks and appends the `P-volume`
//! header in the trailer after the terminal zero-length chunk, so the
//! piggyback never delays the body (paper Section 2.3).

use crate::error::HttpError;
use crate::headers::HeaderMap;
use crate::parse::{read_line_into, MAX_BODY, MAX_HEADERS};
use std::io::{BufRead, Write};

/// Write `body` as chunked transfer-coding, followed by `trailers` and the
/// terminating blank line. Bodies are split into chunks of at most
/// `chunk_size` bytes; an empty body still produces the mandatory
/// zero-length final chunk.
pub fn write_chunked<W: Write>(
    w: &mut W,
    body: &[u8],
    trailers: &HeaderMap,
    chunk_size: usize,
) -> std::io::Result<()> {
    let chunk_size = chunk_size.max(1);
    for chunk in body.chunks(chunk_size) {
        write!(w, "{:x}\r\n", chunk.len())?;
        w.write_all(chunk)?;
        w.write_all(b"\r\n")?;
    }
    // Terminal chunk.
    w.write_all(b"0\r\n")?;
    for (name, value) in trailers.iter() {
        write!(w, "{name}: {value}\r\n")?;
    }
    w.write_all(b"\r\n")?;
    Ok(())
}

/// Read a chunked body and its trailer section into caller-owned
/// buffers: `body` accumulates the decoded payload in place (chunks read
/// directly into its tail — no per-chunk temporary), `trailers` is reset
/// and refilled with recycled entry strings, and `line` is the line
/// scratch. A connection that holds these buffers decodes every chunked
/// message after the first without heap allocation.
pub fn read_chunked_into<R: BufRead>(
    r: &mut R,
    body: &mut Vec<u8>,
    trailers: &mut HeaderMap,
    line: &mut Vec<u8>,
) -> Result<(), HttpError> {
    read_chunked_into_capped(r, body, trailers, line, MAX_BODY)
}

/// [`read_chunked_into`] with a caller-chosen body cap (at most
/// [`MAX_BODY`]). The proxy uses this to bound what a client or origin
/// can make it buffer.
pub fn read_chunked_into_capped<R: BufRead>(
    r: &mut R,
    body: &mut Vec<u8>,
    trailers: &mut HeaderMap,
    line: &mut Vec<u8>,
    cap: usize,
) -> Result<(), HttpError> {
    let cap = cap.min(MAX_BODY);
    body.clear();
    trailers.reset();
    loop {
        let size_line = read_line_into(r, line)?;
        // Chunk extensions (";ext=...") are allowed and ignored.
        let size_part = size_line.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_part, 16)
            .map_err(|_| HttpError::BadChunkSize(size_line.to_owned()))?;
        // checked_add: an adversarial chunk-size line like
        // "ffffffffffffffff" must hit the limit, not wrap the sum in
        // release mode and bypass it into a huge allocation.
        if body.len().checked_add(size).is_none_or(|total| total > cap) {
            return Err(HttpError::LimitExceeded("chunked body size"));
        }
        if size == 0 {
            break;
        }
        // Read the chunk straight into the body's tail.
        let at = body.len();
        body.resize(at + size, 0);
        r.read_exact(&mut body[at..])?;
        // The CRLF after the chunk data.
        let mut crlf = [0u8; 2];
        r.read_exact(&mut crlf)?;
        if &crlf != b"\r\n" {
            return Err(HttpError::BadChunkSize("missing chunk CRLF".into()));
        }
    }
    // Trailer section: header lines until the blank line.
    loop {
        let trailer_line = read_line_into(r, line)?;
        if trailer_line.is_empty() {
            break;
        }
        if trailers.len() >= MAX_HEADERS {
            return Err(HttpError::LimitExceeded("trailer count"));
        }
        let (name, value) = trailer_line
            .split_once(':')
            .ok_or_else(|| HttpError::BadHeader(trailer_line.to_owned()))?;
        trailers
            .try_insert_recycled(name.trim(), value.trim())
            .map_err(|_| HttpError::BadHeader(trailer_line.to_owned()))?;
    }
    Ok(())
}

/// Read a chunked body and its trailer section. Returns `(body, trailers)`.
pub fn read_chunked<R: BufRead>(r: &mut R) -> Result<(Vec<u8>, HeaderMap), HttpError> {
    let mut body = Vec::new();
    let mut trailers = HeaderMap::new();
    let mut line = Vec::with_capacity(64);
    read_chunked_into(r, &mut body, &mut trailers, &mut line)?;
    Ok((body, trailers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn round_trip(body: &[u8], trailers: &HeaderMap, chunk: usize) -> (Vec<u8>, HeaderMap) {
        let mut wire = Vec::new();
        write_chunked(&mut wire, body, trailers, chunk).unwrap();
        let mut r = BufReader::new(wire.as_slice());
        read_chunked(&mut r).unwrap()
    }

    #[test]
    fn empty_body_no_trailers() {
        let (body, trailers) = round_trip(b"", &HeaderMap::new(), 8);
        assert!(body.is_empty());
        assert!(trailers.is_empty());
    }

    #[test]
    fn body_round_trips_across_chunk_sizes() {
        let data = b"The quick brown fox jumps over the lazy dog".to_vec();
        for chunk in [1, 2, 7, 16, 1024] {
            let (body, _) = round_trip(&data, &HeaderMap::new(), chunk);
            assert_eq!(body, data, "chunk size {chunk}");
        }
    }

    #[test]
    fn trailers_round_trip() {
        let mut t = HeaderMap::new();
        t.insert("P-volume", "7; \"/a/b.html\" 887725423 5243");
        t.insert("X-Extra", "1");
        let (body, got) = round_trip(b"hello", &t, 4);
        assert_eq!(body, b"hello");
        assert_eq!(got.get("p-volume"), Some("7; \"/a/b.html\" 887725423 5243"));
        assert_eq!(got.get("x-extra"), Some("1"));
    }

    #[test]
    fn wire_format_is_canonical() {
        let mut wire = Vec::new();
        write_chunked(&mut wire, b"hi", &HeaderMap::new(), 1024).unwrap();
        assert_eq!(wire, b"2\r\nhi\r\n0\r\n\r\n");
        let mut t = HeaderMap::new();
        t.insert("T", "v");
        let mut wire = Vec::new();
        write_chunked(&mut wire, b"", &t, 1024).unwrap();
        assert_eq!(wire, b"0\r\nT: v\r\n\r\n");
    }

    #[test]
    fn chunk_extensions_ignored() {
        let wire = b"5;ext=1\r\nhello\r\n0\r\n\r\n";
        let mut r = BufReader::new(wire.as_slice());
        let (body, _) = read_chunked(&mut r).unwrap();
        assert_eq!(body, b"hello");
    }

    #[test]
    fn rejects_bad_chunk_sizes() {
        let wire = b"zz\r\n";
        let mut r = BufReader::new(wire.as_slice());
        assert!(matches!(
            read_chunked(&mut r),
            Err(HttpError::BadChunkSize(_))
        ));
        // Missing CRLF after chunk data.
        let wire = b"2\r\nhiXX0\r\n\r\n";
        let mut r = BufReader::new(wire.as_slice());
        assert!(read_chunked(&mut r).is_err());
    }

    #[test]
    fn adversarial_chunk_size_cannot_overflow_the_limit() {
        // usize::MAX as a hex chunk size: `body.len() + size` wrapped to a
        // small number in release builds, bypassing MAX_BODY and then
        // attempting a usize::MAX-byte allocation.
        let wire = b"ffffffffffffffff\r\n";
        let mut r = BufReader::new(wire.as_slice());
        assert!(matches!(
            read_chunked(&mut r),
            Err(HttpError::LimitExceeded("chunked body size"))
        ));
        // Wrap via accumulation: a valid first chunk, then the huge one.
        let mut wire = Vec::new();
        wire.extend_from_slice(b"5\r\nhello\r\nfffffffffffffffb\r\n");
        let mut r = BufReader::new(wire.as_slice());
        assert!(matches!(
            read_chunked(&mut r),
            Err(HttpError::LimitExceeded("chunked body size"))
        ));
        // Just over the limit without overflow still rejects.
        let wire = format!("{:x}\r\n", MAX_BODY + 1);
        let mut r = BufReader::new(wire.as_bytes());
        assert!(matches!(
            read_chunked(&mut r),
            Err(HttpError::LimitExceeded("chunked body size"))
        ));
    }

    #[test]
    fn caller_cap_tightens_the_limit() {
        let mut wire = Vec::new();
        write_chunked(&mut wire, &[b'x'; 100], &HeaderMap::new(), 16).unwrap();
        let mut body = Vec::new();
        let mut trailers = HeaderMap::new();
        let mut line = Vec::new();
        let mut r = BufReader::new(wire.as_slice());
        assert!(matches!(
            read_chunked_into_capped(&mut r, &mut body, &mut trailers, &mut line, 50),
            Err(HttpError::LimitExceeded("chunked body size"))
        ));
        // Under the cap it decodes normally.
        let mut r = BufReader::new(wire.as_slice());
        read_chunked_into_capped(&mut r, &mut body, &mut trailers, &mut line, 100).unwrap();
        assert_eq!(body.len(), 100);
    }

    #[test]
    fn truncated_stream_is_connection_closed() {
        let wire = b"5\r\nhel";
        let mut r = BufReader::new(wire.as_slice());
        assert!(matches!(
            read_chunked(&mut r),
            Err(HttpError::ConnectionClosed)
        ));
    }

    #[test]
    fn rejects_malformed_trailer() {
        let wire = b"0\r\nnotaheader\r\n\r\n";
        let mut r = BufReader::new(wire.as_slice());
        assert!(matches!(read_chunked(&mut r), Err(HttpError::BadHeader(_))));
    }
}
