//! Per-connection scratch buffers and single-syscall vectored writes.
//!
//! A [`ConnScratch`] is owned by the worker serving a connection and
//! reused across every request on it. Parsing reads lines into
//! `scratch.line` instead of allocating a `String` per header; chunked
//! decoding grows `scratch.body_vec` in place; serialization encodes the
//! head, framing, and trailers into `scratch.out` and records the wire
//! layout as [`Seg`] ranges in `scratch.segs` — body bytes are
//! *referenced*, never copied into the output buffer. [`flush_segments`]
//! then emits the whole message with batched `write_vectored` calls.
//! After the first few requests every buffer has reached its steady-state
//! capacity and the serve loop performs no heap allocation at all.

use crate::headers::HeaderMap;
use std::io::{self, IoSlice, Write};

/// One piece of a serialized message: a range into the scratch `out`
/// buffer (head, framing, trailers) or into the message body.
///
/// Ranges rather than slices so the list can be built while `out` is
/// still growing (a `Vec` reallocation would invalidate stored slices).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seg {
    /// `out[start..end]` — bytes the encoder wrote into scratch.
    Out(usize, usize),
    /// `body[start..end]` — bytes referenced from the message body.
    Body(usize, usize),
}

/// Reusable per-connection buffers. Create one per accepted connection
/// (or per worker) and thread it through parse and write calls.
#[derive(Debug, Default)]
pub struct ConnScratch {
    /// Line buffer for `read_line_into` (request/status/header lines).
    pub line: Vec<u8>,
    /// Serialization buffer: head + framing + trailers of one message.
    pub out: Vec<u8>,
    /// Wire layout of the message being serialized (ranges, see [`Seg`]).
    pub segs: Vec<Seg>,
    /// Body accumulation buffer for chunked decoding / fixed-length reads.
    pub body_vec: Vec<u8>,
    /// Trailer scratch for chunked request bodies (parsed, then
    /// discarded, so the entry strings recycle across messages).
    pub trailers: HeaderMap,
    /// Request bytes for an upstream exchange a proxy makes on this
    /// connection's behalf. An event-driven engine lends the buffer to
    /// the exchange and puts it back when the exchange ends.
    pub upstream: Vec<u8>,
}

impl ConnScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

/// How many `IoSlice`s to hand the kernel per `write_vectored` call.
/// Linux caps `writev` at `IOV_MAX` (1024); 64 keeps the stack frame
/// small and is far more than a typical response needs (a chunked body
/// at 8 KiB chunks emits ~2 segments per chunk, so one batch moves a
/// quarter megabyte).
const MAX_BATCH: usize = 64;

/// Write `count` logical slices (resolved by index) fully, using batched
/// vectored writes and handling arbitrary partial progress.
fn write_all_resolved<'a, W: Write>(
    w: &mut W,
    count: usize,
    resolve: impl Fn(usize) -> &'a [u8],
) -> io::Result<()> {
    let mut idx = 0; // first slice not fully written
    let mut offset = 0; // bytes of slice `idx` already written
    while idx < count {
        // Assemble up to MAX_BATCH non-empty IoSlices starting at
        // (idx, offset). IoSlice is Copy, so a stack array works.
        let mut batch = [IoSlice::new(&[]); MAX_BATCH];
        let mut n = 0;
        let mut off = offset;
        let mut j = idx;
        while j < count && n < MAX_BATCH {
            let s = &resolve(j)[off..];
            off = 0;
            j += 1;
            if s.is_empty() {
                continue;
            }
            batch[n] = IoSlice::new(s);
            n += 1;
        }
        if n == 0 {
            return Ok(()); // only empty slices remained
        }
        let written = match w.write_vectored(&batch[..n]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write whole message",
                ))
            }
            Ok(k) => k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        // Advance (idx, offset) past `written` bytes. Writers are free to
        // make partial progress anywhere, including mid-slice.
        let mut rem = written;
        while rem > 0 {
            let left = resolve(idx).len() - offset;
            if rem >= left {
                rem -= left;
                idx += 1;
                offset = 0;
            } else {
                offset += rem;
                rem = 0;
            }
        }
        // Skip any now-leading empty slices so `resolve(idx)` above stays
        // in bounds on the next round.
        while idx < count && resolve(idx).len() == offset {
            idx += 1;
            offset = 0;
        }
    }
    Ok(())
}

/// Emit a serialized message: each [`Seg`] resolves against `out`
/// (scratch bytes) or `body` (referenced payload bytes), and the whole
/// sequence is written with batched `write_vectored` calls — no copy of
/// the body into the output buffer, no per-segment syscall.
pub fn flush_segments<W: Write>(
    w: &mut W,
    out: &[u8],
    body: &[u8],
    segs: &[Seg],
) -> io::Result<()> {
    write_all_resolved(w, segs.len(), |i| match segs[i] {
        Seg::Out(s, e) => &out[s..e],
        Seg::Body(s, e) => &body[s..e],
    })
}

/// Write a small fixed set of byte slices fully, in one vectored call
/// when the writer cooperates. Used by hand-rolled hot paths (the
/// proxy's cached-hit response) that assemble head-in-scratch +
/// body-by-reference without a full `Response`.
pub fn write_all_parts<W: Write>(w: &mut W, parts: &[&[u8]]) -> io::Result<()> {
    write_all_resolved(w, parts.len(), |i| parts[i])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer that accepts at most `cap` bytes per call and ignores all
    /// but the first vectored buffer, exercising the partial-progress and
    /// batching logic.
    struct Dribble {
        data: Vec<u8>,
        cap: usize,
    }

    impl Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(self.cap).max(1).min(buf.len());
            self.data.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn segments_resolve_and_interleave() {
        let out = b"HEAD|TAIL";
        let body = b"0123456789";
        let segs = [
            Seg::Out(0, 4),
            Seg::Body(2, 6),
            Seg::Out(5, 9),
            Seg::Body(0, 0), // empty segment is skipped
            Seg::Body(9, 10),
        ];
        let mut wire = Vec::new();
        flush_segments(&mut wire, out, body, &segs).unwrap();
        assert_eq!(wire, b"HEAD2345TAIL9");
    }

    #[test]
    fn partial_writers_still_get_everything() {
        let out: Vec<u8> = (0u8..100).collect();
        let body: Vec<u8> = (100u8..200).collect();
        let segs: Vec<Seg> = (0..50)
            .flat_map(|i| [Seg::Out(i * 2, i * 2 + 2), Seg::Body(i, i + 3)])
            .collect();
        let mut expect = Vec::new();
        for i in 0..50usize {
            expect.extend_from_slice(&out[i * 2..i * 2 + 2]);
            expect.extend_from_slice(&body[i..i + 3]);
        }
        for cap in [1, 2, 3, 7, 64, 1000] {
            let mut w = Dribble {
                data: Vec::new(),
                cap,
            };
            flush_segments(&mut w, &out, &body, &segs).unwrap();
            assert_eq!(w.data, expect, "cap {cap}");
        }
    }

    #[test]
    fn more_segments_than_one_batch() {
        let body: Vec<u8> = (0..=255u8).collect();
        let segs: Vec<Seg> = (0..256).map(|i| Seg::Body(i, i + 1)).collect();
        assert!(segs.len() > MAX_BATCH);
        let mut wire = Vec::new();
        flush_segments(&mut wire, &[], &body, &segs).unwrap();
        assert_eq!(wire, body);
    }

    #[test]
    fn all_empty_segments_is_a_noop() {
        let mut wire = Vec::new();
        flush_segments(&mut wire, b"x", b"y", &[Seg::Out(0, 0), Seg::Body(1, 1)]).unwrap();
        assert!(wire.is_empty());
    }

    #[test]
    fn parts_helper_writes_in_order() {
        let mut wire = Vec::new();
        write_all_parts(&mut wire, &[b"status ", b"", b"headers ", b"body"]).unwrap();
        assert_eq!(wire, b"status headers body");
        let mut w = Dribble {
            data: Vec::new(),
            cap: 2,
        };
        write_all_parts(&mut w, &[b"abc", b"defg", b"h"]).unwrap();
        assert_eq!(w.data, b"abcdefgh");
    }
}
