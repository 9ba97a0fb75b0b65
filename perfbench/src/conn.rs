//! The benchmark's client side of one keep-alive connection: requests go
//! out pre-serialized, responses are framed by a minimal reader that
//! pulls out only what the checks need (status, `X-Cache`,
//! `Last-Modified`, body), so the generator stays cheap next to the
//! daemons it measures.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// How the proxy says it answered, from the `X-Cache` header; a response
/// without one is a write passed through to the origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Hit,
    Validated,
    Miss,
    Write,
}

impl Outcome {
    pub const ALL: [Outcome; 4] = [
        Outcome::Hit,
        Outcome::Validated,
        Outcome::Miss,
        Outcome::Write,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Outcome::Hit => "hit",
            Outcome::Validated => "validated",
            Outcome::Miss => "miss",
            Outcome::Write => "write",
        }
    }
}

/// One framed response; offsets index the connection's buffer and stay
/// valid until the next read.
pub struct Resp {
    pub status: u16,
    /// `None` for an `X-Cache` value the benchmark does not expect.
    pub outcome: Option<Outcome>,
    body: (usize, usize),
    lm: (usize, usize),
}

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    pos: usize,
    filled: usize,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(std::time::Duration::from_secs(20)))?;
        Ok(Conn {
            stream,
            buf: vec![0; 64 * 1024],
            pos: 0,
            filled: 0,
        })
    }

    /// A second handle on the socket, for a sender thread.
    pub fn writer(&self) -> io::Result<TcpStream> {
        self.stream.try_clone()
    }

    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    pub fn body(&self, r: &Resp) -> &[u8] {
        &self.buf[r.body.0..r.body.1]
    }

    pub fn last_modified(&self, r: &Resp) -> &[u8] {
        &self.buf[r.lm.0..r.lm.1]
    }

    /// Read more bytes, compacting or growing the buffer so that at least
    /// `need` bytes past `pos` fit.
    fn fill(&mut self, need: usize) -> io::Result<()> {
        if self.pos + need > self.buf.len() {
            self.buf.copy_within(self.pos..self.filled, 0);
            self.filled -= self.pos;
            self.pos = 0;
            if need > self.buf.len() {
                self.buf.resize(need.next_power_of_two(), 0);
            }
        }
        let n = self.stream.read(&mut self.buf[self.filled..])?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        self.filled += n;
        Ok(())
    }

    /// Read one response. Content-Length framing only: the proxy never
    /// chunks a response it answers from (or into) its cache.
    pub fn read_response(&mut self) -> io::Result<Resp> {
        if self.pos == self.filled {
            self.pos = 0;
            self.filled = 0;
        }
        let head_len = loop {
            if let Some(i) = find_head_end(&self.buf[self.pos..self.filled]) {
                break i;
            }
            let have = self.filled - self.pos;
            self.fill(have + 4096)?;
        };
        let head = &self.buf[self.pos..self.pos + head_len];
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
        let status: u16 = head
            .get(9..12)
            .and_then(|s| std::str::from_utf8(s).ok())
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut content_length = None;
        let mut outcome = Some(Outcome::Write);
        // Offsets relative to the start of the message until it is whole
        // in the buffer (reading more may compact it).
        let mut lm = (0, 0);
        let mut off = 0;
        for line in head.split(|&b| b == b'\n') {
            let start = off;
            off += line.len() + 1;
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            let Some(colon) = line.iter().position(|&b| b == b':') else {
                continue;
            };
            let name = &line[..colon];
            let vstart = colon + 1 + line[colon + 1..].iter().take_while(|&&b| b == b' ').count();
            let value = &line[vstart..];
            if name.eq_ignore_ascii_case(b"content-length") {
                content_length = std::str::from_utf8(value).ok().and_then(|v| v.parse().ok());
            } else if name.eq_ignore_ascii_case(b"x-cache") {
                outcome = match value {
                    b"HIT" => Some(Outcome::Hit),
                    b"VALIDATED" => Some(Outcome::Validated),
                    b"MISS" => Some(Outcome::Miss),
                    _ => None,
                };
            } else if name.eq_ignore_ascii_case(b"last-modified") {
                lm = (start + vstart, start + vstart + value.len());
            } else if name.eq_ignore_ascii_case(b"transfer-encoding") {
                return Err(bad("unexpected transfer-encoding"));
            }
        }
        let body_len = match status {
            204 | 304 => 0,
            _ => content_length.ok_or_else(|| bad("missing content-length"))?,
        };
        let total = head_len + body_len;
        while self.filled - self.pos < total {
            self.fill(total)?;
        }
        let at = self.pos;
        self.pos += total;
        Ok(Resp {
            status,
            outcome,
            body: (at + head_len, at + total),
            lm: (at + lm.0, at + lm.1),
        })
    }
}

/// Length of the head including its blank line, if complete.
fn find_head_end(b: &[u8]) -> Option<usize> {
    b.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}
