//! A connection's pending output: serialized head bytes interleaved with
//! shared [`Body`] segments, drained with vectored writes.
//!
//! An event-driven server cannot finish a response in one blocking
//! write, so it queues what it owes and drains the queue whenever the
//! socket is writable. [`OutQueue`] keeps the bytes an encoder produced
//! (status lines, headers, chunk framing) in one growable buffer and
//! *references* body bytes by holding a clone of their [`Body`] (a
//! refcount bump), so a cached body is never copied on its way out.
//! [`OutQueue::write_to`] hands the front of the queue to the writer as
//! one `write_vectored` call.

use crate::body::Body;
use crate::message::Response;
use crate::scratch::{write_all_parts, ConnScratch};
use std::collections::VecDeque;
use std::io::{self, IoSlice, Write};

/// Slices handed to the kernel per `write_vectored` call (see
/// `scratch::MAX_BATCH` for the reasoning behind the size).
const MAX_BATCH: usize = 64;

/// Drained head bytes are compacted away once this many have piled up in
/// front of a queue that never fully empties (a client that always has
/// something outstanding).
const COMPACT_AT: usize = 64 * 1024;

#[derive(Debug)]
enum Part {
    /// `bytes[start..end]`.
    Bytes(usize, usize),
    /// A referenced body.
    Body(Body),
}

/// Pending output of one connection. See the module docs.
#[derive(Debug, Default)]
pub struct OutQueue {
    bytes: Vec<u8>,
    parts: VecDeque<Part>,
    /// Bytes of the front part already written.
    sent: usize,
    /// Bytes queued and not yet written.
    pending: usize,
}

impl OutQueue {
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes queued and not yet written.
    pub fn len(&self) -> usize {
        self.pending
    }

    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Drop everything queued, keeping the buffers' capacity.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.parts.clear();
        self.sent = 0;
        self.pending = 0;
    }

    /// Queue a copy of `data`.
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.append_with(|buf| buf.extend_from_slice(data));
    }

    /// Let `f` append to the queue's byte buffer directly (an encoder
    /// that writes into a `Vec<u8>`), and queue what it appended.
    pub fn append_with<R>(&mut self, f: impl FnOnce(&mut Vec<u8>) -> R) -> R {
        let start = self.bytes.len();
        let r = f(&mut self.bytes);
        let end = self.bytes.len();
        if end > start {
            self.pending += end - start;
            match self.parts.back_mut() {
                Some(Part::Bytes(_, e)) if *e == start => *e = end,
                _ => self.parts.push_back(Part::Bytes(start, end)),
            }
        }
        r
    }

    /// Queue `body` by reference: the queue holds a clone (a refcount
    /// bump), and its bytes go to the socket straight from the shared
    /// allocation.
    pub fn push_body(&mut self, body: &Body) {
        if !body.is_empty() {
            self.pending += body.len();
            self.parts.push_back(Part::Body(body.clone()));
        }
    }

    /// Queue `head` followed by `body` (referenced, not copied).
    pub fn push_head_body(&mut self, head: &[u8], body: &Body) {
        self.extend_from_slice(head);
        self.push_body(body);
    }

    fn slice<'a>(&'a self, part: &'a Part) -> &'a [u8] {
        match part {
            Part::Bytes(s, e) => &self.bytes[*s..*e],
            Part::Body(b) => b.as_slice(),
        }
    }

    /// One `write_vectored` call over the front of the queue. Returns the
    /// bytes written and whether that was everything offered to the
    /// writer (`false` means the writer took less: for a nonblocking
    /// socket, its send buffer is full and the next call would block).
    /// An empty queue returns `(0, true)` without calling the writer.
    pub fn write_to<W: Write>(&mut self, w: &mut W) -> io::Result<(usize, bool)> {
        if self.pending == 0 {
            return Ok((0, true));
        }
        let mut batch = [IoSlice::new(&[]); MAX_BATCH];
        let mut n = 0;
        let mut offered = 0;
        for (i, part) in self.parts.iter().enumerate().take(MAX_BATCH) {
            let s = self.slice(part);
            let s = if i == 0 { &s[self.sent..] } else { s };
            batch[n] = IoSlice::new(s);
            offered += s.len();
            n += 1;
        }
        let written = w.write_vectored(&batch[..n])?;
        if written == 0 {
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "peer accepted no bytes",
            ));
        }
        self.advance(written);
        Ok((written, written == offered))
    }

    fn advance(&mut self, mut n: usize) {
        self.pending -= n;
        while n > 0 {
            let front = self.parts.front().expect("advance within queued bytes");
            let left = self.slice(front).len() - self.sent;
            if n < left {
                self.sent += n;
                break;
            }
            n -= left;
            self.sent = 0;
            self.parts.pop_front();
        }
        if self.parts.is_empty() {
            self.bytes.clear();
        } else {
            self.compact();
        }
    }

    /// Drop drained head bytes once enough have accumulated, renumbering
    /// the remaining byte ranges.
    fn compact(&mut self) {
        let dead = self
            .parts
            .iter()
            .find_map(|p| match p {
                Part::Bytes(s, _) => Some(*s),
                Part::Body(_) => None,
            })
            .unwrap_or(self.bytes.len());
        if dead < COMPACT_AT || dead < self.bytes.len() / 2 {
            return;
        }
        self.bytes.drain(..dead);
        for p in self.parts.iter_mut() {
            if let Part::Bytes(s, e) = p {
                *s -= dead;
                *e -= dead;
            }
        }
    }
}

/// Queued output is still unwritten, so `write` always takes everything.
impl Write for OutQueue {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        Ok(self.append_with(|out| {
            bufs.iter()
                .map(|b| {
                    out.extend_from_slice(b);
                    b.len()
                })
                .sum()
        }))
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A writer that takes a serialized head followed by a shared body. A
/// socket gets both in one vectored write; an [`OutQueue`] keeps the body
/// by reference instead of copying it.
pub trait BodySink: Write + Sized {
    fn send_head_body(&mut self, head: &[u8], body: &Body) -> io::Result<()> {
        write_all_parts(self, &[head, body.as_slice()])?;
        self.flush()
    }

    /// Send a whole response ([`Response::write_with`], or
    /// [`Response::queue_with`] for a queue).
    fn send_response(&mut self, resp: &Response, scratch: &mut ConnScratch) -> io::Result<()> {
        resp.write_with(self, scratch)
    }
}

impl BodySink for std::net::TcpStream {}
impl BodySink for Vec<u8> {}

impl BodySink for OutQueue {
    fn send_head_body(&mut self, head: &[u8], body: &Body) -> io::Result<()> {
        self.push_head_body(head, body);
        Ok(())
    }

    fn send_response(&mut self, resp: &Response, scratch: &mut ConnScratch) -> io::Result<()> {
        resp.queue_with(self, scratch);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Takes at most `cap` bytes per call, from the first slice only.
    struct Dribble {
        data: Vec<u8>,
        cap: usize,
    }

    impl Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(self.cap);
            self.data.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn drain(q: &mut OutQueue, w: &mut Dribble) {
        while !q.is_empty() {
            let before = q.len();
            let (n, _) = q.write_to(w).unwrap();
            assert!(n > 0);
            assert_eq!(q.len(), before - n);
        }
    }

    #[test]
    fn heads_and_bodies_drain_in_order_under_partial_writes() {
        let body = Body::from((0u8..=255).collect::<Vec<u8>>());
        let mut expect = Vec::new();
        let mut q = OutQueue::new();
        for i in 0..100u8 {
            let head = [b'h', i];
            q.push_head_body(&head, &body.slice(i as usize..));
            q.extend_from_slice(b"|");
            expect.extend_from_slice(&head);
            expect.extend_from_slice(&body[i as usize..]);
            expect.push(b'|');
        }
        assert_eq!(q.len(), expect.len());
        for cap in [1, 3, 7, 300, 1 << 20] {
            let mut q2 = OutQueue::new();
            for i in 0..100u8 {
                q2.push_head_body(&[b'h', i], &body.slice(i as usize..));
                q2.extend_from_slice(b"|");
            }
            let mut w = Dribble {
                data: Vec::new(),
                cap,
            };
            drain(&mut q2, &mut w);
            assert_eq!(w.data, expect, "cap {cap}");
        }
    }

    #[test]
    fn bodies_are_referenced_not_copied() {
        let body = Body::from(vec![7u8; 1000]);
        let mut q = OutQueue::new();
        q.push_head_body(b"head", &body);
        // The queue's own buffer holds the head only.
        assert_eq!(q.bytes.len(), 4);
        assert_eq!(q.len(), 1004);
        let mut out = Vec::new();
        assert_eq!(q.write_to(&mut out).unwrap(), (1004, true));
        assert!(q.is_empty());
        assert_eq!(&out[..4], b"head");
    }

    #[test]
    fn drained_head_bytes_are_compacted_while_output_stays_pending() {
        let mut q = OutQueue::new();
        let mut w = Dribble {
            data: Vec::new(),
            cap: 1000,
        };
        let mut expect = Vec::new();
        for i in 0..2000u32 {
            let chunk = [b'a' + (i % 26) as u8; 100];
            q.extend_from_slice(&chunk);
            q.push_body(&Body::from_static(b"-"));
            expect.extend_from_slice(&chunk);
            expect.push(b'-');
            // Never let the queue empty: the buffer must still stay
            // bounded by compaction.
            while q.len() > 500 {
                q.write_to(&mut w).unwrap();
            }
            assert!(q.bytes.len() <= 2 * COMPACT_AT + 200, "{}", q.bytes.len());
        }
        drain(&mut q, &mut w);
        assert_eq!(w.data, expect);
        q.extend_from_slice(b"x");
        q.clear();
        assert!(q.is_empty());
    }
}
