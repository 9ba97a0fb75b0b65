//! The timing relay of the traced run: a store-and-forward hop between
//! the proxy and the origin. It frames each request and response with
//! `httpwire`, forwards the exact bytes it read, and records one
//! `upstream.exchange` span per exchange. A bounded sample of the
//! messages is kept for the per-layer timed calls.

use piggyback_httpwire::{Request, Response};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Messages kept for the timed calls.
const CAPTURE_CAP: usize = 2048;

/// One relayed exchange, timed from the first request byte read to the
/// last response byte written back.
pub struct Exchange {
    pub path: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub status: u16,
}

/// A captured request/response pair, raw bytes as they crossed the hop.
pub struct Captured {
    pub request: Vec<u8>,
    pub response: Vec<u8>,
}

/// A `BufRead` adapter that records every byte its caller consumes, so a
/// message parsed through it can be forwarded verbatim.
struct Tee<R> {
    inner: R,
    seen: Vec<u8>,
}

impl<R: BufRead> Read for Tee<R> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let avail = self.inner.fill_buf()?;
        let n = avail.len().min(out.len());
        out[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl<R: BufRead> BufRead for Tee<R> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        self.inner.fill_buf()
    }

    fn consume(&mut self, n: usize) {
        if n > 0 {
            if let Ok(buf) = self.inner.fill_buf() {
                self.seen.extend_from_slice(&buf[..n]);
            }
        }
        self.inner.consume(n);
    }
}

/// Each relayed connection's client socket (to shut it at the end) and
/// the thread that relays it.
type Registry = Arc<Mutex<Vec<(TcpStream, JoinHandle<Vec<Exchange>>)>>>;

/// What a relay recorded: its spans and the messages it captured.
pub type Recorded = (Vec<Exchange>, Vec<Captured>);

pub struct Relay {
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Registry,
    captures: Arc<Mutex<Vec<Captured>>>,
}

impl Relay {
    pub fn start(origin: SocketAddr, epoch: Instant) -> io::Result<Relay> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Registry = Default::default();
        let captures: Arc<Mutex<Vec<Captured>>> = Default::default();
        let (stop2, conns2, caps2) = (stop.clone(), conns.clone(), captures.clone());
        let accept = std::thread::Builder::new()
            .name("relay-accept".into())
            .spawn(move || {
                for (i, client) in listener.incoming().enumerate() {
                    if stop2.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(client) = client else { continue };
                    let Ok(handle) = client.try_clone() else {
                        continue;
                    };
                    let caps = caps2.clone();
                    let worker = std::thread::Builder::new()
                        .name(format!("relay-conn-{i}"))
                        .spawn(move || relay_conn(client, origin, epoch, &caps))
                        .expect("spawn relay thread");
                    conns2
                        .lock()
                        .expect("relay registry")
                        .push((handle, worker));
                }
            })?;
        Ok(Relay {
            addr,
            stop,
            accept: Some(accept),
            conns,
            captures,
        })
    }

    /// Stop accepting, close every relayed connection, join the threads
    /// and return the spans and captured messages.
    pub fn finish(mut self) -> Recorded {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept loop so it sees the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(a) = self.accept.take() {
            a.join().expect("relay accept thread panicked");
        }
        let conns = std::mem::take(&mut *self.conns.lock().expect("relay registry"));
        let mut spans = Vec::new();
        for (sock, worker) in conns {
            let _ = sock.shutdown(Shutdown::Both);
            spans.extend(worker.join().expect("relay thread panicked"));
        }
        let caps = std::mem::take(&mut *self.captures.lock().expect("capture store"));
        (spans, caps)
    }
}

fn relay_conn(
    client: TcpStream,
    origin: SocketAddr,
    epoch: Instant,
    caps: &Mutex<Vec<Captured>>,
) -> Vec<Exchange> {
    let mut spans = Vec::new();
    let Ok(mut client_w) = client.try_clone() else {
        return spans;
    };
    let mut from_client = Tee {
        inner: BufReader::new(client),
        seen: Vec::new(),
    };
    let mut upstream: Option<(Tee<BufReader<TcpStream>>, TcpStream)> = None;
    loop {
        // Wait for the next request without timing the idle gap.
        match from_client.fill_buf() {
            Ok([]) | Err(_) => return spans,
            Ok(_) => {}
        }
        let start = Instant::now();
        let Ok(req) = Request::read(&mut from_client) else {
            return spans;
        };
        let request = std::mem::take(&mut from_client.seen);
        if upstream.is_none() {
            let Ok(s) = TcpStream::connect(origin) else {
                return spans;
            };
            let _ = s.set_nodelay(true);
            let Ok(w) = s.try_clone() else { return spans };
            upstream = Some((
                Tee {
                    inner: BufReader::new(s),
                    seen: Vec::new(),
                },
                w,
            ));
        }
        let (up_r, up_w) = upstream.as_mut().expect("connected above");
        if up_w.write_all(&request).is_err() {
            return spans;
        }
        let Ok(resp) = Response::read(up_r, req.method == "HEAD") else {
            return spans;
        };
        let response = std::mem::take(&mut up_r.seen);
        if client_w.write_all(&response).is_err() {
            return spans;
        }
        let end = Instant::now();
        if !resp.keep_alive() {
            upstream = None;
        }
        spans.push(Exchange {
            path: req.target.clone(),
            start_ns: (start - epoch).as_nanos() as u64,
            end_ns: (end - epoch).as_nanos() as u64,
            status: resp.status,
        });
        let mut c = caps.lock().expect("capture store");
        if c.len() < CAPTURE_CAP {
            c.push(Captured { request, response });
        }
    }
}
