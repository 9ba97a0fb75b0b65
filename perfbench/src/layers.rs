//! Per-layer probes of the traced run: direct origin requests, timed calls
//! into `httpwire`, `core` and `webcache` on inputs captured from the run,
//! and the loopback floor the machine sets.

use crate::conn::Conn;
use crate::relay::Captured;
use crate::sys::quantile;
use crate::Metrics;
use piggyback_core::filter::{ProxyFilter, PIGGY_FILTER_HEADER};
use piggyback_core::table::ResourceTable;
use piggyback_core::types::{ResourceId, Timestamp};
use piggyback_core::wire::{
    decode_p_volume, encode_p_volume, intern_wire_piggyback, P_VOLUME_HEADER,
};
use piggyback_httpwire::{ConnScratch, Request, Response};
use piggyback_webcache::{CacheEntry, PolicyKind, ShardedCache};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Direct probes sent per kind (GET, If-Modified-Since).
const PROBES: usize = 300;
/// Batches per timed call; the reported time is their median.
const BATCHES: usize = 7;
/// Wall time the loopback floor runs for.
const FLOOR_SECS: f64 = 1.0;

fn is_admin(req: &Request) -> bool {
    req.target.starts_with("/_pb/") || req.target.starts_with("/__pb/")
}

/// Replay captured GETs and If-Modified-Since requests straight to the
/// origin, bypassing proxy and relay, one at a time on one connection.
/// When the run captured no conditional requests (a hit-only run), each
/// captured GET is turned into one carrying its response's Last-Modified.
/// Returns the median GET and IMS round trip, in µs.
pub fn origin_probes(origin: SocketAddr, caps: &[Captured]) -> (f64, f64) {
    let mut gets = Vec::new();
    let mut ims = Vec::new();
    let mut derived = Vec::new();
    for c in caps {
        let Ok(req) = Request::read(&mut c.request.as_slice()) else {
            continue;
        };
        if is_admin(&req) {
            continue;
        }
        if req.headers.get("If-Modified-Since").is_some() {
            ims.push(c.request.clone());
            continue;
        }
        gets.push(c.request.clone());
        let lm = Response::read(&mut c.response.as_slice(), false)
            .ok()
            .and_then(|r| r.headers.get("Last-Modified").map(str::to_owned));
        if let (Some(lm), Some(head)) = (lm, c.request.strip_suffix(b"\r\n")) {
            let mut r = head.to_vec();
            r.extend_from_slice(format!("If-Modified-Since: {lm}\r\n\r\n").as_bytes());
            derived.push(r);
        }
    }
    if ims.is_empty() {
        ims = derived;
    }
    (probe(origin, &gets), probe(origin, &ims))
}

fn probe(origin: SocketAddr, reqs: &[Vec<u8>]) -> f64 {
    let Ok(stream) = TcpStream::connect(origin) else {
        return 0.0;
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let Ok(mut w) = stream.try_clone() else {
        return 0.0;
    };
    let mut r = BufReader::new(stream);
    let mut us = Vec::new();
    for req in reqs.iter().take(PROBES) {
        let t = Instant::now();
        if w.write_all(req).is_err() || Response::read(&mut r, false).is_err() {
            break;
        }
        us.push(t.elapsed().as_nanos() as f64 / 1000.0);
    }
    quantile(&mut us, 0.5)
}

/// Median over batches of the ns one call of `f` takes on each of
/// `inputs`.
fn time_per_call<T>(inputs: &[T], mut f: impl FnMut(&T)) -> f64 {
    if inputs.is_empty() {
        return 0.0;
    }
    // Enough repetitions that a batch runs for about a millisecond.
    let t = Instant::now();
    for x in inputs {
        f(x);
    }
    let once = t.elapsed().as_nanos().max(1) as f64;
    let reps = ((1e6 / once).ceil() as usize).clamp(1, 1000);
    let mut per = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..reps {
            for x in inputs {
                f(x);
            }
        }
        per.push(t.elapsed().as_nanos() as f64 / (reps * inputs.len()) as f64);
    }
    quantile(&mut per, 0.5)
}

/// Time the wire and piggyback codecs on the run's captured messages:
/// request parse, chunked-with-trailer response parse and response write
/// (`httpwire`), `Piggy-filter` parse and `P-volume` decode/encode (`core`).
pub fn timed_calls(caps: &[Captured], m: &mut Metrics) {
    let mut requests: Vec<&[u8]> = Vec::new();
    let mut filters: Vec<String> = Vec::new();
    let mut chunked: Vec<&[u8]> = Vec::new();
    let mut parsed: Vec<Response> = Vec::new();
    let mut pvolumes: Vec<String> = Vec::new();
    for c in caps {
        if let Ok(req) = Request::read(&mut c.request.as_slice()) {
            requests.push(&c.request);
            if let Some(f) = req.headers.get(PIGGY_FILTER_HEADER) {
                filters.push(f.to_owned());
            }
        }
        if let Ok(resp) = Response::read(&mut c.response.as_slice(), false) {
            let pv = resp
                .trailers
                .get(P_VOLUME_HEADER)
                .or_else(|| resp.headers.get(P_VOLUME_HEADER));
            if let Some(pv) = pv {
                pvolumes.push(pv.to_owned());
            }
            if resp.trailers.get(P_VOLUME_HEADER).is_some() {
                chunked.push(&c.response);
            }
            parsed.push(resp);
        }
    }
    let mut scratch = ConnScratch::new();
    let mut req = Request::empty();
    m.set(
        "httpwire.req_parse_ns",
        time_per_call(&requests, |b| {
            let _ = black_box(req.read_into(&mut black_box(*b), &mut scratch));
        }),
    );
    m.set(
        "httpwire.resp_parse_ns",
        time_per_call(&chunked, |b| {
            let _ = black_box(Response::read(&mut black_box(*b), false));
        }),
    );
    let mut out = Vec::with_capacity(1 << 20);
    m.set(
        "httpwire.resp_write_ns",
        time_per_call(&parsed, |r| {
            out.clear();
            let _ = black_box(r.write_with(&mut out, &mut scratch));
        }),
    );
    filter_parse(&filters, m);
    m.set(
        "core.pvolume_decode_ns",
        time_per_call(&pvolumes, |v| {
            let _ = black_box(decode_p_volume(black_box(v)));
        }),
    );
    let mut table = ResourceTable::new();
    let msgs: Vec<_> = pvolumes
        .iter()
        .filter_map(|v| decode_p_volume(v).ok())
        .map(|w| intern_wire_piggyback(&w, &mut table))
        .collect();
    m.set(
        "core.pvolume_encode_ns",
        time_per_call(&msgs, |msg| {
            let _ = black_box(encode_p_volume(black_box(msg), &table));
        }),
    );
}

/// Time `Piggy-filter` header parsing on `filters`.
fn filter_parse(filters: &[String], m: &mut Metrics) {
    m.set(
        "core.filter_parse_ns",
        time_per_call(filters, |f| {
            let _ = black_box(ProxyFilter::parse(black_box(f)));
        }),
    );
}

/// Time `ShardedCache` insert, lookup and freshen on the run's own key
/// sequence (the resources requested, in order), shaped like the proxy's
/// cache: 32 MiB, 8 shards, LRU.
pub fn cache_ops(keys: &[u32], m: &mut Metrics) {
    if keys.is_empty() {
        return;
    }
    let mut distinct = keys.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let entry = |t: u64| CacheEntry {
        size: 4096,
        last_modified: Timestamp::ZERO,
        expires: Timestamp::from_millis(t),
        prefetched: false,
        used: false,
    };
    let now = Timestamp::from_millis(1);
    let fresh_cache = || ShardedCache::new(32 << 20, 8, PolicyKind::Lru);
    let mut inserts = Vec::new();
    for _ in 0..BATCHES {
        let cache = fresh_cache();
        let t = Instant::now();
        for &k in &distinct {
            black_box(cache.insert(ResourceId(k), entry(1_000_000), now));
        }
        inserts.push(t.elapsed().as_nanos() as f64 / distinct.len() as f64);
    }
    m.set("webcache.insert_ns", quantile(&mut inserts, 0.5));
    let cache = fresh_cache();
    for &k in &distinct {
        cache.insert(ResourceId(k), entry(1_000_000), now);
    }
    let sample = &keys[..keys.len().min(200_000)];
    let mut lookups = Vec::new();
    let mut freshens = Vec::new();
    for b in 0..BATCHES {
        let t = Instant::now();
        for &k in sample {
            black_box(cache.lookup(ResourceId(k), now));
        }
        lookups.push(t.elapsed().as_nanos() as f64 / sample.len() as f64);
        let t = Instant::now();
        for &k in sample {
            black_box(cache.freshen(ResourceId(k), Timestamp::from_millis(2_000_000 + b as u64)));
        }
        freshens.push(t.elapsed().as_nanos() as f64 / sample.len() as f64);
    }
    m.set("webcache.lookup_ns", quantile(&mut lookups, 0.5));
    m.set("webcache.freshen_ns", quantile(&mut freshens, 0.5));
}

/// The speed-of-light responder: the same loopback socket setup, answering
/// each request with one write of a canned response carrying `body_len`
/// bytes, driven by a closed loop over two connections. Returns
/// (requests/s, median µs).
pub fn loopback_floor(body_len: usize) -> Result<(f64, f64), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("floor bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("floor addr: {e}"))?;
    let mut canned = format!(
        "HTTP/1.1 200 OK\r\nLast-Modified: Thu, 01 Jan 1998 00:00:00 GMT\r\nX-Cache: HIT\r\nContent-Length: {body_len}\r\n\r\n"
    )
    .into_bytes();
    canned.resize(canned.len() + body_len, b'x');
    let canned = std::sync::Arc::new(canned);
    let deadline = Instant::now() + Duration::from_secs_f64(FLOOR_SECS);
    std::thread::scope(|scope| -> Result<(f64, f64), String> {
        let mut clients = Vec::new();
        for i in 0..2 {
            let conn = Conn::connect(addr).map_err(|e| format!("floor connect: {e}"))?;
            let (server, _) = listener
                .accept()
                .map_err(|e| format!("floor accept: {e}"))?;
            let canned = std::sync::Arc::clone(&canned);
            std::thread::Builder::new()
                .name(format!("floor-serve-{i}"))
                .spawn_scoped(scope, move || serve_canned(server, &canned))
                .map_err(|e| format!("spawn: {e}"))?;
            let client = std::thread::Builder::new()
                .name(format!("floor-client-{i}"))
                .spawn_scoped(scope, move || {
                    let mut conn = conn;
                    let mut lat = Vec::new();
                    let req = b"GET /floor HTTP/1.1\r\nHost: bench\r\n\r\n";
                    while Instant::now() < deadline {
                        let t = Instant::now();
                        if conn.send(req).is_err() || conn.read_response().is_err() {
                            break;
                        }
                        lat.push(t.elapsed().as_nanos() as f64 / 1000.0);
                    }
                    lat
                })
                .map_err(|e| format!("spawn: {e}"))?;
            clients.push(client);
        }
        let t = Instant::now();
        let mut lat = Vec::new();
        for c in clients {
            // Dropping the client's connection ends its server thread.
            lat.extend(c.join().map_err(|_| "floor client panicked".to_owned())?);
        }
        let rps = lat.len() as f64 / t.elapsed().as_secs_f64();
        Ok((rps, quantile(&mut lat, 0.5)))
    })
}

fn serve_canned(stream: TcpStream, canned: &[u8]) {
    let _ = stream.set_nodelay(true);
    let Ok(mut w) = stream.try_clone() else {
        return;
    };
    let mut r = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        // Read one request head: lines up to the blank one.
        loop {
            line.clear();
            match r.read_until(b'\n', &mut line) {
                Ok(0) | Err(_) => return,
                Ok(_) if line == b"\r\n" => break,
                Ok(_) => {}
            }
        }
        if w.write_all(canned).is_err() {
            return;
        }
    }
}
