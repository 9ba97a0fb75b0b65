//! A caching proxy that speaks the piggyback protocol upstream.
//!
//! The proxy half of Section 2.1: client requests are served from a
//! byte-bounded cache with a freshness interval Δ; misses and expired
//! entries go upstream with a `Piggy-filter` header (including the RPV
//! list) and `TE: chunked`; `P-volume` piggybacks in the response trailer
//! freshen or invalidate cached entries.
//!
//! ## Concurrency model
//!
//! Proxy state is split into independently locked pieces so parallel
//! requests only contend when they touch the same resource shard:
//!
//! * the cache is an N-way [`ShardedCache`] keyed by resource hash, with
//!   the body store co-sharded by the same hash;
//! * the resource table sits behind a read/write lock (lookups are reads);
//! * statistics are lock-free atomics ([`AtomicProxyStats`]);
//! * RPV state is per client source (an [`RpvTable`] keyed by peer
//!   address), so concurrent sources keep independent lists;
//! * upstream fetches check keep-alive connections out of a bounded,
//!   health-checked [`ConnectionPool`] instead of reconnecting per fetch.
//!
//! ## Two engines, one settlement
//!
//! The threaded engine runs each upstream exchange blocking on the
//! connection's worker; the reactor drives it as a nonblocking
//! [`UpstreamPlan`](crate::reactor::UpstreamPlan) on its epoll loop. The
//! engines differ only in how bytes move. What an upstream result does to
//! the cache, table, counters, histograms, piggyback state and client
//! reply lives once, in the `settle*` functions below, and both engines
//! call them: [`settle`] and [`settle_refetch`] for buffered responses,
//! [`settle_streamed_miss`] and [`settle_prefix_hit`] for relays,
//! [`serve_speculation`] for a landed prefetch. Requests are serialized
//! by [`write_upstream_request`] into the connection's reused buffer,
//! cached bodies go out through [`write_cached`] (a hit, a validated copy
//! and a stored miss alike: the head in scratch, the body by reference),
//! and relay heads by [`write_stream_head`] and [`write_prefix_head`],
//! again once for both engines. Upstream responses are parsed into a
//! reused [`Response`] in both engines.

use crate::client::{ConnectionPool, PoolStats, PooledConn};
use crate::obs::{render_histogram, render_scalar, LatencyHistogram, ProxyObs};
use crate::origin::strip_origin_form;
use crate::prefetch::{self, Prefetcher, PIGGY_PUSH_HEADER, PUSH_COUNT_HEADER};
use crate::stats::AtomicProxyStats;
pub use crate::stats::ProxyStats;
use crate::util::{serve_with_stats, Clock, IoMode, IoStats, ServeOptions, ServerHandle};
use parking_lot::{Mutex, RwLock};
use piggyback_core::datetime::{
    parse_rfc1123, timestamp_from_unix, unix_from_timestamp, Rfc1123, DEFAULT_TRACE_EPOCH_UNIX,
};
use piggyback_core::filter::{ProxyFilter, PIGGY_FILTER_HEADER};
use piggyback_core::proxy::{classify_element, ElementAction};
use piggyback_core::report::{HitReporter, PIGGY_REPORT_HEADER};
use piggyback_core::rpv::RpvTable;
use piggyback_core::table::ResourceTable;
use piggyback_core::types::{DurationMs, ResourceId, Timestamp, VolumeId};
use piggyback_core::wire::{decode_p_volume, P_VOLUME_HEADER};
use piggyback_httpwire::{
    encode_stream_head, push_decimal, push_header, write_all_parts, Body, BodyReader, BodySink,
    BodyWriter, ConnScratch, HeaderMap, HttpError, OutQueue, Request, Response, StreamFraming,
};
use piggyback_webcache::{CacheEntry, PolicyKind, ShardedBodyStore, ShardedCache};
use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Admin path the proxy answers locally (never forwarded upstream).
pub const METRICS_PATH: &str = "/__pb/metrics";

/// How many client sources the per-source RPV table tracks before
/// evicting the stalest.
const RPV_MAX_SOURCES: usize = 256;

/// Proxy configuration.
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    /// 0 picks an ephemeral port.
    pub port: u16,
    pub origin: SocketAddr,
    pub capacity_bytes: u64,
    /// The freshness interval Δ.
    pub freshness: DurationMs,
    /// Content-oriented filter template sent upstream.
    pub filter: ProxyFilter,
    /// RPV list bounds (length, timeout); `None` disables RPV.
    pub rpv: Option<(usize, DurationMs)>,
    pub policy: PolicyKind,
    /// Report cache-served accesses upstream via `Piggy-report`
    /// (Section 5 extension).
    pub report_hits: bool,
    /// Cache/body shard count (clamped to at least 1).
    pub shards: usize,
    /// Idle origin connections the pool retains.
    pub pool_max_idle: usize,
    /// Accept-loop worker/queue sizing. In reactor mode `serve.workers`
    /// sizes the offload pool (blocking upstream exchanges) instead.
    pub serve: ServeOptions,
    /// Serve the Prometheus admin endpoint `GET /__pb/metrics`
    /// (`pb-proxy --no-metrics` disables it; disabled scrapes get a local
    /// 404, never a proxied fetch).
    pub metrics: bool,
    /// Client-side I/O engine. [`IoMode::Reactor`] (Linux only; silently
    /// falls back to `Threaded` elsewhere) multiplexes connections on an
    /// epoll readiness loop instead of pinning a worker thread each. Both
    /// engines share the serializers, so their wire bytes are identical.
    pub io: IoMode,
    /// Reactor-mode idle/read deadline for client connections.
    pub reactor_idle_timeout: std::time::Duration,
    /// Reactor-mode per-attempt deadline for a nonblocking upstream
    /// exchange (`--upstream-timeout-secs`); a stalled origin leg is
    /// killed when it fires (retried once, then 502). Also the idle
    /// reaping horizon for parked upstream connections.
    pub upstream_timeout: std::time::Duration,
    /// Maximum concurrent speculative fetches acting on piggybacked
    /// `PrefetchCandidate` elements; 0 disables the prefetcher (the seed
    /// behavior: candidates are only counted).
    pub prefetch_budget: usize,
    /// Send `Piggy-push: accept` upstream and cache full volume-member
    /// responses a `--push` origin streams after the main response (the
    /// server-push baseline the paper's Section 5 compares against).
    pub accept_push: bool,
    /// Response bodies at or above this many bytes take the streaming
    /// cut-through path on a miss: relayed to the client in bounded
    /// segments as they arrive from the origin, never materialized or
    /// cached whole. 0 disables streaming (every miss buffers, the seed
    /// behavior).
    pub stream_threshold: usize,
    /// Leading bytes of each streamed object teed into the body store as
    /// a [`Body::prefix`] entry, so a repeat request serves the head at
    /// cache-hit latency while only the suffix streams from the origin.
    /// 0 disables prefix caching.
    pub prefix_bytes: usize,
    /// Largest client request body accepted; beyond it the proxy answers
    /// `413 Payload Too Large` instead of buffering without bound.
    pub client_body_cap: usize,
}

impl ProxyConfig {
    pub fn new(origin: SocketAddr) -> Self {
        ProxyConfig {
            port: 0,
            origin,
            capacity_bytes: 32 * 1024 * 1024,
            freshness: DurationMs::from_secs(60),
            filter: ProxyFilter::builder().max_piggy(10).build(),
            rpv: Some((16, DurationMs::from_secs(30))),
            policy: PolicyKind::Lru,
            report_hits: true,
            shards: 8,
            pool_max_idle: 32,
            serve: ServeOptions::default(),
            metrics: true,
            io: IoMode::default(),
            reactor_idle_timeout: std::time::Duration::from_secs(120),
            upstream_timeout: std::time::Duration::from_secs(30),
            prefetch_budget: 0,
            accept_push: false,
            stream_threshold: 256 * 1024,
            prefix_bytes: 64 * 1024,
            client_body_cap: piggyback_httpwire::parse::MAX_BODY,
        }
    }
}

/// Shared proxy state; every piece locks independently (or not at all).
/// `pub(crate)` because the prefetch workers ([`crate::prefetch`]) operate
/// on the same cache/table/pool/stats the request path does.
pub(crate) struct ProxyShared {
    pub(crate) cfg: ProxyConfig,
    pub(crate) clock: Clock,
    /// Path ↔ id mapping. Grows monotonically (ids are never removed), so
    /// lookups take the read lock and only first-registrations write.
    pub(crate) table: RwLock<ResourceTable>,
    pub(crate) cache: ShardedCache,
    /// Cached bodies as shared [`Body`]s, co-sharded with `cache` via the
    /// same hash so shard i of the cache and shard i of the bodies cover
    /// the same resources. A hit clones the `Body` (a refcount bump) —
    /// the stored bytes are never copied again after the retain-time copy.
    pub(crate) bodies: ShardedBodyStore,
    /// Per-source RPV lists keyed by client peer address, with each
    /// source's rendered `Piggy-filter` value.
    rpv: Option<Mutex<RpvState>>,
    /// The `Piggy-filter` value when RPV is off: the template, rendered
    /// once.
    filter_value: Arc<str>,
    reporter: Mutex<HitReporter>,
    pub(crate) stats: AtomicProxyStats,
    /// Latency histograms + piggyback-overhead accounting (lock-free).
    obs: ProxyObs,
    /// Keep-alive origin pool for blocking exchanges (the threaded
    /// engine, the reactor's offload pool, threaded-mode prefetch).
    pub(crate) pool: ConnectionPool,
    /// The speculative fetch engine (`--prefetch-budget > 0`).
    /// `OnceLock` because it is started after the `Arc` is built — the
    /// workers hold a `Weak` back-reference.
    prefetcher: OnceLock<Arc<Prefetcher>>,
    /// Accept-side counters (both I/O modes), exported at the scrape.
    io_stats: Arc<IoStats>,
    /// Per-reactor-shard gauges when running in reactor mode.
    #[cfg(target_os = "linux")]
    reactor_metrics: Option<Arc<crate::reactor::ReactorMetrics>>,
    /// Injects detached upstream exchanges (speculative prefetch GETs)
    /// into the reactor shards, so speculation rides the same nonblocking
    /// upstream legs as demand misses. Set once the reactor is up;
    /// unset in threaded mode (the prefetcher then blocks on the pool).
    #[cfg(target_os = "linux")]
    pub(crate) upstream_submit: OnceLock<crate::reactor::ReactorSubmitter>,
}

/// RPV lists plus, per source, the `Piggy-filter` value last rendered
/// for it and the id list it was rendered from.
struct RpvState {
    table: RpvTable<SocketAddr>,
    rendered: HashMap<SocketAddr, (Vec<VolumeId>, Arc<str>)>,
    /// Scratch for the current id list.
    ids: Vec<VolumeId>,
}

impl ProxyShared {
    /// The `Piggy-filter` value to send upstream, with this source's RPV
    /// ids attached. Rendered again only when the source's list changed;
    /// otherwise the last rendering is shared (a refcount bump).
    fn filter_for(&self, source: SocketAddr, now: Timestamp) -> Arc<str> {
        let Some(rpv) = &self.rpv else {
            return Arc::clone(&self.filter_value);
        };
        let mut st = rpv.lock();
        let RpvState {
            table,
            rendered,
            ids,
        } = &mut *st;
        match table.list_mut(&source) {
            Some(list) => list.write_ids(now, ids),
            None => ids.clear(),
        }
        if let Some((last, value)) = rendered.get(&source) {
            if last == ids {
                return Arc::clone(value);
            }
        }
        let mut filter = self.cfg.filter.clone();
        filter.rpv.clone_from(ids);
        let value: Arc<str> = filter.to_header_value().into();
        // Bounded like the RPV table itself.
        if rendered.len() >= RPV_MAX_SOURCES && !rendered.contains_key(&source) {
            rendered.clear();
        }
        rendered.insert(source, (ids.clone(), Arc::clone(&value)));
        value
    }
}

/// A running proxy.
pub struct ProxyHandle {
    handle: ServerHandle,
    shared: Arc<ProxyShared>,
}

impl ProxyHandle {
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr
    }

    pub fn stats(&self) -> ProxyStats {
        self.shared.stats.snapshot()
    }

    /// Origin-pool counters. Always `Some`; the `Option` keeps callers
    /// written against proxies without a pool compiling.
    pub fn pool_stats(&self) -> Option<PoolStats> {
        Some(self.shared.pool.stats())
    }

    /// Latency/piggyback-overhead histograms (lock-free snapshots).
    pub fn obs(&self) -> &ProxyObs {
        &self.shared.obs
    }

    /// Accept-side counters: accepts, open connections, accept backoffs.
    pub fn io_stats(&self) -> &Arc<IoStats> {
        &self.shared.io_stats
    }

    pub fn stop(self) {
        // Drain the speculative fetchers first so no prefetch worker is
        // mid-exchange while the listener tears down.
        if let Some(p) = self.shared.prefetcher.get() {
            p.shutdown();
        }
        self.handle.stop();
    }
}

/// Start the proxy.
pub fn start_proxy(cfg: ProxyConfig) -> io::Result<ProxyHandle> {
    let shards = cfg.shards.max(1);
    let io_stats = Arc::new(IoStats::default());
    #[cfg(target_os = "linux")]
    let reactor_metrics = match cfg.io {
        IoMode::Reactor { reactors } => Some(Arc::new(crate::reactor::ReactorMetrics::new(
            crate::reactor::resolve_reactors(reactors),
        ))),
        IoMode::Threaded => None,
    };
    let shared = Arc::new(ProxyShared {
        clock: Clock::new(),
        table: RwLock::new(ResourceTable::new()),
        cache: ShardedCache::new(cfg.capacity_bytes, shards, cfg.policy),
        // Prefix heads live under their own byte economy: an eighth of
        // the metadata cache's capacity, split per shard, retained by
        // recency (hits and piggybacked volume mentions both refresh).
        bodies: ShardedBodyStore::with_prefix_budget(shards, cfg.capacity_bytes / 8),
        rpv: cfg.rpv.map(|(len, t)| {
            Mutex::new(RpvState {
                table: RpvTable::new(RPV_MAX_SOURCES, len, t),
                rendered: HashMap::new(),
                ids: Vec::new(),
            })
        }),
        filter_value: cfg.filter.to_header_value().into(),
        reporter: Mutex::new(HitReporter::new()),
        stats: AtomicProxyStats::new(),
        obs: ProxyObs::default(),
        pool: ConnectionPool::new(cfg.origin, cfg.pool_max_idle),
        prefetcher: OnceLock::new(),
        io_stats: Arc::clone(&io_stats),
        #[cfg(target_os = "linux")]
        reactor_metrics: reactor_metrics.clone(),
        #[cfg(target_os = "linux")]
        upstream_submit: OnceLock::new(),
        cfg,
    });
    if shared.cfg.prefetch_budget > 0 {
        let p = Prefetcher::start(shared.cfg.prefetch_budget, Arc::downgrade(&shared));
        let _ = shared.prefetcher.set(Arc::new(p));
    }
    #[cfg(target_os = "linux")]
    if let Some(metrics) = reactor_metrics {
        let opts = crate::reactor::ReactorOptions {
            offload_workers: shared.cfg.serve.workers.max(1),
            idle_timeout: shared.cfg.reactor_idle_timeout,
            upstream_timeout: shared.cfg.upstream_timeout,
            // The same retention knob as the threaded pool, so
            // `pool_max_idle: 0` forbids upstream keep-alives in both
            // I/O modes (per reactor shard here, globally there).
            upstream_max_idle: shared.cfg.pool_max_idle,
        };
        let svc = Arc::new(ProxySvc {
            shared: Arc::clone(&shared),
        });
        let handle =
            crate::reactor::serve_reactor(shared.cfg.port, "proxy", opts, io_stats, metrics, svc)?;
        // Speculative prefetch GETs ride the reactor's nonblocking
        // upstream legs instead of blocking a worker on the pool.
        if let Some(sub) = handle.reactor_submitter() {
            let _ = shared.upstream_submit.set(sub);
        }
        return Ok(ProxyHandle { handle, shared });
    }
    let shared2 = Arc::clone(&shared);
    let handle = serve_with_stats(
        shared.cfg.port,
        "proxy",
        shared.cfg.serve,
        io_stats,
        move |stream| {
            let _ = handle_connection(stream, &shared2);
        },
    )?;
    Ok(ProxyHandle { handle, shared })
}

/// The proxy as a [`ReactorService`](crate::reactor::ReactorService):
/// cache hits, metrics, and synthesized errors serialize inline on the
/// reactor thread; upstream fetches become nonblocking
/// [`UpstreamPlan`](crate::reactor::UpstreamPlan)s driven on the same
/// epoll loop — no offload-pool hop. The offload pool survives only for
/// genuinely blocking work: `--accept-push` (which drains pushed
/// responses synchronously off the origin stream) and demand requests
/// that must park to join an in-flight speculative fetch.
#[cfg(target_os = "linux")]
struct ProxySvc {
    shared: Arc<ProxyShared>,
}

/// A reactor shard's lock-free affine L1: the last fresh hits this shard
/// served, revalidated by the cache's global
/// [`mutation_epoch`](piggyback_webcache::ShardedCache::mutation_epoch)
/// so a repeat hit costs zero shard-lock acquisitions while the cache is
/// quiescent. An entry is serveable only while (a) the mutation epoch
/// still equals the epoch certified around the locked lookup that filled
/// it, and (b) the entry is still fresh by the shared clock. Any cache
/// mutation anywhere invalidates the whole L1 — conservative, but what
/// makes the shortcut correct without per-entry coherence.
///
/// Accepted divergence from the locked path: an L1 hit does not touch
/// LRU recency (the filling lookup already did, and eviction order is
/// not part of the wire contract). Wire bytes are identical.
#[cfg(target_os = "linux")]
pub(crate) struct ProxyCtx {
    l1: std::collections::HashMap<String, L1Hit>,
}

#[cfg(target_os = "linux")]
struct L1Hit {
    body: Body,
    lm: Timestamp,
    expires: Timestamp,
    epoch: u64,
}

/// Paths the affine L1 retains before clearing itself wholesale — a tiny
/// bound; the point is repeat hits on a shard's hot set, not a second
/// cache tier.
#[cfg(target_os = "linux")]
const L1_CAP: usize = 1024;

#[cfg(target_os = "linux")]
impl crate::reactor::ReactorService for ProxySvc {
    type Ctx = ProxyCtx;

    fn make_ctx(&self, _shard: usize) -> ProxyCtx {
        ProxyCtx {
            l1: std::collections::HashMap::new(),
        }
    }

    fn handle(
        &self,
        req: &Request,
        peer: SocketAddr,
        ctx: &mut ProxyCtx,
        scratch: &mut ConnScratch,
        out: &mut OutQueue,
    ) -> io::Result<crate::reactor::Served> {
        use crate::reactor::Served;
        let shared = &self.shared;
        let start = Instant::now();
        if req.method == "GET" {
            let path = strip_origin_form(&req.target);
            if path != METRICS_PATH {
                // A stale entry (mutated epoch, or expired: the locked
                // path counts the validation) is never served; it stays
                // to be refilled in place below.
                let fresh = ctx
                    .l1
                    .get(path)
                    .filter(|hit| {
                        hit.epoch == shared.cache.mutation_epoch()
                            && shared.clock.at(start) < hit.expires
                    })
                    .map(|hit| (hit.body.clone(), hit.lm));
                if let Some((body, lm)) = fresh {
                    shared.stats.requests.fetch_add(1, Relaxed);
                    shared.stats.affine_hits.fetch_add(1, Relaxed);
                    count_fresh_hit(shared, path, start);
                    write_cached(out, scratch, &body, lm, "HIT")?;
                    return Ok(Served::Inline);
                }
            }
        }
        let epoch = shared.cache.mutation_epoch();
        match plan_request(req, shared, peer, start) {
            Step::Hit { body, lm, expires } => {
                // Fill the L1 only when nothing mutated around the locked
                // lookup — then `epoch` certifies the snapshot is current.
                if shared.cache.mutation_epoch() == epoch {
                    let hit = L1Hit {
                        body: body.clone(),
                        lm,
                        expires,
                        epoch,
                    };
                    let path = strip_origin_form(&req.target);
                    // Refilling a stale entry keeps its owned key: under
                    // steady mutation (every freshen moves the epoch) a
                    // hit costs no allocation.
                    match ctx.l1.get_mut(path) {
                        Some(slot) => *slot = hit,
                        None => {
                            if ctx.l1.len() >= L1_CAP {
                                ctx.l1.clear();
                            }
                            ctx.l1.insert(path.to_owned(), hit);
                        }
                    }
                }
                write_cached(out, scratch, &body, lm, "HIT")?;
                Ok(Served::Inline)
            }
            Step::Reply(resp) => {
                out.send_response(&resp, scratch)?;
                Ok(Served::Inline)
            }
            Step::Upstream(job) => self.plan_upstream(job, scratch, out),
        }
    }
}

#[cfg(target_os = "linux")]
impl ProxySvc {
    /// Ship the whole blocking upstream leg to the offload pool.
    fn offload(&self, job: UpstreamJob) -> crate::reactor::Served {
        let shared = Arc::clone(&self.shared);
        crate::reactor::Served::Offload(Box::new(move |scratch, out| {
            serve_upstream(&shared, job, out, scratch, &mut Response::empty())
        }))
    }

    fn plan_upstream(
        &self,
        job: UpstreamJob,
        scratch: &mut ConnScratch,
        out: &mut OutQueue,
    ) -> io::Result<crate::reactor::Served> {
        use crate::reactor::Served;
        let shared = &self.shared;
        // Accept-push drains pushed responses synchronously mid-exchange,
        // so it stays on the offload pool.
        if shared.cfg.accept_push {
            return Ok(self.offload(job));
        }
        // A plain miss racing a speculative fetch of the same path:
        // cancel a still-queued job outright, serve a landed one, but
        // park (offload) to join one already on the wire — the reactor
        // thread itself must never block.
        if job.validate_lm.is_none() {
            if let Some(p) = shared.prefetcher.get() {
                match p.try_claim(shared, &job.path) {
                    prefetch::TryClaim::Fetch => {}
                    prefetch::TryClaim::InFlight => return Ok(self.offload(job)),
                    prefetch::TryClaim::Resolved => {
                        if serve_speculation(shared, &job, out, scratch)? {
                            return Ok(Served::Inline);
                        }
                    }
                }
            }
        }
        // A retained prefix serves its head right now — the reactor
        // flushes `out` even while the upstream leg is pending, so the
        // client's first byte never waits on the origin — and the suffix
        // relays in behind it.
        if streaming_eligible(shared, &job) {
            if let Some((r, head)) = prefix_entry(shared, &job.path) {
                write_prefix_head(out, head.total_len())?;
                out.push_body(&head);
                let plan = suffix_relay_plan(
                    Arc::clone(shared),
                    job,
                    r,
                    head.total_len(),
                    head.len(),
                    scratch,
                );
                return Ok(Served::Upstream(plan));
            }
        }
        Ok(Served::Upstream(first_exchange_plan(
            Arc::clone(shared),
            job,
            scratch,
        )))
    }
}

/// Wrap `leg` of `job` as a nonblocking exchange: the request from
/// [`write_upstream_request`] (into the client connection's lent request
/// buffer), the `upstream_retries` bump on a retry, and `finish` as the
/// continuation, run on the reactor thread with the job, the parked
/// client's scratch and output queue, and the outcome.
#[cfg(target_os = "linux")]
fn reactor_plan(
    shared: Arc<ProxyShared>,
    job: UpstreamJob,
    leg: Leg,
    stream: Option<crate::reactor::StreamSpec>,
    scratch: &mut ConnScratch,
    finish: impl FnOnce(
            Arc<ProxyShared>,
            UpstreamJob,
            &mut ConnScratch,
            &mut OutQueue,
            crate::reactor::UpstreamOutcome<'_>,
        ) -> io::Result<crate::reactor::UpstreamNext>
        + Send
        + 'static,
) -> crate::reactor::UpstreamPlan {
    let mut request = std::mem::take(&mut scratch.upstream);
    write_upstream_request(&shared, &job, leg, &mut request);
    let retry_shared = Arc::clone(&shared);
    crate::reactor::UpstreamPlan {
        origin: shared.cfg.origin,
        request,
        retry: Box::new(move || {
            retry_shared.stats.upstream_retries.fetch_add(1, Relaxed);
        }),
        stream,
        finish: Box::new(move |scratch, out, outcome| finish(shared, job, scratch, out, outcome)),
    }
}

/// A buffered outcome as a settlement input (`None`: the exchange failed).
#[cfg(target_os = "linux")]
fn buffered_result<'a>(outcome: crate::reactor::UpstreamOutcome<'a>) -> Option<Exchanged<'a>> {
    match outcome {
        crate::reactor::UpstreamOutcome::Response(resp) => Some((resp, &[])),
        _ => None,
    }
}

/// The nonblocking plan for a miss or validation. A streaming-eligible
/// miss carries a [`StreamSpec`](crate::reactor::StreamSpec) that engages
/// on `Content-Length`-framed 200s at or above the threshold (chunked
/// responses stay buffered here: the piggyback rides their trailers, and
/// those bodies fit the buffered exchange).
#[cfg(target_os = "linux")]
fn first_exchange_plan(
    shared: Arc<ProxyShared>,
    job: UpstreamJob,
    scratch: &mut ConnScratch,
) -> crate::reactor::UpstreamPlan {
    use crate::reactor::{StreamSpec, UpstreamNext, UpstreamOutcome};
    let stream = streaming_eligible(&shared, &job).then(|| {
        let sh = Arc::clone(&shared);
        StreamSpec {
            threshold: shared.cfg.stream_threshold,
            prefix_bytes: shared.cfg.prefix_bytes,
            skip: 0,
            expect_total: None,
            head: Box::new(move |resp, total, out: &mut OutQueue| {
                out.append_with(|out| {
                    write_stream_head(&sh, resp, StreamFraming::Length(total), out)
                })
            }),
        }
    });
    let finish = |shared: Arc<ProxyShared>,
                  job: UpstreamJob,
                  scratch: &mut ConnScratch,
                  out: &mut OutQueue,
                  outcome: UpstreamOutcome<'_>| match outcome {
        UpstreamOutcome::Streamed {
            head,
            total,
            prefix,
        } => {
            settle_streamed_miss(&shared, &job, &head, &head.trailers, total, prefix);
            Ok(UpstreamNext::Done)
        }
        // Bytes already reached the client: no 502 may follow.
        UpstreamOutcome::StreamFailed { .. } => {
            relay_abort(&shared, &job, "streaming relay failed")
        }
        outcome => match settle(&shared, &job, buffered_result(outcome)) {
            Settled::Reply(reply) => {
                reply.write_with(out, scratch)?;
                Ok(UpstreamNext::Done)
            }
            Settled::Refetch(pending) => Ok(UpstreamNext::Again(refetch_plan(
                shared, job, pending, scratch,
            ))),
        },
    };
    reactor_plan(shared, job, Leg::First, stream, scratch, finish)
}

/// The chained unconditional refetch for a 304 whose body was evicted.
#[cfg(target_os = "linux")]
fn refetch_plan(
    shared: Arc<ProxyShared>,
    job: UpstreamJob,
    pending: Pending,
    scratch: &mut ConnScratch,
) -> crate::reactor::UpstreamPlan {
    let finish = move |shared: Arc<ProxyShared>,
                       job: UpstreamJob,
                       scratch: &mut ConnScratch,
                       out: &mut OutQueue,
                       outcome: crate::reactor::UpstreamOutcome<'_>| {
        settle_refetch(&shared, &job, pending, buffered_result(outcome))
            .write_with(out, scratch)?;
        Ok(crate::reactor::UpstreamNext::Done)
    };
    reactor_plan(shared, job, Leg::Refetch, None, scratch, finish)
}

/// The plan relaying a prefix hit's suffix. The client head already went
/// out at plan time, so the relay engages silently; `expect_total` pins
/// the declared length to the recorded total, and `skip` drops the head
/// bytes the client already has.
#[cfg(target_os = "linux")]
fn suffix_relay_plan(
    shared: Arc<ProxyShared>,
    job: UpstreamJob,
    r: ResourceId,
    total: usize,
    head_len: usize,
    scratch: &mut ConnScratch,
) -> crate::reactor::UpstreamPlan {
    use crate::reactor::{StreamSpec, UpstreamNext, UpstreamOutcome};
    let stream = StreamSpec {
        threshold: 0,
        prefix_bytes: 0,
        skip: head_len,
        expect_total: Some(total),
        head: Box::new(|_resp, _total, _out| {}),
    };
    let finish = move |shared: Arc<ProxyShared>,
                       job: UpstreamJob,
                       _scratch: &mut ConnScratch,
                       _out: &mut OutQueue,
                       outcome: UpstreamOutcome<'_>| {
        let end = match outcome {
            UpstreamOutcome::Streamed { .. } => SuffixEnd::Complete,
            UpstreamOutcome::StreamFailed { mismatch: true } => SuffixEnd::Mismatch,
            // `expect_total` forces every parsed head through the relay
            // decision, so a buffered Response cannot arrive; Failed
            // (dial error, pre-engage I/O death) is terminal too — the
            // prefix head is already on the wire, no 502 may follow it.
            _ => SuffixEnd::Failed,
        };
        settle_prefix_hit(&shared, &job, r, total, end).map(|()| UpstreamNext::Done)
    };
    reactor_plan(shared, job, Leg::Suffix, Some(stream), scratch, finish)
}

fn handle_connection(stream: TcpStream, shared: &Arc<ProxyShared>) -> io::Result<()> {
    let source = stream
        .peer_addr()
        .unwrap_or_else(|_| SocketAddr::from(([0, 0, 0, 0], 0)));
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut scratch = ConnScratch::new();
    // Steady state allocates nothing per request: the request is parsed
    // into reused buffers, a hit clones the shared body (refcount bump),
    // and the response head is formatted into the scratch and emitted
    // together with the referenced body bytes in one vectored write.
    let mut req = Request::empty();
    // Upstream responses (a validation's 304) refill this one in place.
    let mut up_resp = Response::empty();
    loop {
        match req.read_into_capped(&mut reader, &mut scratch, shared.cfg.client_body_cap) {
            Ok(()) => {}
            Err(e) if e.body_too_large() => {
                // An oversized request body is the client's mistake, not
                // a dead connection: say so (413) before closing, instead
                // of silently hanging up mid-upload.
                let _ = Response::new(413).write_with(&mut writer, &mut scratch);
                return Ok(());
            }
            Err(_) => return Ok(()),
        }
        let keep = req.keep_alive();
        match plan_request(&req, shared, source, Instant::now()) {
            Step::Hit { body, lm, .. } => {
                write_cached(&mut writer, &mut scratch, &body, lm, "HIT")?
            }
            Step::Reply(resp) => resp.write_with(&mut writer, &mut scratch)?,
            Step::Upstream(job) => {
                serve_upstream(shared, job, &mut writer, &mut scratch, &mut up_resp)?
            }
        }
        if !keep {
            return Ok(());
        }
    }
}

/// The blocking upstream leg: runs on the connection's own thread in
/// threaded mode, on an offload worker in reactor mode. `job.start` spans
/// planning, any queue wait, and the exchange, so latency histograms mean
/// the same thing in both I/O modes. `up_resp` is the connection's reused
/// response for the buffered exchange.
fn serve_upstream<W: BodySink>(
    shared: &Arc<ProxyShared>,
    job: UpstreamJob,
    w: &mut W,
    scratch: &mut ConnScratch,
    up_resp: &mut Response,
) -> io::Result<()> {
    // A plain miss may be racing a speculative fetch of the same path:
    // cancel it while still queued (the demand fetch wins outright), or
    // join it once on the wire — park until the speculation lands and
    // serve its entry, so the origin sees exactly one fetch either way.
    if job.validate_lm.is_none() {
        if let Some(p) = shared.prefetcher.get() {
            if p.claim_or_join(shared, &job.path) && serve_speculation(shared, &job, w, scratch)? {
                return Ok(());
            }
        }
    }
    if streaming_eligible(shared, &job) {
        return match prefix_entry(shared, &job.path) {
            Some((r, head)) => serve_prefix_hit(shared, job, r, head, w, scratch),
            None => stream_miss(shared, job, w, scratch),
        };
    }
    let pushed = exchange_upstream(shared, &job, Leg::First, scratch, up_resp);
    let first = pushed.as_ref().map(|p| (&*up_resp, p.as_slice()));
    reply_upstream(shared, &job, first, w, scratch)
}

/// Settle a buffered result and write the reply, running the refetch a
/// body-less 304 asks for.
fn reply_upstream<W: BodySink>(
    shared: &ProxyShared,
    job: &UpstreamJob,
    result: Option<Exchanged<'_>>,
    w: &mut W,
    scratch: &mut ConnScratch,
) -> io::Result<()> {
    let reply = match settle(shared, job, result) {
        Settled::Reply(reply) => reply,
        Settled::Refetch(pending) => {
            let mut resp = Response::empty();
            let pushed = exchange_upstream(shared, job, Leg::Refetch, scratch, &mut resp);
            let second = pushed.as_ref().map(|p| (&resp, p.as_slice()));
            settle_refetch(shared, job, pending, second)
        }
    };
    reply.write_with(w, scratch)
}

/// Send the request bytes in `scratch.upstream` over a pooled origin
/// connection and read the answer with `read` (which may use the rest of
/// the scratch). A failure after the dial (a stale keep-alive, or an
/// origin that died under the first request) retries once on a fresh
/// connection, bumping `retries`.
pub(crate) fn send_upstream<T>(
    shared: &ProxyShared,
    retries: &AtomicU64,
    scratch: &mut ConnScratch,
    mut read: impl FnMut(&mut PooledConn, &mut ConnScratch) -> Result<T, HttpError>,
) -> Result<(PooledConn, T), HttpError> {
    let request = std::mem::take(&mut scratch.upstream);
    let mut sent = Err(HttpError::ConnectionClosed);
    for attempt in 0..2 {
        if attempt == 1 {
            retries.fetch_add(1, Relaxed);
        }
        let conn = if attempt == 0 {
            shared.pool.checkout()
        } else {
            shared.pool.connect_fresh()
        };
        let mut conn = match conn {
            Ok(c) => c,
            Err(e) => {
                sent = Err(e.into());
                break;
            }
        };
        sent = conn
            .writer
            .write_all(&request)
            .and_then(|()| conn.writer.flush())
            .map_err(HttpError::from)
            .and_then(|()| read(&mut conn, scratch))
            .map(|v| (conn, v));
        if sent.is_ok() {
            break;
        }
    }
    scratch.upstream = request;
    sent
}

/// One buffered upstream exchange, parsed into `resp`; returns the
/// server-pushed responses that followed (`None`: the exchange failed).
/// The connection returns to the pool only after the response — trailers
/// and any pushed responses included — was read to completion. With
/// `accept_push` the request carries `Piggy-push: accept`, and the full
/// pushed responses the origin streamed after the main one (announced by
/// its `X-Push-Count` header) come back alongside it.
fn exchange_upstream(
    shared: &ProxyShared,
    job: &UpstreamJob,
    leg: Leg,
    scratch: &mut ConnScratch,
    resp: &mut Response,
) -> Option<Vec<Response>> {
    write_upstream_request(shared, job, leg, &mut scratch.upstream);
    let (mut conn, ()) = send_upstream(shared, &shared.stats.upstream_retries, scratch, |c, s| {
        resp.read_into(&mut c.reader, s)
    })
    .ok()?;
    let announced = if shared.cfg.accept_push {
        resp.headers
            .get(PUSH_COUNT_HEADER)
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(0)
    } else {
        0
    };
    // `announced` comes from the origin: grow as responses land rather
    // than reserving for it up front.
    let mut pushed = Vec::new();
    for _ in 0..announced {
        match Response::read(&mut conn.reader, false) {
            Ok(p) => pushed.push(p),
            // Mid-push failure: keep what landed and drop the connection
            // (read position unknown) — the main exchange succeeded.
            Err(_) => return Some(pushed),
        }
    }
    shared.pool.checkin(conn);
    Some(pushed)
}

/// Decoded-payload bytes each streaming relay segment targets before the
/// bytes move downstream (the origin-side `BufReader` can top a segment
/// up by at most its own buffer). Bounds proxy memory per in-flight
/// relay: the whole body is never resident.
const STREAM_SEGMENT: usize = 16 * 1024;

/// Whether `job` may take the streaming cut-through path: plain demand
/// misses only. Validations stay buffered (a 304 needs the full-response
/// exchange), `--accept-push` drains pushed responses synchronously off
/// the origin stream mid-exchange, and an active prefetcher's claim/join
/// protocol expects every miss to materialize a cacheable body — all of
/// those keep the buffered path.
fn streaming_eligible(shared: &ProxyShared, job: &UpstreamJob) -> bool {
    shared.cfg.stream_threshold > 0
        && job.validate_lm.is_none()
        && !shared.cfg.accept_push
        && shared.prefetcher.get().is_none()
}

/// The retained prefix entry for `path`, if any.
fn prefix_entry(shared: &ProxyShared, path: &str) -> Option<(ResourceId, Body)> {
    let r = shared.table.read().lookup(path)?;
    shared.bodies.get_prefix(r).map(|b| (r, b))
}

/// Append the leading bytes of `seg` into `prefix` until it holds `want`.
fn tee_prefix(prefix: &mut Vec<u8>, want: usize, seg: &[u8]) {
    if prefix.len() < want {
        let take = (want - prefix.len()).min(seg.len());
        prefix.extend_from_slice(&seg[..take]);
    }
}

/// Serve a prefix hit: the retained head goes out immediately — no origin
/// round trip gates the client's first byte, which is the whole TTFB win —
/// then the suffix is refetched over the keep-alive pool and relayed. An
/// `Err` from here means origin-derived bytes already reached the client
/// and the transfer cannot be completed — the caller drops the
/// connection, the only honest signal left.
fn serve_prefix_hit<W: BodySink>(
    shared: &ProxyShared,
    job: UpstreamJob,
    r: ResourceId,
    head: Body,
    w: &mut W,
    scratch: &mut ConnScratch,
) -> io::Result<()> {
    let total = head.total_len();
    let head_len = head.len();
    scratch.out.clear();
    write_prefix_head(&mut scratch.out, total)?;
    write_all_parts(w, &[scratch.out.as_slice(), head.as_slice()])
        .and_then(|()| w.flush())
        .map_err(|e| client_relay_err(shared, &job, e))?;
    // Retrying is safe until origin payload bytes are relayed: only
    // request bytes and the cache-served head are out.
    write_upstream_request(shared, &job, Leg::Suffix, &mut scratch.upstream);
    let sent = send_upstream(shared, &shared.stats.upstream_retries, scratch, |c, _| {
        Response::read_head(&mut c.reader)
    });
    let Ok((mut conn, resp)) = sent else {
        return settle_prefix_hit(shared, &job, r, total, SuffixEnd::Failed);
    };
    let declared = (resp.status == 200
        && !resp.headers.list_contains("Transfer-Encoding", "chunked"))
    .then(|| piggyback_httpwire::parse::content_length(&resp.headers))
    .and_then(|cl| cl.ok().flatten());
    if declared != Some(total) {
        return settle_prefix_hit(shared, &job, r, total, SuffixEnd::Mismatch);
    }
    // Decode `total` payload bytes, drop the first `head_len` (already
    // served from cache), forward the rest as it arrives.
    let mut reader = BodyReader::length(total);
    let mut seg = Vec::new();
    let mut seen = 0usize;
    loop {
        let Ok(n) = reader.read_segment(&mut conn.reader, &mut seg, STREAM_SEGMENT) else {
            return settle_prefix_hit(shared, &job, r, total, SuffixEnd::Failed);
        };
        let skip = head_len.saturating_sub(seen).min(n);
        seen += n;
        if reader.is_done() {
            // The origin side is complete: settle before the final client
            // write, so a client holding the whole body never reads stats
            // that miss its outcome.
            shared.pool.checkin(conn);
            settle_prefix_hit(shared, &job, r, total, SuffixEnd::Complete)?;
            return w.write_all(&seg[skip..]).and_then(|()| w.flush());
        }
        w.write_all(&seg[skip..])
            .and_then(|()| w.flush())
            .map_err(|e| client_relay_err(shared, &job, e))?;
    }
}

/// A streaming-eligible miss: run the usual piggyback GET, decide from
/// the response head alone whether to cut through. Small objects and
/// non-200s fall back to the buffered settlement; large ones relay
/// segment by segment while the first `--prefix-bytes` tee into the body
/// store as a [`Body::prefix`] entry. Streamed objects are deliberately
/// never cached whole. Errors after the client head are truncations, as
/// in [`serve_prefix_hit`].
fn stream_miss<W: BodySink>(
    shared: &ProxyShared,
    job: UpstreamJob,
    w: &mut W,
    scratch: &mut ConnScratch,
) -> io::Result<()> {
    let threshold = shared.cfg.stream_threshold;
    write_upstream_request(shared, &job, Leg::First, &mut scratch.upstream);
    let sent = send_upstream(shared, &shared.stats.upstream_retries, scratch, |c, _| {
        Response::read_head(&mut c.reader)
    });
    // Until the client head goes out, every failure is a clean 502.
    let Ok((mut conn, mut resp)) = sent else {
        return reply_upstream(shared, &job, None, w, scratch);
    };
    let chunked = resp.headers.list_contains("Transfer-Encoding", "chunked");
    let declared = if chunked {
        None
    } else {
        match piggyback_httpwire::parse::content_length(&resp.headers) {
            Ok(cl) => cl,
            Err(_) => return reply_upstream(shared, &job, None, w, scratch),
        }
    };
    let large_cl = resp.status == 200 && declared.is_some_and(|n| n >= threshold);
    let chunked_200 = resp.status == 200 && chunked;
    if !large_cl && !chunked_200 {
        // Small fixed-length 200s, bodiless statuses, passthrough errors.
        if resp
            .read_rest(&mut conn.reader, piggyback_httpwire::parse::MAX_BODY)
            .is_err()
        {
            return reply_upstream(shared, &job, None, w, scratch);
        }
        shared.pool.checkin(conn);
        return reply_upstream(shared, &job, Some((&resp, &[])), w, scratch);
    }
    // A 200 whose body may be large. Fixed-length bodies know their size
    // up front; chunked ones accumulate until the threshold proves the
    // object large (or the body ends first, staying buffered).
    let mut reader = match declared {
        Some(n) => BodyReader::length(n),
        None => BodyReader::chunked(),
    };
    let mut buffered: Vec<u8> = Vec::new();
    let mut seg = Vec::new();
    if !large_cl {
        while !reader.is_done() && buffered.len() < threshold {
            match reader.read_segment(&mut conn.reader, &mut seg, STREAM_SEGMENT) {
                Ok(0) => break,
                Ok(_) => buffered.extend_from_slice(&seg),
                Err(_) => return reply_upstream(shared, &job, None, w, scratch),
            }
        }
        if reader.is_done() {
            resp.body = Body::from(buffered);
            for (n, v) in reader.trailers().iter() {
                resp.trailers.insert(n, v);
            }
            shared.pool.checkin(conn);
            return reply_upstream(shared, &job, Some((&resp, &[])), w, scratch);
        }
    }
    // Cut through, framed by what we know: `Content-Length` when the
    // origin declared one, chunked otherwise.
    let framing = match declared {
        Some(n) => StreamFraming::Length(n),
        None => StreamFraming::Chunked,
    };
    scratch.out.clear();
    write_stream_head(shared, &resp, framing, &mut scratch.out);
    let mut writer = match declared {
        Some(n) => BodyWriter::length(n),
        None => BodyWriter::chunked(),
    };
    let prefix_want = shared.cfg.prefix_bytes;
    let mut prefix = Vec::with_capacity(prefix_want.min(1 << 20));
    tee_prefix(&mut prefix, prefix_want, &buffered);
    w.write_all(&scratch.out)
        .and_then(|()| writer.push(&buffered, w))
        .and_then(|()| w.flush())
        .map_err(|e| client_relay_err(shared, &job, e))?;
    drop(buffered);
    loop {
        if reader
            .read_segment(&mut conn.reader, &mut seg, STREAM_SEGMENT)
            .is_err()
        {
            return relay_abort(shared, &job, "origin died mid-relay");
        }
        tee_prefix(&mut prefix, prefix_want, &seg);
        if reader.is_done() {
            // Origin side complete: settle, then the final client write.
            // The proxy consumes the piggyback trailer; the client gets a
            // clean end of body.
            shared.pool.checkin(conn);
            settle_streamed_miss(
                shared,
                &job,
                &resp,
                reader.trailers(),
                reader.decoded(),
                prefix,
            );
            return writer
                .push(&seg, w)
                .and_then(|()| writer.finish(&HeaderMap::new(), w))
                .and_then(|()| w.flush());
        }
        writer
            .push(&seg, w)
            .and_then(|()| w.flush())
            .map_err(|e| client_relay_err(shared, &job, e))?;
    }
}

/// A settled reply: a cached body under an `X-Cache` label, written by
/// [`write_cached`] with no `Response` built, or a full response for every
/// other outcome.
enum Reply {
    Cached {
        body: Body,
        lm: Timestamp,
        x_cache: &'static str,
    },
    Full(Response),
}

impl Reply {
    fn write_with<W: BodySink>(&self, w: &mut W, scratch: &mut ConnScratch) -> io::Result<()> {
        match self {
            Reply::Cached { body, lm, x_cache } => write_cached(w, scratch, body, *lm, x_cache),
            Reply::Full(resp) => w.send_response(resp, scratch),
        }
    }
}

/// What the lock-scoped planning phase resolved a request to: a fresh
/// cache hit (no `Response` is built, no headers are allocated), a
/// locally answered response, or a description of the upstream work
/// still owed. Splitting here lets the reactor serve replies inline and
/// carry `UpstreamJob` (self-contained: owned path and rendered filter)
/// into a continuation without borrowing the request.
enum Step {
    Hit {
        body: Body,
        lm: Timestamp,
        /// When the served entry stops being fresh (feeds the affine L1).
        expires: Timestamp,
    },
    Reply(Response),
    Upstream(UpstreamJob),
}

/// Everything an upstream leg needs, detached from the `Request`.
struct UpstreamJob {
    path: String,
    source: SocketAddr,
    validate_lm: Option<Timestamp>,
    /// The rendered `Piggy-filter` value (shared, see
    /// [`ProxyShared::filter_for`]).
    filter: Arc<str>,
    start: Instant,
}

/// Which upstream request a job sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Leg {
    /// The demand fetch or validation: piggyback filter, `TE: chunked`,
    /// the drained hit report, `If-Modified-Since` when validating.
    First,
    /// The unconditional refetch after a 304 whose body was evicted: the
    /// same filter, no report, no `If-Modified-Since`.
    Refetch,
    /// A prefix hit's suffix: a plain GET (no `TE: chunked`, no
    /// `Piggy-filter`), so the origin answers with `Content-Length`
    /// framing and no piggyback, and the declared length validates the
    /// prefix against the recorded total.
    Suffix,
}

/// Plan a request that arrived at `start`: cache consult under
/// shard-scoped locks. Never blocks on the network, so it is safe on a
/// reactor thread. The fresh-hit path is allocation-free; only a miss
/// pays for the owned `UpstreamJob`.
fn plan_request(
    req: &Request,
    shared: &Arc<ProxyShared>,
    source: SocketAddr,
    start: Instant,
) -> Step {
    if req.method != "GET" {
        return Step::Reply(Response::new(400));
    }
    let path = strip_origin_form(&req.target);
    // Admin scrape, answered before the request counter so scrapes never
    // disturb the conservation invariant they report on.
    if path == METRICS_PATH {
        return Step::Reply(if shared.cfg.metrics {
            metrics_response(shared)
        } else {
            Response::new(404)
        });
    }
    let now = shared.clock.at(start);
    shared.stats.requests.fetch_add(1, Relaxed);
    let cached = shared
        .table
        .read()
        .lookup(path)
        .and_then(|r| shared.cache.lookup(r, now).map(|snap| (r, snap)));
    // First client contact with a prefetched entry settles the
    // speculation as used — whatever the request then resolves to —
    // because the lookup above already flipped its `used` mark.
    if let Some((_, snap)) = &cached {
        prefetch::note_speculative_hit(&shared.stats, snap);
    }
    let validate_lm = match cached {
        Some((r, snap)) if snap.is_fresh(now) => {
            // A fresh entry whose body was invalidated underneath us
            // (concurrent piggyback) degrades to a plain fetch. A prefix
            // entry is never a full body — serving it here would truncate
            // the object — so it degrades the same way (the streaming path
            // probes prefixes separately).
            if let Some(body) = shared.bodies.get(r).filter(|b| !b.is_prefix()) {
                count_fresh_hit(shared, path, start);
                return Step::Hit {
                    body,
                    lm: snap.last_modified,
                    expires: snap.expires,
                };
            }
            None
        }
        Some((_, snap)) => {
            shared.stats.cache_hits.fetch_add(1, Relaxed);
            shared.stats.validations.fetch_add(1, Relaxed);
            Some(snap.last_modified)
        }
        None => None,
    };
    Step::Upstream(UpstreamJob {
        path: path.to_owned(),
        source,
        validate_lm,
        filter: shared.filter_for(source, now),
        start,
    })
}

/// Count a fresh hit on `path` (served from cache, no upstream exchange).
fn count_fresh_hit(shared: &ProxyShared, path: &str, start: Instant) {
    shared.stats.cache_hits.fetch_add(1, Relaxed);
    shared.stats.fresh_hits.fetch_add(1, Relaxed);
    if shared.cfg.report_hits {
        shared.reporter.lock().record_hit(path);
    }
    shared.obs.fresh_hit.record(start.elapsed());
}

/// A GET for `path` carrying only `Host` — the start of every upstream
/// request, and the whole of the plain ones (suffix relays, speculative
/// fetches).
pub(crate) fn write_plain_get(path: &str, out: &mut Vec<u8>) {
    for part in ["GET ", path, " HTTP/1.1\r\nHost: origin\r\n"] {
        out.extend_from_slice(part.as_bytes());
    }
}

/// Serialize the upstream request for `leg` of `job` into `out`
/// (cleared first), the same bytes for both engines. No `Request` or
/// header map is built: the lines go straight into the reused buffer.
fn write_upstream_request(shared: &ProxyShared, job: &UpstreamJob, leg: Leg, out: &mut Vec<u8>) {
    out.clear();
    write_plain_get(&job.path, out);
    if leg != Leg::Suffix {
        push_header(out, "TE", "chunked");
        push_header(out, PIGGY_FILTER_HEADER, &job.filter);
        if shared.cfg.accept_push {
            push_header(out, PIGGY_PUSH_HEADER, "accept");
        }
        if leg == Leg::First {
            // The pending hit report rides the first request that goes
            // upstream, drained straight into its bytes.
            let mark = out.len();
            out.extend_from_slice(PIGGY_REPORT_HEADER.as_bytes());
            out.extend_from_slice(b": ");
            if shared.reporter.lock().drain_into(out) {
                out.extend_from_slice(b"\r\n");
            } else {
                out.truncate(mark);
            }
            if let Some(lm) = job.validate_lm {
                out.extend_from_slice(b"If-Modified-Since: ");
                Rfc1123(unix_from_timestamp(lm, DEFAULT_TRACE_EPOCH_UNIX)).write_to(out);
                out.extend_from_slice(b"\r\n");
            }
        }
    }
    out.extend_from_slice(b"\r\n");
}

/// A buffered exchange's result: the response and any server-pushed
/// responses that followed it on the same stream.
type Exchanged<'a> = (&'a Response, &'a [Response]);

/// What settling a buffered upstream result leaves to do.
enum Settled {
    /// The client reply; every counter, histogram and piggyback is applied.
    Reply(Reply),
    /// A 304 validated an entry whose body is gone (evicted between
    /// planning and now): serving it would hand the client an empty 200
    /// with an epoch `Last-Modified`. The caller refetches
    /// unconditionally ([`Leg::Refetch`]) and finishes with
    /// [`settle_refetch`].
    Refetch(Pending),
}

/// A body-less 304 awaiting its refetch. Its piggyback (and any pushes)
/// apply once the refetch settles, stamped with the validation's time.
struct Pending {
    validation: Response,
    pushed: Vec<Response>,
    now: Timestamp,
}

/// Settle a buffered upstream result (`None`: the exchange failed) — the
/// proxy's one decision per response: freshen and serve the validated
/// copy (304), store and serve the body (200), or pass the status
/// through uncached; then apply server pushes and the piggyback.
fn settle(shared: &ProxyShared, job: &UpstreamJob, result: Option<Exchanged<'_>>) -> Settled {
    let Some((resp, pushed)) = result else {
        return Settled::Reply(Reply::Full(fail_upstream(shared, job)));
    };
    let now = shared.clock.now();
    let (reply, hist) = if resp.status == 304 {
        // The table never forgets ids, so the validated path resolves;
        // the body may have been evicted or invalidated mid-flight.
        let r = shared.table.read().lookup(&job.path);
        let body = r.and_then(|r| {
            shared.cache.freshen(r, now + shared.cfg.freshness);
            shared.bodies.get(r)
        });
        let Some(body) = body else {
            return Settled::Refetch(Pending {
                validation: resp.clone(),
                pushed: pushed.to_vec(),
                now,
            });
        };
        shared.stats.not_modified.fetch_add(1, Relaxed);
        let lm = job.validate_lm.unwrap_or(Timestamp::ZERO);
        (
            Reply::Cached {
                body,
                lm,
                x_cache: "VALIDATED",
            },
            &shared.obs.not_modified,
        )
    } else {
        store_or_pass(shared, &job.path, resp, now)
    };
    apply_piggybacks(shared, job, pushed, [Some(resp), None], now);
    hist.record(job.start.elapsed());
    Settled::Reply(reply)
}

/// Finish a body-less 304 with its refetch's result. The request's
/// histogram is its *final* outcome: a refetched validation records as a
/// full fetch, not a validation.
fn settle_refetch(
    shared: &ProxyShared,
    job: &UpstreamJob,
    pending: Pending,
    result: Option<Exchanged<'_>>,
) -> Reply {
    let Pending {
        validation,
        mut pushed,
        now,
    } = pending;
    let (reply, hist, refetched) = match result {
        Some((resp, more)) => {
            pushed.extend_from_slice(more);
            let (reply, hist) = store_or_pass(shared, &job.path, resp, shared.clock.now());
            (reply, hist, Some(resp))
        }
        None => {
            shared.stats.upstream_errors.fetch_add(1, Relaxed);
            (Reply::Full(Response::new(502)), &shared.obs.error, None)
        }
    };
    apply_piggybacks(shared, job, &pushed, [Some(&validation), refetched], now);
    hist.record(job.start.elapsed());
    reply
}

/// Store a 200, or pass any other status through uncached.
fn store_or_pass<'a>(
    shared: &'a ProxyShared,
    path: &str,
    resp: &Response,
    now: Timestamp,
) -> (Reply, &'a LatencyHistogram) {
    if resp.status == 200 {
        return (
            store_full_response(shared, path, resp, now),
            &shared.obs.full_fetch,
        );
    }
    shared.stats.upstream_passthrough.fetch_add(1, Relaxed);
    let mut out = Response::new(resp.status);
    out.body = resp.body.clone();
    (Reply::Full(out), &shared.obs.passthrough)
}

/// Server-pushed volume members enter the cache before piggyback
/// classification, so the piggyback sees them as cached entries
/// (Freshen) instead of re-queueing them as prefetch candidates; then
/// each response's piggyback (trailer on 200, header on 304) applies in
/// arrival order.
fn apply_piggybacks(
    shared: &ProxyShared,
    job: &UpstreamJob,
    pushed: &[Response],
    resps: [Option<&Response>; 2],
    now: Timestamp,
) {
    for p in pushed {
        prefetch::accept_push(shared, p, now);
    }
    for resp in resps.into_iter().flatten() {
        process_piggyback(shared, p_volume(resp, &resp.trailers), job.source, now);
    }
}

/// The failed-exchange outcome while no client byte has moved: a 502.
fn fail_upstream(shared: &ProxyShared, job: &UpstreamJob) -> Response {
    shared.stats.upstream_errors.fetch_add(1, Relaxed);
    shared.obs.error.record(job.start.elapsed());
    Response::new(502)
}

/// Settle a miss whose body was relayed to the client as it arrived:
/// count it, register the path, retain the teed prefix (never a
/// whole-object body), and apply the piggyback that rode the chunked
/// trailers, if any. Called once the origin side completes and before
/// the final client write.
fn settle_streamed_miss(
    shared: &ProxyShared,
    job: &UpstreamJob,
    head: &Response,
    trailers: &HeaderMap,
    total: usize,
    prefix: Vec<u8>,
) {
    let now = shared.clock.now();
    shared.stats.full_fetches.fetch_add(1, Relaxed);
    shared.stats.streamed_misses.fetch_add(1, Relaxed);
    shared
        .stats
        .bytes_from_origin
        .fetch_add(total as u64, Relaxed);
    let lm = last_modified(head, now);
    let r = shared
        .table
        .write()
        .register_path(&job.path, total as u64, lm);
    if !prefix.is_empty() && prefix.len() < total {
        shared.bodies.insert(r, Body::prefix(prefix, total));
    }
    process_piggyback(shared, p_volume(head, trailers), job.source, now);
    shared.obs.full_fetch.record(job.start.elapsed());
}

/// How a prefix hit's suffix relay ended.
enum SuffixEnd {
    /// Every suffix byte arrived from the origin.
    Complete,
    /// The origin's head contradicted the recorded total (new length or
    /// status): the head already sent is stale.
    Mismatch,
    /// The exchange failed; nothing contradicted the prefix.
    Failed,
}

/// Settle a prefix hit. Range-free refetch: the origin resends the whole
/// object (bandwidth unchanged; TTFB is what the prefix buys). A
/// mismatch drops the poisoned prefix so the next request misses and
/// re-primes. Failures are truncations (`Err`): the head already went out.
fn settle_prefix_hit(
    shared: &ProxyShared,
    job: &UpstreamJob,
    r: ResourceId,
    total: usize,
    end: SuffixEnd,
) -> io::Result<()> {
    match end {
        SuffixEnd::Complete => {
            shared.stats.cache_hits.fetch_add(1, Relaxed);
            shared.stats.prefix_hits.fetch_add(1, Relaxed);
            shared
                .stats
                .bytes_from_origin
                .fetch_add(total as u64, Relaxed);
            shared.obs.prefix_hit.record(job.start.elapsed());
            Ok(())
        }
        SuffixEnd::Mismatch => {
            shared.bodies.remove(r);
            relay_abort(shared, job, "prefix no longer matches the origin object")
        }
        SuffixEnd::Failed => relay_abort(shared, job, "suffix relay failed"),
    }
}

/// Serve the entry a just-landed speculation installed; `false` when the
/// speculation resolved without a serveable entry (fetch failed, or
/// already displaced) and the demand fetch should proceed.
fn serve_speculation<W: BodySink>(
    shared: &ProxyShared,
    job: &UpstreamJob,
    w: &mut W,
    scratch: &mut ConnScratch,
) -> io::Result<bool> {
    let now = shared.clock.now();
    let cached = shared
        .table
        .read()
        .lookup(&job.path)
        .and_then(|r| shared.cache.lookup(r, now).map(|snap| (r, snap)));
    let Some((r, snap)) = cached else {
        return Ok(false);
    };
    // The lookup flipped `used`; settle the speculation even if the body
    // vanishes before we can serve it.
    prefetch::note_speculative_hit(&shared.stats, &snap);
    let Some(body) = shared.bodies.get(r).filter(|b| !b.is_prefix()) else {
        return Ok(false);
    };
    count_fresh_hit(shared, &job.path, job.start);
    write_cached(w, scratch, &body, snap.last_modified, "HIT")?;
    Ok(true)
}

/// The client head of a streamed miss: the same headers as a buffered
/// MISS (`Last-Modified` + `X-Cache: MISS`) under the relay's framing.
fn write_stream_head(
    shared: &ProxyShared,
    resp: &Response,
    framing: StreamFraming,
    out: &mut Vec<u8>,
) {
    let lm = last_modified(resp, shared.clock.now());
    let mut head = Response::new(200);
    let unix = unix_from_timestamp(lm, DEFAULT_TRACE_EPOCH_UNIX);
    head.headers
        .insert("Last-Modified", &Rfc1123(unix).to_string());
    head.headers.insert("X-Cache", "MISS");
    encode_stream_head(&head, framing, out);
}

/// The client head of a prefix hit; the cached head bytes follow it.
fn write_prefix_head(out: &mut impl Write, total: usize) -> io::Result<()> {
    write!(
        out,
        "HTTP/1.1 200 OK\r\nX-Cache: PREFIX\r\nContent-Length: {total}\r\n\r\n"
    )
}

/// Terminal failure after relay bytes reached the client: count the one
/// terminal outcome and hand the caller an `Err` so the (now truncated)
/// client connection closes. The origin connection is dropped by the
/// caller simply by not checking it in.
fn relay_abort<T>(shared: &ProxyShared, job: &UpstreamJob, why: &'static str) -> io::Result<T> {
    count_relay_error(shared, job);
    Err(io::Error::new(io::ErrorKind::UnexpectedEof, why))
}

/// The single terminal outcome for a mid-relay failure on *either* side.
/// `requests` was counted at plan time, so every streaming client write
/// before settlement routes its error through here exactly once —
/// conservation (`requests == Σ outcomes`) holds even when the client
/// dies mid-body.
fn count_relay_error(shared: &ProxyShared, job: &UpstreamJob) {
    shared.stats.upstream_errors.fetch_add(1, Relaxed);
    shared.obs.error.record(job.start.elapsed());
}

/// `map_err` adapter for client-side writes inside a relay: count the
/// terminal outcome, pass the error through (the caller's `?` drops the
/// connection).
fn client_relay_err(shared: &ProxyShared, job: &UpstreamJob, e: io::Error) -> io::Error {
    count_relay_error(shared, job);
    e
}

/// A response's `Last-Modified` as a trace timestamp (`now` when absent).
pub(crate) fn last_modified(resp: &Response, now: Timestamp) -> Timestamp {
    resp.headers
        .get("Last-Modified")
        .and_then(parse_rfc1123)
        .map(|u| timestamp_from_unix(u, DEFAULT_TRACE_EPOCH_UNIX))
        .unwrap_or(now)
}

/// The `P-volume` piggyback a response carries: in `trailers` after a
/// chunked body, else in the head (a 304 has no body to trail).
fn p_volume<'a>(head: &'a Response, trailers: &'a HeaderMap) -> Option<&'a str> {
    trailers
        .get(P_VOLUME_HEADER)
        .or_else(|| head.headers.get(P_VOLUME_HEADER))
}

/// Store a 200 upstream response: register the path, retain the body
/// once, insert the entry, and settle/clean up everything the insert
/// displaced. Shared by the miss path and the 304-with-evicted-body
/// refetch fallback.
fn store_full_response(shared: &ProxyShared, path: &str, resp: &Response, now: Timestamp) -> Reply {
    shared.stats.full_fetches.fetch_add(1, Relaxed);
    shared
        .stats
        .bytes_from_origin
        .fetch_add(resp.body.len() as u64, Relaxed);
    let lm = last_modified(resp, now);
    let size = resp.body.len() as u64;
    let r = shared.table.write().register_path(path, size, lm);
    // Retain the fetched bytes once; every hit from here on is a
    // refcount bump on this same allocation.
    let body = resp.body.clone();
    // Body first, then the entry: a concurrent lookup never sees
    // an entry without its body (the reverse order could). The
    // evictees share r's shard (the stores are co-sharded), so
    // insert and cleanup stay under one body-shard lock each.
    shared.bodies.insert(r, body.clone());
    let out = shared.cache.insert_accounted(
        r,
        CacheEntry {
            size,
            last_modified: lm,
            expires: now + shared.cfg.freshness,
            prefetched: false,
            used: true,
        },
        now,
    );
    if let Some(old) = &out.replaced {
        // A still-unused speculative entry displaced by the demand fetch
        // it raced: settle it as wasted.
        prefetch::settle_displaced(&shared.stats, old);
    }
    if !out.evicted.is_empty() {
        for (_, old) in &out.evicted {
            prefetch::settle_displaced(&shared.stats, old);
        }
        shared.bodies.with_resource_shard(r, |bodies| {
            for (v, _) in &out.evicted {
                bodies.remove(*v);
            }
        });
    }
    if !out.inserted {
        // Oversized for its shard: drop the orphan body so the store
        // cannot hold bytes the cache will never serve.
        shared.bodies.remove(r);
    }
    Reply::Cached {
        body,
        lm,
        x_cache: "MISS",
    }
}

/// Apply one response's `P-volume` piggyback (see [`p_volume`]) to the
/// cache, and feed the prefetcher: `PrefetchCandidate` elements are
/// queued for speculative fetch, and invalidated entries are re-queued so
/// coherency misses turn into refreshed cache entries.
fn process_piggyback(shared: &ProxyShared, pv: Option<&str>, source: SocketAddr, now: Timestamp) {
    let delta = shared.cfg.freshness;
    let Some(pv) = pv else {
        return;
    };
    shared.obs.piggyback_bytes.record_value(pv.len() as u64);
    let Ok(wire) = decode_p_volume(pv) else {
        return;
    };
    shared.stats.piggyback_messages.fetch_add(1, Relaxed);
    shared
        .stats
        .piggybacked_elements
        .fetch_add(wire.elements.len() as u64, Relaxed);
    if let Some(rpv) = &shared.rpv {
        rpv.lock().table.record(&source, wire.volume, now);
    }
    // Register the whole batch under one write acquisition: per-element
    // write locks let the writer-preference queue interleave a planner
    // between every element, convoying both sides.
    let ids: Vec<_> = {
        let mut table = shared.table.write();
        wire.elements
            .iter()
            .map(|e| table.register_path(&e.path, e.size, e.last_modified))
            .collect()
    };
    for (e, r) in wire.elements.iter().zip(ids) {
        let cached_lm = shared.cache.peek(r).map(|c| c.last_modified);
        match classify_element(cached_lm, e.last_modified) {
            ElementAction::Freshen => {
                shared.cache.freshen(r, now + delta);
                shared.cache.note_piggyback_mention(r, now);
                // Volume mentions also bias prefix retention: a prefix of
                // a resource the origin still groups into active volumes
                // earns its bytes (the VoD prefix-retention signal).
                shared.bodies.note_mention(r);
                shared.stats.piggyback_freshens.fetch_add(1, Relaxed);
            }
            ElementAction::Invalidate => {
                // Entry first, then body: a concurrent lookup that
                // wins the entry also finds the body still there.
                if let Some(old) = shared.cache.take(r) {
                    prefetch::settle_displaced(&shared.stats, &old);
                }
                shared.bodies.remove(r);
                shared.stats.piggyback_invalidations.fetch_add(1, Relaxed);
                // Coherency-driven refresh: the origin just told us the
                // current version exists — refetch it ahead of demand.
                if let Some(p) = shared.prefetcher.get() {
                    p.enqueue(shared, r, &e.path);
                }
            }
            ElementAction::PrefetchCandidate => {
                shared.stats.prefetch_candidates.fetch_add(1, Relaxed);
                if let Some(p) = shared.prefetcher.get() {
                    p.enqueue(shared, r, &e.path);
                }
            }
        }
    }
}

/// Render the proxy's Prometheus exposition. Reads only atomics and the
/// cache's occupancy gauges — no cache or table lock is taken, so a
/// scrape can never stall (or be stalled by) request traffic.
fn metrics_response(shared: &ProxyShared) -> Response {
    let stats = shared.stats.snapshot();
    let mut out = String::with_capacity(8 * 1024);
    render_scalar(
        &mut out,
        "pb_proxy_requests_total",
        "",
        "counter",
        stats.requests,
    );
    for (label, value) in [
        ("fresh_hit", stats.fresh_hits),
        ("prefix_hit", stats.prefix_hits),
        ("not_modified", stats.not_modified),
        ("full_fetch", stats.full_fetches),
        ("error", stats.upstream_errors),
        ("passthrough", stats.upstream_passthrough),
    ] {
        render_scalar(
            &mut out,
            "pb_proxy_outcome_requests_total",
            &format!("outcome=\"{label}\""),
            "counter",
            value,
        );
    }
    for (name, value) in [
        ("pb_proxy_cache_hits_total", stats.cache_hits),
        ("pb_proxy_affine_hits_total", stats.affine_hits),
        ("pb_proxy_streamed_misses_total", stats.streamed_misses),
        ("pb_proxy_validations_total", stats.validations),
        ("pb_proxy_bytes_from_origin_total", stats.bytes_from_origin),
        (
            "pb_proxy_piggyback_messages_total",
            stats.piggyback_messages,
        ),
        (
            "pb_proxy_piggybacked_elements_total",
            stats.piggybacked_elements,
        ),
        (
            "pb_proxy_piggyback_freshens_total",
            stats.piggyback_freshens,
        ),
        (
            "pb_proxy_piggyback_invalidations_total",
            stats.piggyback_invalidations,
        ),
        (
            "pb_proxy_prefetch_candidates_total",
            stats.prefetch_candidates,
        ),
        ("pb_proxy_prefetch_issued_total", stats.prefetch_issued),
        ("pb_proxy_prefetch_used_total", stats.prefetch_used),
        ("pb_proxy_prefetch_wasted_total", stats.prefetch_wasted),
        (
            "pb_proxy_prefetch_wasted_bytes_total",
            stats.prefetch_wasted_bytes,
        ),
        (
            "pb_proxy_prefetch_fetched_bytes_total",
            stats.prefetch_fetched_bytes,
        ),
        (
            "pb_proxy_prefetch_used_bytes_total",
            stats.prefetch_used_bytes,
        ),
        (
            "pb_proxy_prefetch_cancelled_total",
            stats.prefetch_cancelled,
        ),
        ("pb_proxy_prefetch_retries_total", stats.prefetch_retries),
        ("pb_proxy_pushes_accepted_total", stats.pushes_accepted),
        ("pb_proxy_upstream_retries_total", stats.upstream_retries),
    ] {
        render_scalar(&mut out, name, "", "counter", value);
    }
    // Issued-but-unresolved speculations: in-flight fetches plus resident
    // never-hit prefetched entries (a gauge, not a counter).
    render_scalar(
        &mut out,
        "pb_proxy_prefetch_inflight",
        "",
        "gauge",
        stats.prefetch_inflight,
    );
    for (outcome, hist) in shared.obs.outcomes() {
        render_histogram(
            &mut out,
            "pb_proxy_request_duration_seconds",
            &format!("outcome=\"{outcome}\""),
            &hist.snapshot(),
            1e6,
        );
    }
    render_histogram(
        &mut out,
        "pb_proxy_piggyback_overhead_bytes",
        "",
        &shared.obs.piggyback_bytes.snapshot(),
        1.0,
    );
    let p = shared.pool.stats();
    for (name, value) in [
        ("pb_proxy_pool_connects_total", p.connects),
        ("pb_proxy_pool_reuses_total", p.reuses),
        ("pb_proxy_pool_evicted_unhealthy_total", p.evicted_unhealthy),
        ("pb_proxy_pool_discarded_dirty_total", p.discarded_dirty),
        ("pb_proxy_pool_discarded_full_total", p.discarded_full),
    ] {
        render_scalar(&mut out, name, "", "counter", value);
    }
    render_scalar(
        &mut out,
        "pb_proxy_pool_idle",
        "",
        "gauge",
        shared.pool.idle_len() as u64,
    );
    // Capacity from config, not `cache.capacity()`: the latter sums
    // per-shard fields under each shard lock.
    render_scalar(
        &mut out,
        "pb_proxy_cache_capacity_bytes",
        "",
        "gauge",
        shared.cfg.capacity_bytes,
    );
    for (i, shard) in shared.cache.occupancy().iter().enumerate() {
        let labels = format!("shard=\"{i}\"");
        render_scalar(
            &mut out,
            "pb_proxy_cache_shard_bytes",
            &labels,
            "gauge",
            shard.bytes,
        );
        render_scalar(
            &mut out,
            "pb_proxy_cache_shard_entries",
            &labels,
            "gauge",
            shard.entries,
        );
        render_scalar(
            &mut out,
            "pb_proxy_cache_shard_evictions_total",
            &labels,
            "counter",
            shard.evictions,
        );
    }
    // Body-store occupancy (full bodies + prefix entries), per shard,
    // from the lock-free mirror gauges.
    for (i, shard) in shared.bodies.occupancy().iter().enumerate() {
        let labels = format!("shard=\"{i}\"");
        for (name, value) in [
            ("pb_proxy_body_bytes", shard.bytes),
            ("pb_proxy_body_entries", shard.entries),
            ("pb_proxy_prefix_bytes", shard.prefix_bytes),
            ("pb_proxy_prefix_entries", shard.prefix_entries),
        ] {
            render_scalar(&mut out, name, &labels, "gauge", value);
        }
    }
    render_scalar(
        &mut out,
        "pb_proxy_accepts_total",
        "",
        "counter",
        shared.io_stats.accepts_total(),
    );
    render_scalar(
        &mut out,
        "pb_proxy_open_connections",
        "",
        "gauge",
        shared.io_stats.open_connections(),
    );
    render_scalar(
        &mut out,
        "pb_proxy_accept_backoffs_total",
        "",
        "counter",
        shared.io_stats.accept_errors_total(),
    );
    #[cfg(target_os = "linux")]
    if let Some(rm) = &shared.reactor_metrics {
        for (i, s) in rm.shards.iter().enumerate() {
            let labels = format!("shard=\"{i}\"");
            render_scalar(
                &mut out,
                "pb_proxy_reactor_conns",
                &labels,
                "gauge",
                s.conns(),
            );
            render_scalar(
                &mut out,
                "pb_proxy_reactor_accepts_total",
                &labels,
                "counter",
                s.accepts(),
            );
            render_scalar(
                &mut out,
                "pb_proxy_reactor_wakeups_total",
                &labels,
                "counter",
                s.wakeups(),
            );
            render_scalar(
                &mut out,
                "pb_proxy_reactor_timeouts_total",
                &labels,
                "counter",
                s.timeouts(),
            );
            render_scalar(
                &mut out,
                "pb_proxy_reactor_offloads_total",
                &labels,
                "counter",
                s.offloads(),
            );
            render_scalar(
                &mut out,
                "pb_proxy_reactor_upstream_dials_total",
                &labels,
                "counter",
                s.upstream_dials(),
            );
            render_scalar(
                &mut out,
                "pb_proxy_reactor_upstream_reuses_total",
                &labels,
                "counter",
                s.upstream_reuses(),
            );
            render_scalar(
                &mut out,
                "pb_proxy_reactor_upstream_inflight",
                &labels,
                "gauge",
                s.upstream_inflight(),
            );
            render_scalar(
                &mut out,
                "pb_proxy_reactor_upstream_timeouts_total",
                &labels,
                "counter",
                s.upstream_timeouts(),
            );
            render_scalar(
                &mut out,
                "pb_proxy_reactor_relays_total",
                &labels,
                "counter",
                s.relays(),
            );
            render_scalar(
                &mut out,
                "pb_proxy_reactor_relay_paused_total",
                &labels,
                "counter",
                s.relay_paused(),
            );
            s.render_syscalls(&mut out, "pb_proxy_reactor_syscalls_total", i);
        }
    }
    let mut resp = Response::new(200);
    resp.headers
        .insert("Content-Type", "text/plain; version=0.0.4");
    resp.body = out.into();
    resp
}

/// Serve a cached body without building a [`Response`]: the head is
/// written into the connection scratch with no `core::fmt` (the date by
/// [`Rfc1123::write_to`]), and goes out with the shared body bytes —
/// referenced, never copied — through the sink: one vectored write on a
/// socket, a queued body segment on the reactor's output queue. Wire
/// bytes are those of a `Response` with `Last-Modified` and `X-Cache`
/// headers and the body, which `cached_bytes_match_response_serializer`
/// pins down. Hits, validated copies and stored misses all go out here.
fn write_cached<W: BodySink>(
    w: &mut W,
    scratch: &mut ConnScratch,
    body: &Body,
    lm: Timestamp,
    x_cache: &str,
) -> io::Result<()> {
    let out = &mut scratch.out;
    out.clear();
    out.extend_from_slice(b"HTTP/1.1 200 OK\r\nLast-Modified: ");
    Rfc1123(unix_from_timestamp(lm, DEFAULT_TRACE_EPOCH_UNIX)).write_to(out);
    out.extend_from_slice(b"\r\nX-Cache: ");
    out.extend_from_slice(x_cache.as_bytes());
    out.extend_from_slice(b"\r\nContent-Length: ");
    push_decimal(out, body.len() as u64);
    out.extend_from_slice(b"\r\n\r\n");
    w.send_head_body(&scratch.out, body)
}

/// Build a `HeaderMap` holding the standard piggyback request headers —
/// handy for tests and the client driver.
pub fn piggyback_request_headers(filter: &ProxyFilter) -> HeaderMap {
    let mut h = HeaderMap::new();
    h.insert("TE", "chunked");
    h.insert(PIGGY_FILTER_HEADER, &filter.to_header_value());
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::origin::{start_origin, OriginConfig, OriginHandle};
    use std::io::BufWriter;
    use std::net::TcpListener;

    /// Both client-side engines, for tests that must hold in either.
    const ENGINES: [IoMode; 2] = [IoMode::Threaded, IoMode::Reactor { reactors: 1 }];

    /// Drive the whole site once directly (no proxy), so the origin's
    /// access state covers every resource. Piggybacks only name volume
    /// mates with recorded accesses, so a cold proxy talking to a cold
    /// origin never sees a prefetch candidate — the paper's scenario is
    /// a fresh proxy joining an origin other clients already warmed.
    fn warm_origin(origin: &OriginHandle) {
        let stream = TcpStream::connect(origin.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        for p in &origin.paths {
            let mut req = Request::new("GET", p);
            req.headers.insert("Host", "origin.test");
            req.write(&mut writer).unwrap();
            let resp = Response::read(&mut reader, false).unwrap();
            assert_eq!(resp.status, 200);
        }
    }

    fn get(addr: SocketAddr, path: &str) -> Response {
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        let mut req = Request::new("GET", path);
        req.headers.insert("Host", "proxy.test");
        req.headers.insert("Connection", "close");
        req.write(&mut writer).unwrap();
        Response::read(&mut reader, false).unwrap()
    }

    #[test]
    fn proxy_caches_and_validates() {
        for io in ENGINES {
            let origin = start_origin(OriginConfig::default()).unwrap();
            let mut cfg = ProxyConfig::new(origin.addr());
            cfg.io = io;
            let proxy = start_proxy(cfg).unwrap();
            let path = origin.paths[0].clone();

            let r1 = get(proxy.addr(), &path);
            assert_eq!(r1.status, 200);
            assert_eq!(r1.headers.get("X-Cache"), Some("MISS"), "{io:?}");

            let r2 = get(proxy.addr(), &path);
            assert_eq!(r2.status, 200);
            assert_eq!(r2.headers.get("X-Cache"), Some("HIT"), "{io:?}");
            assert_eq!(r1.body, r2.body);

            let stats = proxy.stats();
            assert_eq!(stats.requests, 2);
            assert_eq!(stats.fresh_hits, 1);
            assert_eq!(stats.full_fetches, 1);
            assert_eq!(stats.outcomes(), stats.requests, "conservation");

            proxy.stop();
            origin.stop();
        }
    }

    #[test]
    fn cached_bytes_match_response_serializer() {
        // The zero-copy cached path must stay byte-identical to
        // serializing a full `Response` — for every label and bodies of
        // every interesting size class (empty, small, multi-chunk-buffer
        // sized) — whether the sink is a socket-like writer or the
        // reactor's output queue.
        let mut scratch = ConnScratch::new();
        for (body, lm) in [
            (Body::empty(), Timestamp::ZERO),
            (Body::from(b"hello".to_vec()), Timestamp::from_secs(12345)),
            (
                Body::from(vec![b'x'; 40_000]),
                Timestamp::from_secs(86_400 * 900 + 3),
            ),
        ] {
            for label in ["HIT", "VALIDATED", "MISS"] {
                let mut fast = Vec::new();
                write_cached(&mut fast, &mut scratch, &body, lm, label).unwrap();
                let mut queued = OutQueue::new();
                write_cached(&mut queued, &mut scratch, &body, lm, label).unwrap();
                let mut drained = Vec::new();
                while !queued.is_empty() {
                    queued.write_to(&mut drained).unwrap();
                }
                let mut seed = Vec::new();
                let mut resp = Response::new(200);
                let unix = unix_from_timestamp(lm, DEFAULT_TRACE_EPOCH_UNIX);
                resp.headers.insert(
                    "Last-Modified",
                    &piggyback_core::datetime::format_rfc1123(unix),
                );
                resp.headers.insert("X-Cache", label);
                resp.body = body.clone();
                resp.write(&mut seed).unwrap();
                assert_eq!(fast, seed, "body len {} {label}", body.len());
                assert_eq!(drained, seed, "queued, body len {} {label}", body.len());
            }
        }
    }

    #[test]
    fn sharded_proxy_pools_origin_connections() {
        let origin = start_origin(OriginConfig::default()).unwrap();
        let mut cfg = ProxyConfig::new(origin.addr());
        cfg.freshness = DurationMs::from_millis(1); // force validations
        let proxy = start_proxy(cfg).unwrap();
        let path = origin.paths[0].clone();
        for _ in 0..5 {
            get(proxy.addr(), &path);
            std::thread::sleep(std::time::Duration::from_millis(3));
        }
        let pool = proxy.pool_stats().expect("the proxy pools");
        assert!(
            pool.reuses >= 3,
            "validations must reuse the pooled origin connection: {pool:?}"
        );
        assert!(pool.connects <= 2, "{pool:?}");
        proxy.stop();
        origin.stop();
    }

    #[test]
    fn proxy_receives_piggybacks() {
        let origin = start_origin(OriginConfig::default()).unwrap();
        let proxy = start_proxy(ProxyConfig::new(origin.addr())).unwrap();
        // Walk a handful of pages; volume-mates generate piggybacks.
        for p in origin.paths.iter().take(12) {
            let r = get(proxy.addr(), p);
            assert_eq!(r.status, 200);
        }
        let stats = proxy.stats();
        assert!(
            stats.piggyback_messages > 0,
            "expected piggybacks, stats: {stats:?}"
        );
        proxy.stop();
        origin.stop();
    }

    #[test]
    fn proxy_passes_404_through_uncached() {
        for io in ENGINES {
            let origin = start_origin(OriginConfig::default()).unwrap();
            let mut cfg = ProxyConfig::new(origin.addr());
            cfg.io = io;
            let proxy = start_proxy(cfg).unwrap();
            let r = get(proxy.addr(), "/definitely/not/here.html");
            assert_eq!(r.status, 404);
            let r = get(proxy.addr(), "/definitely/not/here.html");
            assert_eq!(r.status, 404);
            let stats = proxy.stats();
            assert_eq!(stats.fresh_hits, 0, "{io:?}");
            assert_eq!(stats.upstream_passthrough, 2, "{io:?}");
            assert_eq!(stats.outcomes(), stats.requests, "conservation");
            proxy.stop();
            origin.stop();
        }
    }

    #[test]
    fn expired_entries_validate_with_304_and_revive() {
        for io in ENGINES {
            let origin = start_origin(OriginConfig::default()).unwrap();
            let mut cfg = ProxyConfig::new(origin.addr());
            cfg.freshness = DurationMs::from_millis(1); // everything expires at once
            cfg.io = io;
            let proxy = start_proxy(cfg).unwrap();
            let path = origin.paths[0].clone();

            let r1 = get(proxy.addr(), &path);
            assert_eq!(r1.headers.get("X-Cache"), Some("MISS"));
            std::thread::sleep(std::time::Duration::from_millis(5));
            let r2 = get(proxy.addr(), &path);
            assert_eq!(
                r2.headers.get("X-Cache"),
                Some("VALIDATED"),
                "expired entry must be revalidated, not refetched ({io:?})"
            );
            assert_eq!(r1.body, r2.body, "304 revives the cached body");
            let stats = proxy.stats();
            assert_eq!(stats.validations, 1);
            assert_eq!(stats.not_modified, 1);
            assert_eq!(stats.full_fetches, 1);
            proxy.stop();
            origin.stop();
        }
    }

    #[test]
    fn modified_resource_refetched_on_validation() {
        for io in ENGINES {
            let origin = start_origin(OriginConfig::default()).unwrap();
            let mut cfg = ProxyConfig::new(origin.addr());
            cfg.freshness = DurationMs::from_millis(1);
            cfg.io = io;
            let proxy = start_proxy(cfg).unwrap();
            let path = origin.paths[0].clone();

            get(proxy.addr(), &path);
            // Bump the origin's Last-Modified.
            let r = get(proxy.addr(), &format!("/_pb/modify{path}"));
            assert_eq!(r.status, 204);
            std::thread::sleep(std::time::Duration::from_millis(5));
            let r2 = get(proxy.addr(), &path);
            assert_eq!(
                r2.headers.get("X-Cache"),
                Some("MISS"),
                "modified resource comes back as a fresh 200 ({io:?})"
            );
            let stats = proxy.stats();
            assert_eq!(stats.not_modified, 0);
            assert!(stats.full_fetches >= 2);
            proxy.stop();
            origin.stop();
        }
    }

    #[test]
    fn piggyback_request_headers_helper() {
        let f = ProxyFilter::builder().max_piggy(5).build();
        let h = piggyback_request_headers(&f);
        assert_eq!(h.get("TE"), Some("chunked"));
        assert_eq!(h.get(PIGGY_FILTER_HEADER), Some("maxpiggy=5"));
    }

    #[test]
    fn hit_reports_reach_the_origin() {
        let origin = start_origin(OriginConfig::default()).unwrap();
        let proxy = start_proxy(ProxyConfig::new(origin.addr())).unwrap();
        let hot = origin.paths[0].clone();
        let other = origin.paths[1].clone();

        // Warm the cache, then hit it repeatedly: hits accumulate in the
        // proxy's reporter.
        get(proxy.addr(), &hot);
        let origin_count_before = {
            // Access count at the origin after the single real fetch.
            origin.stats().requests
        };
        for _ in 0..5 {
            let r = get(proxy.addr(), &hot);
            assert_eq!(r.headers.get("X-Cache"), Some("HIT"));
        }
        // The next upstream request (a miss for `other`) drains the report.
        get(proxy.addr(), &other);

        // The origin saw only two real requests...
        assert_eq!(origin.stats().requests, origin_count_before + 1);
        // ...but its access count for `hot` includes the 5 reported cache
        // hits: 1 real fetch + 5 reported = 6.
        assert_eq!(origin.access_count(&hot), 6);
        proxy.stop();
        origin.stop();
    }

    #[test]
    fn metrics_endpoint_scrapes_without_counting_itself() {
        let origin = start_origin(OriginConfig::default()).unwrap();
        let proxy = start_proxy(ProxyConfig::new(origin.addr())).unwrap();
        let path = origin.paths[0].clone();
        get(proxy.addr(), &path); // MISS
        get(proxy.addr(), &path); // HIT
        let m = get(proxy.addr(), METRICS_PATH);
        assert_eq!(m.status, 200);
        assert_eq!(
            m.headers.get("Content-Type"),
            Some("text/plain; version=0.0.4")
        );
        let text = String::from_utf8(m.body.to_vec()).unwrap();
        // The scrape itself must not disturb the request counter.
        assert!(text.contains("pb_proxy_requests_total 2\n"), "{text}");
        assert!(
            text.contains("pb_proxy_outcome_requests_total{outcome=\"fresh_hit\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("pb_proxy_outcome_requests_total{outcome=\"full_fetch\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("pb_proxy_request_duration_seconds_count{outcome=\"fresh_hit\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("pb_proxy_cache_shard_bytes{shard=\"0\"}"),
            "{text}"
        );
        assert!(text.contains("pb_proxy_cache_capacity_bytes"), "{text}");
        assert!(text.contains("pb_proxy_body_bytes{shard=\"0\"}"), "{text}");
        assert!(
            text.contains("pb_proxy_prefix_entries{shard=\"0\"}"),
            "{text}"
        );
        // Conservation is checkable from the scrape alone.
        let outcome_total: u64 = text
            .lines()
            .filter(|l| l.starts_with("pb_proxy_outcome_requests_total{"))
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(outcome_total, 2, "{text}");
        let duration_total: u64 = text
            .lines()
            .filter(|l| l.starts_with("pb_proxy_request_duration_seconds_count"))
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(duration_total, 2, "histogram totals == requests: {text}");
        proxy.stop();
        origin.stop();
    }

    #[test]
    fn metrics_can_be_disabled() {
        let origin = start_origin(OriginConfig::default()).unwrap();
        let mut cfg = ProxyConfig::new(origin.addr());
        cfg.metrics = false;
        let proxy = start_proxy(cfg).unwrap();
        let m = get(proxy.addr(), METRICS_PATH);
        assert_eq!(m.status, 404, "disabled scrape is a local 404");
        let stats = proxy.stats();
        assert_eq!(stats.requests, 0, "never proxied, never counted");
        proxy.stop();
        origin.stop();
    }

    #[test]
    fn validated_hit_with_evicted_body_refetches_instead_of_empty_200() {
        // Regression: when a 304 lands but the cached body was evicted
        // between planning (which saw the entry) and completion, the old
        // code served an empty 200 with an epoch-zero Last-Modified.
        for io in ENGINES {
            let origin = start_origin(OriginConfig::default()).unwrap();
            let mut cfg = ProxyConfig::new(origin.addr());
            cfg.freshness = DurationMs::from_millis(1);
            cfg.io = io;
            let proxy = start_proxy(cfg).unwrap();
            let path = origin.paths[0].clone();

            let r1 = get(proxy.addr(), &path);
            assert_eq!(r1.headers.get("X-Cache"), Some("MISS"));
            assert!(!r1.body.is_empty());

            // Force the race deterministically: the table entry stays (so
            // the next request validates) but the body is gone by the time
            // the 304 arrives.
            let r = proxy.shared.table.read().lookup(&path).unwrap();
            proxy.shared.bodies.remove(r);
            std::thread::sleep(std::time::Duration::from_millis(5));

            let r2 = get(proxy.addr(), &path);
            assert_eq!(r2.status, 200);
            assert_eq!(
                r2.headers.get("X-Cache"),
                Some("MISS"),
                "a body-less validation must refetch, not fabricate a hit ({io:?})"
            );
            assert_eq!(r2.body, r1.body, "refetched body, not an empty 200");

            let stats = proxy.stats();
            assert_eq!(stats.requests, 2);
            assert_eq!(stats.validations, 1);
            assert_eq!(
                stats.not_modified, 0,
                "a 304 we could not serve is not a validated hit"
            );
            assert_eq!(stats.full_fetches, 2);
            assert_eq!(stats.outcomes(), stats.requests, "conservation");
            proxy.stop();
            origin.stop();
        }
    }

    #[test]
    fn prefetcher_fetches_piggyback_candidates_and_serves_them() {
        let origin = start_origin(OriginConfig::default()).unwrap();
        warm_origin(&origin);
        let mut cfg = ProxyConfig::new(origin.addr());
        cfg.prefetch_budget = 2;
        let proxy = start_proxy(cfg).unwrap();

        // First walk: responses carry piggybacked volume mates; uncached
        // candidates become speculative fetches in the background.
        for p in &origin.paths {
            assert_eq!(get(proxy.addr(), p).status, 200);
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while proxy.stats().prefetch_issued == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(
            proxy.stats().prefetch_issued > 0,
            "walking the whole site must surface prefetch candidates: {:?}",
            proxy.stats()
        );

        // Second walk: every path is demanded, so each speculative entry
        // resolves — used on a hit, joined if still in flight, cancelled
        // if still queued (never issued).
        for p in &origin.paths {
            assert_eq!(get(proxy.addr(), p).status, 200);
        }
        let s = proxy.stats();
        assert!(
            s.prefetch_used >= 1,
            "a prefetched entry served a hit: {s:?}"
        );
        assert_eq!(
            s.prefetch_issued,
            s.prefetch_used + s.prefetch_wasted + s.prefetch_inflight,
            "ledger conservation at quiescence: {s:?}"
        );
        assert_eq!(s.outcomes(), s.requests, "request conservation: {s:?}");
        proxy.stop();
        origin.stop();
    }

    #[test]
    fn pushed_volume_members_land_in_the_cache() {
        let origin = start_origin(OriginConfig {
            push_max: 4,
            ..OriginConfig::default()
        })
        .unwrap();
        warm_origin(&origin);
        let mut cfg = ProxyConfig::new(origin.addr());
        cfg.accept_push = true;
        let proxy = start_proxy(cfg).unwrap();

        for p in &origin.paths {
            assert_eq!(get(proxy.addr(), p).status, 200);
        }
        let s = proxy.stats();
        assert!(s.pushes_accepted > 0, "origin pushed, proxy cached: {s:?}");
        assert!(
            s.prefetch_used >= 1,
            "a pushed member was demanded later in the walk: {s:?}"
        );
        assert_eq!(
            s.prefetch_issued,
            s.prefetch_used + s.prefetch_wasted + s.prefetch_inflight,
            "push ledger conservation: {s:?}"
        );
        assert!(
            s.fresh_hits > 0,
            "pushed members must serve as cache hits: {s:?}"
        );
        assert_eq!(s.outcomes(), s.requests, "request conservation: {s:?}");
        assert!(origin.daemon_stats().pushes_sent >= s.pushes_accepted);
        proxy.stop();
        origin.stop();
    }

    #[test]
    fn unreachable_origin_yields_502() {
        let dead: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let proxy = start_proxy(ProxyConfig::new(dead)).unwrap();
        let r = get(proxy.addr(), "/x");
        assert_eq!(r.status, 502);
        let stats = proxy.stats();
        assert_eq!(stats.upstream_errors, 1);
        assert_eq!(stats.outcomes(), stats.requests, "conservation");
        proxy.stop();
    }

    /// A hand-rolled keep-alive origin serving one deterministic body
    /// under `Content-Length` framing for every path — the shape of a
    /// real large-object origin, with none of the replay origin's
    /// piggyback or volume machinery. The listener thread leaks with the
    /// test process, like every other fixture here that outlives its
    /// assertions.
    fn start_big_origin(body: Arc<Vec<u8>>) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(stream) = conn else { continue };
                let body = Arc::clone(&body);
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut writer = BufWriter::new(stream);
                    while Request::read(&mut reader).is_ok() {
                        let head = format!(
                            "HTTP/1.1 200 OK\r\nLast-Modified: Thu, 01 Jan 1970 00:00:00 GMT\r\nContent-Length: {}\r\n\r\n",
                            body.len()
                        );
                        if writer.write_all(head.as_bytes()).is_err()
                            || writer.write_all(&body).is_err()
                            || writer.flush().is_err()
                        {
                            break;
                        }
                    }
                });
            }
        });
        addr
    }

    fn deterministic_body(len: usize) -> Arc<Vec<u8>> {
        Arc::new((0..len).map(|i| (i % 251) as u8).collect())
    }

    #[test]
    fn large_object_streams_then_hits_prefix() {
        let body = deterministic_body(600 * 1024);
        let addr = start_big_origin(Arc::clone(&body));
        let mut cfg = ProxyConfig::new(addr);
        cfg.stream_threshold = 256 * 1024;
        cfg.prefix_bytes = 64 * 1024;
        let proxy = start_proxy(cfg).unwrap();

        let r1 = get(proxy.addr(), "/big.bin");
        assert_eq!(r1.status, 200);
        assert_eq!(r1.headers.get("X-Cache"), Some("MISS"));
        assert_eq!(
            r1.body.as_slice(),
            body.as_slice(),
            "streamed body must be byte-identical"
        );

        let r2 = get(proxy.addr(), "/big.bin");
        assert_eq!(r2.status, 200);
        assert_eq!(r2.headers.get("X-Cache"), Some("PREFIX"));
        assert_eq!(
            r2.body.as_slice(),
            body.as_slice(),
            "prefix-hit body must be byte-identical"
        );

        let stats = proxy.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.full_fetches, 1);
        assert_eq!(stats.streamed_misses, 1);
        assert_eq!(stats.prefix_hits, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.outcomes(), stats.requests, "conservation");

        let occ = proxy.shared.bodies.occupancy();
        let prefixes: u64 = occ.iter().map(|s| s.prefix_entries).sum();
        let entries: u64 = occ.iter().map(|s| s.entries).sum();
        assert_eq!(prefixes, 1, "exactly one prefix entry retained");
        assert_eq!(entries, 1, "streamed object must not be cached whole");
        let bytes: u64 = occ.iter().map(|s| s.bytes).sum();
        assert_eq!(bytes, 64 * 1024, "only the prefix head is resident");
        proxy.stop();
    }

    #[test]
    fn small_object_stays_on_the_buffered_path() {
        let body = deterministic_body(10 * 1024);
        let addr = start_big_origin(Arc::clone(&body));
        let proxy = start_proxy(ProxyConfig::new(addr)).unwrap();
        let r1 = get(proxy.addr(), "/small.bin");
        assert_eq!(r1.headers.get("X-Cache"), Some("MISS"));
        let r2 = get(proxy.addr(), "/small.bin");
        assert_eq!(
            r2.headers.get("X-Cache"),
            Some("HIT"),
            "sub-threshold objects cache whole and serve as plain hits"
        );
        assert_eq!(r2.body.as_slice(), body.as_slice());
        let stats = proxy.stats();
        assert_eq!(stats.streamed_misses, 0);
        assert_eq!(stats.fresh_hits, 1);
        assert_eq!(stats.outcomes(), stats.requests, "conservation");
        proxy.stop();
    }

    #[test]
    fn oversized_client_body_gets_413() {
        let origin = start_origin(OriginConfig::default()).unwrap();
        let mut cfg = ProxyConfig::new(origin.addr());
        cfg.client_body_cap = 1024;
        let proxy = start_proxy(cfg).unwrap();
        let stream = TcpStream::connect(proxy.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        writer
            .write_all(b"GET /a.html HTTP/1.1\r\nHost: p\r\nContent-Length: 4096\r\n\r\n")
            .unwrap();
        // The proxy may reject before draining; ignore write errors.
        let _ = writer.write_all(&[b'x'; 4096]);
        let _ = writer.flush();
        let resp = Response::read(&mut reader, false).unwrap();
        assert_eq!(resp.status, 413);
        assert_eq!(proxy.stats().requests, 0, "rejected before accounting");
        proxy.stop();
        origin.stop();
    }
}
