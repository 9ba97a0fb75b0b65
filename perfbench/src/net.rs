//! The socket workloads: an origin and a caching proxy started in-process
//! through `start_origin` / `start_proxy`, driven over loopback by a
//! closed-loop (`hit-zipf`) or open-loop (`reval-*`) generator.

use crate::conn::{Conn, Outcome};
use crate::layers;
use crate::relay::{Exchange, Recorded, Relay};
use crate::site::{site_config, SessionGen, SiteModel};
use crate::sys::{self, mean, quantile, ratio};
use crate::{Metrics, Run};
use piggyback_core::types::DurationMs;
use piggyback_proxyd::{
    start_origin, start_proxy, IoMode, OriginConfig, OriginHandle, ProxyConfig, ProxyHandle,
};
use piggyback_trace::synth::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Open-loop arrival rate of the `reval-*` workloads (requests/s). A
/// constant, never calibrated from measured capacity: the traffic mix
/// must not depend on how fast the code is.
const REVAL_RATE: u64 = 6000;
/// Freshness interval Δ of the `reval-*` workloads; the RPV timeout is
/// set equal to it so piggybacks keep flowing.
const REVAL_DELTA_MS: u64 = 50;
/// Share of `reval-*` requests that are writes (`/_pb/modify`).
const REVAL_WRITE_FRAC: f64 = 0.02;
/// Open-loop traffic before the measured window, so the cache reaches its
/// steady hit/validate mix first (twenty Δ).
const REVAL_LEAD_MS: u64 = 20 * REVAL_DELTA_MS;
/// Slack on the staleness bound: a response to a request due more than
/// Δ + this after a write was acknowledged must not carry the pre-write
/// Last-Modified.
const STALENESS_SLACK_MS: u64 = 250;
/// Generator bounds: a window in which more than 1 % of the requests were
/// sent later than this (its p99), or more than this many requests were
/// outstanding at a send, does not count (the generator, not the program,
/// set its latencies).
const LATE_BOUND_NS: u64 = 2_000_000;
const BACKLOG_BOUND: u64 = 600;
/// Closed-loop shape of `hit-zipf`: one keep-alive connection per thread,
/// so no more requests are in flight than the host has cores.
const HIT_THREADS: usize = 2;
const HIT_ZIPF_S: f64 = 0.9;
/// Requests per closed-loop thread kept whole for the traced figures (the
/// latency windows keep every one).
const CLOSED_RECS_KEPT: usize = 250_000;
/// Δ for `hit-zipf`: longer than any run, so every timed request hits.
const HIT_DELTA_MS: u64 = 3_600_000;
/// Clean setups timed per untraced run (the measured one, then the rest
/// timed alone); `setup_s` is their median. A setup is clean when the
/// hypervisor stole at most [`CLEAN_STEAL`] of the CPU time while it ran;
/// at most [`SETUP_MAX`] setups are made to find them.
const SETUP_REPEATS: usize = 9;
const SETUP_MAX: usize = 25;
/// How far the traced per-outcome means, weighted by the untraced mix, may
/// miss the untraced mean latency on `reval-*` before the traced run is
/// marked invalid. The two passes run one after the other, so the error
/// carries the relay's extra hop and any drift of the host between them.
const MIX_MEAN_TOLERANCE_PCT: f64 = 40.0;
/// Width of the windows the latency quantiles and closed-loop throughput
/// are computed in; each reported figure is the median over windows.
const WINDOW_NS: u64 = 200_000_000;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    HitZipf,
    Reval { reactor: bool },
}

/// One request as the generator saw it. Times are ns since the run's
/// epoch; `due` equals `sent` in the closed loop.
#[derive(Clone, Copy)]
struct Rec {
    due: u64,
    sent: u64,
    end: u64,
    res: u32,
    write: bool,
    outcome: Outcome,
    timed: bool,
    /// Open loop: requests outstanding when this one was sent.
    backlog: u32,
}

struct Daemons {
    origin: OriginHandle,
    proxy: ProxyHandle,
    relay: Option<Relay>,
}

impl Daemons {
    fn start(shape: Shape, traced: bool, epoch: Instant) -> std::io::Result<Daemons> {
        let origin = start_origin(OriginConfig {
            site: site_config(),
            ..Default::default()
        })?;
        let relay = if traced {
            Some(Relay::start(origin.addr(), epoch)?)
        } else {
            None
        };
        let upstream = relay.as_ref().map_or(origin.addr(), |r| r.addr);
        let mut cfg = ProxyConfig::new(upstream);
        match shape {
            Shape::HitZipf => cfg.freshness = DurationMs::from_millis(HIT_DELTA_MS),
            Shape::Reval { reactor } => {
                cfg.freshness = DurationMs::from_millis(REVAL_DELTA_MS);
                let len = cfg.rpv.map_or(16, |r| r.0);
                cfg.rpv = Some((len, DurationMs::from_millis(REVAL_DELTA_MS)));
                if reactor {
                    cfg.io = IoMode::Reactor { reactors: 2 };
                }
            }
        }
        let proxy = start_proxy(cfg)?;
        Ok(Daemons {
            origin,
            proxy,
            relay,
        })
    }

    /// Stop the proxy and the relay; the origin is handed back alive
    /// (the traced run still probes it directly).
    fn stop_front(self) -> (OriginHandle, Option<Recorded>) {
        self.proxy.stop();
        let traced = self.relay.map(Relay::finish);
        (self.origin, traced)
    }

    fn stop(self) {
        self.stop_front().0.stop();
    }
}

/// Outcome tally and check failures, shared by warm-up and the loops.
#[derive(Default)]
struct Checks {
    tally: [u64; 4],
    failed: u64,
    errors: Vec<String>,
}

impl Checks {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(msg);
        }
    }

    fn merge(&mut self, other: Checks) {
        for i in 0..4 {
            self.tally[i] += other.tally[i];
        }
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 20 {
                self.errors.push(e);
            }
        }
    }
}

fn outcome_index(o: Outcome) -> usize {
    Outcome::ALL.iter().position(|&x| x == o).expect("listed")
}

/// Check one response against the request that caused it: status, the
/// `X-Cache` outcome class, the body length, and the body bytes the first
/// time this checker sees the resource.
fn check_response(
    model: &SiteModel,
    conn: &Conn,
    resp: &crate::conn::Resp,
    res: u32,
    write: bool,
    verified: &mut [bool],
    checks: &mut Checks,
) -> Option<Outcome> {
    let path = &model.paths[res as usize];
    let Some(outcome) = resp.outcome else {
        checks.fail(format!("{path}: unexpected X-Cache value"));
        return None;
    };
    let expect_status = if write { 204 } else { 200 };
    if resp.status != expect_status || (outcome == Outcome::Write) != write {
        checks.fail(format!(
            "{path}: status {} ({}) for a {}",
            resp.status,
            outcome.name(),
            if write { "write" } else { "GET" }
        ));
        return None;
    }
    checks.tally[outcome_index(outcome)] += 1;
    if write {
        return Some(outcome);
    }
    let body = conn.body(resp);
    if body.len() as u64 != model.sizes[res as usize] {
        checks.fail(format!(
            "{path}: body length {} != {}",
            body.len(),
            model.sizes[res as usize]
        ));
        return None;
    }
    if !verified[res as usize] {
        if body != model.expected_body(res).as_slice() {
            checks.fail(format!("{path}: body differs from synth_body"));
            return None;
        }
        verified[res as usize] = true;
    }
    Some(outcome)
}

struct Setup {
    model: Arc<SiteModel>,
    daemons: Daemons,
    gen_s: f64,
    total_s: f64,
    /// Share of CPU time stolen by the hypervisor during the setup.
    steal: f64,
    rss_mb: f64,
    checks: Checks,
}

/// Generate the site, start the daemons and warm the proxy cache with one
/// sequential GET of every requestable resource (each must be a MISS
/// carrying the exact body).
fn setup(shape: Shape, traced: bool, epoch: Instant) -> Result<Setup, String> {
    let steal0 = sys::cpu_steal();
    let t0 = Instant::now();
    let model = Arc::new(SiteModel::generate());
    let gen_s = t0.elapsed().as_secs_f64();
    let daemons = Daemons::start(shape, traced, epoch).map_err(|e| format!("start: {e}"))?;
    let mut checks = Checks::default();
    let mut verified = vec![false; model.paths.len()];
    let mut conn = Conn::connect(daemons.proxy.addr()).map_err(|e| format!("connect: {e}"))?;
    for &r in &model.eligible {
        conn.send(&model.get_request(r))
            .map_err(|e| format!("warm send: {e}"))?;
        let resp = conn
            .read_response()
            .map_err(|e| format!("warm read: {e}"))?;
        match check_response(&model, &conn, &resp, r, false, &mut verified, &mut checks) {
            Some(Outcome::Miss) | None => {}
            Some(o) => checks.fail(format!(
                "{}: warm-up answered {} instead of miss",
                model.paths[r as usize],
                o.name()
            )),
        }
    }
    let total_s = t0.elapsed().as_secs_f64();
    Ok(Setup {
        model,
        daemons,
        gen_s,
        total_s,
        steal: sys::steal_pct(steal0, sys::cpu_steal()) / 100.0,
        // The first setup's peak: one warm deployment, before the
        // generator's buffers.
        rss_mb: sys::peak_rss_mb(),
        checks,
    })
}

/// Counters read at the edges of the measured window.
struct Probe {
    cpu: HashMap<u64, (String, u64)>,
    steal: (u64, u64),
    proxy: piggyback_proxyd::ProxyStats,
    pool: piggyback_proxyd::PoolStats,
    origin: piggyback_proxyd::DaemonStats,
    origin_pb: piggyback_core::server::ServerStats,
    generation: u64,
    reactor: HashMap<String, f64>,
}

impl Probe {
    fn take(d: &Daemons) -> Probe {
        Probe {
            cpu: sys::thread_cpu(),
            steal: sys::cpu_steal(),
            proxy: d.proxy.stats(),
            pool: d.proxy.pool_stats().unwrap_or_default(),
            origin: d.origin.daemon_stats(),
            origin_pb: d.origin.stats(),
            generation: d.origin.generation(),
            reactor: scrape_reactor(d.proxy.addr()),
        }
    }
}

/// Sum the proxy's `pb_proxy_reactor_*` counters over shards, from its
/// metrics endpoint (empty in threaded mode).
fn scrape_reactor(proxy: SocketAddr) -> HashMap<String, f64> {
    let mut out = HashMap::new();
    let Ok(mut s) = TcpStream::connect(proxy) else {
        return out;
    };
    let req = format!(
        "GET {} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n",
        piggyback_proxyd::METRICS_PATH
    );
    let mut text = String::new();
    if s.write_all(req.as_bytes()).is_err() || s.read_to_string(&mut text).is_err() {
        return out;
    }
    for line in text.lines() {
        let Some(rest) = line.strip_prefix("pb_proxy_reactor_") else {
            continue;
        };
        let name: String = rest
            .chars()
            .take_while(|c| *c != '{' && *c != ' ')
            .collect();
        if let Some(v) = line.rsplit(' ').next().and_then(|v| v.parse::<f64>().ok()) {
            *out.entry(name).or_default() += v;
        }
    }
    out
}

/// Hold a finished generator thread until the window's closing probe has
/// read its CPU time (an exited thread drops out of `/proc`).
fn park(b: &Barrier) {
    b.wait();
    b.wait();
}

/// Ask the kernel to wake this thread's sleeps on time instead of
/// coalescing them within the default 50 µs timer slack, so the open-loop
/// sender keeps its schedule without spinning.
fn precise_sleep() {
    const PR_SET_TIMERSLACK: i32 = 29;
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument (the slack in
    // ns) and only changes the calling thread's timer slack; the unused
    // arguments are passed as 0 as the man page asks.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

/// Latency samples (ns), bucketed by the window their response completed
/// in, counted from the start of the measured window.
#[derive(Default)]
struct Windows {
    by: Vec<Vec<u32>>,
}

impl Windows {
    fn add(&mut self, origin: u64, end: u64, lat_ns: u64) {
        let Some(since) = end.checked_sub(origin) else {
            return;
        };
        let w = (since / WINDOW_NS) as usize;
        if self.by.len() <= w {
            self.by.resize_with(w + 1, Vec::new);
        }
        self.by[w].push(lat_ns.min(u32::MAX as u64) as u32);
    }

    fn merge(&mut self, other: Windows) {
        if self.by.len() < other.by.len() {
            self.by.resize_with(other.by.len(), Vec::new);
        }
        for (mine, theirs) in self.by.iter_mut().zip(other.by) {
            mine.extend(theirs);
        }
    }

    /// The windows `use_window` selects, in order.
    fn selected<'a>(&'a self, use_window: &'a [bool]) -> impl Iterator<Item = &'a Vec<u32>> {
        self.by
            .iter()
            .zip(use_window)
            .filter(|(_, &u)| u)
            .map(|(w, _)| w)
    }

    /// The median over the selected windows of `stat` applied to each
    /// window's latencies (µs).
    fn median_of(&self, use_window: &[bool], stat: impl Fn(&mut Vec<f64>) -> f64) -> f64 {
        let mut per: Vec<f64> = self
            .selected(use_window)
            .filter(|w| !w.is_empty())
            .map(|w| stat(&mut w.iter().map(|&ns| ns as f64 / 1000.0).collect()))
            .collect();
        quantile(&mut per, 0.5)
    }
}

/// The windows whose figures count: the hypervisor stole at most
/// [`CLEAN_STEAL`] of the CPU time in the window and in both its
/// neighbours (a stall's backlog drains into the next window, and a steal
/// burst starting at a boundary already slows the window before), and the
/// generator kept its bounds (`gen_ok`; missing entries count as kept).
/// The last window has no known successor and does not count yet.
fn usable_mask(steal: &[f64], gen_ok: &[bool]) -> Vec<bool> {
    let calm = |k: usize| steal[k] <= CLEAN_STEAL;
    (0..steal.len())
        .map(|k| {
            k + 1 < steal.len()
                && calm(k)
                && calm(k + 1)
                && (k == 0 || calm(k - 1))
                && gen_ok.get(k).copied().unwrap_or(true)
        })
        .collect()
}

/// Pick the windows the figures are computed from: the usable ones. With
/// fewer than `min_usable` of them the run is marked invalid (its figures
/// include the neighbours' load) and the `min_usable` least-stolen windows
/// are used.
fn usable_windows(steal: &[f64], gen_ok: &[bool], min_usable: usize, m: &mut Metrics) -> Vec<bool> {
    let mask = usable_mask(steal, gen_ok);
    let usable = mask.iter().filter(|&&c| c).count();
    let gen_bad = gen_ok.iter().filter(|&&ok| !ok).count();
    m.note("usable_windows", format!("{usable} of {}", mask.len()));
    m.note("generator_windows_over_bound", gen_bad);
    let pct: Vec<String> = steal.iter().map(|s| format!("{:.1}", s * 100.0)).collect();
    m.note("window_steal_pct", pct.join(" "));
    if usable >= min_usable.min(mask.len()) {
        return mask;
    }
    m.invalid.push(format!(
        "only {usable} of {} windows usable (under {}% stolen, generator within bounds; \
         {gen_bad} over the generator bounds)",
        mask.len(),
        CLEAN_STEAL * 100.0
    ));
    let stolen = |k: usize| {
        let lo = k.saturating_sub(1);
        let hi = (k + 1).min(steal.len() - 1);
        steal[lo..=hi].iter().sum::<f64>()
    };
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| stolen(a).total_cmp(&stolen(b)));
    let mut least = vec![false; steal.len()];
    for k in order.into_iter().take(min_usable) {
        least[k] = true;
    }
    least
}

/// Most CPU time the hypervisor may steal in a window whose latencies and
/// throughput still count: one 10 ms tick of the 40 that two vCPUs have in
/// a 200 ms window.
const CLEAN_STEAL: f64 = 0.025;

/// The usable windows a run of `seconds` measures.
fn full_windows(seconds: u64) -> usize {
    (seconds * 1_000_000_000 / WINDOW_NS) as usize
}

/// What one pass of a generator produced.
struct LoopOut {
    /// Every request, when the caller asked for them (traced runs and the
    /// open loop).
    recs: Vec<Rec>,
    /// Latencies of the measured window, by completion window.
    windows: Windows,
    /// Share of CPU time stolen by the hypervisor in each completed window.
    steal: Vec<f64>,
    /// Open loop: whether the generator kept its bounds, per window.
    gen_ok: Vec<bool>,
    /// Requests completed in the measured window.
    completed: usize,
    checks: Checks,
    window: (Probe, Probe),
    /// Start of the first window, in ns since the run's epoch.
    origin: u64,
}

/// Wait until the measured phase has seen `target` usable windows (see
/// [`usable_mask`]) or `cap` has come.
fn await_usable(tracker: &sys::StealTracker, gen: Option<&GenBounds>, target: usize, cap: Instant) {
    loop {
        std::thread::sleep(Duration::from_nanos(WINDOW_NS / 2));
        let gen_ok = gen.map_or_else(Vec::new, GenBounds::kept);
        let usable = usable_mask(&tracker.shares(), &gen_ok)
            .iter()
            .filter(|&&c| c)
            .count();
        if usable >= target || Instant::now() >= cap {
            return;
        }
    }
}

/// Per window of the open loop's measured phase: the requests sent more
/// than [`LATE_BOUND_NS`] after they were due, and the most requests
/// outstanding at a send, published by the sender as it goes.
struct GenBounds {
    late: Vec<AtomicU64>,
    backlog: Vec<AtomicU64>,
}

impl GenBounds {
    fn new(windows: usize) -> GenBounds {
        GenBounds {
            late: (0..windows).map(|_| AtomicU64::new(0)).collect(),
            backlog: (0..windows).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn record(&self, window: usize, late_ns: u64, backlog: u64) {
        if let (Some(l), Some(b)) = (self.late.get(window), self.backlog.get(window)) {
            if late_ns > LATE_BOUND_NS {
                l.fetch_add(1, Ordering::Relaxed);
            }
            b.fetch_max(backlog, Ordering::Relaxed);
        }
    }

    /// Whether each window kept the generator bounds.
    fn kept(&self) -> Vec<bool> {
        let late_allowed = REVAL_RATE * WINDOW_NS / 1_000_000_000 / 100;
        self.late
            .iter()
            .zip(&self.backlog)
            .map(|(l, b)| {
                l.load(Ordering::Relaxed) <= late_allowed
                    && b.load(Ordering::Relaxed) <= BACKLOG_BOUND
            })
            .collect()
    }
}

fn closed_loop(
    s: &Setup,
    seed: u64,
    seconds: u64,
    cap: Duration,
    keep_recs: bool,
    epoch: Instant,
) -> Result<LoopOut, String> {
    let model = &s.model;
    let n = model.eligible.len();
    let reqs: Arc<Vec<Vec<u8>>> = Arc::new(
        model
            .eligible
            .iter()
            .map(|&r| model.get_request(r))
            .collect(),
    );
    let addr = s.daemons.proxy.addr();
    let mut conns = Vec::new();
    for _ in 0..HIT_THREADS {
        conns.push(Conn::connect(addr).map_err(|e| format!("connect: {e}"))?);
    }
    let before = Probe::take(&s.daemons);
    let start = Instant::now();
    let origin = (start - epoch).as_nanos() as u64;
    let tracker = sys::StealTracker::start(start, Duration::from_nanos(WINDOW_NS));
    let stop = Arc::new(AtomicBool::new(false));
    let parked = Arc::new(Barrier::new(HIT_THREADS + 1));
    let mut handles = Vec::new();
    for (t, mut conn) in conns.into_iter().enumerate() {
        let (model, reqs) = (Arc::clone(model), Arc::clone(&reqs));
        let (stop, parked) = (Arc::clone(&stop), Arc::clone(&parked));
        let h = std::thread::Builder::new()
            .name(format!("gen-closed-{t}"))
            .spawn(move || {
                let zipf = Zipf::new(n, HIT_ZIPF_S);
                let mut rng =
                    StdRng::seed_from_u64(seed.wrapping_mul(0x100).wrapping_add(t as u64));
                let mut checks = Checks::default();
                let mut verified = vec![false; model.paths.len()];
                let mut recs = Vec::new();
                let mut windows = Windows::default();
                while !stop.load(Ordering::Relaxed) {
                    let k = zipf.sample(&mut rng);
                    let res = model.eligible[k];
                    let sent = (Instant::now() - epoch).as_nanos() as u64;
                    let resp = match conn.send(&reqs[k]).and_then(|_| conn.read_response()) {
                        Ok(r) => r,
                        Err(e) => {
                            checks.fail(format!("exchange: {e}"));
                            break;
                        }
                    };
                    let end = (Instant::now() - epoch).as_nanos() as u64;
                    let got = check_response(
                        &model,
                        &conn,
                        &resp,
                        res,
                        false,
                        &mut verified,
                        &mut checks,
                    );
                    let Some(o) = got else { continue };
                    if o != Outcome::Hit {
                        checks.fail(format!(
                            "{}: timed request answered {}",
                            model.paths[res as usize],
                            o.name()
                        ));
                    }
                    windows.add(origin, end, end - sent);
                    if keep_recs && recs.len() < CLOSED_RECS_KEPT {
                        recs.push(Rec {
                            due: sent,
                            sent,
                            end,
                            res,
                            write: false,
                            outcome: o,
                            timed: true,
                            backlog: 0,
                        });
                    }
                }
                park(&parked);
                (recs, windows, checks)
            })
            .map_err(|e| format!("spawn: {e}"))?;
        handles.push(h);
    }
    await_usable(&tracker, None, full_windows(seconds), start + cap);
    stop.store(true, Ordering::Relaxed);
    parked.wait();
    let after = Probe::take(&s.daemons);
    parked.wait();
    let steal = tracker.finish();
    let mut recs = Vec::new();
    let mut windows = Windows::default();
    let mut checks = Checks::default();
    for h in handles {
        let (r, w, c) = h
            .join()
            .map_err(|_| "generator thread panicked".to_owned())?;
        recs.extend(r);
        windows.merge(w);
        checks.merge(c);
    }
    let completed = windows.by.iter().map(Vec::len).sum();
    Ok(LoopOut {
        recs,
        windows,
        steal,
        gen_ok: Vec::new(),
        completed,
        checks,
        window: (before, after),
        origin,
    })
}

fn open_loop(
    s: &Setup,
    seed: u64,
    seconds: u64,
    cap: Duration,
    epoch: Instant,
) -> Result<LoopOut, String> {
    let model = &s.model;
    let lead_n = (REVAL_RATE * REVAL_LEAD_MS / 1000) as usize;
    // Requests are serialized ahead of time, once per resource; each tick
    // sends every request then due with a single write.
    let gets: Vec<Vec<u8>> = (0..model.paths.len() as u32)
        .map(|r| model.get_request(r))
        .collect();
    let writes: Vec<Vec<u8>> = (0..model.paths.len() as u32)
        .map(|r| model.write_request(r))
        .collect();
    let mut conn = Conn::connect(s.daemons.proxy.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut writer = conn.writer().map_err(|e| format!("clone: {e}"))?;
    let unblock = conn.writer().map_err(|e| format!("clone: {e}"))?;
    let gap_ns = 1_000_000_000 / REVAL_RATE;
    let t0 = (Instant::now() - epoch).as_nanos() as u64 + 5_000_000;
    let due = move |i: usize| t0 + i as u64 * gap_ns;
    // The measured phase opens once the lead-in traffic is due.
    let origin = due(lead_n);
    let bounds = Arc::new(GenBounds::new(
        (cap.as_nanos() as u64 / WINDOW_NS) as usize + 2,
    ));
    let stop = Arc::new(AtomicBool::new(false));
    // Requests sent in all (unknown until the sender stops) and responses
    // taken so far.
    let final_n = Arc::new(AtomicUsize::new(usize::MAX));
    let received = Arc::new(AtomicUsize::new(0));
    let parked = Arc::new(Barrier::new(3));

    let sender = {
        let (stop, final_n, received, parked, bounds) = (
            Arc::clone(&stop),
            Arc::clone(&final_n),
            Arc::clone(&received),
            Arc::clone(&parked),
            Arc::clone(&bounds),
        );
        let model = Arc::clone(model);
        std::thread::Builder::new()
            .name("gen-send".into())
            .spawn(move || {
                precise_sleep();
                let mut gen = SessionGen::new(&model, seed, REVAL_WRITE_FRAC);
                let mut sent_at: Vec<u64> = Vec::new();
                let mut backlog: Vec<u32> = Vec::new();
                let mut err = None;
                let mut batch = Vec::new();
                let mut i = 0;
                while !stop.load(Ordering::Relaxed) {
                    let now = (Instant::now() - epoch).as_nanos() as u64;
                    let mut j = i;
                    batch.clear();
                    while due(j) <= now {
                        let st = gen.next_step();
                        let table = if st.write { &writes } else { &gets };
                        batch.extend_from_slice(&table[st.res as usize]);
                        j += 1;
                    }
                    if j == i {
                        let wait = due(i).saturating_sub(now);
                        std::thread::sleep(Duration::from_nanos(wait.min(1_000_000)));
                        continue;
                    }
                    if let Err(e) = writer.write_all(&batch) {
                        err = Some(format!("send: {e}"));
                        break;
                    }
                    let at = (Instant::now() - epoch).as_nanos() as u64;
                    let outstanding = j - received.load(Ordering::Relaxed);
                    sent_at.resize(j, at);
                    backlog.resize(j, outstanding as u32);
                    for k in i..j {
                        if let Some(since) = due(k).checked_sub(origin) {
                            let w = (since / WINDOW_NS) as usize;
                            bounds.record(w, at - due(k), outstanding as u64);
                        }
                    }
                    i = j;
                }
                final_n.store(i, Ordering::SeqCst);
                park(&parked);
                (sent_at, backlog, err)
            })
            .map_err(|e| format!("spawn: {e}"))?
    };

    let receiver = {
        let (final_n, received, parked) = (
            Arc::clone(&final_n),
            Arc::clone(&received),
            Arc::clone(&parked),
        );
        let model = Arc::clone(model);
        std::thread::Builder::new()
            .name("gen-recv".into())
            .spawn(move || {
                // The same seed replays the sender's schedule, request by
                // request.
                let mut gen = SessionGen::new(&model, seed, REVAL_WRITE_FRAC);
                let mut checks = Checks::default();
                let mut verified = vec![false; model.paths.len()];
                let mut recs = Vec::new();
                // Staleness bound: the latest Last-Modified seen per
                // resource, and per written resource the deadline after
                // which its pre-write Last-Modified may no longer be served.
                let mut last_lm: Vec<Vec<u8>> = vec![Vec::new(); model.paths.len()];
                let mut guard: Vec<Option<(u64, Vec<u8>)>> = vec![None; model.paths.len()];
                let bound_ns = (REVAL_DELTA_MS + STALENESS_SLACK_MS) * 1_000_000;
                let mut i = 0;
                while i < final_n.load(Ordering::SeqCst) {
                    let resp = match conn.read_response() {
                        Ok(r) => r,
                        // The last response taken: the socket was shut to
                        // end this read.
                        Err(_) if i >= final_n.load(Ordering::SeqCst) => break,
                        Err(e) => {
                            checks.fail(format!("read: {e}"));
                            break;
                        }
                    };
                    let end = (Instant::now() - epoch).as_nanos() as u64;
                    let st = gen.next_step();
                    let r = st.res as usize;
                    received.store(i + 1, Ordering::SeqCst);
                    let got = check_response(
                        &model,
                        &conn,
                        &resp,
                        st.res,
                        st.write,
                        &mut verified,
                        &mut checks,
                    );
                    if let Some(o) = got {
                        if st.write {
                            guard[r] = Some((end + bound_ns, last_lm[r].clone()));
                        } else {
                            let lm = conn.last_modified(&resp);
                            if let Some((deadline, stale)) = &guard[r] {
                                if due(i) > *deadline && !stale.is_empty() && lm == stale.as_slice()
                                {
                                    checks.fail(format!(
                                        "{}: pre-write Last-Modified served more than \
                                         Δ+{STALENESS_SLACK_MS}ms after the write",
                                        model.paths[r]
                                    ));
                                }
                            }
                            if last_lm[r] != lm {
                                last_lm[r] = lm.to_vec();
                            }
                        }
                        recs.push(Rec {
                            due: due(i),
                            sent: 0,
                            end,
                            res: st.res,
                            write: st.write,
                            outcome: o,
                            timed: i >= lead_n,
                            backlog: 0,
                        });
                    }
                    i += 1;
                }
                park(&parked);
                (recs, checks)
            })
            .map_err(|e| format!("spawn: {e}"))?
    };

    let open_at = epoch + Duration::from_nanos(origin);
    let tracker = sys::StealTracker::start(open_at, Duration::from_nanos(WINDOW_NS));
    if let Some(wait) = open_at.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
    let before = Probe::take(&s.daemons);
    await_usable(
        &tracker,
        Some(&bounds),
        full_windows(seconds),
        open_at + cap,
    );
    stop.store(true, Ordering::SeqCst);
    // Let the receiver take every response sent, then end its last read.
    let drain_by = Instant::now() + Duration::from_secs(10);
    while (final_n.load(Ordering::SeqCst) == usize::MAX
        || received.load(Ordering::SeqCst) < final_n.load(Ordering::SeqCst))
        && Instant::now() < drain_by
    {
        std::thread::sleep(Duration::from_millis(1));
    }
    let _ = unblock.shutdown(std::net::Shutdown::Read);
    parked.wait();
    let after = Probe::take(&s.daemons);
    parked.wait();
    let steal = tracker.finish();
    let (sent_at, backlog, send_err) = sender
        .join()
        .map_err(|_| "sender thread panicked".to_owned())?;
    let (mut recs, mut checks) = receiver
        .join()
        .map_err(|_| "receiver thread panicked".to_owned())?;
    if let Some(e) = send_err {
        checks.fail(e);
    }
    if recs.len() + (checks.failed as usize) < sent_at.len() {
        checks.fail(format!(
            "{} of {} responses arrived",
            recs.len(),
            sent_at.len()
        ));
    }
    let mut windows = Windows::default();
    let mut completed = 0;
    for rec in recs.iter_mut() {
        // The request's index follows from its due time (`recs` skips
        // responses that failed a check).
        let i = ((rec.due - t0) / gap_ns) as usize;
        rec.sent = sent_at.get(i).copied().unwrap_or(rec.due);
        rec.backlog = backlog.get(i).copied().unwrap_or(0);
        if rec.timed {
            windows.add(origin, rec.end, rec.end - rec.due);
            completed += 1;
        }
    }
    Ok(LoopOut {
        recs,
        windows,
        steal,
        gen_ok: bounds.kept(),
        completed,
        checks,
        window: (before, after),
        origin,
    })
}

/// The end-to-end view of one pass: every timed request's latency, and
/// the request count and span the throughput is computed over.
struct Pass {
    setup: Setup,
    out: LoopOut,
}

impl Pass {
    fn timed(&self) -> impl Iterator<Item = &Rec> {
        self.out.recs.iter().filter(|r| r.timed)
    }

    fn timed_count(&self) -> f64 {
        self.timed().count() as f64
    }
}

fn run_pass(
    shape: Shape,
    seed: u64,
    seconds: u64,
    traced: bool,
    keep_recs: bool,
    epoch: Instant,
) -> Result<Pass, String> {
    let s = setup(shape, traced, epoch)?;
    // A run measures `seconds` of usable windows, waiting at most three
    // times that for them (twice per pass when tracing makes two passes).
    let cap = Duration::from_secs(seconds * if keep_recs { 2 } else { 3 });
    let out = match shape {
        Shape::HitZipf => closed_loop(&s, seed, seconds, cap, keep_recs, epoch)?,
        Shape::Reval { .. } => open_loop(&s, seed, seconds, cap, epoch)?,
    };
    Ok(Pass { setup: s, out })
}

/// Stop a pass's daemons and wait until their threads have exited, so
/// the next setup starts on a quiet process.
fn stop_daemons(d: Daemons) {
    d.stop();
    sys::await_threads_gone(&["proxy-", "origin-", "relay-"]);
}

/// Check conservation at quiescence: the client's `X-Cache` tally against
/// the proxy's outcome counters, and origin requests against the proxy's
/// upstream traffic.
fn conservation(pass: &Pass, checks: &mut Checks) {
    let p = &pass.out.window.1.proxy;
    let o = &pass.out.window.1.origin;
    let t = &checks.tally;
    let pairs = [
        ("hit", t[0], p.fresh_hits),
        ("validated", t[1], p.not_modified),
        ("miss", t[2], p.full_fetches),
        ("write", t[3], p.upstream_passthrough),
    ];
    for (name, client, proxy) in pairs {
        if client != proxy {
            checks.fail(format!("tally {name}: client {client} != proxy {proxy}"));
        }
    }
    if p.upstream_errors != 0 || p.prefix_hits != 0 {
        checks.fail(format!(
            "proxy upstream_errors={} prefix_hits={}",
            p.upstream_errors, p.prefix_hits
        ));
    }
    let upstream = p.requests - p.fresh_hits - p.prefix_hits + p.upstream_retries;
    if o.requests != upstream {
        checks.fail(format!(
            "origin requests {} != proxy requests - fresh hits + retries {upstream}",
            o.requests
        ));
    }
}

fn end_to_end(shape: Shape, pass: &Pass, use_window: &[bool], m: &mut Metrics) {
    let out = &pass.out;
    m.set(
        "lat_p50_us",
        out.windows.median_of(use_window, |w| quantile(w, 0.5)),
    );
    m.set(
        "lat_p90_us",
        out.windows.median_of(use_window, |w| quantile(w, 0.9)),
    );
    m.set(
        "lat_p99_us",
        out.windows.median_of(use_window, |w| quantile(w, 0.99)),
    );

    let rps = match shape {
        // Closed loop: completions per second over the usable windows.
        Shape::HitZipf => {
            let (mut done, mut windows) = (0, 0);
            for w in out.windows.selected(use_window) {
                done += w.len();
                windows += 1;
            }
            ratio(done as f64 * 1e9, (windows * WINDOW_NS) as f64)
        }
        // Open loop: the rate delivered, from the first timed request's
        // due time to the last response.
        Shape::Reval { .. } => {
            let first = pass.timed().map(|r| r.due).min().unwrap_or(0);
            let last = pass.timed().map(|r| r.end).max().unwrap_or(first);
            out.completed as f64 * 1e9 / (last - first).max(1) as f64
        }
    };
    m.set("rps", rps);
    let (a, b) = &out.window;
    let daemon_ns = sys::cpu_delta(&a.cpu, &b.cpu, &["proxy-", "origin-"]);
    m.set(
        "cpu_us_per_req",
        ratio(daemon_ns as f64 / 1000.0, out.completed as f64),
    );
    let samples: usize = out.windows.selected(use_window).map(Vec::len).sum();
    m.note("latency_samples", samples);
    let per_window: Vec<String> = out
        .windows
        .selected(use_window)
        .map(|w| {
            let mut us: Vec<f64> = w.iter().map(|&ns| ns as f64 / 1000.0).collect();
            format!("{:.1}", quantile(&mut us, 0.5))
        })
        .collect();
    m.note("window_p50_us", per_window.join(" "));
}

/// The untraced per-layer numbers: outcome mix and latencies, daemon
/// counters over the measured window, generator and host quality.
fn layer_counters(pass: &Pass, use_window: &[bool], m: &mut Metrics) {
    let n = pass.timed_count();
    let mut by: [Vec<f64>; 4] = Default::default();
    for r in pass.timed() {
        let w = (r.end.saturating_sub(pass.out.origin) / WINDOW_NS) as usize;
        if use_window.get(w).copied().unwrap_or(false) {
            by[outcome_index(r.outcome)].push((r.end - r.due) as f64 / 1000.0);
        }
    }
    let clean_n: usize = by.iter().map(Vec::len).sum();
    for (o, lats) in Outcome::ALL.iter().zip(by.iter_mut()) {
        m.set(
            format!("mix.{}_frac", o.name()),
            ratio(lats.len() as f64, clean_n as f64),
        );
        m.set(format!("proxy.{}_p50_us", o.name()), quantile(lats, 0.5));
    }
    let (a, b) = &pass.out.window;
    let (pa, pb) = (&a.proxy, &b.proxy);
    let d = |x: u64, y: u64| y.saturating_sub(x) as f64;
    let reqs = d(pa.requests, pb.requests);
    m.set(
        "proxy.fresh_hit_ratio",
        ratio(d(pa.fresh_hits, pb.fresh_hits), reqs),
    );
    m.set(
        "proxy.validations_per_req",
        ratio(d(pa.validations, pb.validations), reqs),
    );
    m.set(
        "proxy.not_modified_ratio",
        ratio(
            d(pa.not_modified, pb.not_modified),
            d(pa.validations, pb.validations),
        ),
    );
    let elements = d(pa.piggybacked_elements, pb.piggybacked_elements);
    m.set(
        "proxy.pb_elements_per_msg",
        ratio(elements, d(pa.piggyback_messages, pb.piggyback_messages)),
    );
    m.set(
        "proxy.pb_useful_ratio",
        ratio(
            d(pa.piggyback_freshens, pb.piggyback_freshens)
                + d(pa.piggyback_invalidations, pb.piggyback_invalidations),
            elements,
        ),
    );
    m.set(
        "proxy.upstream_retries",
        d(pa.upstream_retries, pb.upstream_retries),
    );
    m.set(
        "proxy.upstream_errors",
        d(pa.upstream_errors, pb.upstream_errors),
    );
    let (oa, ob) = (&a.origin, &b.origin);
    let origin_reqs = d(oa.requests, ob.requests);
    m.set("origin_reqs_per_req", ratio(origin_reqs, n));
    m.set(
        "origin_kb_per_req",
        ratio(d(oa.bytes_sent, ob.bytes_sent) / 1024.0, n),
    );
    m.set(
        "origin.pb_msgs_per_resp",
        ratio(
            d(a.origin_pb.piggybacks_sent, b.origin_pb.piggybacks_sent),
            origin_reqs,
        ),
    );
    m.set("origin.snapshot_swaps", d(a.generation, b.generation));
    let origin_ns = sys::cpu_delta(&a.cpu, &b.cpu, &["origin-"]);
    m.set("origin.cpu_us_per_req", ratio(origin_ns as f64 / 1000.0, n));
    let gen_ns = sys::cpu_delta(&a.cpu, &b.cpu, &["gen-"]);
    m.set("gen.cpu_us_per_req", ratio(gen_ns as f64 / 1000.0, n));
    let pool_used = d(
        a.pool.connects + a.pool.reuses,
        b.pool.connects + b.pool.reuses,
    );
    m.set(
        "pool.reuse_ratio",
        ratio(d(a.pool.reuses, b.pool.reuses), pool_used),
    );
    m.set(
        "pool.evicted_unhealthy",
        d(a.pool.evicted_unhealthy, b.pool.evicted_unhealthy),
    );
    let rd = |k: &str| {
        b.reactor.get(k).copied().unwrap_or(0.0) - a.reactor.get(k).copied().unwrap_or(0.0)
    };
    m.set("reactor.wakeups_per_req", ratio(rd("wakeups_total"), n));
    m.set(
        "reactor.affine_hit_ratio",
        ratio(
            d(pa.affine_hits, pb.affine_hits),
            d(pa.fresh_hits, pb.fresh_hits),
        ),
    );
    let up = rd("upstream_dials_total") + rd("upstream_reuses_total");
    m.set(
        "reactor.upstream_reuse_ratio",
        ratio(rd("upstream_reuses_total"), up),
    );
    m.set("reactor.offloads", rd("offloads_total"));
    let (mut late, backlog_max) = generator_quality(&pass.out, use_window);
    m.set("gen.late_p50_us", quantile(&mut late, 0.5));
    m.set("gen.late_p99_us", quantile(&mut late, 0.99));
    m.set("gen.backlog_max", backlog_max as f64);
    m.set("host.steal_pct", sys::steal_pct(a.steal, b.steal));
}

/// Run a socket workload; with `trace` set, follow the untraced pass with
/// a traced one and report the per-layer metrics.
pub fn run(shape: Shape, run: &Run, m: &mut Metrics) -> Result<(), String> {
    let epoch = Instant::now();
    let mut pass = run_pass(shape, run.seed, run.seconds, false, run.trace, epoch)?;
    let rss = pass.setup.rss_mb;
    let mut checks = std::mem::take(&mut pass.setup.checks);
    checks.merge(std::mem::take(&mut pass.out.checks));
    conservation(&pass, &mut checks);
    // A valid run has at least half the usable windows it aimed for.
    let min_usable = (full_windows(run.seconds) / 2).max(1);
    let use_window = usable_windows(&pass.out.steal, &pass.out.gen_ok, min_usable, m);
    let mut setups = vec![(pass.setup.total_s, pass.setup.steal)];
    if run.trace {
        layer_counters(&pass, &use_window, m);
        m.set("trace.gen_s", pass.setup.gen_s);
    } else {
        end_to_end(shape, &pass, &use_window, m);
    }
    let Pass {
        setup: s,
        out: untraced,
    } = pass;
    let model = s.model;
    stop_daemons(s.daemons);
    if !run.trace {
        let clean = |xs: &[(f64, f64)]| xs.iter().filter(|x| x.1 <= CLEAN_STEAL).count();
        while clean(&setups) < SETUP_REPEATS && setups.len() < SETUP_MAX {
            let mut extra = setup(shape, false, epoch)?;
            setups.push((extra.total_s, extra.steal));
            checks.merge(std::mem::take(&mut extra.checks));
            stop_daemons(extra.daemons);
        }
        m.note(
            "setups_clean",
            format!("{} of {}", clean(&setups), setups.len()),
        );
        // The clean setups, or failing enough of them the least stolen.
        setups.sort_by(|a, b| a.1.total_cmp(&b.1));
        let mut setup_s: Vec<f64> = setups.iter().take(SETUP_REPEATS).map(|x| x.0).collect();
        m.set("setup_s", quantile(&mut setup_s, 0.5));
        m.set("peak_rss_mb", rss);
    }
    m.attempted += checks.tally.iter().sum::<u64>() + checks.failed;
    m.failed += checks.failed;
    m.errors.extend(checks.errors);
    if run.trace {
        traced_pass(shape, run, &model, &untraced, epoch, m)?;
    }
    Ok(())
}

/// How late the open-loop generator sent (µs) and the most requests
/// outstanding at a send, over the requests due in the selected windows.
fn generator_quality(out: &LoopOut, use_window: &[bool]) -> (Vec<f64>, u32) {
    let mut late = Vec::new();
    let mut backlog_max = 0;
    for r in out.recs.iter().filter(|r| r.timed) {
        let w = (r.due.saturating_sub(out.origin) / WINDOW_NS) as usize;
        if use_window.get(w).copied().unwrap_or(false) {
            late.push(r.sent.saturating_sub(r.due) as f64 / 1000.0);
            backlog_max = backlog_max.max(r.backlog);
        }
    }
    (late, backlog_max)
}

/// The traced pass: the same workload with the timing relay between proxy
/// and origin. Spans give upstream exchange times and proxy self time;
/// the relay's captured messages feed the timed calls into `httpwire`,
/// `core` and `webcache`; the origin is probed directly.
fn traced_pass(
    shape: Shape,
    run: &Run,
    model: &SiteModel,
    untraced: &LoopOut,
    epoch: Instant,
    m: &mut Metrics,
) -> Result<(), String> {
    let mut pass = run_pass(shape, run.seed, run.seconds, true, true, epoch)?;
    let mut checks = std::mem::take(&mut pass.setup.checks);
    checks.merge(std::mem::take(&mut pass.out.checks));
    conservation(&pass, &mut checks);
    m.attempted += checks.tally.iter().sum::<u64>() + checks.failed;
    m.failed += checks.failed;
    m.errors.extend(checks.errors);
    let (origin, traced) = pass.setup.daemons.stop_front();
    let (exchanges, captured) = traced.expect("traced pass runs a relay");

    let recs = &pass.out.recs;
    let parents = match_parents(model, recs, &exchanges);
    let mut children = vec![0u64; recs.len()];
    for (e, p) in exchanges.iter().zip(&parents) {
        if let Some(i) = p {
            children[*i] += e.end_ns - e.start_ns;
        }
    }
    let window_start = recs
        .iter()
        .filter(|r| r.timed)
        .map(|r| r.sent)
        .min()
        .unwrap_or(0);
    let mut ex_us: Vec<f64> = exchanges
        .iter()
        .filter(|e| e.start_ns >= window_start)
        .map(|e| (e.end_ns - e.start_ns) as f64 / 1000.0)
        .collect();
    let timed_n = recs.iter().filter(|r| r.timed).count() as f64;
    m.set(
        "upstream.exchanges_per_req",
        ratio(ex_us.len() as f64, timed_n),
    );
    m.set("upstream.exchange_p50_us", quantile(&mut ex_us, 0.5));
    m.set("upstream.exchange_p99_us", quantile(&mut ex_us, 0.99));
    let mut self_us: [Vec<f64>; 4] = Default::default();
    let mut traced_by: [Vec<f64>; 4] = Default::default();
    for (r, covered) in recs.iter().zip(&children) {
        if r.timed {
            let o = outcome_index(r.outcome);
            self_us[o].push((r.end - r.sent).saturating_sub(*covered) as f64 / 1000.0);
            traced_by[o].push((r.end - r.due) as f64 / 1000.0);
        }
    }
    m.set("proxy.hit_self_p50_us", quantile(&mut self_us[0], 0.5));
    m.set(
        "proxy.validated_self_p50_us",
        quantile(&mut self_us[1], 0.5),
    );

    // Traced minus untraced at the median; and the per-outcome traced
    // means weighted by the untraced mix against the untraced mean. Means
    // are taken with latencies capped at the untraced p99, so one stall
    // does not decide them.
    let mut untraced_lat: Vec<f64> = untraced
        .recs
        .iter()
        .filter(|r| r.timed)
        .map(|r| (r.end - r.due) as f64 / 1000.0)
        .collect();
    let mut traced_all: Vec<f64> = traced_by.iter().flatten().copied().collect();
    let base_p50 = quantile(&mut untraced_lat, 0.5);
    let cap = quantile(&mut untraced_lat, 0.99);
    let capped_mean = |xs: &[f64]| mean(&xs.iter().map(|&x| x.min(cap)).collect::<Vec<_>>());
    m.set(
        "trace.overhead_pct",
        100.0 * ratio(quantile(&mut traced_all, 0.5) - base_p50, base_p50),
    );
    let base = capped_mean(&untraced_lat);
    let mut weighted = 0.0;
    for (o, lats) in traced_by.iter().enumerate() {
        let frac = m.get(&format!("mix.{}_frac", Outcome::ALL[o].name()));
        weighted += frac * capped_mean(lats);
    }
    let err_pct = 100.0 * ratio(weighted - base, base);
    m.set("trace.mix_mean_err_pct", err_pct);
    if matches!(shape, Shape::Reval { .. }) && err_pct.abs() > MIX_MEAN_TOLERANCE_PCT {
        m.invalid.push(format!(
            "traced per-outcome means weighted by the mix miss the untraced mean by \
             {err_pct:.1}% (tolerance {MIX_MEAN_TOLERANCE_PCT}%)"
        ));
    }
    m.set("trace.spans", (recs.len() + exchanges.len()) as f64);
    write_spans(run, model, recs, &exchanges, &parents);

    let (get_us, ims_us) = layers::origin_probes(origin.addr(), &captured);
    origin.stop();
    m.set("origin.get_p50_us", get_us);
    m.set("origin.ims_p50_us", ims_us);
    layers::timed_calls(&captured, m);
    let keys: Vec<u32> = untraced
        .recs
        .iter()
        .filter(|r| !r.write)
        .map(|r| r.res)
        .collect();
    layers::cache_ops(&keys, m);
    // The trace replay has no socket path; time it here too, so the
    // socket workloads' traced runs cover that layer.
    crate::replay::layer_probe(&crate::replay::generate(run.seed), m);

    // The machine's floor: a canned response the size of the run's mean
    // body, served by the benchmark's own loopback responder.
    let mut counts = vec![0u64; model.paths.len()];
    for r in untraced.recs.iter().filter(|r| r.timed && !r.write) {
        counts[r.res as usize] += 1;
    }
    let (floor_rps, floor_p50) = layers::loopback_floor(model.mean_body(&counts) as usize)?;
    m.set("loopback.rps", floor_rps);
    m.set("loopback.lat_p50_us", floor_p50);
    m.set(
        "proxy.hit_vs_floor",
        ratio(m.get("proxy.hit_p50_us"), floor_p50),
    );
    Ok(())
}

/// The client request each upstream exchange belongs to: the request for
/// the same resource whose send..receive window contains the exchange
/// (the latest such request).
fn match_parents(model: &SiteModel, recs: &[Rec], exchanges: &[Exchange]) -> Vec<Option<usize>> {
    let index: HashMap<&str, u32> = model
        .paths
        .iter()
        .enumerate()
        .map(|(i, p)| (p.as_str(), i as u32))
        .collect();
    let mut by_key: HashMap<(u32, bool), Vec<usize>> = HashMap::new();
    for (i, r) in recs.iter().enumerate() {
        by_key.entry((r.res, r.write)).or_default().push(i);
    }
    for v in by_key.values_mut() {
        v.sort_by_key(|&i| recs[i].sent);
    }
    exchanges
        .iter()
        .map(|e| {
            let (path, write) = match e.path.strip_prefix("/_pb/modify") {
                Some(p) => (p, true),
                None => (e.path.as_str(), false),
            };
            let cands = by_key.get(&(*index.get(path)?, write))?;
            let upto = cands.partition_point(|&i| recs[i].sent <= e.start_ns);
            cands[..upto]
                .iter()
                .rev()
                .find(|&&i| recs[i].end >= e.end_ns)
                .copied()
        })
        .collect()
}

/// Client requests whose spans are written out.
const SPANS_WRITTEN: usize = 200_000;

/// Write the traced pass's spans, one per line: id, parent, name, start
/// and end (ns since the run began), and the request's path and outcome.
fn write_spans(
    run: &Run,
    model: &SiteModel,
    recs: &[Rec],
    exchanges: &[Exchange],
    parents: &[Option<usize>],
) {
    let mut out = String::from("id\tparent\tname\tstart_ns\tend_ns\tdetail\n");
    // The first requests suffice to inspect a run; a fast closed loop
    // records millions.
    for (i, r) in recs.iter().enumerate().take(SPANS_WRITTEN) {
        out.push_str(&format!(
            "{}\t0\tclient.request\t{}\t{}\t{} {}\n",
            i + 1,
            r.sent,
            r.end,
            model.paths[r.res as usize],
            r.outcome.name()
        ));
    }
    for (j, (e, parent)) in exchanges.iter().zip(parents).enumerate() {
        if parent.is_some_and(|i| i >= SPANS_WRITTEN) {
            continue;
        }
        out.push_str(&format!(
            "{}\t{}\tupstream.exchange\t{}\t{}\t{} {}\n",
            recs.len() + j + 1,
            parent.map_or(0, |i| i + 1),
            e.start_ns,
            e.end_ns,
            e.path,
            e.status
        ));
    }
    crate::write_out(
        &format!("spans-{}-seed{}.tsv", run.workload, run.seed),
        &out,
    );
}
