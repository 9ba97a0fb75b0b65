//! The trace replay layer the paper's figures and tables are computed
//! with: generate the AIUSA profile, replay it against directory volumes,
//! and build and replay probability volumes. It has no socket path, so
//! the socket workloads' traced runs time it once on the run's seed.

use crate::Metrics;
use piggyback_core::filter::ProxyFilter;
use piggyback_core::metrics::{replay, MetricsReport, ReplayConfig, RpvConfig};
use piggyback_core::types::DurationMs;
use piggyback_core::volume::{
    DirectoryVolumes, ProbabilityVolumes, ProbabilityVolumesBuilder, SamplingMode, VolumeProvider,
};
use piggyback_trace::profiles;
use piggyback_trace::ServerLog;
use std::time::Instant;

/// AIUSA profile scale (the figure binaries' benchmark scale).
const AIUSA_SCALE: f64 = 0.3;
/// Directory cells: (level, maxpiggy), each replayed with RPV on.
const DIR_CELLS: [(usize, u32); 4] = [(1, 10), (1, 200), (2, 10), (2, 200)];
/// Probability volumes: pairwise window, build threshold, and the
/// maxpiggy of their replay.
const PROB_WINDOW_S: u64 = 300;
const PROB_THRESHOLD: f64 = 0.1;
const PROB_MAXPIGGY: u32 = 10;

pub(crate) fn generate(seed: u64) -> ServerLog {
    let mut p = profiles::aiusa(AIUSA_SCALE);
    // The seed draws the request sequence; the site stays the profile's.
    p.workload.seed ^= seed;
    p.generate()
}

fn replay_log<V: VolumeProvider>(
    log: &ServerLog,
    vols: &mut V,
    cfg: &ReplayConfig,
) -> MetricsReport {
    let mut table = log.table.clone();
    for e in &log.entries {
        table.count_access(e.resource);
    }
    replay(log.requests(), &mut table, vols, cfg)
}

fn dir_cell(log: &ServerLog, level: usize, maxpiggy: u32) -> MetricsReport {
    let mut vols = DirectoryVolumes::new(level);
    for (id, path, _) in log.table.iter() {
        vols.assign(id, path);
    }
    let cfg = ReplayConfig {
        base_filter: ProxyFilter::builder().max_piggy(maxpiggy).build(),
        rpv: Some(RpvConfig {
            max_len: 64,
            timeout: DurationMs::from_secs(300),
        }),
        ..Default::default()
    };
    replay_log(log, &mut vols, &cfg)
}

fn build_prob(log: &ServerLog) -> ProbabilityVolumes {
    let mut b = ProbabilityVolumesBuilder::new(
        DurationMs::from_secs(PROB_WINDOW_S),
        PROB_THRESHOLD,
        SamplingMode::Exact,
    );
    for (t, s, r) in log.triples() {
        b.observe(s, r, t);
    }
    b.build(PROB_THRESHOLD)
}

fn prob_cell(log: &ServerLog, vols: &ProbabilityVolumes) -> MetricsReport {
    let cfg = ReplayConfig {
        base_filter: ProxyFilter::builder().max_piggy(PROB_MAXPIGGY).build(),
        ..Default::default()
    };
    replay_log(log, &mut vols.clone(), &cfg)
}

/// A replayed cell must cover the whole log and predict no more requests
/// than it saw.
fn check_cell(log: &ServerLog, cell: &str, r: &MetricsReport, m: &mut Metrics) {
    m.attempted += 1;
    if r.predicted > r.requests || r.requests != log.entries.len() as u64 {
        m.fail(format!(
            "replay cell {cell}: predicted {} of {} requests ({} in the log)",
            r.predicted,
            r.requests,
            log.entries.len()
        ));
    }
}

/// Time the replay layer once on `log`: the directory cells, the
/// probability-volume build, and its replay; then check every cell.
pub(crate) fn layer_probe(log: &ServerLog, m: &mut Metrics) {
    let per_rec = |t: Instant, n: u64| t.elapsed().as_nanos() as f64 / n.max(1) as f64;
    let t = Instant::now();
    let dir: Vec<MetricsReport> = DIR_CELLS
        .iter()
        .map(|&(level, maxpiggy)| dir_cell(log, level, maxpiggy))
        .collect();
    m.set(
        "core.replay_dir_ns_per_rec",
        per_rec(t, dir.iter().map(|r| r.requests).sum()),
    );
    let t = Instant::now();
    let vols = build_prob(log);
    m.set("core.prob_build_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let prob = prob_cell(log, &vols);
    m.set("core.replay_prob_ns_per_rec", per_rec(t, prob.requests));
    for (r, (level, maxpiggy)) in dir.iter().zip(DIR_CELLS) {
        check_cell(log, &format!("dir L{level} maxpiggy {maxpiggy}"), r, m);
    }
    check_cell(log, "probability", &prob, m);
}
