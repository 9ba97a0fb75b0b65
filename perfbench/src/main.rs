//! The repository benchmark. One workload per invocation:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hit-zipf --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! workload untraced and then traced, and reports the per-layer metrics.
//! `--workload all` runs every workload in turn. Every run checks the
//! outputs; a failed check makes the result `correct: false` and the exit
//! code 1. The last line of standard output is the result as JSON; the
//! full record (host context, validity, notes) and the traced run's spans
//! are written under `perfbench/out/`.

mod conn;
mod layers;
mod net;
mod relay;
mod replay;
mod site;
mod sys;

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["hit-zipf", "reval-rw", "reval-rw-reactor"];

/// The seed results are quoted at; any other seed is held out.
const DEFAULT_SEED: u64 = 1;

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("rps", "req/s"),
    ("lat_p50_us", "us"),
    ("lat_p90_us", "us"),
    ("cpu_us_per_req", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// layer a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 57] = [
    ("proxy.hit_p50_us", "us"),
    ("proxy.validated_p50_us", "us"),
    ("proxy.miss_p50_us", "us"),
    ("proxy.write_p50_us", "us"),
    ("mix.hit_frac", "ratio"),
    ("mix.validated_frac", "ratio"),
    ("mix.miss_frac", "ratio"),
    ("mix.write_frac", "ratio"),
    ("proxy.hit_self_p50_us", "us"),
    ("proxy.validated_self_p50_us", "us"),
    ("proxy.fresh_hit_ratio", "ratio"),
    ("proxy.validations_per_req", "ratio"),
    ("proxy.not_modified_ratio", "ratio"),
    ("proxy.pb_elements_per_msg", "count"),
    ("proxy.pb_useful_ratio", "ratio"),
    ("proxy.upstream_retries", "count"),
    ("proxy.upstream_errors", "count"),
    ("origin_reqs_per_req", "ratio"),
    ("origin_kb_per_req", "KiB"),
    ("upstream.exchange_p50_us", "us"),
    ("upstream.exchange_p99_us", "us"),
    ("upstream.exchanges_per_req", "ratio"),
    ("pool.reuse_ratio", "ratio"),
    ("pool.evicted_unhealthy", "count"),
    ("reactor.wakeups_per_req", "ratio"),
    ("reactor.affine_hit_ratio", "ratio"),
    ("reactor.upstream_reuse_ratio", "ratio"),
    ("reactor.offloads", "count"),
    ("origin.get_p50_us", "us"),
    ("origin.ims_p50_us", "us"),
    ("origin.pb_msgs_per_resp", "ratio"),
    ("origin.snapshot_swaps", "count"),
    ("origin.cpu_us_per_req", "us"),
    ("httpwire.req_parse_ns", "ns"),
    ("httpwire.resp_parse_ns", "ns"),
    ("httpwire.resp_write_ns", "ns"),
    ("core.filter_parse_ns", "ns"),
    ("core.pvolume_decode_ns", "ns"),
    ("core.pvolume_encode_ns", "ns"),
    ("core.replay_dir_ns_per_rec", "ns"),
    ("core.replay_prob_ns_per_rec", "ns"),
    ("core.prob_build_s", "s"),
    ("webcache.lookup_ns", "ns"),
    ("webcache.insert_ns", "ns"),
    ("webcache.freshen_ns", "ns"),
    ("trace.gen_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.mix_mean_err_pct", "%"),
    ("trace.spans", "count"),
    ("gen.cpu_us_per_req", "us"),
    ("gen.late_p50_us", "us"),
    ("gen.late_p99_us", "us"),
    ("gen.backlog_max", "count"),
    ("host.steal_pct", "%"),
    ("loopback.rps", "req/s"),
    ("loopback.lat_p50_us", "us"),
    ("proxy.hit_vs_floor", "ratio"),
];

pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// Everything one run reports.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
    notes: BTreeMap<String, String>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Why the run's figures should not be trusted (too few usable
    /// windows by the cap, or a traced breakdown that misses the untraced
    /// mean); empty for a valid run.
    pub invalid: Vec<String>,
}

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, v: f64) {
        self.values.insert(name.into(), v);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    pub fn note(&mut self, name: &str, v: impl std::fmt::Display) {
        self.notes.insert(name.to_owned(), v.to_string());
    }

    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(msg);
        }
    }
}

fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Write a file under the benchmark's output directory (best effort: a
/// read-only checkout loses the record, not the result).
pub fn write_out(name: &str, text: &str) {
    let dir = out_dir();
    let _ = std::fs::create_dir_all(&dir);
    if let Err(e) = std::fs::write(dir.join(name), text) {
        eprintln!("perfbench: cannot write {name}: {e}");
    }
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}|all> [--seed N] [--seconds N] [--trace 0|1]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Run, String> {
    let mut run = Run {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => run.seed = num()?,
            "--seconds" => run.seconds = num()?.max(1),
            "--trace" => run.trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if run.workload != "all" && !WORKLOADS.contains(&run.workload.as_str()) {
        return Err(format!("unknown workload {:?}", run.workload));
    }
    Ok(run)
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Run one workload, print its metrics and result line; true when every
/// output check passed.
fn run_one(run: &Run) -> bool {
    let mut m = Metrics::default();
    let steal0 = sys::cpu_steal();
    let res = match run.workload.as_str() {
        "hit-zipf" => net::run(net::Shape::HitZipf, run, &mut m),
        "reval-rw" => net::run(net::Shape::Reval { reactor: false }, run, &mut m),
        _ => net::run(net::Shape::Reval { reactor: true }, run, &mut m),
    };
    if let Err(e) = res {
        m.fail(format!("run aborted: {e}"));
    }
    if m.attempted < m.failed.max(1) {
        // An aborted run can fail outside any checked response, or check
        // nothing at all: each failure counts as an attempt, and a run
        // that checked nothing is one failed attempt.
        if m.failed == 0 {
            m.fail("no request was checked".into());
        }
        m.attempted = m.failed;
    }
    let steal = sys::steal_pct(steal0, sys::cpu_steal());
    let correct = m.failed == 0;
    let declared: &[(&str, &str)] = if run.trace { &PER_LAYER } else { &END_TO_END };

    println!(
        "# {} seed={} seconds={} trace={}",
        run.workload, run.seed, run.seconds, run.trace as u8
    );
    let mut metrics_json = Vec::new();
    for &(name, unit) in declared {
        let v = m.get(name);
        println!("{name:<30} {v:>16.4} {unit}");
        metrics_json.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(v),
            json_str(unit)
        ));
    }
    for (k, v) in &m.notes {
        println!("# {k}: {v}");
    }
    for e in &m.errors {
        println!("# CHECK FAILED: {e}");
    }
    for r in &m.invalid {
        println!("# INVALID RUN: {r}");
    }

    // The full record: every value measured, not only the declared set.
    let mut record = String::from("{\n");
    let _ = writeln!(record, "  \"workload\": {},", json_str(&run.workload));
    let _ = writeln!(record, "  \"seed\": {},", run.seed);
    let _ = writeln!(record, "  \"default_seed\": {DEFAULT_SEED},");
    let _ = writeln!(record, "  \"seconds\": {},", run.seconds);
    let _ = writeln!(record, "  \"trace\": {},", run.trace);
    for (k, v) in sys::host_context() {
        let _ = writeln!(record, "  {}: {},", json_str(k), json_str(&v));
    }
    let _ = writeln!(record, "  \"steal_pct\": {},", json_num(steal));
    let _ = writeln!(record, "  \"valid\": {},", m.invalid.is_empty());
    let list = |xs: &[String]| {
        xs.iter()
            .map(|x| json_str(x))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let _ = writeln!(record, "  \"invalid_reasons\": [{}],", list(&m.invalid));
    let _ = writeln!(record, "  \"check_failures\": [{}],", list(&m.errors));
    let notes: Vec<String> = m
        .notes
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let _ = writeln!(record, "  \"notes\": {{{}}},", notes.join(", "));
    let values: Vec<String> = m
        .values
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
        .collect();
    let _ = writeln!(record, "  \"values\": {{{}}},", values.join(", "));
    let _ = writeln!(
        record,
        "  \"correct\": {correct}, \"attempted\": {}, \"failed\": {}\n}}",
        m.attempted, m.failed
    );
    write_out(
        &format!(
            "result-{}-seed{}-trace{}.json",
            run.workload, run.seed, run.trace as u8
        ),
        &record,
    );

    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.attempted,
        m.failed,
        metrics_json.join(", ")
    );
    correct
}

fn main() {
    let run = match parse_args() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let names: Vec<String> = if run.workload == "all" {
        WORKLOADS.iter().map(|s| s.to_string()).collect()
    } else {
        vec![run.workload.clone()]
    };
    let mut ok = true;
    for workload in names {
        ok &= run_one(&Run { workload, ..run });
    }
    std::process::exit(if ok { 0 } else { 1 });
}
