//! Host and process probes read from `/proc`, and sample statistics.

use std::collections::HashMap;
use std::fs;

/// CPU time (ns) per live thread of this process, keyed by tid, with the
/// thread's name, from `/proc/self/task/*/schedstat` (time on CPU, user
/// and system, in ns).
pub fn thread_cpu() -> HashMap<u64, (String, u64)> {
    let mut out = HashMap::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for ent in dir.flatten() {
        let Ok(tid) = ent.file_name().to_string_lossy().parse::<u64>() else {
            continue;
        };
        let base = ent.path();
        let name = fs::read_to_string(base.join("comm")).unwrap_or_default();
        let ns = fs::read_to_string(base.join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok());
        if let Some(ns) = ns {
            out.insert(tid, (name.trim_end().to_owned(), ns));
        }
    }
    out
}

/// CPU (ns) spent between two [`thread_cpu`] snapshots by threads whose
/// name starts with any of `prefixes`. Threads born in between count
/// from zero.
pub fn cpu_delta(
    before: &HashMap<u64, (String, u64)>,
    after: &HashMap<u64, (String, u64)>,
    prefixes: &[&str],
) -> u64 {
    after
        .iter()
        .filter(|(_, (name, _))| prefixes.iter().any(|p| name.starts_with(p)))
        .map(|(tid, (_, ns))| ns.saturating_sub(before.get(tid).map_or(0, |b| b.1)))
        .sum()
}

/// Wait (up to 5 s) until no thread whose name starts with one of
/// `prefixes` is left: stopped daemons detach their workers, which exit
/// once their connections close.
pub fn await_threads_gone(prefixes: &[&str]) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while std::time::Instant::now() < deadline {
        let alive = thread_cpu()
            .values()
            .any(|(name, _)| prefixes.iter().any(|p| name.starts_with(p)));
        if !alive {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn status_kb(key: &str) -> Option<u64> {
    let s = fs::read_to_string("/proc/self/status").ok()?;
    let line = s.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Aggregate `cpu` line of `/proc/stat`: (steal jiffies, total jiffies).
pub fn cpu_steal() -> (u64, u64) {
    let s = fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = s.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let f: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already included in user/nice.
    let total: u64 = f.iter().take(8).sum();
    (f.get(7).copied().unwrap_or(0), total)
}

/// Steal time as a percentage of all CPU time between two [`cpu_steal`]
/// readings.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    100.0 * after.0.saturating_sub(before.0) as f64 / total as f64
}

/// Tracks, window by window, the share of CPU time the hypervisor stole:
/// a thread of its own reads `/proc/stat` at each window boundary.
pub struct StealTracker {
    shares: std::sync::Arc<std::sync::Mutex<Vec<f64>>>,
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

impl StealTracker {
    /// Windows start at `origin` and last `window` each.
    pub fn start(origin: std::time::Instant, window: std::time::Duration) -> Self {
        let shares = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let (shares2, stop2) = (shares.clone(), stop.clone());
        let handle = std::thread::Builder::new()
            .name("bench-steal".into())
            .spawn(move || {
                let mut prev = None;
                for k in 0u32.. {
                    if let Some(wait) =
                        (origin + window * k).checked_duration_since(std::time::Instant::now())
                    {
                        std::thread::sleep(wait);
                    }
                    if stop2.load(std::sync::atomic::Ordering::SeqCst) {
                        return;
                    }
                    let now = cpu_steal();
                    if let Some(p) = prev {
                        shares2
                            .lock()
                            .expect("steal shares")
                            .push(steal_pct(p, now) / 100.0);
                    }
                    prev = Some(now);
                }
            })
            .expect("spawn steal tracker");
        StealTracker {
            shares,
            stop,
            handle,
        }
    }

    /// Shares of the windows completed so far.
    pub fn shares(&self) -> Vec<f64> {
        self.shares.lock().expect("steal shares").clone()
    }

    /// Stop at the next boundary; the shares of every completed window.
    pub fn finish(self) -> Vec<f64> {
        self.stop.store(true, std::sync::atomic::Ordering::SeqCst);
        self.handle.join().expect("steal tracker panicked");
        let shares = self.shares.lock().expect("steal shares").clone();
        shares
    }
}

/// Revision, processor count and kernel, recorded with every result so a
/// noisy run can be explained later.
pub fn host_context() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".into());
    vec![
        ("git_rev", git_rev()),
        ("nproc", nproc.to_string()),
        ("kernel", kernel),
    ]
}

/// The checked-out revision, read from `.git` without running git; a
/// checkout without history reports `unknown`.
fn git_rev() -> String {
    let head = match fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "unknown".into(),
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = fs::read_to_string(format!(".git/{r}")) {
        return rev.trim().to_owned();
    }
    fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The `q`-quantile (nearest rank) of `xs`, sorting it in place; 0 when
/// empty.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_unstable_by(|a, b| a.total_cmp(b));
    let idx = ((xs.len() - 1) as f64 * q).round() as usize;
    xs[idx]
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `n / d`, or 0 when `d` is 0.
pub fn ratio(n: f64, d: f64) -> f64 {
    if d == 0.0 {
        0.0
    } else {
        n / d
    }
}
