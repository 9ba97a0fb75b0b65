//! Proxy→server access reporting (paper Section 5, future work: "we are
//! studying ways for the proxy to piggyback information to the server
//! about accesses that are satisfied at the cache").
//!
//! A server only sees cache misses and validations, so its access counts
//! and pairwise statistics under-represent popular cached resources. The
//! proxy can piggyback a compact report of cache-served accesses onto its
//! next request via the `Piggy-report` header:
//!
//! ```text
//! Piggy-report: "/a/b.html" 3, "/icons/logo.gif" 12
//! ```
//!
//! i.e. `quoted-path SP hit-count` clauses. The server folds the counts
//! into its resource table (access filters) and, for recency-based
//! volumes, treats reported resources as just-accessed.

use crate::table::ResourceTable;
use crate::types::{SourceId, Timestamp};
use crate::volume::VolumeProvider;
use std::collections::HashMap;
use std::fmt;

/// Name of the request header carrying the report.
pub const PIGGY_REPORT_HEADER: &str = "Piggy-report";

/// Bound on clauses per report: a proxy with a hot cache must not blow up
/// request headers.
pub const MAX_REPORT_ENTRIES: usize = 64;

/// A proxy-side accumulator of cache-served accesses, drained into a
/// `Piggy-report` header on the next upstream request to that server.
#[derive(Debug, Default, Clone)]
pub struct HitReporter {
    /// Hits per path since the last drain. A drained path keeps its entry
    /// at zero, so its next hit reuses the owned key instead of
    /// allocating it again.
    counts: HashMap<String, u64>,
    /// Paths with a nonzero count.
    pending: usize,
    /// The last drained clause when a drain was capped (reused buffer).
    cutoff: String,
}

/// Zeroed entries kept for reuse before a new path purges them.
const RETAINED_PATHS: usize = 4096;

impl HitReporter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a cache hit served for `path`. Repeat hits on a known path
    /// (the steady state) only bump the counter — the path is owned once,
    /// on first sight.
    pub fn record_hit(&mut self, path: &str) {
        if let Some(count) = self.counts.get_mut(path) {
            if *count == 0 {
                self.pending += 1;
            }
            *count += 1;
            return;
        }
        if self.counts.len() >= RETAINED_PATHS {
            self.counts.retain(|_, c| *c > 0);
        }
        self.counts.insert(path.to_owned(), 1);
        self.pending += 1;
    }

    /// Number of distinct paths pending.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Drain up to [`MAX_REPORT_ENTRIES`] of the highest-count entries into
    /// a header value; `None` when nothing is pending. Remaining entries
    /// stay queued for the next request.
    pub fn drain_header(&mut self) -> Option<String> {
        let mut out = Vec::new();
        self.drain_into(&mut out)
            .then(|| String::from_utf8(out).expect("paths are UTF-8"))
    }

    /// [`drain_header`](Self::drain_header) appended to `out` (a request
    /// being serialized) with no allocation beyond `out`'s own growth;
    /// `false`, with nothing appended, when nothing is pending. Entries
    /// go highest count first, ties by path.
    pub fn drain_into(&mut self, out: &mut Vec<u8>) -> bool {
        if self.pending == 0 {
            return false;
        }
        // The best MAX_REPORT_ENTRIES pending entries, kept sorted.
        let mut top = [(0u64, ""); MAX_REPORT_ENTRIES];
        let mut n = 0;
        for (path, &count) in &self.counts {
            if count == 0 {
                continue;
            }
            let better = |e: &(u64, &str)| e.0 > count || (e.0 == count && e.1 < path.as_str());
            let at = top[..n].partition_point(better);
            if at == MAX_REPORT_ENTRIES {
                continue;
            }
            let end = (n + 1).min(MAX_REPORT_ENTRIES);
            top.copy_within(at..end - 1, at + 1);
            top[at] = (count, path.as_str());
            n = end;
        }
        for (i, (count, path)) in top[..n].iter().enumerate() {
            if i > 0 {
                out.extend_from_slice(b", ");
            }
            out.push(b'"');
            out.extend_from_slice(path.as_bytes());
            out.extend_from_slice(b"\" ");
            out.extend_from_slice(crate::wire::decimal(*count, &mut [0; 20]).as_bytes());
        }
        let capped = n < self.pending;
        let cut_count = top[n - 1].0;
        if capped {
            self.cutoff.clear();
            self.cutoff.push_str(top[n - 1].1);
        }
        let cutoff = &self.cutoff;
        for (path, count) in self.counts.iter_mut() {
            let drained = *count > 0
                && (!capped || *count > cut_count || (*count == cut_count && path <= cutoff));
            if drained {
                *count = 0;
            }
        }
        self.pending -= n;
        true
    }
}

/// One decoded report clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportEntry {
    pub path: String,
    pub hits: u64,
}

/// Error decoding a `Piggy-report` value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportParseError(pub String);

impl fmt::Display for ReportParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad Piggy-report clause: {:?}", self.0)
    }
}

impl std::error::Error for ReportParseError {}

/// Parse a `Piggy-report` header value.
pub fn parse_report(value: &str) -> Result<Vec<ReportEntry>, ReportParseError> {
    let mut entries = Vec::new();
    visit_report(value, |path, hits| {
        entries.push(ReportEntry {
            path: path.to_owned(),
            hits,
        })
    })?;
    Ok(entries)
}

/// [`parse_report`] without allocating: the whole value is checked first,
/// and only a valid one is handed to `visit`, clause by clause, as
/// `(path, hits)` borrowed from `value`. A rejected value visits nothing.
pub fn visit_report(value: &str, mut visit: impl FnMut(&str, u64)) -> Result<(), ReportParseError> {
    fn clauses(value: &str) -> impl Iterator<Item = Result<(&str, u64), ReportParseError>> {
        value
            .split(',')
            .map(str::trim)
            .filter(|c| !c.is_empty())
            .enumerate()
            .map(|(i, clause)| {
                let bad = || ReportParseError(clause.to_owned());
                if i >= MAX_REPORT_ENTRIES {
                    return Err(ReportParseError("too many clauses".into()));
                }
                if !clause.starts_with('"') {
                    return Err(bad());
                }
                let close = clause[1..].find('"').ok_or_else(bad)? + 1;
                let hits: u64 = clause[close + 1..].trim().parse().map_err(|_| bad())?;
                Ok((&clause[1..close], hits))
            })
    }
    for clause in clauses(value) {
        clause?;
    }
    for (path, hits) in clauses(value).flatten() {
        visit(path, hits);
    }
    Ok(())
}

/// Server-side absorption: fold reported hits into access counts and
/// inform the volume provider (reported resources count as accessed by
/// the reporting source `now`, for recency-based schemes).
///
/// Unknown paths are ignored (a report can only describe resources the
/// server once served). Returns the number of absorbed entries.
pub fn absorb_report<V: VolumeProvider>(
    entries: &[ReportEntry],
    source: SourceId,
    now: Timestamp,
    table: &mut ResourceTable,
    volumes: &mut V,
) -> usize {
    let mut absorbed = 0;
    for e in entries {
        let Some(id) = table.lookup(&e.path) else {
            continue;
        };
        for _ in 0..e.hits.min(1_000) {
            table.count_access(id);
        }
        volumes.record_access(id, source, now, table);
        absorbed += 1;
    }
    absorbed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::volume::DirectoryVolumes;

    #[test]
    fn reporter_drains_highest_counts_first() {
        let mut rep = HitReporter::new();
        for _ in 0..3 {
            rep.record_hit("/hot.html");
        }
        rep.record_hit("/cold.html");
        assert_eq!(rep.pending(), 2);
        let header = rep.drain_header().unwrap();
        assert_eq!(header, "\"/hot.html\" 3, \"/cold.html\" 1");
        assert_eq!(rep.pending(), 0);
        assert_eq!(rep.drain_header(), None);
    }

    #[test]
    fn drained_paths_are_reused_and_ties_go_by_path() {
        let mut rep = HitReporter::new();
        for p in ["/b", "/a", "/c", "/a"] {
            rep.record_hit(p);
        }
        let mut out = b"Piggy-report: ".to_vec();
        assert!(rep.drain_into(&mut out));
        assert_eq!(out, b"Piggy-report: \"/a\" 2, \"/b\" 1, \"/c\" 1");
        assert_eq!(rep.pending(), 0);
        let mut none = Vec::new();
        assert!(!rep.drain_into(&mut none));
        assert!(none.is_empty());
        rep.record_hit("/c");
        assert_eq!(rep.pending(), 1);
        assert_eq!(rep.drain_header().as_deref(), Some("\"/c\" 1"));
    }

    #[test]
    fn reporter_respects_entry_cap() {
        let mut rep = HitReporter::new();
        for i in 0..(MAX_REPORT_ENTRIES + 10) {
            rep.record_hit(&format!("/r{i}.html"));
        }
        let header = rep.drain_header().unwrap();
        let parsed = parse_report(&header).unwrap();
        assert_eq!(parsed.len(), MAX_REPORT_ENTRIES);
        assert_eq!(rep.pending(), 10, "overflow stays queued");
        // Ties go by path: the overflow is the ten greatest paths.
        let mut all: Vec<String> = (0..(MAX_REPORT_ENTRIES + 10))
            .map(|i| format!("/r{i}.html"))
            .collect();
        all.sort();
        let sent: Vec<&str> = parsed.iter().map(|e| e.path.as_str()).collect();
        assert_eq!(
            sent,
            all[..MAX_REPORT_ENTRIES]
                .iter()
                .map(String::as_str)
                .collect::<Vec<_>>()
        );
        let rest = parse_report(&rep.drain_header().unwrap()).unwrap();
        assert_eq!(rest.len(), 10);
        assert_eq!(rest[0].path, all[MAX_REPORT_ENTRIES]);
        assert_eq!(rep.pending(), 0);
    }

    #[test]
    fn report_round_trip() {
        let mut rep = HitReporter::new();
        rep.record_hit("/a/b.html");
        rep.record_hit("/a/b.html");
        rep.record_hit("/x.gif");
        let header = rep.drain_header().unwrap();
        let entries = parse_report(&header).unwrap();
        assert_eq!(
            entries,
            vec![
                ReportEntry {
                    path: "/a/b.html".into(),
                    hits: 2
                },
                ReportEntry {
                    path: "/x.gif".into(),
                    hits: 1
                },
            ]
        );
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(parse_report("/a 1").is_err(), "unquoted path");
        assert!(parse_report("\"/a\" x").is_err(), "non-numeric count");
        assert!(parse_report("\"/a").is_err(), "unterminated quote");
        assert_eq!(parse_report("").unwrap(), vec![]);
        assert_eq!(parse_report("  ").unwrap(), vec![]);
    }

    #[test]
    fn absorb_updates_counts_and_volumes() {
        let mut table = ResourceTable::new();
        let mut vols = DirectoryVolumes::new(1);
        let a = table.register_path("/d/a.html", 100, Timestamp::ZERO);
        let b = table.register_path("/d/b.html", 100, Timestamp::ZERO);
        vols.assign(a, "/d/a.html");
        vols.assign(b, "/d/b.html");

        let entries = parse_report("\"/d/a.html\" 5, \"/unknown\" 2").unwrap();
        let absorbed = absorb_report(
            &entries,
            SourceId(9),
            Timestamp::from_secs(10),
            &mut table,
            &mut vols,
        );
        assert_eq!(absorbed, 1, "unknown path ignored");
        assert_eq!(table.meta(a).unwrap().access_count, 5);

        // The reported resource is now in its volume's FIFO: a request for
        // b piggybacks a even though the server never saw a directly.
        let msg = vols
            .piggyback(
                b,
                &crate::filter::ProxyFilter::default(),
                Timestamp::from_secs(11),
                &table,
            )
            .expect("piggyback from reported access");
        assert_eq!(msg.elements[0].resource, a);
    }

    #[test]
    fn absorb_caps_pathological_counts() {
        let mut table = ResourceTable::new();
        let mut vols = DirectoryVolumes::new(0);
        let a = table.register_path("/a", 1, Timestamp::ZERO);
        vols.assign(a, "/a");
        let entries = vec![ReportEntry {
            path: "/a".into(),
            hits: u64::MAX,
        }];
        absorb_report(
            &entries,
            SourceId(1),
            Timestamp::ZERO,
            &mut table,
            &mut vols,
        );
        assert_eq!(table.meta(a).unwrap().access_count, 1_000);
    }
}
