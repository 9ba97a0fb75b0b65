//! Read-mostly origin serving state: immutable snapshots behind an
//! atomically swapped `Arc`, with mutable per-resource access state held
//! in plain atomics outside the snapshot.
//!
//! The paper's server-side cost argument (Section 2.3: piggybacking adds
//! "no new TCP connections and no per-proxy server state") only holds if
//! computing a piggyback is cheap *per request*. A single global mutex
//! around the resource table and volume mapping serializes every response;
//! this module splits that state by write frequency instead:
//!
//! * [`OriginSnapshot`] — the resource table and volume mapping, rebuilt
//!   and swapped wholesale on the rare mutations (`/_pb/modify`,
//!   probability-volume epoch advance) and read lock-free-in-practice via
//!   [`SnapshotCell`]. A monotone `generation` counter identifies each
//!   snapshot, which is also the piggyback encode cache's invalidation key
//!   (see [`crate::piggy_cache`]).
//! * [`AccessState`] — per-resource access counts and recency, written on
//!   every request with relaxed atomic adds. Volume *membership* never
//!   changes per request, only per-resource counters do, so these live
//!   outside the snapshot and survive swaps.

use crate::element::{PiggybackElement, PiggybackMessage};
use crate::filter::ProxyFilter;
use crate::intern::directory_prefix;
use crate::table::ResourceTable;
use crate::types::{ResourceId, ResourceMeta, Timestamp, VolumeId};
use crate::volume::ProbabilityVolumes;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

/// A read-mostly cell holding an `Arc<T>` that readers load with a shared
/// (never exclusive) lock and writers replace wholesale.
///
/// The cell is replicated across cache-line-padded slots; each reader
/// thread pins itself to one slot, so concurrent loads from different
/// threads touch different cache lines and never contend on one lock word.
/// A store walks every replica — writers are rare by construction (table
/// modification, epoch advance), so the O(replicas) swap cost is paid off
/// the serving path.
#[derive(Debug)]
pub struct SnapshotCell<T> {
    replicas: Box<[Replica<T>]>,
}

/// One padded slot. The alignment keeps neighbouring replicas on distinct
/// cache lines so reader lock traffic does not ping-pong between cores.
#[derive(Debug)]
#[repr(align(64))]
struct Replica<T>(RwLock<Arc<T>>);

/// Next reader slot to hand out; threads grab one lazily and keep it.
static NEXT_REPLICA_HINT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static REPLICA_HINT: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

fn replica_hint() -> usize {
    REPLICA_HINT.with(|h| {
        let mut v = h.get();
        if v == usize::MAX {
            v = NEXT_REPLICA_HINT.fetch_add(1, Ordering::Relaxed);
            h.set(v);
        }
        v
    })
}

impl<T> SnapshotCell<T> {
    /// Default replica count: enough to spread a busy worker pool without
    /// making writer swaps noticeable.
    pub const DEFAULT_REPLICAS: usize = 8;

    pub fn new(value: Arc<T>) -> Self {
        Self::with_replicas(value, Self::DEFAULT_REPLICAS)
    }

    pub fn with_replicas(value: Arc<T>, replicas: usize) -> Self {
        let n = replicas.max(1);
        SnapshotCell {
            replicas: (0..n)
                .map(|_| Replica(RwLock::new(Arc::clone(&value))))
                .collect(),
        }
    }

    /// Clone the current snapshot handle (shared lock on this thread's
    /// replica only).
    pub fn load(&self) -> Arc<T> {
        let slot = replica_hint() % self.replicas.len();
        let guard = self.replicas[slot]
            .0
            .read()
            .unwrap_or_else(|e| e.into_inner());
        Arc::clone(&guard)
    }

    /// Replace the snapshot in every replica. Callers serialize stores
    /// themselves (e.g. under a swap mutex) so concurrent writers cannot
    /// interleave replica updates.
    pub fn store(&self, value: Arc<T>) {
        for r in &self.replicas {
            let mut guard = r.0.write().unwrap_or_else(|e| e.into_inner());
            *guard = Arc::clone(&value);
        }
    }
}

/// Mutable per-resource access state, updated on every request with
/// relaxed atomics and read when building piggybacks.
///
/// Sized once for a fixed resource id space (origin resource sets are
/// fixed at startup); ids beyond the initial table length are ignored.
#[derive(Debug)]
pub struct AccessState {
    counts: Box<[AtomicU64]>,
    /// `millis + 1` of the most recent access; 0 means never accessed.
    /// Monotone via `fetch_max`, mirroring move-to-front semantics where
    /// the latest touch wins.
    recency: Box<[AtomicU64]>,
}

impl AccessState {
    pub fn new(resources: usize) -> Self {
        AccessState {
            counts: (0..resources).map(|_| AtomicU64::new(0)).collect(),
            recency: (0..resources).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.counts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Record one access to `r` at `now`.
    pub fn record(&self, r: ResourceId, now: Timestamp) {
        self.record_many(r, 1, now);
    }

    /// Record `hits` accesses at once (report absorption), touching
    /// recency a single time.
    pub fn record_many(&self, r: ResourceId, hits: u64, now: Timestamp) {
        let Some(c) = self.counts.get(r.index()) else {
            return;
        };
        c.fetch_add(hits, Ordering::Relaxed);
        self.recency[r.index()].fetch_max(now.as_millis() + 1, Ordering::Relaxed);
    }

    /// Whole-history access count for `r`.
    pub fn count(&self, r: ResourceId) -> u64 {
        self.counts
            .get(r.index())
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Raw recency key (`millis + 1`; 0 = never accessed).
    pub fn recency_raw(&self, r: ResourceId) -> u64 {
        self.recency
            .get(r.index())
            .map_or(0, |t| t.load(Ordering::Relaxed))
    }

    /// Snapshot `r`'s metadata with the *live* access count overlaid, for
    /// filters that threshold on access frequency.
    pub fn live_meta(&self, table: &ResourceTable, r: ResourceId) -> Option<ResourceMeta> {
        let mut meta = *table.meta(r)?;
        meta.access_count = self.count(r);
        Some(meta)
    }
}

/// Directory-prefix volumes frozen for snapshot serving: membership only
/// (recency ordering comes from [`AccessState`] at piggyback time).
///
/// Volume ids are assigned in first-seen prefix order over table id order,
/// matching what [`crate::volume::DirectoryVolumes`] produces when
/// resources are registered in the same order — so RPV filters and wire
/// volume ids agree between the locked and snapshot serving paths.
#[derive(Debug)]
pub struct StaticDirectoryVolumes {
    level: usize,
    /// Indexed by `ResourceId`.
    membership: Vec<VolumeId>,
    /// Members per volume, in id order.
    members: Vec<Vec<ResourceId>>,
}

impl StaticDirectoryVolumes {
    pub fn build(table: &ResourceTable, level: usize) -> Self {
        let mut ids_by_prefix: HashMap<&str, VolumeId> = HashMap::new();
        let mut membership = Vec::with_capacity(table.len());
        let mut members: Vec<Vec<ResourceId>> = Vec::new();
        for (id, path, _) in table.iter() {
            let prefix = directory_prefix(path, level);
            let vol = *ids_by_prefix.entry(prefix).or_insert_with(|| {
                members.push(Vec::new());
                VolumeId(members.len() as u32 - 1)
            });
            debug_assert_eq!(membership.len(), id.index(), "table ids must be dense");
            membership.push(vol);
            members[vol.index()].push(id);
        }
        StaticDirectoryVolumes {
            level,
            membership,
            members,
        }
    }

    pub fn level(&self) -> usize {
        self.level
    }

    pub fn volume_of(&self, r: ResourceId) -> Option<VolumeId> {
        self.membership.get(r.index()).copied()
    }

    pub fn volume_count(&self) -> usize {
        self.members.len()
    }
}

/// A volume mapping frozen into a snapshot.
#[derive(Debug, Clone)]
pub enum FrozenVolumes {
    Directory(Arc<StaticDirectoryVolumes>),
    Probability(Arc<ProbabilityVolumes>),
}

impl FrozenVolumes {
    pub fn volume_of(&self, r: ResourceId) -> Option<VolumeId> {
        match self {
            FrozenVolumes::Directory(d) => d.volume_of(r),
            FrozenVolumes::Probability(_) => Some(VolumeId(r.0)),
        }
    }
}

/// The immutable serving state one request observes: a resource table, a
/// volume mapping, and the generation that identifies this build.
#[derive(Debug)]
pub struct OriginSnapshot {
    /// Monotone build counter; bumped on every rebuild-and-swap. Cache
    /// entries keyed on an older generation are stale by definition.
    pub generation: u64,
    /// Paths and metadata. `access_count` fields in here are the values at
    /// registration time — live counts come from [`AccessState`].
    pub table: Arc<ResourceTable>,
    pub volumes: FrozenVolumes,
}

impl OriginSnapshot {
    pub fn new(generation: u64, table: Arc<ResourceTable>, volumes: FrozenVolumes) -> Self {
        OriginSnapshot {
            generation,
            table,
            volumes,
        }
    }

    /// Derive the successor snapshot with a replacement table (e.g. after
    /// a Last-Modified bump), sharing the volume mapping.
    pub fn with_table(&self, table: ResourceTable) -> Self {
        OriginSnapshot {
            generation: self.generation + 1,
            table: Arc::new(table),
            volumes: self.volumes.clone(),
        }
    }

    /// Whether `(resource, filter)` piggybacks are reusable across
    /// requests within this generation, and under which wire volume id.
    ///
    /// Directory volumes are never cacheable (move-to-front content shifts
    /// with every access), and an access-count threshold reads live
    /// counters, so only probability volumes with no `minacc` qualify.
    pub fn cacheable_volume(&self, resource: ResourceId, filter: &ProxyFilter) -> Option<VolumeId> {
        match &self.volumes {
            FrozenVolumes::Probability(_) if filter.min_access_count.is_none() => {
                Some(VolumeId(resource.0))
            }
            _ => None,
        }
    }

    /// Build the piggyback for a response to `resource` under `filter`,
    /// using `access` for recency ordering and live access counts.
    ///
    /// Produces byte-identical messages to the locked
    /// [`PiggybackServer`](crate::server::PiggybackServer) path given the
    /// same access history (same membership, same recency keys, same
    /// tie-break by ascending resource id).
    pub fn piggyback(
        &self,
        resource: ResourceId,
        filter: &ProxyFilter,
        access: &AccessState,
    ) -> Option<PiggybackMessage> {
        let mut msg = PiggybackMessage::default();
        self.piggyback_into(resource, filter, access, &mut msg, &mut Vec::new())
            .then_some(msg)
    }

    /// [`piggyback`](Self::piggyback) into caller-owned buffers: `msg`
    /// (overwritten; meaningful only when this returns `true`) and
    /// `candidates` (ranking scratch), so a server answering many
    /// requests builds every piggyback without heap allocation.
    pub fn piggyback_into(
        &self,
        resource: ResourceId,
        filter: &ProxyFilter,
        access: &AccessState,
        msg: &mut PiggybackMessage,
        candidates: &mut Vec<(ResourceId, u64)>,
    ) -> bool {
        msg.elements.clear();
        match &self.volumes {
            FrozenVolumes::Directory(d) => {
                self.piggyback_directory(d, resource, filter, access, msg, candidates)
            }
            FrozenVolumes::Probability(p) => {
                self.piggyback_probability(p, resource, filter, access, msg)
            }
        }
    }

    fn piggyback_directory(
        &self,
        dirs: &StaticDirectoryVolumes,
        resource: ResourceId,
        filter: &ProxyFilter,
        access: &AccessState,
        msg: &mut PiggybackMessage,
        candidates: &mut Vec<(ResourceId, u64)>,
    ) -> bool {
        let Some(vol) = dirs.volume_of(resource) else {
            return false;
        };
        if !filter.allows_volume(vol) {
            return false;
        }
        let cap = filter.cap();
        if cap == 0 {
            return false;
        }
        // Accessed volume-mates passing the content filters, ranked most
        // recently accessed first (ties broken by ascending id), exactly
        // the move-to-front merge of DirectoryVolumes::piggyback.
        candidates.clear();
        for &r in &dirs.members[vol.index()] {
            if r == resource {
                continue;
            }
            let recency = access.recency_raw(r);
            if recency == 0 {
                continue; // never accessed: not in the logical FIFO
            }
            let Some(meta) = access.live_meta(&self.table, r) else {
                continue;
            };
            if !filter.admits(&meta) {
                continue;
            }
            candidates.push((r, recency));
        }
        if candidates.is_empty() {
            return false;
        }
        candidates.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
        candidates.truncate(cap);
        msg.volume = vol;
        msg.elements.extend(candidates.iter().filter_map(|&(r, _)| {
            self.table.meta(r).map(|m| PiggybackElement {
                resource: r,
                size: m.size,
                last_modified: m.last_modified,
            })
        }));
        true
    }

    fn piggyback_probability(
        &self,
        vols: &ProbabilityVolumes,
        resource: ResourceId,
        filter: &ProxyFilter,
        access: &AccessState,
        msg: &mut PiggybackMessage,
    ) -> bool {
        let vol = VolumeId(resource.0);
        if !filter.allows_volume(vol) {
            return false;
        }
        let min_p = filter.prob_threshold.unwrap_or(0.0);
        let cap = filter.cap();
        for &(s, p) in vols.volume(resource) {
            if msg.elements.len() >= cap {
                break;
            }
            if (p as f64) < min_p || s == resource {
                continue;
            }
            let Some(meta) = access.live_meta(&self.table, s) else {
                continue;
            };
            if !filter.admits(&meta) {
                continue;
            }
            msg.elements.push(PiggybackElement {
                resource: s,
                size: meta.size,
                last_modified: meta.last_modified,
            });
        }
        msg.volume = vol;
        !msg.elements.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::ProxyFilter;
    use crate::server::PiggybackServer;
    use crate::types::SourceId;
    use crate::volume::DirectoryVolumes;

    fn ts(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    #[test]
    fn snapshot_cell_load_store_across_threads() {
        let cell = Arc::new(SnapshotCell::new(Arc::new(0u64)));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    for _ in 0..10_000 {
                        let v = *cell.load();
                        assert!(v >= last, "snapshots must be monotone");
                        last = v;
                    }
                })
            })
            .collect();
        for g in 1..=100u64 {
            cell.store(Arc::new(g));
        }
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(*cell.load(), 100);
    }

    #[test]
    fn access_state_counts_and_recency() {
        let access = AccessState::new(2);
        let r = ResourceId(1);
        access.record(r, ts(10));
        access.record(r, ts(5)); // out-of-order touch must not regress
        assert_eq!(access.count(r), 2);
        assert_eq!(access.recency_raw(r), 11);
        assert_eq!(access.recency_raw(ResourceId(0)), 0);
        // Out-of-range ids are ignored.
        access.record(ResourceId(99), ts(1));
        assert_eq!(access.count(ResourceId(99)), 0);
    }

    /// The frozen directory path must reproduce DirectoryVolumes exactly:
    /// same volume ids, same element sets, same ordering.
    #[test]
    fn directory_snapshot_matches_locked_provider() {
        let mut server = PiggybackServer::new(DirectoryVolumes::new(1));
        let paths = [
            "/a/one.html",
            "/a/two.html",
            "/a/three.gif",
            "/b/four.html",
            "/b/five.html",
        ];
        let ids: Vec<ResourceId> = paths
            .iter()
            .map(|p| server.register_path(p, 700, Timestamp::ZERO))
            .collect();
        let table = Arc::new(server.table().clone());
        let dirs = Arc::new(StaticDirectoryVolumes::build(&table, 1));
        let snap = OriginSnapshot::new(0, Arc::clone(&table), FrozenVolumes::Directory(dirs));
        let access = AccessState::new(table.len());

        // Identical access histories on both sides (distinct millis so
        // recency ordering is unambiguous).
        for (i, &r) in ids.iter().enumerate() {
            let t = ts(10 + 3 * i as u64);
            server.record_access(r, SourceId(1), t);
            access.record(r, t);
        }

        for &r in &ids {
            for filter in [
                ProxyFilter::default(),
                ProxyFilter::builder().max_piggy(1).build(),
                ProxyFilter::builder().min_access_count(2).build(),
                ProxyFilter::disabled(),
            ] {
                let locked = server.piggyback(r, &filter, ts(100));
                let frozen = snap.piggyback(r, &filter, &access);
                assert_eq!(locked, frozen, "resource {r} filter {filter}");
            }
        }
    }

    #[test]
    fn probability_snapshot_honours_thresholds() {
        let mut table = ResourceTable::new();
        let a = table.register_path("/a.html", 100, ts(1));
        let b = table.register_path("/b.html", 200, ts(1));
        let c = table.register_path("/c.gif", 300, ts(1));
        let mut implications = HashMap::new();
        implications.insert(a, vec![(b, 0.9f32), (c, 0.3f32)]);
        let vols = Arc::new(ProbabilityVolumes::from_implications(0.2, implications));
        let table = Arc::new(table);
        let snap = OriginSnapshot::new(0, Arc::clone(&table), FrozenVolumes::Probability(vols));
        let access = AccessState::new(table.len());

        let all = snap.piggyback(a, &ProxyFilter::default(), &access).unwrap();
        assert_eq!(all.elements.len(), 2);
        assert_eq!(all.volume, VolumeId(a.0));

        let strict = ProxyFilter::builder().prob_threshold(0.5).build();
        let msg = snap.piggyback(a, &strict, &access).unwrap();
        assert_eq!(msg.elements.len(), 1);
        assert_eq!(msg.elements[0].resource, b);

        assert!(snap
            .piggyback(b, &ProxyFilter::default(), &access)
            .is_none());
    }

    #[test]
    fn cacheability_rules() {
        let table = Arc::new(ResourceTable::new());
        let prob = OriginSnapshot::new(
            0,
            Arc::clone(&table),
            FrozenVolumes::Probability(Arc::new(ProbabilityVolumes::default())),
        );
        let dir = OriginSnapshot::new(
            0,
            Arc::clone(&table),
            FrozenVolumes::Directory(Arc::new(StaticDirectoryVolumes::build(&table, 1))),
        );
        let plain = ProxyFilter::default();
        let minacc = ProxyFilter::builder().min_access_count(5).build();
        let r = ResourceId(3);
        assert_eq!(prob.cacheable_volume(r, &plain), Some(VolumeId(3)));
        assert_eq!(prob.cacheable_volume(r, &minacc), None, "live counts");
        assert_eq!(dir.cacheable_volume(r, &plain), None, "MTF recency");
    }

    #[test]
    fn with_table_bumps_generation_and_shares_volumes() {
        let mut table = ResourceTable::new();
        let a = table.register_path("/a", 1, ts(0));
        let snap = OriginSnapshot::new(
            7,
            Arc::new(table.clone()),
            FrozenVolumes::Probability(Arc::new(ProbabilityVolumes::default())),
        );
        table.touch_modified(a, ts(99));
        let next = snap.with_table(table);
        assert_eq!(next.generation, 8);
        assert_eq!(next.table.meta(a).unwrap().last_modified, ts(99));
    }
}
