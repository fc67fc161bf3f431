//! The store proper: objects, versioned pages, commits, and recovery.
//!
//! [`ObjectStore`] is a thin engine over four passive parts, each
//! testable alone: `index` (per-page version chains and the one
//! visibility lookup), `alloc` (block allocation, free-list fencing,
//! packed-block refcounts), `format` (every on-disk encoder/decoder)
//! and `cache` (page cache and watermarks: volatile state that restarts
//! cold). Its `impl` is split by concern: this file holds identity,
//! group staging and observability; `write` stages and commits, `read`
//! serves and materializes pages, `recover` replays the log, `reclaim`
//! drops history and aborts drafts. `types` is the public vocabulary.

mod alloc;
mod cache;
mod format;
mod index;
mod read;
mod reclaim;
mod recover;
mod types;
mod write;

pub use index::View;
pub use types::{
    CommitInfo, ObjectKind, Oid, RedoRecordOut, RedoWrite, Result, StoreError, StoreGauges, PAGE,
};

pub(crate) use alloc::contiguous_runs;

use crate::journal::Journal;
use alloc::Allocator;
use aurora_frames::FrameArena;
use aurora_sim::cost::Charge;
use aurora_storage::device::SharedDevice;
use aurora_trace::Histogram;
use cache::{PageCache, Watermarks};
use index::Index;
use std::collections::{BTreeSet, HashMap};

/// Pending changes for one group's in-flight (uncommitted) epoch.
#[derive(Clone, Debug, Default)]
struct DirtyState {
    objects: BTreeSet<u64>,
    max_completion: u64,
}

/// Tells the device that `blocks` (sorted runs, as the allocator frees
/// them) hold nothing anyone will read: one discard per contiguous run.
fn discard(dev: &SharedDevice, blocks: &[u64]) {
    if blocks.is_empty() {
        return;
    }
    let mut dev = dev.lock();
    for run in contiguous_runs(blocks) {
        dev.discard(blocks[run.start], run.len() as u64);
    }
}

/// The workspace's 64-bit content hash ([`aurora_sim::hash`]): validates
/// metadata records at recovery, every data page, and journal records.
pub(crate) use aurora_sim::content_hash;

/// The Aurora object store.
pub struct ObjectStore {
    dev: SharedDevice,
    charge: Charge,
    index: Index,
    /// Committed epochs, ascending.
    epochs: Vec<u64>,
    /// Which consistency group committed each epoch.
    epoch_groups: HashMap<u64, u64>,
    /// The next epoch number to commit. Epoch numbers are assigned at
    /// commit time, so commit order == log order even with many drafts
    /// concurrently open.
    cur_epoch: u64,
    /// The staging cursor: which group's draft subsequent mutations land
    /// in. The simulation is serial, so each pipeline phase-step sets the
    /// cursor on entry; ungrouped callers stay on draft 0.
    staging: u64,
    /// One open draft per group with staged (uncommitted) changes.
    drafts: HashMap<u64, DirtyState>,
    /// Per-group durable floor: `durable_at` of the group's last commit.
    last_durable: HashMap<u64, u64>,
    alloc: Allocator,
    /// Lowest retained epoch, persisted in every commit record.
    floor: u64,
    /// Metadata log: fixed region [meta_start, data_start).
    meta_start: u64,
    meta_head: u64,
    data_start: u64,
    next_oid: u64,
    /// The frame arena pages flow through (shared with the VM by the
    /// orchestrator so a page keeps one identity end to end).
    arena: FrameArena,
    cache: PageCache,
    /// Next log sequence number. LSNs are assigned at write time (one
    /// per page version, across all groups) and recovered from the
    /// newest commit record's consistency-point LSN.
    next_lsn: u64,
    marks: Watermarks,
    /// Consistency-point LSN per committed epoch (the highest LSN any of
    /// its page records carries; epochs without page writes inherit the
    /// previous point).
    epoch_cpls: HashMap<u64, u64>,
    redo: RedoStats,
}

/// Redo observability counters since open.
#[derive(Clone, Debug, Default)]
struct RedoStats {
    appended: u64,
    materializations: u64,
    bytes_saved: u64,
    /// Materialization chain lengths.
    chain_len: Histogram,
}

impl ObjectStore {
    /// An empty store over `dev` with the metadata log at
    /// `[meta_start, data_start)` — what both `format` and `open` start
    /// from.
    fn empty(dev: SharedDevice, charge: Charge, meta_start: u64, data_start: u64) -> Self {
        let capacity = dev.lock().capacity_blocks();
        Self {
            dev,
            charge,
            index: Index::default(),
            epochs: Vec::new(),
            epoch_groups: HashMap::new(),
            cur_epoch: 1,
            staging: 0,
            drafts: HashMap::new(),
            last_durable: HashMap::new(),
            alloc: Allocator::new(data_start, capacity),
            floor: 0,
            meta_start,
            meta_head: meta_start,
            data_start,
            next_oid: 1,
            arena: FrameArena::new(),
            cache: PageCache::default(),
            next_lsn: 1,
            marks: Watermarks::default(),
            epoch_cpls: HashMap::new(),
            redo: RedoStats::default(),
        }
    }

    /// Formats a device and creates an empty store. `meta_blocks` sizes
    /// the metadata log region.
    pub fn format(dev: SharedDevice, charge: Charge, meta_blocks: u64) -> Result<Self> {
        assert!(
            meta_blocks + 1 < dev.lock().capacity_blocks(),
            "device too small for metadata region"
        );
        let store = Self::empty(dev, charge, 1, 1 + meta_blocks);
        let block = format::encode_superblock(store.meta_start, store.data_start);
        let mut dev = store.dev.lock();
        dev.write(0, &block).map_err(StoreError::dev("superblock", None, 0, 0))?;
        dev.flush();
        drop(dev);
        Ok(store)
    }

    /// Allocates a fresh OID.
    pub fn alloc_oid(&mut self) -> Oid {
        let o = Oid(self.next_oid);
        self.next_oid += 1;
        o
    }

    /// One data block, with any cached frame for its old content dropped:
    /// the block is about to hold different bytes, and a stale frame must
    /// never be served for it.
    pub(crate) fn alloc_block(&mut self) -> Result<u64> {
        self.reclaim_matured();
        let b = self.alloc.alloc_block()?;
        self.cache.frames.remove(&b);
        Ok(b)
    }

    /// Returns never-committed blocks to the allocator, discarding them
    /// on the device.
    pub(crate) fn free_blocks(&mut self, blocks: Vec<u64>) {
        discard(&self.dev, self.alloc.free(blocks));
    }

    /// Frees reclaimed history whose floor commit is durable by now. Runs
    /// before every allocation, so a block is always discarded before it
    /// can be handed out again.
    fn reclaim_matured(&mut self) {
        let now = self.charge.clock().now();
        discard(&self.dev, self.alloc.reclaim_matured(now));
    }

    /// Points the staging cursor at `group`: subsequent mutations land in
    /// that group's draft. Each group's draft is an independently open
    /// epoch — sealed by [`commit_for`](Self::commit_for), discarded by
    /// [`abort_epoch_for`](Self::abort_epoch_for). Ungrouped callers
    /// (file system, journals, migration) stay on draft 0.
    pub fn stage_for(&mut self, group: u64) {
        self.staging = group;
    }

    /// The group the staging cursor points at.
    pub fn staging(&self) -> u64 {
        self.staging
    }

    /// Number of concurrently open drafts (groups with staged state).
    pub fn open_drafts(&self) -> u64 {
        self.drafts.len() as u64
    }

    /// Drafts whose staged data writes are still in flight at `now` —
    /// the scheduler's device-backpressure signal.
    pub fn inflight_drafts(&self, now: u64) -> u64 {
        self.drafts.values().filter(|d| d.max_completion > now).count() as u64
    }

    /// Earliest virtual time at which an in-flight draft's device writes
    /// complete (`None` when no draft has writes outstanding past `now`).
    /// Schedulers use this to jump the clock to the next queue-drain
    /// event instead of spinning.
    pub fn next_draft_completion(&self, now: u64) -> Option<u64> {
        self.drafts.values().map(|d| d.max_completion).filter(|&t| t > now).min()
    }

    /// Committed epochs belonging to `group`, ascending.
    pub fn epochs_for(&self, group: u64) -> Vec<u64> {
        self.epochs.iter().copied().filter(|&e| self.group_of_epoch(e) == group).collect()
    }

    /// The group that committed `epoch` (0 for an unknown epoch).
    pub fn group_of_epoch(&self, epoch: u64) -> u64 {
        self.epoch_groups.get(&epoch).copied().unwrap_or(0)
    }

    /// Per-group durable floor: virtual time at which the group's last
    /// commit became durable (0 if the group has never committed since
    /// the store opened).
    pub fn durable_floor(&self, group: u64) -> u64 {
        self.last_durable.get(&group).copied().unwrap_or(0)
    }

    /// The draft the staging cursor points at, created on first use.
    fn draft_mut(&mut self) -> &mut DirtyState {
        self.drafts.entry(self.staging).or_default()
    }

    /// Advances the VCL over the completion list's durable prefix and
    /// the VDL over durable commit points, then emits the `redo.watermark`
    /// instant the online invariant checker observes (VDL ≤ VCL).
    fn note_watermarks(&mut self) {
        self.marks.advance(self.charge.clock().now());
        let trace = self.charge.trace();
        if trace.is_enabled() {
            let (vcl, vdl) = (self.marks.vcl, self.marks.vdl);
            trace.instant("objstore", "redo.watermark", &[("vcl", vcl), ("vdl", vdl)]);
        }
    }

    /// The device handle (for integration points like the pager).
    pub fn device(&self) -> &SharedDevice {
        &self.dev
    }

    /// The cost accountant.
    pub fn charge(&self) -> &Charge {
        &self.charge
    }

    /// Installs a trace recorder on the store, its frame arena (COW
    /// write instrumentation), and its device stack.
    pub fn set_trace(&mut self, trace: aurora_trace::Trace) {
        self.charge.set_trace(trace.clone());
        self.arena.set_trace(trace.clone());
        self.dev.lock().set_trace(trace);
    }

    /// The store's frame arena.
    pub fn arena(&self) -> &FrameArena {
        &self.arena
    }

    /// Drops every cached page frame. Reads fall back to the device
    /// (tests that measure device behavior, and memory-pressure paths).
    pub fn drop_page_cache(&mut self) {
        self.cache.frames.clear();
    }

    /// An observability snapshot for the metrics sampler. Pure read —
    /// never touches the device or the clock.
    pub fn gauges(&self) -> StoreGauges {
        StoreGauges {
            cache_pages: self.cache.frames.len() as u64,
            cache_hits: self.cache.hits,
            cache_misses: self.cache.misses,
            epochs: self.epochs.len() as u64,
            current_epoch: self.cur_epoch,
            floor: self.floor,
            objects: self.index.iter().filter(|(_, o)| o.deleted_epoch.is_none()).count() as u64,
            open_drafts: self.drafts.len() as u64,
            redo_appended: self.redo.appended,
            redo_materializations: self.redo.materializations,
            redo_bytes_saved: self.redo.bytes_saved,
            redo_chain_len_p95: self.redo.chain_len.percentile(95.0),
            redo_vcl: self.marks.vcl,
            redo_vdl: self.marks.vdl,
            log_blocks: self.meta_head - self.meta_start,
            data_blocks: self.alloc.next_block - self.data_start - self.alloc.free_blocks.len() as u64,
        }
    }

    /// Journal accessor for `journal.rs`.
    pub(crate) fn obj_journal_mut(&mut self, oid: Oid) -> Result<&mut Journal> {
        self.index.obj_mut(oid)?.journal.as_mut().ok_or(StoreError::WrongKind(oid))
    }

    /// Journal accessor.
    pub(crate) fn obj_journal(&self, oid: Oid) -> Result<&Journal> {
        self.index.obj(oid)?.journal.as_ref().ok_or(StoreError::WrongKind(oid))
    }

    /// Installs a journal on a freshly created object (see
    /// [`crate::journal`]).
    pub(crate) fn install_journal(&mut self, oid: Oid, journal: Journal) -> Result<()> {
        self.index.obj_mut(oid)?.journal = Some(journal);
        self.draft_mut().objects.insert(oid.0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aurora_frames::PageRef;
    use aurora_sim::{Clock, CostModel};
    use aurora_sim::sync::Mutex;
    use aurora_storage::device::{self, BlockDevice, Completion, DeviceError};
    use aurora_storage::{share, testbed_array, NvmeDevice, NvmeParams};
    use std::sync::Arc;

    fn fresh() -> ObjectStore {
        let clock = Clock::new();
        let dev = testbed_array(&clock, 1 << 28);
        let charge = Charge::new(clock, CostModel::default());
        ObjectStore::format(dev, charge, 4096).unwrap()
    }

    fn page(fill: u8) -> PageRef {
        PageRef::detached([fill; PAGE])
    }

    fn put(s: &mut ObjectStore, oid: Oid, pindex: u64, data: PageRef) {
        s.write_pages(oid, &[(pindex, data)]).unwrap();
    }

    #[test]
    fn write_commit_read_roundtrip() {
        let mut s = fresh();
        let oid = s.alloc_oid();
        s.create_object(oid, ObjectKind::Memory).unwrap();
        put(&mut s, oid, 0, page(7));
        s.set_meta(oid, b"meta-v1").unwrap();
        let c = s.commit().unwrap();
        assert_eq!(c.epoch, 1);
        assert_eq!(s.read_page(oid, 0, 1).unwrap(), page(7));
        assert_eq!(s.meta_at(oid, 1).unwrap(), b"meta-v1");
    }

    #[test]
    fn history_preserves_old_versions() {
        let mut s = fresh();
        let oid = s.alloc_oid();
        s.create_object(oid, ObjectKind::Memory).unwrap();
        put(&mut s, oid, 0, page(1));
        let _ = s.commit().unwrap();
        put(&mut s, oid, 0, page(2));
        let _ = s.commit().unwrap();
        assert_eq!(s.read_page(oid, 0, 1).unwrap(), page(1));
        assert_eq!(s.read_page(oid, 0, 2).unwrap(), page(2));
    }

    #[test]
    fn unchanged_pages_visible_in_later_epochs() {
        let mut s = fresh();
        let oid = s.alloc_oid();
        s.create_object(oid, ObjectKind::Memory).unwrap();
        put(&mut s, oid, 3, page(9));
        let _ = s.commit().unwrap();
        put(&mut s, oid, 4, page(8));
        let _ = s.commit().unwrap();
        assert_eq!(s.read_page(oid, 3, 2).unwrap(), page(9), "COW shares old block");
        assert_eq!(s.pages_at(oid, 2).unwrap(), vec![3, 4]);
        assert_eq!(s.pages_at(oid, 1).unwrap(), vec![3]);
    }

    #[test]
    fn recovery_finds_last_complete_checkpoint() {
        let mut s = fresh();
        let oid = s.alloc_oid();
        s.create_object(oid, ObjectKind::Memory).unwrap();
        put(&mut s, oid, 0, page(1));
        let c1 = s.commit().unwrap();
        s.barrier(c1); // checkpoint 1 durable
        put(&mut s, oid, 0, page(2));
        let _c2 = s.commit().unwrap();
        // Crash *before* checkpoint 2 is durable.
        let mut s = s.crash_and_recover().unwrap();
        assert_eq!(s.last_epoch(), Some(1));
        assert_eq!(s.read_page(oid, 0, 1).unwrap(), page(1));
    }

    #[test]
    fn recovery_keeps_durable_checkpoints() {
        let mut s = fresh();
        let oid = s.alloc_oid();
        s.create_object(oid, ObjectKind::Memory).unwrap();
        for i in 1..=3u8 {
            put(&mut s, oid, 0, page(i));
            let c = s.commit().unwrap();
            s.barrier(c);
        }
        let mut s = s.crash_and_recover().unwrap();
        assert_eq!(s.last_epoch(), Some(3));
        for i in 1..=3u8 {
            assert_eq!(s.read_page(oid, 0, i as u64).unwrap(), page(i));
        }
    }

    #[test]
    fn deleted_objects_visible_only_in_history() {
        let mut s = fresh();
        let oid = s.alloc_oid();
        s.create_object(oid, ObjectKind::File).unwrap();
        put(&mut s, oid, 0, page(5));
        let _ = s.commit().unwrap();
        s.delete_object(oid).unwrap();
        let _ = s.commit().unwrap();
        assert!(s.objects_at(1).unwrap().contains(&oid));
        assert!(!s.objects_at(2).unwrap().contains(&oid));
        // History still readable.
        assert_eq!(s.read_page(oid, 0, 1).unwrap(), page(5));
    }

    #[test]
    fn drop_oldest_frees_superseded_blocks() {
        let mut s = fresh();
        let oid = s.alloc_oid();
        s.create_object(oid, ObjectKind::Memory).unwrap();
        put(&mut s, oid, 0, page(1));
        let _ = s.commit().unwrap();
        put(&mut s, oid, 0, page(2));
        let _ = s.commit().unwrap();
        s.drop_oldest_checkpoint().unwrap();
        // The superseded block is staged, not yet reusable: a crash right
        // now must still be able to resurrect epoch 1 intact.
        assert_eq!(s.alloc.staged_free.len(), 1, "one superseded block staged");
        assert_eq!(s.epochs(), &[2]);
        assert!(s.read_page(oid, 0, 1).is_err());
        assert_eq!(s.read_page(oid, 0, 2).unwrap(), page(2));
        // The next durable commit publishes the floor and releases it.
        put(&mut s, oid, 0, page(3));
        let c = s.commit().unwrap();
        s.barrier(c);
        s.reclaim_matured();
        assert!(s.alloc.staged_free.is_empty());
        assert!(!s.alloc.free_blocks.is_empty(), "block reusable after floor commit is durable");
    }

    #[test]
    fn dropped_epochs_stay_dropped_after_durable_floor_commit() {
        let mut s = fresh();
        let oid = s.alloc_oid();
        s.create_object(oid, ObjectKind::Memory).unwrap();
        for i in 1..=3u8 {
            put(&mut s, oid, 0, page(i));
            let c = s.commit().unwrap();
            s.barrier(c);
        }
        s.drop_oldest_checkpoint().unwrap();
        put(&mut s, oid, 0, page(4));
        let c = s.commit().unwrap();
        s.barrier(c); // floor=2 is now durable
        let mut s = s.crash_and_recover().unwrap();
        assert_eq!(s.epochs(), &[2, 3, 4], "epoch 1 must not resurrect");
        assert!(s.read_page(oid, 0, 1).is_err());
        assert_eq!(s.read_page(oid, 0, 2).unwrap(), page(2));
        assert_eq!(s.read_page(oid, 0, 4).unwrap(), page(4));
    }

    #[test]
    fn drop_then_crash_before_floor_commit_resurrects_epoch_intact() {
        let mut s = fresh();
        let oid = s.alloc_oid();
        s.create_object(oid, ObjectKind::Memory).unwrap();
        for i in 1..=2u8 {
            put(&mut s, oid, 0, page(i));
            let c = s.commit().unwrap();
            s.barrier(c);
        }
        s.drop_oldest_checkpoint().unwrap();
        // Crash before any commit persists the new floor: the dropped
        // epoch comes back, and because its blocks were only staged (never
        // reused) the data is bit-exact.
        let mut s = s.crash_and_recover().unwrap();
        assert_eq!(s.epochs(), &[1, 2]);
        assert_eq!(s.read_page(oid, 0, 1).unwrap(), page(1));
        assert_eq!(s.read_page(oid, 0, 2).unwrap(), page(2));
    }

    #[test]
    fn abort_epoch_discards_uncommitted_state() {
        let mut s = fresh();
        let keep = s.alloc_oid();
        s.create_object(keep, ObjectKind::Memory).unwrap();
        put(&mut s, keep, 0, page(1));
        s.set_meta(keep, b"v1").unwrap();
        let c = s.commit().unwrap();
        s.barrier(c);
        // Epoch 2 in progress: overwrite, new meta, a new object, a delete.
        put(&mut s, keep, 0, page(2));
        s.set_meta(keep, b"v2").unwrap();
        let fresh_obj = s.alloc_oid();
        s.create_object(fresh_obj, ObjectKind::Memory).unwrap();
        put(&mut s, fresh_obj, 0, page(9));
        s.abort_epoch_for(0);
        // The live world is exactly epoch 1 again.
        assert_eq!(s.read_page(keep, 0, 1).unwrap(), page(1));
        assert_eq!(s.meta_at(keep, 1).unwrap(), b"v1");
        assert!(s.index.obj(fresh_obj).is_err(), "uncommitted object gone");
        // And the next commit works and reuses the epoch number.
        put(&mut s, keep, 0, page(3));
        let c = s.commit().unwrap();
        assert_eq!(c.epoch, 2);
        s.barrier(c);
        assert_eq!(s.read_page(keep, 0, 2).unwrap(), page(3));
        assert_eq!(s.meta_at(keep, 2).unwrap(), b"v1", "meta carried forward, not v2");
    }

    #[test]
    fn rewrite_within_epoch_recycles_block() {
        let mut s = fresh();
        let oid = s.alloc_oid();
        s.create_object(oid, ObjectKind::Memory).unwrap();
        put(&mut s, oid, 0, page(1));
        let nb = s.alloc.next_block;
        put(&mut s, oid, 0, page(2));
        assert_eq!(s.alloc.free_blocks.len(), 1, "superseded uncommitted block freed");
        assert!(s.alloc.next_block <= nb + 1);
        let _ = s.commit().unwrap();
        assert_eq!(s.read_page(oid, 0, 1).unwrap(), page(2));
    }

    #[test]
    fn commit_is_ordered_after_data() {
        let mut s = fresh();
        let oid = s.alloc_oid();
        s.create_object(oid, ObjectKind::Memory).unwrap();
        for i in 0..64u64 {
            put(&mut s, oid, i, page(i as u8));
        }
        let c = s.commit().unwrap();
        // durable_at must not precede the slowest data write; since the
        // record is written after the barrier it is strictly later.
        assert!(c.durable_at > 0);
        s.barrier(c);
        assert!(s.charge().clock().now() >= c.durable_at);
    }

    #[test]
    fn reads_charge_the_clock() {
        let mut s = fresh();
        let oid = s.alloc_oid();
        s.create_object(oid, ObjectKind::Memory).unwrap();
        put(&mut s, oid, 0, page(1));
        let c = s.commit().unwrap();
        s.barrier(c);
        s.drop_page_cache(); // force the device path
        let t0 = s.charge().clock().now();
        s.read_page(oid, 0, 1).unwrap();
        assert!(s.charge().clock().now() > t0, "device read takes time");
    }

    #[test]
    fn cached_reads_share_the_written_frame_and_skip_the_device() {
        let mut s = fresh();
        let oid = s.alloc_oid();
        s.create_object(oid, ObjectKind::Memory).unwrap();
        let written = page(7);
        put(&mut s, oid, 0, written.clone());
        let c = s.commit().unwrap();
        s.barrier(c);
        let t0 = s.charge().clock().now();
        let got = s.read_page(oid, 0, 1).unwrap();
        assert!(PageRef::ptr_eq(&got, &written), "read aliases the written frame");
        assert_eq!(s.charge().clock().now(), t0, "cache hit costs no device time");
        // A cold cache repopulates from the device and then aliases.
        s.drop_page_cache();
        let a = s.read_page(oid, 0, 1).unwrap();
        let b = s.read_page(oid, 0, 1).unwrap();
        assert!(PageRef::ptr_eq(&a, &b), "miss then hit share one frame");
        assert_eq!(a, written);
    }

    #[test]
    fn block_reuse_invalidates_cached_frame() {
        let mut s = fresh();
        let oid = s.alloc_oid();
        s.create_object(oid, ObjectKind::Memory).unwrap();
        put(&mut s, oid, 0, page(1));
        let c = s.commit().unwrap();
        s.barrier(c);
        put(&mut s, oid, 0, page(2));
        let c = s.commit().unwrap();
        s.barrier(c);
        // Drop epoch 1; its superseded block eventually re-enters the
        // allocator. A later write reusing it must not leave epoch-1 bytes
        // servable from the cache.
        s.drop_oldest_checkpoint().unwrap();
        put(&mut s, oid, 1, page(3));
        let c = s.commit().unwrap();
        s.barrier(c);
        for _ in 0..4 {
            put(&mut s, oid, 2, page(4));
            let c = s.commit().unwrap();
            s.barrier(c);
        }
        assert_eq!(s.read_page(oid, 0, s.last_epoch().unwrap()).unwrap(), page(2));
        assert_eq!(s.read_page(oid, 2, s.last_epoch().unwrap()).unwrap(), page(4));
    }

    #[test]
    fn concurrent_drafts_commit_independently() {
        let mut s = fresh();
        s.stage_for(1);
        let a = s.alloc_oid();
        s.create_object(a, ObjectKind::Memory).unwrap();
        put(&mut s, a, 0, page(1));
        s.stage_for(2);
        let b = s.alloc_oid();
        s.create_object(b, ObjectKind::Memory).unwrap();
        put(&mut s, b, 0, page(2));
        assert_eq!(s.open_drafts(), 2, "two epochs concurrently in flight");
        // Group 2 commits first; group 1's draft stays open and invisible.
        let c2 = s.commit_for(2).unwrap();
        assert_eq!(c2.epoch, 1, "epoch numbers assigned in commit order");
        assert_eq!(s.open_drafts(), 1);
        assert_eq!(s.read_page(b, 0, 1).unwrap(), page(2));
        assert!(s.read_page(a, 0, 1).is_err(), "group 1's staged page not visible");
        assert!(!s.objects_at(1).unwrap().contains(&a), "staged object not listed");
        let c1 = s.commit_for(1).unwrap();
        assert_eq!(c1.epoch, 2);
        assert_eq!(s.read_page(a, 0, 2).unwrap(), page(1));
        assert_eq!(s.epochs_for(2), vec![1]);
        assert_eq!(s.epochs_for(1), vec![2]);
        assert_eq!(s.group_of_epoch(1), 2);
        s.barrier(c1);
        s.barrier(c2);
    }

    #[test]
    fn abort_one_group_leaves_other_drafts_intact() {
        let mut s = fresh();
        s.stage_for(1);
        let a = s.alloc_oid();
        s.create_object(a, ObjectKind::Memory).unwrap();
        put(&mut s, a, 0, page(1));
        s.stage_for(2);
        let b = s.alloc_oid();
        s.create_object(b, ObjectKind::Memory).unwrap();
        put(&mut s, b, 0, page(2));
        s.abort_epoch_for(1);
        assert!(s.index.obj(a).is_err(), "aborted group's object gone");
        assert_eq!(s.open_drafts(), 1, "group 2's draft survives group 1's rollback");
        let c = s.commit_for(2).unwrap();
        assert_eq!(c.epoch, 1, "no epoch number consumed by the abort");
        assert_eq!(s.read_page(b, 0, 1).unwrap(), page(2));
        s.barrier(c);
    }

    #[test]
    fn commit_barrier_is_per_draft() {
        let mut s = fresh();
        // Group 1 has a flush outstanding far in the future.
        s.stage_for(1);
        s.draft_mut().max_completion = 1_000_000_000_000;
        s.stage_for(2);
        let b = s.alloc_oid();
        s.create_object(b, ObjectKind::Memory).unwrap();
        put(&mut s, b, 0, page(2));
        assert_eq!(s.inflight_drafts(0), 2);
        let c2 = s.commit_for(2).unwrap();
        assert!(
            c2.durable_at < 1_000_000_000_000,
            "group 2's durability must not fence behind group 1's flush"
        );
        let c1 = s.commit_for(1).unwrap();
        assert!(c1.durable_at >= 1_000_000_000_000, "own writes still fence own commit");
        assert!(s.durable_floor(2) < s.durable_floor(1));
        s.barrier(c2);
    }

    #[test]
    fn group_attribution_survives_crash() {
        let mut s = fresh();
        s.stage_for(3);
        let a = s.alloc_oid();
        s.create_object(a, ObjectKind::Memory).unwrap();
        put(&mut s, a, 0, page(7));
        let c = s.commit_for(3).unwrap();
        s.barrier(c);
        let s = s.crash_and_recover().unwrap();
        assert_eq!(s.group_of_epoch(1), 3, "commit records persist the committing group");
        assert_eq!(s.epochs_for(3), vec![1]);
    }

    #[test]
    fn device_errors_carry_the_staging_group() {
        let mut s = fresh();
        s.stage_for(5);
        let missing = Oid(999);
        // Force the cheap path: write to a full store would need a fault
        // plan, so check the builder directly through a real op instead.
        assert_eq!(s.write_pages(missing, &[(0, page(1))]), Err(StoreError::NoSuchObject(missing)));
        let err = StoreError::dev("write-pages", Some(missing), 7, 5)(
            DeviceError::Io { lba: 3, transient: true },
        );
        assert!(matches!(err, StoreError::Device { group: 5, epoch: 7, .. }));
        assert!(err.to_string().contains("group 5"), "{err}");
    }

    #[test]
    fn crash_reopen_starts_with_a_cold_cache() {
        let mut s = fresh();
        let oid = s.alloc_oid();
        s.create_object(oid, ObjectKind::Memory).unwrap();
        put(&mut s, oid, 0, page(9));
        let c = s.commit().unwrap();
        s.barrier(c);
        assert!(s.gauges().cache_pages > 0);
        let mut s = s.crash_and_recover().unwrap();
        assert_eq!(s.gauges().cache_pages, 0, "RAM does not survive a crash");
        assert_eq!(s.read_page(oid, 0, 1).unwrap(), page(9));
    }

    /// `(op, lba, nblocks, issued at)` for every data write and discard.
    type IoLog = Arc<Mutex<Vec<(&'static str, u64, u64, u64)>>>;

    /// A device that logs its unordered writes and its discards, in
    /// issue order, with the virtual time each was issued at.
    struct Recording(NvmeDevice, IoLog);

    impl Recording {
        fn note(&self, op: &'static str, lba: u64, nblocks: u64) {
            self.1.lock().push((op, lba, nblocks, self.0.clock().now()));
        }
    }

    impl BlockDevice for Recording {
        fn block_size(&self) -> usize {
            self.0.block_size()
        }
        fn capacity_blocks(&self) -> u64 {
            self.0.capacity_blocks()
        }
        fn clock(&self) -> &Clock {
            self.0.clock()
        }
        fn read(&mut self, lba: u64, nblocks: u64) -> device::Result<Vec<u8>> {
            self.0.read(lba, nblocks)
        }
        fn read_from(&mut self, lba: u64, n: u64, at: u64) -> device::Result<(Vec<u8>, u64)> {
            self.0.read_from(lba, n, at)
        }
        fn write(&mut self, lba: u64, data: &[u8]) -> device::Result<Completion> {
            self.note("write", lba, (data.len() / PAGE) as u64);
            self.0.write(lba, data)
        }
        fn write_after(&mut self, lba: u64, data: &[u8], after: Completion) -> device::Result<Completion> {
            self.0.write_after(lba, data, after)
        }
        fn flush(&mut self) -> Completion {
            self.0.flush()
        }
        fn crash(&mut self) {
            self.0.crash();
        }
        fn bytes_written(&self) -> u64 {
            self.0.bytes_written()
        }
        fn discard(&mut self, lba: u64, nblocks: u64) {
            self.note("discard", lba, nblocks);
        }
    }

    /// A block reclaimed by `drop_oldest_checkpoint` is discarded only
    /// once the commit carrying the new floor is durable, and always
    /// before the allocator hands it out again.
    #[test]
    fn reclaimed_blocks_are_discarded_after_the_floor_commit_and_before_reuse() {
        let clock = Clock::new();
        let log: IoLog = Arc::new(Mutex::new(Vec::new()));
        let dev = Recording(NvmeDevice::new(clock.clone(), NvmeParams::optane_900p(), 1 << 28), log.clone());
        let mut s = ObjectStore::format(share(dev), Charge::new(clock, CostModel::default()), 4096).unwrap();
        let oid = s.alloc_oid();
        s.create_object(oid, ObjectKind::Memory).unwrap();
        for fill in 1..=2 {
            put(&mut s, oid, 0, page(fill));
            let c = s.commit().unwrap();
            s.barrier(c);
        }
        // Epoch 1's copy of page 0 is the first data block written.
        let first = log.lock().iter().position(|e| e.0 == "write" && e.1 >= s.data_start).unwrap();
        let old = log.lock()[first].1;
        let covers = |e: &(&str, u64, u64, u64)| (e.1..e.1 + e.2).contains(&old);
        s.drop_oldest_checkpoint().unwrap();
        put(&mut s, oid, 1, page(3));
        let floor = s.commit().unwrap();
        // Allocating while the floor commit is in flight neither discards
        // nor reuses the reclaimed block.
        put(&mut s, oid, 2, page(4));
        assert!(!log.lock().iter().skip(first + 1).any(covers), "{:?}", log.lock());
        s.barrier(floor);
        put(&mut s, oid, 3, page(5));
        let log = log.lock();
        let discard = log.iter().position(|e| e.0 == "discard" && covers(e)).expect("discarded");
        assert!(log[discard].3 >= floor.durable_at, "discarded once the floor commit is durable");
        let reuse = log.iter().rposition(|e| e.0 == "write" && covers(e)).unwrap();
        assert!(reuse > discard && discard > first, "discarded between its two lives: {log:?}");
    }

    /// Two barriered epochs of one page; returns the store and the log
    /// block holding epoch 2's commit header.
    fn two_epochs() -> (ObjectStore, Oid, u64) {
        let mut s = fresh();
        let oid = s.alloc_oid();
        s.create_object(oid, ObjectKind::Memory).unwrap();
        put(&mut s, oid, 0, page(1));
        let c = s.commit().unwrap();
        s.barrier(c);
        let head = s.meta_head;
        put(&mut s, oid, 0, page(2));
        let c = s.commit().unwrap();
        s.barrier(c);
        (s, oid, head)
    }

    /// Overwrites `lba` with `f(current bytes)`, durably, and reopens.
    fn tamper_and_reopen(s: ObjectStore, lba: u64, f: impl FnOnce(&mut Vec<u8>)) -> ObjectStore {
        let mut block = s.dev.lock().read(lba, 1).unwrap();
        f(&mut block);
        let done = s.dev.lock().write(lba, &block).unwrap();
        s.charge.clock().advance_to(done.done_at);
        ObjectStore::open(s.dev.clone(), s.charge.clone()).unwrap()
    }

    #[test]
    fn a_header_of_another_record_version_is_not_a_record() {
        let (s, oid, head) = two_epochs();
        // Bytes 2..4 of the record frame hold the version: make epoch 2's
        // header claim format 5 (this layout, byte-wise FNV-1a digests).
        // Recovery must treat it as garbage.
        let mut s = tamper_and_reopen(s, head, |b| b[2..4].copy_from_slice(&5u16.to_le_bytes()));
        assert_eq!(s.epochs(), &[1], "recovery exposes the prior epoch");
        assert_eq!(s.read_page(oid, 0, 1).unwrap(), page(1));
        assert!(s.read_page(oid, 0, 2).is_err());
    }

    #[test]
    fn a_truncated_commit_payload_is_not_a_record() {
        let (s, oid, head) = two_epochs();
        // Zero the payload's tail: the header's checksum no longer holds.
        let mut s = tamper_and_reopen(s, head + 1, |b| b[20..].fill(0));
        assert_eq!(s.epochs(), &[1], "recovery exposes the prior epoch");
        assert_eq!(s.read_page(oid, 0, 1).unwrap(), page(1));
        // The log continues where the last valid record ended.
        put(&mut s, oid, 0, page(3));
        let c = s.commit().unwrap();
        assert_eq!(c.epoch, 2);
    }

    #[test]
    fn chain_length_gauge_reports_chains_past_31_links() {
        let mut s = fresh();
        let oid = s.alloc_oid();
        s.create_object(oid, ObjectKind::Memory).unwrap();
        let mut cur = [0u8; PAGE];
        put(&mut s, oid, 0, PageRef::detached(cur));
        let _ = s.commit().unwrap();
        // Forty sub-page deltas, one per epoch, each chained on the last.
        for i in 1..=40u8 {
            let mut new = cur;
            new[i as usize * 16..][..16].fill(i);
            let w = RedoWrite {
                pindex: 0,
                page: s.arena().alloc(new),
                delta: Some((i as u32 * 16, new[i as usize * 16..][..16].to_vec())),
                base_csum: content_hash(&cur),
            };
            s.append_redo(oid, &[w]).unwrap();
            let _ = s.commit().unwrap();
            cur = new;
        }
        s.drop_page_cache(); // force materialization from the chain
        assert_eq!(s.read_page(oid, 0, 41).unwrap(), PageRef::detached(cur));
        let g = s.gauges();
        assert_eq!(g.redo_materializations, 1);
        assert!(g.redo_chain_len_p95 >= 40, "p95 {} capped below the chain", g.redo_chain_len_p95);
    }
}
