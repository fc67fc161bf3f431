//! Recovery: reopening a store from its device, to the last complete
//! checkpoint of every consistency group.

use super::alloc::Allocator;
use super::cache::Watermarks;
use super::format::{self, CommitHeader};
use super::{ObjectStore, Result, StoreError, PAGE};
use crate::journal::Journal;
use aurora_sim::cost::Charge;
use aurora_storage::device::SharedDevice;

impl ObjectStore {
    /// Reopens a store from a device, recovering to the last complete
    /// checkpoint (§7: "Aurora prevents resuming incomplete checkpoints
    /// by finding the last complete checkpoint after a crash").
    pub fn open(dev: SharedDevice, charge: Charge) -> Result<Self> {
        let sb = dev.lock().read(0, 1).map_err(StoreError::dev("open-superblock", None, 0, 0))?;
        let (meta_start, data_start) = format::decode_superblock(&sb)?;
        let mut store = Self::empty(dev, charge, meta_start, data_start);
        store.replay()?;
        Ok(store)
    }

    /// Replays the metadata log. Within one group, records become
    /// durable in commit order (each commit is chained after the group's
    /// previous record), so a group's epochs always recover as a prefix.
    /// Across groups, records may land out of log order: a crash can
    /// lose group A's record while group B's later one is durable. The
    /// replay therefore skips over holes — it scans forward for the next
    /// valid record instead of stopping at the first invalid one — and
    /// recovery exposes, per group, that group's durable prefix.
    fn replay(&mut self) -> Result<()> {
        // Announce the rewind before any replayed epoch: the invariant
        // checker resets its monotonicity watermark on this event, since
        // recovery legitimately revisits epoch numbers a crash destroyed.
        let trace = self.charge.trace();
        if trace.is_enabled() {
            trace.instant("objstore", "recovery.begin", &[]);
        }
        let mut head = self.meta_start;
        while head < self.data_start {
            match self.replay_record_at(head)? {
                Some(next) => head = next,
                None => match self.scan_for_record(head + 1)? {
                    Some(h) => head = h,
                    None => break,
                },
            }
        }
        // Re-apply history reclamation: epochs the pre-crash store dropped
        // stay dropped once the drop's floor made it into a durable commit
        // record. (Before that commit their blocks were never reused, so
        // resurrecting them is safe.) The allocator is rebuilt from what
        // survives, so what the prune releases needs no freeing.
        if self.floor > 0 {
            let floor = self.floor;
            self.epochs.retain(|&e| e >= floor);
            self.epoch_groups.retain(|&e, _| e >= floor);
            self.index.prune(floor);
        }
        let journals = self.index.iter().filter_map(|(_, o)| o.journal.as_ref());
        self.alloc = Allocator::recovered(
            self.data_start,
            self.dev.lock().capacity_blocks(),
            self.index.versions(),
            journals.flat_map(|j| j.blocks.iter().copied()),
        );
        self.marks = Watermarks::recovered(self.next_lsn - 1);
        self.note_watermarks();
        Ok(())
    }

    /// Tries to replay one commit record at block `head`. Returns the
    /// next head on success, `None` when the block does not hold a valid
    /// record — a commit that raced the crash, or the log's clean end.
    fn replay_record_at(&mut self, head: u64) -> Result<Option<u64>> {
        let block =
            self.dev.lock().read(head, 1).map_err(StoreError::dev("replay-header", None, 0, 0))?;
        let Some(h) = CommitHeader::decode(&block) else { return Ok(None) };
        // Epochs ascend with log position; anything else is garbage.
        if h.epoch < self.cur_epoch || h.nblocks == 0 || head + 1 + h.nblocks > self.data_start {
            return Ok(None);
        }
        let blocks = self.dev.lock().read(head + 1, h.nblocks).map_err(StoreError::dev(
            "replay-payload",
            None,
            h.epoch,
            h.group,
        ))?;
        // An incomplete commit — its data raced the crash — is no record.
        let Some(payload) = h.payload(&blocks) else { return Ok(None) };
        for r in format::decode_payload(payload, h.epoch)? {
            self.next_oid = self.next_oid.max(r.oid + 1);
            let o = self.index.obj_or_create(r.oid, r.kind_raw, h.epoch);
            o.kind_raw = r.kind_raw;
            o.size = r.size;
            if r.deleted {
                o.deleted_epoch = Some(h.epoch);
            }
            o.replay(h.epoch, r.meta, r.pages);
            if let (Some(blocks), None) = (r.journal, &o.journal) {
                o.journal = Some(Journal::adopt(blocks));
            }
        }
        let trace = self.charge.trace();
        if trace.is_enabled() {
            trace.instant(
                "objstore",
                "recovery.replay",
                &[("epoch", h.epoch), ("group", h.group), ("bytes", h.len)],
            );
        }
        self.epochs.push(h.epoch);
        self.epoch_groups.insert(h.epoch, h.group);
        self.next_lsn = self.next_lsn.max(h.cpl + 1);
        self.epoch_cpls.insert(h.epoch, h.cpl);
        self.floor = self.floor.max(h.floor);
        self.cur_epoch = h.epoch + 1;
        self.meta_head = head + 1 + h.nblocks;
        Ok(Some(self.meta_head))
    }

    /// Scans forward from `from` for the next block that parses as a
    /// commit-record header: hole skipping, so one group's lost record
    /// cannot hide another group's durable later ones. Reads the log in
    /// chunks and stops at the first fully-zero one — past the last
    /// record the region is unwritten, so a clean end of log costs a
    /// single extra read.
    fn scan_for_record(&mut self, from: u64) -> Result<Option<u64>> {
        const CHUNK: u64 = 64;
        let mut at = from;
        while at < self.data_start {
            let n = CHUNK.min(self.data_start - at);
            let buf =
                self.dev.lock().read(at, n).map_err(StoreError::dev("replay-scan", None, 0, 0))?;
            if buf.iter().all(|&b| b == 0) {
                return Ok(None);
            }
            let is_next =
                |b: &[u8]| CommitHeader::decode(b).is_some_and(|h| h.epoch >= self.cur_epoch);
            if let Some(i) = buf.chunks_exact(PAGE).position(is_next) {
                return Ok(Some(at + i as u64));
            }
            at += n;
        }
        Ok(None)
    }

    /// Simulates a machine crash: in-flight device writes are lost, every
    /// cached frame is dropped (RAM does not survive), and the store is
    /// reopened from disk. The arena identity survives so gauges stay
    /// continuous across the reboot.
    pub fn crash_and_recover(mut self) -> Result<Self> {
        self.crash_and_reopen_in_place()?;
        Ok(self)
    }

    /// In-place variant of [`crash_and_recover`](Self::crash_and_recover)
    /// for stores behind shared handles.
    pub fn crash_and_reopen_in_place(&mut self) -> Result<()> {
        self.dev.lock().crash();
        let mut recovered = Self::open(self.dev.clone(), self.charge.clone())?;
        recovered.arena = self.arena.clone();
        *self = recovered;
        Ok(())
    }
}
