//! The Aurora application API (Table 3).
//!
//! Custom applications use these calls to control and optimize
//! persistence: manual checkpoints and restores, atomic single-region
//! checkpoints (`sls_memckpt`), synchronous journaling (`sls_journal`),
//! durability barriers, memory-region exclusion, and per-descriptor
//! external-synchrony control.

use crate::checkpoint::CheckpointStats;
use crate::restore::{RestoreMode, RestoreReport};
use crate::{GroupId, Sls, SlsError};
use aurora_objstore::Oid;
use aurora_posix::{Fd, Pid};
use aurora_sim::clock::Stopwatch;

/// Result of an atomic region checkpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemckptStats {
    /// Store epoch of the region checkpoint.
    pub epoch: u64,
    /// Application stop time, ns (no OS-wide barrier — just the shadow).
    pub stop_time_ns: u64,
    /// Pages flushed.
    pub pages_flushed: u64,
    /// Durable at this virtual time.
    pub durable_at: u64,
}

/// The Table 3 surface. Implemented by [`Sls`]; a trait so applications
/// can be written against the API alone.
pub trait AuroraApi {
    /// `sls_checkpoint()`: create a checkpoint of the group now.
    fn sls_checkpoint(&mut self, gid: GroupId) -> Result<CheckpointStats, SlsError>;

    /// `sls_restore()`: restore the group's image at `epoch` (or the
    /// latest when `None`), creating fresh processes.
    fn sls_restore(
        &mut self,
        gid: GroupId,
        epoch: Option<u64>,
        mode: RestoreMode,
    ) -> Result<RestoreReport, SlsError>;

    /// `sls_memckpt()`: asynchronously checkpoint the single memory
    /// region mapped at `addr` — shadow it, flush it, and integrate it
    /// into the group's history (§7, "atomic region API").
    fn sls_memckpt(&mut self, gid: GroupId, pid: Pid, addr: u64) -> Result<MemckptStats, SlsError>;

    /// `sls_journal()`: synchronous append to a non-COW journal; returns
    /// the record's sequence number.
    fn sls_journal(&mut self, journal: Oid, data: &[u8]) -> Result<u64, SlsError>;

    /// Creates a journal of `blocks` preallocated blocks for
    /// [`sls_journal`](AuroraApi::sls_journal).
    fn sls_journal_create(&mut self, blocks: u64) -> Result<Oid, SlsError>;

    /// Truncates a journal (after its contents were absorbed by a full
    /// checkpoint, the RocksDB pattern of §9.6).
    fn sls_journal_truncate(&mut self, journal: Oid) -> Result<(), SlsError>;

    /// `sls_barrier()`: wait until the group's latest checkpoint is
    /// durable.
    fn sls_barrier(&mut self, gid: GroupId) -> Result<(), SlsError>;

    /// `sls_mctl()`: include/exclude the memory region at `addr` from
    /// checkpoints.
    fn sls_mctl(&mut self, pid: Pid, addr: u64, exclude: bool) -> Result<(), SlsError>;

    /// `sls_fdctl()`: control external synchrony per descriptor.
    fn sls_fdctl(&mut self, pid: Pid, fd: Fd, disable_extsync: bool) -> Result<(), SlsError>;
}

impl AuroraApi for Sls {
    fn sls_checkpoint(&mut self, gid: GroupId) -> Result<CheckpointStats, SlsError> {
        let stats = self.checkpoint_now(gid)?;
        self.pump_external_synchrony();
        Ok(stats)
    }

    fn sls_restore(
        &mut self,
        gid: GroupId,
        epoch: Option<u64>,
        mode: RestoreMode,
    ) -> Result<RestoreReport, SlsError> {
        let (manifest, epoch) = {
            let g = self.groups.get(&gid).ok_or(SlsError::NoSuchGroup(gid))?;
            let e = match epoch {
                Some(e) => e,
                None => *g.epochs.last().ok_or(SlsError::NoCheckpoint(gid))?,
            };
            (g.manifest, e)
        };
        self.restore_image(manifest, epoch, mode)
    }

    fn sls_memckpt(&mut self, gid: GroupId, pid: Pid, addr: u64) -> Result<MemckptStats, SlsError> {
        let clock = self.kernel.charge.clock().clone();
        // Backpressure as for full checkpoints.
        let g = self.groups.get(&gid).ok_or(SlsError::NoSuchGroup(gid))?;
        let (pending, collapse_mode) = (g.pending_durable, g.opts.collapse_mode);
        clock.advance_to(pending);
        let sw = Stopwatch::start(&clock);
        let model = self.kernel.charge.model().clone();
        self.kernel.charge.raw(model.memckpt_fixed_ns);

        // Shadow just this region's object across the group's spaces.
        let pids = self.group_pids(gid)?;
        let spaces: Vec<aurora_vm::SpaceId> = pids
            .iter()
            .map(|&p| self.kernel.proc(p).map(|pr| pr.space))
            .collect::<Result<_, _>>()?;
        let space = self.kernel.proc(pid)?.space;
        let target = self
            .kernel
            .vm
            .space(space)?
            .entry_at(addr)
            .ok_or(SlsError::Vm(aurora_vm::VmError::BadAddress(addr)))?
            .object;
        // Retire the previous region shadow first (chain cap, §6).
        let _ = self.kernel.vm.collapse_under(target, collapse_mode);
        let stats_before = self.kernel.vm.stats;
        let pair = self.kernel.vm.shadow_one(target, &spaces)?;
        self.kernel.shm_backmap(pair.old_top, pair.new_top);
        let delta = self.kernel.vm.stats - stats_before;
        self.kernel.charge.raw(delta.pte_downgrades * model.pte_cow_ns);
        self.kernel.charge.raw(model.tlb_shootdown_ns);
        let stop_time_ns = sw.elapsed_ns();

        // Flush asynchronously and commit a region epoch.
        let lineage = pair.lineage.0;
        let oid = {
            let g = self.groups.get_mut(&gid).ok_or(SlsError::NoSuchGroup(gid))?;
            let mut store = self.store.lock();
            let oid = g.oidmap.get_or_create(&mut store, crate::KObj(crate::Kind::Mem, lineage))?;
            self.lineage_oids
                .lock()
                .entry(lineage)
                .or_insert_with(|| crate::LineageBinding::live(oid));
            oid
        };
        let dirty = self.kernel.vm.dirty_page_indices(pair.old_top)?;
        let mut batch: Vec<(u64, aurora_objstore::PageRef)> = Vec::with_capacity(dirty.len());
        for &pi in &dirty {
            batch.push((pi, self.kernel.vm.page_ref(pair.old_top, pi)?));
        }
        let info = {
            let mut store = self.store.lock();
            // The region flush is its own draft epoch under the group;
            // the cursor returns to the un-grouped draft on every exit.
            store.stage_for(gid.0);
            let res = (|| -> Result<aurora_objstore::CommitInfo, SlsError> {
                if !batch.is_empty() {
                    // The region goes out as one charged bulk write.
                    store.write_pages(oid, &batch)?;
                }
                for &pi in &dirty {
                    self.kernel.vm.mark_clean(pair.old_top, pi)?;
                }
                Ok(store.commit_for(gid.0)?)
            })();
            store.stage_for(0);
            res?
        };
        let g = self.groups.get_mut(&gid).ok_or(SlsError::NoSuchGroup(gid))?;
        g.epochs.push(info.epoch);
        g.pending_durable = info.durable_at;
        Ok(MemckptStats {
            epoch: info.epoch,
            stop_time_ns,
            pages_flushed: dirty.len() as u64,
            durable_at: info.durable_at,
        })
    }

    fn sls_journal(&mut self, journal: Oid, data: &[u8]) -> Result<u64, SlsError> {
        Ok(self.store.lock().journal_append(journal, data)?)
    }

    fn sls_journal_create(&mut self, blocks: u64) -> Result<Oid, SlsError> {
        let mut store = self.store.lock();
        let oid = store.alloc_oid();
        store.create_journal(oid, blocks)?;
        let info = store.commit()?;
        store.barrier(info);
        Ok(oid)
    }

    fn sls_journal_truncate(&mut self, journal: Oid) -> Result<(), SlsError> {
        Ok(self.store.lock().journal_truncate(journal)?)
    }

    fn sls_barrier(&mut self, gid: GroupId) -> Result<(), SlsError> {
        let pending = self.groups.get(&gid).ok_or(SlsError::NoSuchGroup(gid))?.pending_durable;
        self.kernel.charge.clock().advance_to(pending);
        self.pump_external_synchrony();
        Ok(())
    }

    fn sls_mctl(&mut self, pid: Pid, addr: u64, exclude: bool) -> Result<(), SlsError> {
        let space = self.kernel.proc(pid)?.space;
        Ok(self.kernel.vm.set_sls_exclude(space, addr, exclude)?)
    }

    fn sls_fdctl(&mut self, pid: Pid, fd: Fd, disable_extsync: bool) -> Result<(), SlsError> {
        let fid = self.kernel.resolve(pid, fd)?;
        self.kernel.files.get_mut(fid)?.extsync_disabled = disable_extsync;
        Ok(())
    }
}
