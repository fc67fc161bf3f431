//! Swap/overcommit integration (§6, "Memory Overcommitment").
//!
//! Aurora subsumes swap: a page that is already in a checkpoint is clean
//! and can be evicted *without IO*; dirty pages are flushed by the next
//! checkpoint rather than to a separate swap partition. Faults retrieve
//! the most recent version from the store — the same path lazy restore
//! uses.

use crate::{GroupId, LineageBinding, SharedStore, Sls, SlsError};
use aurora_objstore::StoreError;
use aurora_posix::KError;
use aurora_vm::{ObjKind, PageData};
use aurora_sim::sync::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// The kernel pager backed by the object store: page-ins read the latest
/// committed version of the page (§6, "On a page fault Aurora retrieves
/// the most recent version of the page").
pub struct StorePager {
    /// The store shared with the SLS.
    pub store: SharedStore,
    /// Lineage → binding, shared with the SLS.
    pub lineage_oids: Arc<Mutex<HashMap<u64, LineageBinding>>>,
}

impl aurora_posix::Pager for StorePager {
    /// A one-page read plan on the lineage's branch. A page the store
    /// never had is a hard fault (`Ok(None)`); a device error or
    /// checksum mismatch surfaces as [`KError::Io`].
    fn page_in(&mut self, lineage: u64, pindex: u64) -> Result<Option<PageData>, KError> {
        use StoreError::{Corrupt, Device, NoSuchEpoch, NoSuchObject, NoSuchPage};
        let Some(binding) = self.lineage_oids.lock().get(&lineage).copied() else {
            return Ok(None);
        };
        let page = self.store.lock().read_page_pinned(
            binding.oid,
            pindex,
            binding.floor,
            binding.resume,
        );
        match page {
            Ok(page) => Ok(Some(page)),
            Err(NoSuchObject(_) | NoSuchEpoch(_) | NoSuchPage(..)) => Ok(None),
            Err(Device { op, .. }) => Err(KError::Io { op }),
            Err(Corrupt(what)) => Err(KError::Io { op: what }),
            Err(_) => Err(KError::Io { op: "page-in" }),
        }
    }
}

impl Sls {
    /// The pageout daemon: evicts up to `max_pages` clean pages from the
    /// group's memory, preferring them over dirty pages (§6's paging
    /// policy). Returns how many pages were evicted — all without IO.
    ///
    /// Waits for the latest checkpoint to be durable first: a "clean"
    /// page whose backing write is still in flight must not be dropped.
    pub fn evict_clean_pages(&mut self, gid: GroupId, max_pages: u64) -> Result<u64, SlsError> {
        let pending = self.groups.get(&gid).ok_or(SlsError::NoSuchGroup(gid))?.pending_durable;
        self.kernel.charge.clock().advance_to(pending);
        let pids = self.group_pids(gid)?;
        let mut evicted = 0;
        'outer: for pid in pids {
            let space = self.kernel.proc(pid)?.space;
            let tops: Vec<aurora_vm::ObjId> =
                self.kernel.vm.entries(space)?.iter().map(|e| e.object).collect();
            for top in tops {
                for obj in self.kernel.vm.chain_of(top)? {
                    if matches!(self.kernel.vm.object(obj)?.kind, ObjKind::Device { .. }) {
                        continue;
                    }
                    let clean: Vec<u64> = self
                        .kernel
                        .vm
                        .resident_page_indices(obj)?
                        .into_iter()
                        .filter(|&(_, dirty)| !dirty)
                        .map(|(pi, _)| pi)
                        .collect();
                    for pi in clean {
                        if evicted >= max_pages {
                            break 'outer;
                        }
                        self.kernel.vm.evict_page(obj, pi)?;
                        evicted += 1;
                    }
                }
            }
        }
        Ok(evicted)
    }

    /// Resident pages across a group (for memory-pressure decisions).
    pub fn group_resident_pages(&self, gid: GroupId) -> Result<u64, SlsError> {
        let mut total = 0;
        for pid in self.group_pids(gid)? {
            let space = self.kernel.proc(pid)?.space;
            total += self.kernel.vm.space_resident_pages(space)?;
        }
        Ok(total)
    }
}
