//! Giving storage back: history reclamation and draft rollback.

use super::cache::PageCache;
use super::index::{prov_tag, PageVersion};
use super::{ObjectStore, Result, StoreError};

impl ObjectStore {
    /// Drops the oldest committed checkpoint, reclaiming every block
    /// version that was superseded by the next retained checkpoint. No
    /// garbage collector: the walk is bounded by the dropped epoch's own
    /// deltas' successors.
    ///
    /// The reclaimed blocks are *staged*, not immediately reusable: they
    /// join the free list — and are discarded on the device — only once a
    /// later commit, which persists the new floor, is durable. Until then
    /// a crash simply resurrects the dropped epoch, intact.
    pub fn drop_oldest_checkpoint(&mut self) -> Result<u64> {
        if self.epochs.len() < 2 {
            return Err(StoreError::NoSuchEpoch(0));
        }
        let dropped = self.epochs.remove(0);
        self.epoch_groups.remove(&dropped);
        self.floor = self.epochs[0];
        let released = self.index.prune(self.floor);
        let mut freed = self.release(&released.versions);
        freed.extend(released.blocks);
        self.alloc.stage_free(freed);
        Ok(dropped)
    }

    /// Aborts `group`'s in-flight epoch: every mutation staged in its
    /// draft (page versions, metadata, creations, deletions, fresh
    /// journals) is discarded and its blocks returned to the free list.
    /// Other groups' drafts are untouched, and no epoch number is
    /// consumed — numbers are only assigned at commit.
    ///
    /// This is the checkpoint pipeline's rollback: a checkpoint that
    /// failed after retries must leave the store exactly as the last
    /// commit left it, so the group's next checkpoint starts clean.
    pub fn abort_epoch_for(&mut self, group: u64) {
        let trace = self.charge.trace();
        if trace.is_enabled() {
            trace.instant(
                "objstore",
                "epoch.abort",
                &[("epoch", self.cur_epoch), ("group", group)],
            );
        }
        let Some(draft) = self.drafts.remove(&group) else { return };
        let released = self.index.unstage(prov_tag(group), draft.objects);
        let mut freed = self.release(&released.versions);
        freed.extend(released.blocks);
        self.free_blocks(freed);
    }

    /// Releases versions the index dropped — no reader can reach them
    /// any more — along with their cached frames. Returns the device
    /// blocks that frees; the caller decides whether their reuse must be
    /// fenced behind a durable floor commit.
    pub(super) fn release(&mut self, versions: &[PageVersion]) -> Vec<u64> {
        let mut freed = Vec::new();
        for v in versions {
            self.cache.frames.remove(&PageCache::key(v));
            self.alloc.release_version(v, &mut freed);
        }
        freed
    }
}
