//! The data-region block allocator: a bump pointer, a free list, the
//! fencing that keeps reclaimed history off the free list until the
//! commit that forgets it is durable, and per-block reference counts for
//! packed redo extents. Every batch of freed blocks is sorted before it
//! enters a list, so where later writes land (and which stripe member
//! they queue on) never depends on `HashMap` iteration order in the index.
//! The two calls that put blocks on the free list return them, so the
//! store can discard them on the device before any allocation hands them
//! out again.

use super::index::PageVersion;
use super::{Result, StoreError};
use std::collections::HashMap;
use std::ops::Range;

/// Maximal runs of physically consecutive blocks in `blocks`, as index
/// ranges: one device command per run instead of one per block.
pub(crate) fn contiguous_runs(blocks: &[u64]) -> impl Iterator<Item = Range<usize>> + '_ {
    let mut next = 0;
    std::iter::from_fn(move || {
        let start = next;
        let adjacent = |&i: &usize| blocks[i] == blocks[i - 1] + 1;
        next = start + 1 + (start + 1..blocks.len()).take_while(adjacent).count();
        (start < blocks.len()).then_some(start..next)
    })
}

#[derive(Debug)]
pub(crate) struct Allocator {
    /// Next never-used block (bump pointer) and the device's end.
    pub(super) next_block: u64,
    capacity: u64,
    /// Reusable blocks; the tail is handed out first.
    pub(super) free_blocks: Vec<u64>,
    /// Blocks freed by history reclamation, awaiting the next commit.
    /// They become reusable only once the commit that persists the new
    /// floor is durable — reusing earlier would let a crash recover a
    /// pre-drop history whose blocks we overwrote.
    pub(super) staged_free: Vec<u64>,
    /// Reclaimed blocks fenced behind a commit: `(durable_at, blocks)`.
    pending_free: Vec<(u64, Vec<u64>)>,
    /// Per-block reference counts for packed redo blocks: records share
    /// blocks, so a block frees only when its last record is released.
    redo_refs: HashMap<u64, u32>,
}

impl Allocator {
    pub(crate) fn new(first_block: u64, capacity: u64) -> Self {
        Self {
            next_block: first_block,
            capacity,
            free_blocks: Vec::new(),
            staged_free: Vec::new(),
            pending_free: Vec::new(),
            redo_refs: HashMap::new(),
        }
    }

    /// One block for a raw page image, recycled if possible.
    pub(crate) fn alloc_block(&mut self) -> Result<u64> {
        match self.free_blocks.pop() {
            Some(b) => Ok(b),
            None => self.bump(1),
        }
    }

    /// `n` physically contiguous blocks for a packed redo extent.
    /// Bump-only: packed records share blocks, so recycled singles from
    /// the free list are useless here.
    pub(crate) fn alloc_extent(&mut self, n: u64) -> Result<u64> {
        self.bump(n)
    }

    fn bump(&mut self, n: u64) -> Result<u64> {
        if self.next_block + n > self.capacity {
            return Err(StoreError::Full);
        }
        let b = self.next_block;
        self.next_block += n;
        Ok(b)
    }

    /// Counts a packed record's references on the blocks it spans.
    pub(crate) fn retain(&mut self, v: &PageVersion) {
        debug_assert!(v.redo);
        for b in v.covering_blocks() {
            *self.redo_refs.entry(b).or_insert(0) += 1;
        }
    }

    /// Releases one page version's storage into `freed`: a raw image's
    /// block directly; a packed record's blocks as their reference
    /// counts reach zero. Whether `freed` may be reused at once (`free`)
    /// or only behind a durable floor (`stage_free`) is the caller's call.
    pub(crate) fn release_version(&mut self, v: &PageVersion, freed: &mut Vec<u64>) {
        if !v.redo {
            freed.push(v.block);
            return;
        }
        for b in v.covering_blocks() {
            if let Some(r) = self.redo_refs.get_mut(&b) {
                *r -= 1;
                if *r == 0 {
                    self.redo_refs.remove(&b);
                    freed.push(b);
                }
            }
        }
    }

    /// Returns never-committed blocks: reusable at once. Returns them,
    /// sorted, as they now sit on the free list.
    pub(crate) fn free(&mut self, mut blocks: Vec<u64>) -> &[u64] {
        blocks.sort_unstable();
        let start = self.free_blocks.len();
        self.free_blocks.extend(blocks);
        &self.free_blocks[start..]
    }

    /// Returns blocks of reclaimed *committed* history: reusable only
    /// after the next commit record (carrying the new floor) is durable.
    pub(crate) fn stage_free(&mut self, mut blocks: Vec<u64>) {
        blocks.sort_unstable();
        self.staged_free.extend(blocks);
    }

    /// Fences everything staged behind a commit durable at `durable_at`.
    pub(crate) fn fence(&mut self, durable_at: u64) {
        if !self.staged_free.is_empty() {
            self.pending_free.push((durable_at, std::mem::take(&mut self.staged_free)));
        }
    }

    /// Moves fenced blocks whose commit is durable at virtual time `now`
    /// onto the free list, and returns them.
    pub(super) fn reclaim_matured(&mut self, now: u64) -> &[u64] {
        let start = self.free_blocks.len();
        let mut i = 0;
        while i < self.pending_free.len() {
            if self.pending_free[i].0 <= now {
                let (_, blocks) = self.pending_free.swap_remove(i);
                self.free_blocks.extend(blocks);
            } else {
                i += 1;
            }
        }
        &self.free_blocks[start..]
    }

    /// Conservative recovery: everything at or above the highest block
    /// the recovered index references (never below `data_start`) is
    /// free, and packed-record reference counts rebuild from the
    /// surviving versions in the same pass.
    pub(crate) fn recovered<'a>(
        data_start: u64,
        capacity: u64,
        versions: impl Iterator<Item = &'a PageVersion>,
        journal_blocks: impl Iterator<Item = u64>,
    ) -> Self {
        let mut a = Self::new(data_start, capacity);
        for v in versions {
            a.next_block = a.next_block.max(v.covering_blocks().end);
            if v.redo {
                a.retain(v);
            }
        }
        a.next_block = journal_blocks.fold(a.next_block, |h, b| h.max(b + 1));
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packed(lsn: u64, block: u64, byte_off: u32, rec_len: u32) -> PageVersion {
        PageVersion::packed(1, lsn, block as usize * 4096 + byte_off as usize, rec_len, 0, 0)
    }

    #[test]
    fn runs_split_exactly_where_adjacency_breaks() {
        let runs = |b: &[u64]| contiguous_runs(b).map(|r| (r.start, r.end)).collect::<Vec<_>>();
        assert_eq!(runs(&[]), []);
        assert_eq!(runs(&[7]), [(0, 1)]);
        assert_eq!(runs(&[7, 8, 9]), [(0, 3)]);
        assert_eq!(runs(&[7, 8, 10, 11, 5, 6, 8]), [(0, 2), (2, 4), (4, 6), (6, 7)]);
        assert_eq!(runs(&[3, 3]), [(0, 1), (1, 2)], "a repeat is not adjacent");
    }

    #[test]
    fn bump_then_recycle_and_full() {
        let mut a = Allocator::new(10, 14);
        assert_eq!(a.alloc_block(), Ok(10));
        assert_eq!(a.alloc_extent(2), Ok(11));
        assert_eq!(a.free(vec![10]), [10]);
        assert_eq!(a.alloc_extent(2), Err(StoreError::Full), "extents never recycle singles");
        assert_eq!(a.alloc_block(), Ok(10), "single blocks do");
        assert_eq!(a.alloc_block(), Ok(13));
        assert_eq!(a.alloc_block(), Err(StoreError::Full));
    }

    #[test]
    fn freed_batches_enter_the_lists_in_ascending_lba_order() {
        let mut a = Allocator::new(100, 1000);
        assert_eq!(a.free(vec![7, 3, 5]), [3, 5, 7]);
        assert_eq!(a.free_blocks, [3, 5, 7]);
        a.stage_free(vec![42, 40, 41]);
        assert_eq!(a.staged_free, [40, 41, 42]);
    }

    #[test]
    fn reclaimed_history_is_fenced_until_its_commit_is_durable() {
        let mut a = Allocator::new(100, 1000);
        a.stage_free(vec![20, 21]);
        assert!(a.reclaim_matured(u64::MAX).is_empty());
        assert_eq!(a.alloc_block(), Ok(100), "staged blocks have no fence yet: not reusable");
        a.fence(5_000);
        assert!(a.staged_free.is_empty());
        assert!(a.reclaim_matured(4_999).is_empty());
        assert_eq!(a.alloc_block(), Ok(101), "the fencing commit is not durable yet");
        assert_eq!(a.reclaim_matured(5_000), [20, 21]);
        assert_eq!(a.alloc_block(), Ok(21));
        assert_eq!(a.alloc_block(), Ok(20));
        a.fence(9_000);
        assert!(a.pending_free.is_empty(), "an empty fence queues nothing");
    }

    #[test]
    fn packed_blocks_free_when_their_last_record_goes() {
        let mut a = Allocator::new(100, 1000);
        // Three records in a two-block extent; the middle one straddles.
        let recs = [packed(1, 50, 0, 3000), packed(2, 50, 3000, 2000), packed(3, 51, 904, 100)];
        recs.iter().for_each(|r| a.retain(r));
        let mut freed = Vec::new();
        a.release_version(&recs[0], &mut freed);
        assert!(freed.is_empty(), "block 50 still holds record 2");
        a.release_version(&recs[1], &mut freed);
        assert_eq!(freed, [50], "block 51 still holds record 3");
        a.release_version(&recs[2], &mut freed);
        assert_eq!(freed, [50, 51]);
        a.release_version(&PageVersion::raw(1, 4, 77, 0), &mut freed);
        assert_eq!(freed, [50, 51, 77], "raw images free their block directly");
    }

    #[test]
    fn recovery_finds_the_high_water_mark_and_recounts() {
        let versions =
            [PageVersion::raw(1, 1, 30, 0), packed(2, 40, 4000, 200), packed(3, 41, 104, 50)];
        let mut a = Allocator::recovered(10, 1000, versions.iter(), [60, 61].into_iter());
        assert_eq!(a.next_block, 62);
        let mut freed = Vec::new();
        a.release_version(&versions[1], &mut freed);
        assert_eq!(freed, [40], "block 41 is still referenced by the other record");
        let a = Allocator::recovered(10, 1000, [].iter(), std::iter::empty());
        assert_eq!(a.next_block, 10, "an empty store restarts at the data region");
    }
}
