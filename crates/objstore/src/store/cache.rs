//! Volatile state that restarts cold on every open: the committed-page
//! cache and the log's durability watermarks.

use super::index::PageVersion;
use aurora_frames::PageRef;
use std::collections::HashMap;

/// Key space for materialized redo pages. Packed redo blocks hold many
/// records, so a materialized page cannot be cached under its block
/// number; it is cached under `MAT_KEY | lsn` instead. The high bit
/// keeps the two key spaces disjoint (no device has 2^62 blocks).
const MAT_KEY: u64 = 1 << 62;

/// Cache key → the frame that holds (or was written with) that
/// version's bytes. A hit hands back a shared ref — no device read, and
/// the checksum recorded at write time is already known good for the
/// frame. Entries go when their version is released or their block is
/// handed out again.
#[derive(Default)]
pub(crate) struct PageCache {
    pub frames: HashMap<u64, PageRef>,
    /// Hit/miss counters since creation (observability only).
    pub hits: u64,
    pub misses: u64,
}

impl PageCache {
    /// Where `v`'s page is cached: its block for a raw image, its LSN
    /// for a materialized packed record.
    pub(crate) fn key(v: &PageVersion) -> u64 {
        if v.redo {
            MAT_KEY | v.lsn
        } else {
            v.block
        }
    }

    /// A counted lookup.
    pub(crate) fn get(&mut self, key: u64) -> Option<PageRef> {
        let hit = self.frames.get(&key).cloned();
        match hit {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        hit
    }
}

/// The log's durability watermarks. VCL (Volume Complete LSN): every
/// record at or below it has completed on the device. VDL (Volume
/// Durable LSN): the newest committed consistency point whose commit
/// record is durable and whose log prefix is complete. Both are
/// monotone, and `vdl <= vcl` always (online invariant 6).
#[derive(Debug, Default)]
pub(crate) struct Watermarks {
    /// `(lsn, done_at)` of appended records, in LSN order — `advance`
    /// consumes a durable prefix of this.
    completions: Vec<(u64, u64)>,
    /// `(cpl, durable_at)` of committed epochs awaiting a durable commit
    /// record, in commit order.
    pending_cpls: Vec<(u64, u64)>,
    pub vcl: u64,
    pub vdl: u64,
}

impl Watermarks {
    /// Everything that survived recovery is durable by construction:
    /// both watermarks restart at the recovered log's tip.
    pub(crate) fn recovered(tip: u64) -> Self {
        Self { vcl: tip, vdl: tip, ..Self::default() }
    }

    /// Record `lsn`'s device write completes at `done_at`.
    pub(crate) fn wrote(&mut self, lsn: u64, done_at: u64) {
        self.completions.push((lsn, done_at));
    }

    /// An epoch with consistency point `cpl` committed; its record is
    /// durable at `durable_at`.
    pub(crate) fn committed(&mut self, cpl: u64, durable_at: u64) {
        self.pending_cpls.push((cpl, durable_at));
    }

    /// Advances both watermarks to virtual time `now`.
    pub(crate) fn advance(&mut self, now: u64) {
        let done = self.completions.iter().take_while(|c| c.1 <= now).count();
        for (lsn, _) in self.completions.drain(..done) {
            self.vcl = self.vcl.max(lsn);
        }
        // Commit records chain per group, so points become durable in
        // commit order; one only counts once its log prefix is complete.
        let durable = self.pending_cpls.iter().take_while(|c| c.1 <= now).count();
        for (cpl, _) in self.pending_cpls.drain(..durable) {
            if cpl <= self.vcl {
                self.vdl = self.vdl.max(cpl);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vdl_trails_vcl_and_waits_for_the_commit_record() {
        let mut w = Watermarks::default();
        w.wrote(1, 100);
        w.wrote(2, 300);
        w.wrote(3, 200); // completes early, but LSN 2 is still in flight
        w.committed(3, 400);
        w.advance(250);
        assert_eq!((w.vcl, w.vdl), (1, 0), "the completion prefix stops at LSN 2");
        w.advance(350);
        assert_eq!((w.vcl, w.vdl), (3, 0), "records complete, commit record not yet durable");
        w.advance(400);
        assert_eq!((w.vcl, w.vdl), (3, 3));
        let r = Watermarks::recovered(9);
        assert_eq!((r.vcl, r.vdl), (9, 9));
    }
}
