//! The in-memory page index: every object's per-page version chains
//! and metadata versions, staged and committed, behind one lookup
//! ([`ObjMeta::visible`]). No device I/O and no allocation policy here:
//! whatever drops versions hands them back for the engine to free.

use super::{Oid, Result, StoreError, PAGE};
use crate::journal::Journal;
use std::collections::{BTreeSet, HashMap};

/// Provenance tags for staged (uncommitted) state. A draft entry carries
/// `PROV_BASE | group` in its epoch slot until the group's commit retags
/// it with the real epoch number, assigned at commit time. The high bit
/// keeps every provenance tag above any committable epoch, so all
/// committed-view readers (`e <= epoch` searches) skip staged state for
/// free.
pub(crate) const PROV_BASE: u64 = 1 << 63;

pub(crate) fn prov_tag(group: u64) -> u64 {
    debug_assert!(group < PROV_BASE, "group id overflows the provenance tag space");
    PROV_BASE | group
}

/// One page version in the in-memory index. Every version is a redo
/// record: `lsn` orders it in the volume log, `prev_lsn` chains it to
/// the version it amends, and `csum` covers the fully *materialized*
/// page (validated after chain replay, not against raw record bytes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PageVersion {
    /// Commit epoch, or a provenance tag while staged.
    pub epoch: u64,
    /// Log sequence number, assigned at write (not commit) time.
    pub lsn: u64,
    /// Full-image versions: the data block. Delta records: the first
    /// device block of the packed record.
    pub block: u64,
    /// Byte offset of the record header within `block` (packed records
    /// only; 0 for raw full-image blocks).
    pub byte_off: u32,
    /// Encoded record length in bytes (packed records; `PAGE` for raw).
    pub rec_len: u32,
    /// The previous version's LSN (0 = none). Materialization walks this
    /// chain back to a full-image record.
    pub prev_lsn: u64,
    /// Full-image record — a chain-walk terminator.
    pub full: bool,
    /// Packed redo record (parse at `block`+`byte_off`) vs a raw page
    /// block holding exactly the page bytes.
    pub redo: bool,
    /// Checksum of the materialized page.
    pub csum: u64,
}

impl PageVersion {
    /// A full image in its own raw block; [`ObjMeta::stage`] links it to
    /// its predecessor.
    pub(crate) fn raw(epoch: u64, lsn: u64, block: u64, csum: u64) -> Self {
        Self {
            epoch,
            lsn,
            block,
            byte_off: 0,
            rec_len: PAGE as u32,
            prev_lsn: 0,
            full: true,
            redo: false,
            csum,
        }
    }

    /// A delta record packed `at` bytes into its (yet to be placed)
    /// extent: `block` is extent-relative until the caller adds the base.
    pub(crate) fn packed(
        epoch: u64,
        lsn: u64,
        at: usize,
        rec_len: u32,
        prev_lsn: u64,
        csum: u64,
    ) -> Self {
        let (block, byte_off) = ((at / PAGE) as u64, (at % PAGE) as u32);
        Self { epoch, lsn, block, byte_off, rec_len, prev_lsn, full: false, redo: true, csum }
    }

    /// Device blocks the encoded record spans.
    pub(crate) fn covering_blocks(&self) -> std::ops::Range<u64> {
        let n = ((self.byte_off as u64 + self.rec_len as u64).div_ceil(PAGE as u64)).max(1);
        self.block..self.block + n
    }
}

/// Which versions of a page a reader may see.
#[derive(Clone, Copy, Debug)]
pub enum View {
    /// The committed state as of an epoch.
    Epoch(u64),
    /// A restored branch, as of epoch `upto`: history up to the restore
    /// point (`≤ floor`) plus what the branch itself wrote (`≥ resume`),
    /// never the abandoned future in between. `upto = u64::MAX` admits
    /// staged versions too — the write path chains on them.
    Branch {
        /// Newest historical epoch visible.
        floor: u64,
        /// First epoch the branch itself committed.
        resume: u64,
        /// Newest epoch visible at all.
        upto: u64,
    },
    /// Committed records at or below a log sequence number.
    Lsn(u64),
}

impl View {
    fn admits(self, v: &PageVersion) -> bool {
        match self {
            View::Epoch(e) => v.epoch <= e,
            View::Branch { floor, resume, upto } => {
                v.epoch <= upto && (v.epoch <= floor || v.epoch >= resume)
            }
            View::Lsn(lsn) => v.epoch < PROV_BASE && v.lsn <= lsn,
        }
    }
}

/// Storage the index no longer references, for the engine to free:
/// dropped page versions, and the journal blocks of dropped objects.
#[derive(Debug, Default)]
pub(crate) struct Released {
    pub versions: Vec<PageVersion>,
    pub blocks: Vec<u64>,
}

/// One object's in-memory index.
#[derive(Clone, Debug, Default)]
pub(crate) struct ObjMeta {
    pub kind_raw: u16,
    pub size: u64,
    /// Per-page version chain, ascending by epoch and (within a page) by
    /// LSN — a page's writes are serialized by its group's pipeline, so
    /// the two orders agree. Private: every mutation below keeps it so.
    versions: HashMap<u64, Vec<PageVersion>>,
    /// Serialized object metadata per epoch, ascending.
    meta: Vec<(u64, Vec<u8>)>,
    pub created_epoch: u64,
    pub deleted_epoch: Option<u64>,
    /// Journal state (kind == Journal only).
    pub journal: Option<Journal>,
}

impl ObjMeta {
    /// The newest version of page `pindex` that `view` admits — the one
    /// version lookup every read and every delta's chain target uses.
    pub(crate) fn visible(&self, pindex: u64, view: View) -> Option<&PageVersion> {
        self.versions.get(&pindex)?.iter().rev().find(|v| view.admits(v))
    }

    /// Every page with its chain, oldest version first (pages unordered).
    pub(crate) fn pages(&self) -> impl Iterator<Item = (u64, &[PageVersion])> {
        self.versions.iter().map(|(&pi, vs)| (pi, vs.as_slice()))
    }

    pub(crate) fn chain_of(&self, pindex: u64) -> &[PageVersion] {
        self.versions.get(&pindex).map_or(&[], |vs| vs.as_slice())
    }

    /// The pages that have a version `view` admits (unordered).
    pub(crate) fn pages_in(&self, view: View) -> impl Iterator<Item = u64> + '_ {
        self.pages().filter(move |(_, vs)| vs.iter().any(|v| view.admits(v))).map(|(pi, _)| pi)
    }

    /// True when the object exists (created, not yet deleted) at `epoch`.
    pub(crate) fn live_at(&self, epoch: u64) -> bool {
        self.created_epoch <= epoch && self.deleted_epoch.is_none_or(|d| d > epoch)
    }

    /// Stages `entry` as the page's newest version. A full image that
    /// rewrites the page within the same in-flight epoch replaces its
    /// predecessor in place and returns it for release: that record was
    /// never committed and, being the newest entry, nothing chains on
    /// it. Deltas always append — a page may carry several chained
    /// records in one epoch.
    pub(crate) fn stage(&mut self, pindex: u64, mut entry: PageVersion) -> Option<PageVersion> {
        self.size = self.size.max((pindex + 1) * PAGE as u64);
        let vs = self.versions.entry(pindex).or_default();
        if entry.full {
            if let Some(slot) = vs.last_mut().filter(|v| v.epoch == entry.epoch) {
                entry.prev_lsn = slot.prev_lsn;
                return Some(std::mem::replace(slot, entry));
            }
            entry.prev_lsn = vs.last().map_or(0, |v| v.lsn);
        }
        vs.push(entry);
        None
    }

    /// Appends what a recovered commit record (replayed in log order)
    /// says `epoch` changed.
    pub(crate) fn replay(
        &mut self,
        epoch: u64,
        meta: Option<&[u8]>,
        pages: Vec<(u64, PageVersion)>,
    ) {
        self.meta.extend(meta.map(|m| (epoch, m.to_vec())));
        for (pindex, v) in pages {
            self.versions.entry(pindex).or_default().push(v);
        }
    }

    /// Every version staged under `prov`, ordered by `(page, lsn)` — the
    /// order a commit record lists them in.
    pub(crate) fn staged(&self, prov: u64) -> Vec<(u64, PageVersion)> {
        let mut pages: Vec<(u64, PageVersion)> = self
            .versions
            .iter()
            .flat_map(|(&pi, vs)| vs.iter().filter(|v| v.epoch == prov).map(move |&v| (pi, v)))
            .collect();
        pages.sort_unstable_by_key(|&(pi, v)| (pi, v.lsn));
        pages
    }

    /// Retags everything staged under `prov` with the commit's `epoch`.
    /// The new epoch sorts above every committed entry and below every
    /// provenance tag, so a stable sort restores ascending order without
    /// disturbing other groups' staged entries.
    pub(crate) fn retag(&mut self, prov: u64, epoch: u64) {
        if self.created_epoch == prov {
            self.created_epoch = epoch;
        }
        if self.deleted_epoch == Some(prov) {
            self.deleted_epoch = Some(epoch);
        }
        for vs in self.versions.values_mut() {
            let mut hit = false;
            for v in vs.iter_mut().filter(|v| v.epoch == prov) {
                v.epoch = epoch;
                hit = true;
            }
            if hit {
                vs.sort_by_key(|v| (v.epoch, v.lsn));
            }
        }
        let mut hit = false;
        for m in self.meta.iter_mut().filter(|m| m.0 == prov) {
            m.0 = epoch;
            hit = true;
        }
        if hit {
            self.meta.sort_by_key(|&(e, _)| e);
        }
    }

    /// Discards everything staged under `prov` (an aborted draft).
    fn unstage(&mut self, prov: u64, out: &mut Vec<PageVersion>) {
        for vs in self.versions.values_mut() {
            out.extend(vs.iter().filter(|v| v.epoch == prov));
            vs.retain(|v| v.epoch != prov);
        }
        self.versions.retain(|_, vs| !vs.is_empty());
        self.meta.retain(|(e, _)| *e != prov);
        if self.deleted_epoch == Some(prov) {
            self.deleted_epoch = None;
        }
    }

    /// Drops page and metadata versions superseded at or below `floor`.
    fn prune(&mut self, floor: u64, out: &mut Vec<PageVersion>) {
        for vs in self.versions.values_mut() {
            // Keep the newest version ≤ floor plus every record some
            // retained delta's chain still walks through — freeing an
            // interior chain link would orphan the deltas above it.
            let Some(k) = vs.iter().rposition(|v| v.epoch <= floor) else { continue };
            let mut need: BTreeSet<u64> = BTreeSet::new();
            for idx in k..vs.len() {
                let mut cur = vs[idx];
                while !cur.full && cur.prev_lsn != 0 {
                    let Ok(i) = vs.binary_search_by_key(&cur.prev_lsn, |e| e.lsn) else { break };
                    if !need.insert(vs[i].lsn) {
                        break;
                    }
                    cur = vs[i];
                }
            }
            let newest_kept = vs[k].lsn;
            vs.retain(|v| {
                let keep = v.lsn >= newest_kept || need.contains(&v.lsn);
                if !keep {
                    out.push(*v);
                }
                keep
            });
        }
        // Trim metadata versions: keep the newest ≤ floor and all > floor.
        while self.meta.len() >= 2 && self.meta[1].0 <= floor {
            self.meta.remove(0);
        }
    }

    /// The chain materializing `v` replays, newest→oldest, ending at a
    /// full image; `Err(links walked)` when it never reaches one. Chains
    /// are LSN-ascending, so each hop is a binary search.
    pub(crate) fn chain(
        &self,
        pindex: u64,
        v: PageVersion,
    ) -> std::result::Result<Vec<PageVersion>, usize> {
        let vs = self.chain_of(pindex);
        let mut chain = vec![v];
        let mut cur = v;
        while !cur.full {
            let prev = vs.binary_search_by_key(&cur.prev_lsn, |e| e.lsn).ok().map(|i| vs[i]);
            match prev.filter(|_| cur.prev_lsn != 0) {
                Some(prev) => {
                    chain.push(prev);
                    cur = prev;
                }
                None => return Err(chain.len()),
            }
        }
        Ok(chain)
    }

    /// Stages `meta` under `prov`, replacing the draft's earlier value.
    /// Returns false when it is byte-identical to the last committed
    /// version: re-serializing an unchanged object creates no new
    /// version, keeping commit records and incremental streams
    /// proportional to what actually changed.
    pub(crate) fn set_meta(&mut self, prov: u64, meta: &[u8]) -> bool {
        if let Some((_, m)) = self.meta.iter_mut().rev().find(|(e, _)| *e == prov) {
            *m = meta.to_vec();
        } else if self.meta_at(PROV_BASE - 1).is_some_and(|(_, m)| m == meta) {
            return false;
        } else {
            self.meta.push((prov, meta.to_vec()));
        }
        true
    }

    /// The newest metadata version at or before `epoch`, with its epoch.
    pub(crate) fn meta_at(&self, epoch: u64) -> Option<(u64, &[u8])> {
        self.meta.iter().rev().find(|(e, _)| *e <= epoch).map(|(e, m)| (*e, m.as_slice()))
    }

    pub(crate) fn staged_meta(&self, prov: u64) -> Option<&[u8]> {
        self.meta.iter().rev().find(|(e, _)| *e == prov).map(|(_, m)| m.as_slice())
    }

    fn drain_into(&mut self, out: &mut Released) {
        out.versions.extend(std::mem::take(&mut self.versions).into_values().flatten());
        out.blocks.extend(self.journal.take().into_iter().flat_map(|j| j.blocks));
    }
}

/// All objects, by OID.
#[derive(Debug, Default)]
pub(crate) struct Index(HashMap<u64, ObjMeta>);

impl Index {
    pub(crate) fn obj(&self, oid: Oid) -> Result<&ObjMeta> {
        self.0.get(&oid.0).ok_or(StoreError::NoSuchObject(oid))
    }

    pub(crate) fn obj_mut(&mut self, oid: Oid) -> Result<&mut ObjMeta> {
        self.0.get_mut(&oid.0).ok_or(StoreError::NoSuchObject(oid))
    }

    /// The object, created (as of `created_epoch`) on first sight.
    pub(crate) fn obj_or_create(
        &mut self,
        oid: u64,
        kind_raw: u16,
        created_epoch: u64,
    ) -> &mut ObjMeta {
        self.0.entry(oid).or_insert_with(|| ObjMeta {
            kind_raw,
            created_epoch,
            ..ObjMeta::default()
        })
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (Oid, &ObjMeta)> {
        self.0.iter().map(|(&id, o)| (Oid(id), o))
    }

    pub(crate) fn versions(&self) -> impl Iterator<Item = &PageVersion> {
        self.0.values().flat_map(|o| o.versions.values().flatten())
    }

    /// Removes history below `floor`: dead objects, superseded page
    /// versions, superseded metadata.
    pub(crate) fn prune(&mut self, floor: u64) -> Released {
        let mut out = Released::default();
        self.0.retain(|_, o| {
            let dead = o.deleted_epoch.is_some_and(|d| d <= floor);
            if dead {
                o.drain_into(&mut out);
            }
            !dead
        });
        for o in self.0.values_mut() {
            o.prune(floor, &mut out.versions);
        }
        out
    }

    /// Discards everything the draft tagged `prov` staged on `oids`:
    /// page versions, metadata, deletions, and whole objects (with their
    /// fresh journals) that never existed in a committed epoch.
    pub(crate) fn unstage(&mut self, prov: u64, oids: impl IntoIterator<Item = u64>) -> Released {
        let mut out = Released::default();
        for oid in oids {
            match self.0.get_mut(&oid) {
                None => {}
                Some(o) if o.created_epoch == prov => {
                    o.drain_into(&mut out);
                    self.0.remove(&oid);
                }
                Some(o) => o.unstage(prov, &mut out.versions),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A live, never-restored object's write view: everything, staged
    /// versions included.
    const LIVE: View = View::Branch { floor: u64::MAX, resume: 0, upto: u64::MAX };

    fn delta(epoch: u64, lsn: u64, prev_lsn: u64) -> PageVersion {
        PageVersion::packed(epoch, lsn, 900 * PAGE, 64, prev_lsn, lsn)
    }

    /// Page 0's chain: full@e1, delta@e2, delta@e4, full@e5, and a delta
    /// still staged by group 7 — built through `stage` + `retag`, the
    /// way the engine does.
    fn chain_obj() -> ObjMeta {
        let mut o = ObjMeta::default();
        for (epoch, lsn, full) in [(1, 10, true), (2, 20, false), (4, 30, false), (5, 40, true)] {
            let prov = prov_tag(0);
            let prev = o.visible(0, LIVE).map_or(0, |v| v.lsn);
            let v = if full {
                PageVersion::raw(prov, lsn, 100 + lsn, lsn)
            } else {
                delta(prov, lsn, prev)
            };
            assert!(o.stage(0, v).is_none());
            o.retag(prov, epoch);
        }
        o.stage(0, delta(prov_tag(7), 50, 40));
        o
    }

    #[test]
    fn visible_serves_all_three_views_from_one_chain() {
        let o = chain_obj();
        let lsn = |view| o.visible(0, view).map(|v| v.lsn);
        // As of an epoch: newest committed version at or before it.
        assert_eq!(lsn(View::Epoch(0)), None);
        assert_eq!(lsn(View::Epoch(1)), Some(10));
        assert_eq!(lsn(View::Epoch(3)), Some(20), "epoch 3 wrote nothing: epoch 2 shows through");
        assert_eq!(lsn(View::Epoch(9)), Some(40), "staged state is invisible to epoch readers");
        // On a branch restored at epoch 2 that resumed at epoch 5: the
        // abandoned epoch 4 is skipped, and `upto` bounds the newest.
        let branch = |upto| View::Branch { floor: 2, resume: 5, upto };
        assert_eq!(lsn(branch(4)), Some(20));
        assert_eq!(lsn(branch(5)), Some(40));
        assert_eq!(lsn(branch(u64::MAX)), Some(50), "the write view chains on staged versions");
        assert_eq!(lsn(View::Branch { floor: 2, resume: 6, upto: 5 }), Some(20));
        // At an LSN: committed records only, at or below the target.
        assert_eq!(lsn(View::Lsn(9)), None);
        assert_eq!(lsn(View::Lsn(35)), Some(30));
        assert_eq!(lsn(View::Lsn(u64::MAX)), Some(40));
        assert_eq!(o.visible(1, LIVE), None, "unknown page");
    }

    #[test]
    fn stage_links_full_images_and_replaces_same_draft_rewrites() {
        let mut o = ObjMeta::default();
        let prov = prov_tag(3);
        assert!(o.stage(2, PageVersion::raw(prov, 1, 100, 0xA)).is_none());
        assert_eq!(o.size, 3 * PAGE as u64);
        o.retag(prov, 1);
        // A new draft's image appends and links to its predecessor...
        assert!(o.stage(2, PageVersion::raw(prov, 2, 101, 0xB)).is_none());
        assert_eq!(o.visible(2, LIVE).unwrap().prev_lsn, 1);
        // ...a rewrite within that draft replaces it, inheriting the link.
        let old = o.stage(2, PageVersion::raw(prov, 3, 102, 0xC)).expect("superseded");
        assert_eq!((old.lsn, old.block), (2, 101));
        let newest = *o.visible(2, LIVE).unwrap();
        assert_eq!((newest.lsn, newest.prev_lsn), (3, 1));
        assert_eq!(o.staged(prov), vec![(2, newest)]);
        // Deltas never replace: both stay staged, in LSN order.
        o.stage(2, delta(prov, 4, 3));
        o.stage(2, delta(prov, 5, 4));
        assert_eq!(o.staged(prov).iter().map(|(_, v)| v.lsn).collect::<Vec<_>>(), [3, 4, 5]);
    }

    #[test]
    fn prune_keeps_interior_links_a_retained_delta_walks_through() {
        let mut idx = Index::default();
        *idx.obj_or_create(1, 1, 1) = chain_obj();
        // Floor 4: epoch 4's delta is the newest version ≤ floor and
        // stays; its chain walks through the epoch-2 delta to the
        // epoch-1 full image, so both interior links must survive.
        let released = idx.prune(4);
        assert!(released.versions.is_empty(), "nothing is unreachable: {released:?}");
        let o = idx.obj(Oid(1)).unwrap();
        let v = *o.visible(0, View::Epoch(4)).unwrap();
        assert_eq!(o.chain(0, v).unwrap().iter().map(|l| l.lsn).collect::<Vec<_>>(), [30, 20, 10]);
        // Floor 5: the epoch-5 full image supersedes the whole old chain.
        let released = idx.prune(5);
        let mut lsns: Vec<u64> = released.versions.iter().map(|v| v.lsn).collect();
        lsns.sort_unstable();
        assert_eq!(lsns, [10, 20, 30]);
        let o = idx.obj(Oid(1)).unwrap();
        assert_eq!(o.pages().next().unwrap().1.iter().map(|v| v.lsn).collect::<Vec<_>>(), [40, 50]);
    }

    #[test]
    fn chain_without_a_full_base_reports_how_far_it_got() {
        let mut o = ObjMeta::default();
        o.replay(1, None, vec![(0, delta(1, 10, 0))]);
        o.replay(2, None, vec![(0, delta(2, 20, 10))]);
        assert_eq!(o.chain(0, delta(2, 20, 10)), Err(2));
    }

    #[test]
    fn unstage_drops_a_draft_and_objects_born_in_it() {
        let mut idx = Index::default();
        *idx.obj_or_create(1, 1, 1) = chain_obj();
        let born = idx.obj_or_create(2, 1, prov_tag(7));
        born.stage(0, PageVersion::raw(prov_tag(7), 60, 300, 0));
        born.journal = Some(Journal::adopt(vec![7, 8]));
        idx.obj_mut(Oid(1)).unwrap().set_meta(prov_tag(7), b"draft");
        let released = idx.unstage(prov_tag(7), [1, 2, 99]);
        let mut lsns: Vec<u64> = released.versions.iter().map(|v| v.lsn).collect();
        lsns.sort_unstable();
        assert_eq!(lsns, [50, 60]);
        assert_eq!(released.blocks, [7, 8]);
        assert!(idx.obj(Oid(2)).is_err());
        let o = idx.obj(Oid(1)).unwrap();
        assert_eq!(o.visible(0, LIVE).unwrap().lsn, 40);
        assert!(o.meta_at(u64::MAX).is_none());
    }
}
