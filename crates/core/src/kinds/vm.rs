//! The memory-object kind (§6): keyed by lineage so a shadow chain keeps
//! writing the same on-disk object across checkpoints. The hierarchy is
//! persisted, not a flat view ("Checkpointing the VM"). Flushing batches
//! every object's dirty pages into one charged bulk write; restoring
//! rebuilds chains bottom-up (backer first) and pins the lineage binding
//! to the restored branch. A regular file's content object flushes
//! through the same `flush_pages`.

use super::posix::ShmSysvRecord;
use super::{AssignCtx, FlushCtx, KindDef, Rebuild};
use crate::checkpoint::Reach;
use crate::error::SlsError;
use crate::oidmap::{KObj, Kind, OidMap};
use crate::wire::{record, wire_enum};
use crate::{CheckpointMode, LineageBinding};
use aurora_objstore::{Oid, PageRef, PAGE};
use aurora_posix::Kernel;
use aurora_vm::{ObjId, ObjKind, VmError};
use std::collections::hash_map::Entry;
use std::collections::BTreeSet;

/// Largest contiguous changed span, in bytes, a Delta-mode flush logs
/// as a sub-page redo record; a wider diff (or a page with no resident
/// parent-shadow copy to diff against) is written as a full image.
const REDO_DELTA_MAX: usize = 2048;

/// What backs a memory object's pages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemKind {
    /// Anonymous memory.
    Anonymous,
    /// A vnode (the record's `vnode` names it when it is in the image).
    Vnode,
    /// A device page, re-injected at restore (§5.3).
    Device,
}
wire_enum!(MemKind, "memory object kind": Anonymous = 0, Vnode = 1, Device = 2);

record! {
    /// A memory (VM) object record; pages are flushed separately.
    pub struct MemRecord = Kind::Mem as u16, v 1 {
        /// Size in pages.
        pub size_pages: u64,
        /// What backs the pages.
        pub kind: MemKind,
        /// Backing vnode OID for vnode-backed objects.
        pub vnode: Option<Oid>,
        /// Shadow backer (memory object OID).
        pub backer: Option<Oid>,
    }
}

impl KindDef for MemRecord {
    const KIND: Kind = Kind::Mem;

    fn collect(reach: &Reach) -> Vec<u64> {
        reach.mem_objs.iter().map(|o| o.0).collect()
    }

    /// Memory objects key by lineage, not object id: every shadow in a
    /// chain maps to the chain's single on-disk object.
    fn key_of(k: &Kernel, id: u64) -> Result<KObj, SlsError> {
        Ok(KObj(Kind::Mem, k.vm.object(ObjId(id))?.lineage.0))
    }

    /// Besides the OID, assignment publishes the lineage binding to the
    /// pager. An existing (possibly pinned) binding is kept: a restored
    /// branch stays pinned; only brand-new lineages go live.
    fn assign_oid(ctx: &mut AssignCtx<'_>, id: u64) -> Result<Oid, SlsError> {
        let key = Self::key_of(ctx.kernel, id)?;
        let oid = ctx.oids.get_or_create(ctx.store, key)?;
        if let Entry::Vacant(e) = ctx.lineages.entry(key.1) {
            e.insert(LineageBinding::live(oid));
            ctx.new_lineages.push(key.1);
        }
        Ok(oid)
    }

    fn capture(k: &Kernel, id: u64, oids: &OidMap) -> Result<Self, SlsError> {
        let o = k.vm.object(ObjId(id))?;
        k.charge.locks(1);
        k.charge.misses(4);
        let (kind, vnode) = match o.kind {
            ObjKind::Anonymous => (MemKind::Anonymous, None),
            ObjKind::Vnode { vnode } => (MemKind::Vnode, oids.get(KObj(Kind::Vnode, vnode))),
            ObjKind::Device { .. } => (MemKind::Device, None),
        };
        let backer = match o.backer {
            Some(b) => Some(oids.require(Self::key_of(k, b.0)?)?),
            None => None,
        };
        Ok(MemRecord { size_pages: o.size_pages, kind, vnode, backer })
    }

    /// Flushes the frozen objects' dirty pages. Chains are collected
    /// top-down; flush BOTTOM-UP so that when two objects of one lineage
    /// hold the same page index (a fork shadow under a system shadow),
    /// the newer version lands last and wins in the store.
    fn flush(ctx: &mut FlushCtx<'_>) -> Result<(), SlsError> {
        let reach = ctx.reach;
        for &obj in reach.mem_objs.iter().rev() {
            let o = ctx.kernel.vm.object(obj)?;
            if matches!(o.kind, ObjKind::Device { .. }) {
                continue; // device pages are re-injected at restore (§5.3)
            }
            let oid = ctx.oids.require(KObj(Kind::Mem, o.lineage.0))?;
            let dirty = ctx.kernel.vm.dirty_page_indices(obj)?;
            flush_pages(ctx, obj, oid, &dirty, &[])?;
        }
        Ok(())
    }

    fn install(&self, cx: &mut Rebuild<'_>, oid: Oid) -> Result<u64, SlsError> {
        // Bottom-up: the backer first.
        let backer = match self.backer {
            Some(b) => Some(ObjId(cx.restore(Kind::Mem, b)?)),
            None => None,
        };
        let kind = match (self.kind, self.vnode) {
            // Vnode-backed: ensure the vnode exists.
            (MemKind::Vnode, Some(v)) => ObjKind::Vnode { vnode: cx.restore(Kind::Vnode, v)? },
            (MemKind::Device, _) => ObjKind::Device { dev: 1 }, // re-injected device page (§5.3)
            _ => ObjKind::Anonymous,
        };
        cx.sls.kernel.charge.allocs(1);
        cx.sls.kernel.charge.locks(1);
        let obj = cx.install_object(oid, kind, self.size_pages)?;
        if let Some(b) = backer {
            cx.sls.kernel.vm.set_backer(obj, b)?;
        }
        Ok(obj.0)
    }

    /// Restores the SysV segments attached to this object — they
    /// reference it back, which is why it is recorded first.
    fn link(&self, cx: &mut Rebuild<'_>, oid: Oid, _id: u64) -> Result<(), SlsError> {
        let sysv_oids: Vec<Oid> = {
            let store = cx.sls.store.lock();
            let is_sysv = |o: &Oid| store.kind(*o) == Ok(Kind::ShmSysv.store_kind());
            store.objects_at(cx.epoch)?.into_iter().filter(is_sysv).collect()
        };
        for so in sysv_oids {
            if cx.read::<ShmSysvRecord>(so)?.mem == oid {
                cx.restore(Kind::ShmSysv, so)?;
            }
        }
        Ok(())
    }
}

/// Flushes the `dirty` pages of one VM object — a memory object's or a
/// regular file's content — and the clean ones its group `owed`, under
/// store object `oid`, as one charged bulk write in ascending page order
/// (LSN assignment is a pure function of the set); then marks the dirty
/// ones clean and records them in `cleaned` so an abort can dirty them
/// again.
///
/// In delta mode each dirty page is diffed against its parent COW
/// shadow's copy (the page's content at the last checkpoint): the
/// changed span becomes a sub-page redo record, and only when the span
/// exceeds `REDO_DELTA_MAX` — or no parent copy is resident, as for a
/// file's pages — does the page fall back to a full image. The store
/// demotes any delta whose base doesn't match the version it would
/// chain on.
pub(super) fn flush_pages(
    ctx: &mut FlushCtx<'_>,
    obj: ObjId,
    oid: Oid,
    dirty: &[u64],
    owed: &[u64],
) -> Result<(), SlsError> {
    let FlushCtx { kernel, store, pages_flushed, bytes_flushed, cleaned, mode, lineages, .. } = ctx;
    let merged: Vec<u64>;
    let pages = if owed.is_empty() {
        dirty
    } else {
        merged = dirty.iter().chain(owed).copied().collect::<BTreeSet<u64>>().into_iter().collect();
        &merged
    };
    if pages.is_empty() {
        return Ok(());
    }
    let pin = lineages.get(&kernel.vm.object(obj)?.lineage.0).copied();
    // Frames travel into the store by ref: the flush copies zero page
    // bytes on the host. An owed page a lazy restore left in the store
    // is read from the store object its lineage is bound to.
    let mut frames = Vec::with_capacity(pages.len());
    for &pi in pages {
        frames.push(match (kernel.vm.page_ref(obj, pi), pin) {
            (Err(VmError::NeedsPage { .. }), Some(b)) => {
                store.read_page_pinned(b.oid, pi, b.floor, b.resume)?
            }
            (page, _) => page?,
        });
    }
    match mode {
        CheckpointMode::FullPage => {
            let batch: Vec<(u64, PageRef)> = pages.iter().copied().zip(frames).collect();
            store.write_pages(oid, &batch)?;
            *pages_flushed += batch.len() as u64;
            *bytes_flushed += (batch.len() * PAGE) as u64;
        }
        CheckpointMode::Delta => {
            let mut batch: Vec<aurora_objstore::RedoWrite> = Vec::with_capacity(pages.len());
            for (&pi, page) in pages.iter().zip(frames) {
                let base = kernel.vm.backer_page_ref(obj, pi)?;
                let delta = match &base {
                    // Shared frame ⇒ COW never broke ⇒ the page is
                    // byte-identical to its committed parent copy: a
                    // zero-length record marks the page
                    // dirty-but-unchanged at this consistency point
                    // without rewriting any bytes.
                    Some(base) if aurora_objstore::PageRef::ptr_eq(base, &page) => {
                        Some((0, Vec::new()))
                    }
                    Some(base) => match diff_span(base.bytes(), page.bytes()) {
                        None => Some((0, Vec::new())),
                        Some((off, len)) if len <= REDO_DELTA_MAX => {
                            Some((off as u32, page.bytes()[off..off + len].to_vec()))
                        }
                        // Span too wide: a full image is cheaper.
                        Some(_) => None,
                    },
                    None => None,
                };
                // A delta names the content it was diffed against.
                let base_csum = match (&delta, &base) {
                    (Some(_), Some(base)) => aurora_sim::content_hash(base.bytes()),
                    _ => 0,
                };
                *bytes_flushed += delta.as_ref().map_or(PAGE, |(_, p)| p.len()) as u64;
                batch.push(aurora_objstore::RedoWrite { pindex: pi, page, delta, base_csum });
            }
            let (floor, resume) = pin.map(|b| (b.floor, b.resume)).unwrap_or((u64::MAX, 0));
            store.append_redo_pinned(oid, &batch, floor, resume)?;
            *pages_flushed += batch.len() as u64;
        }
    }
    for &pi in dirty {
        kernel.vm.mark_clean(obj, pi)?;
        cleaned.push((obj, pi));
    }
    Ok(())
}

/// The contiguous byte span where `new` differs from `base`:
/// `Some((offset, len))` covering the first through last differing
/// byte, or `None` when the buffers are identical. One span, not a run
/// list: redo records carry a single `(offset, payload)` and scattered
/// small edits within a page are rare enough that the enclosing span is
/// a good trade against per-run record overhead.
fn diff_span(base: &[u8], new: &[u8]) -> Option<(usize, usize)> {
    debug_assert_eq!(base.len(), new.len());
    // Whole chunks compare as slices (`memcmp`); only the first and the
    // last differing chunk are scanned byte by byte.
    const CHUNK: usize = 64;
    let differs = |(a, b): (&[u8], &[u8])| a != b;
    let chunks = || base.chunks(CHUNK).zip(new.chunks(CHUNK));
    // `position` found a differing chunk, so `rposition` finds one too,
    // and each of the two holds a differing byte: the `expect`s hold.
    let lo = chunks().position(differs)? * CHUNK;
    let hi = base.len().min((chunks().rposition(differs).expect("some chunk differs") + 1) * CHUNK);
    let byte_differs = |(a, b): (&u8, &u8)| a != b;
    let first = lo + base[lo..].iter().zip(&new[lo..]).position(byte_differs).expect("in chunk");
    let last = base[..hi].iter().zip(&new[..hi]).rposition(byte_differs).expect("in chunk");
    Some((first, last - first + 1))
}

#[cfg(test)]
mod tests {
    use super::diff_span;
    use aurora_sim::rng::{DetRng, Rng};

    /// The byte-at-a-time scan `diff_span` replaced: the reference.
    fn diff_span_bytewise(base: &[u8], new: &[u8]) -> Option<(usize, usize)> {
        let first = base.iter().zip(new).position(|(a, b)| a != b)?;
        let last = base.iter().zip(new).rposition(|(a, b)| a != b).expect("some byte differs");
        Some((first, last - first + 1))
    }

    #[test]
    fn chunked_diff_returns_the_bytewise_span() {
        const PAGE: usize = 4096;
        let mut rng = DetRng::seed_from_u64(0xD1FF);
        let base: Vec<u8> = (0..PAGE).map(|_| rng.next_u64() as u8).collect();
        let check = |new: &[u8], what: &str| {
            assert_eq!(diff_span(&base, new), diff_span_bytewise(&base, new), "{what}");
        };
        // Edges: identical, first byte, last byte, whole page, and spans
        // ending or starting on either side of a 64-byte chunk boundary.
        check(&base, "identical");
        assert_eq!(diff_span(&base, &base), None);
        let mut edges: Vec<(usize, usize)> = vec![(0, 1), (PAGE - 1, 1), (0, PAGE), (2047, 1)];
        for boundary in [64, 2048, PAGE - 64] {
            for start in [boundary - 2, boundary - 1, boundary, boundary + 1] {
                for len in [1, 2, 63, 64, 65, 130] {
                    if start + len <= PAGE {
                        edges.push((start, len));
                    }
                }
            }
        }
        for (off, len) in edges {
            let mut new = base.clone();
            new[off..off + len].iter_mut().for_each(|b| *b = !*b);
            check(&new, &format!("edge ({off}, {len})"));
            assert_eq!(diff_span(&base, &new), Some((off, len)));
        }
        // Seeded edits: one to three spans of random bytes per page, so
        // span ends may coincide with the base and interior chunks match.
        for case in 0..2000 {
            let mut new = base.clone();
            for _ in 0..rng.gen_range(1..4) {
                let off = rng.gen_range(0..PAGE as u64) as usize;
                let len = (rng.gen_range(1..300) as usize).min(PAGE - off);
                new[off..off + len].iter_mut().for_each(|b| *b = rng.next_u64() as u8);
            }
            check(&new, &format!("seeded case {case}"));
        }
        // Lengths that are not a multiple of the chunk.
        for len in [0, 1, 63, 65, 100] {
            let mut new = base[..len].to_vec();
            assert_eq!(diff_span(&base[..len], &new), None);
            if let Some(b) = new.last_mut() {
                *b ^= 1;
                assert_eq!(diff_span(&base[..len], &new), Some((len - 1, 1)));
            }
        }
    }
}
