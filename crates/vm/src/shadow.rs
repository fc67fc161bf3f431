//! Object shadowing, system shadowing, and collapse (§6 of the paper).
//!
//! System shadowing is Aurora's key memory-tracking technique: at each
//! checkpoint one shadow is created **per writable anonymous object across
//! the whole consistency group**, atomically repointing every map entry.
//! Unlike `fork`'s COW it preserves shared-memory semantics (all sharers
//! are repointed to the *same* shadow) and covers IPC objects via the shm
//! backmap maintained by the POSIX layer.
//!
//! Collapse retires a flushed shadow. The classic Mach/FreeBSD operation
//! merges the *parent's* pages into the shadow — linear in the parent's
//! residency. Aurora reverses the direction, moving the (few) shadow pages
//! into the parent; [`CollapseMode`] implements both so the ablation bench
//! can compare them.

use crate::object::{ObjKind, PageSlot, VmObject};
use crate::types::{Lineage, ObjId, Prot, SpaceId, VmError};
use crate::Vm;

/// A (parent, shadow) pair created by [`Vm::system_shadow`].
///
/// `old_top` is now frozen: the checkpoint flusher reads its pages while
/// the application keeps running against `new_top`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShadowPair {
    /// The stable logical identity both objects share.
    pub lineage: Lineage,
    /// The frozen object whose pages the flusher will write out.
    pub old_top: ObjId,
    /// The new top object accumulating post-checkpoint writes.
    pub new_top: ObjId,
}

/// Direction of a collapse operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollapseMode {
    /// Aurora's optimization: move the shadow's (few) pages into the
    /// parent.
    Reversed,
    /// The classic Mach/FreeBSD operation: move the parent's pages into
    /// the shadow.
    Forward,
}

/// What a collapse did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CollapseReport {
    /// Object removed from the chain.
    pub freed: ObjId,
    /// Object that absorbed the pages.
    pub survivor: ObjId,
    /// Pages moved between objects (the operation's linear cost).
    pub pages_moved: u64,
    /// Stale parent pages replaced (frames freed).
    pub pages_replaced: u64,
}

impl Vm {
    /// Creates a shadow of `parent`. The caller owns the returned
    /// object's single reference. `system` shadows inherit the parent's
    /// lineage (they are the same logical object for the store); fork
    /// shadows get a fresh lineage.
    pub(crate) fn make_shadow(&mut self, parent: ObjId, system: bool) -> Result<ObjId, VmError> {
        let p = self.objects.get_mut(&parent).ok_or(VmError::NoSuchObject(parent))?;
        p.shadow_count += 1;
        let size_pages = p.size_pages;
        let parent_lineage = p.lineage;
        let id = ObjId(self.next_obj);
        self.next_obj += 1;
        let lineage = if system {
            parent_lineage
        } else {
            let l = Lineage(self.next_lineage);
            self.next_lineage += 1;
            l
        };
        self.objects.insert(
            id,
            VmObject {
                id,
                kind: ObjKind::Anonymous,
                size_pages,
                pages: Default::default(),
                backer: Some(parent),
                ref_count: 1,
                shadow_count: 0,
                lineage,
                system_shadow: system,
            },
        );
        self.stats.shadows_created += 1;
        Ok(id)
    }

    /// Shadows every writable anonymous top object mapped by the spaces
    /// of a consistency group, repointing all their entries (including
    /// shared-memory aliases) to the new shadows and write-protecting the
    /// frozen pages. Returns the frozen/new pairs for the flusher.
    ///
    /// Entries excluded via `sls_mctl` are skipped when *selecting*
    /// objects, but an object selected through one entry is repointed in
    /// every entry that maps it — otherwise an alias could keep writing
    /// into the frozen copy.
    pub fn system_shadow(&mut self, group: &[SpaceId]) -> Result<Vec<ShadowPair>, VmError> {
        // Collect unique targets in deterministic (address) order.
        let mut targets: Vec<ObjId> = Vec::new();
        for &space in group {
            let sp = self.spaces.get(&space).ok_or(VmError::NoSuchSpace(space))?;
            for e in &sp.entries {
                if e.sls_exclude || !e.prot.contains(Prot::WRITE) {
                    continue;
                }
                let obj = self.objects.get(&e.object).ok_or(VmError::NoSuchObject(e.object))?;
                if obj.kind != ObjKind::Anonymous {
                    // File COW is handled by the Aurora file system (§6).
                    continue;
                }
                if !targets.contains(&e.object) {
                    targets.push(e.object);
                }
            }
        }

        let mut pairs = Vec::with_capacity(targets.len());
        for old in targets {
            pairs.push(self.shadow_one(old, group)?);
        }
        // One TLB shootdown per space in the group.
        self.stats.tlb_shootdowns += group.len() as u64;
        self.stats.system_shadows += 1;
        if self.trace.is_enabled() {
            self.trace.instant(
                "vm",
                "vm.system_shadow",
                &[("spaces", group.len() as u64), ("pairs", pairs.len() as u64)],
            );
        }
        Ok(pairs)
    }

    /// Shadows a single object across `group`: repoints every entry that
    /// maps it, transfers references, and COW-marks the frozen pages.
    /// This is the `sls_memckpt` primitive and the inner loop of
    /// [`Vm::system_shadow`].
    pub fn shadow_one(&mut self, old: ObjId, group: &[SpaceId]) -> Result<ShadowPair, VmError> {
        let new = self.make_shadow(old, true)?;
        // Repoint every entry (in the group) that maps `old`.
        let mut repointed: u32 = 0;
        for &space in group {
            let sp = self.spaces.get_mut(&space).ok_or(VmError::NoSuchSpace(space))?;
            for e in &mut sp.entries {
                if e.object == old {
                    e.object = new;
                    repointed += 1;
                }
            }
        }
        debug_assert!(repointed > 0, "selected object with no entries");
        // Transfer references: the creation ref covers the first entry;
        // each further alias adds one. `old` loses its entry refs but
        // gains a shadow reference.
        {
            let n = self.objects.get_mut(&new).expect("just created");
            n.ref_count += repointed - 1;
        }
        {
            let o = self.objects.get_mut(&old).expect("exists");
            debug_assert!(o.ref_count >= repointed, "entry refs underflow");
            o.ref_count -= repointed;
        }
        // COW-mark the frozen pages: walk each resident page's pv entries
        // and clear the writable bit (Table 5's linear term).
        let frames: Vec<_> = self
            .objects
            .get(&old)
            .expect("exists")
            .pages
            .values()
            .filter_map(|s| match s {
                PageSlot::Resident { frame, .. } => Some(*frame),
                PageSlot::Swapped => None,
            })
            .collect();
        for frame in frames {
            self.pv_write_protect(frame);
        }
        let lineage = self.objects.get(&new).expect("exists").lineage;
        Ok(ShadowPair { lineage, old_top: old, new_top: new })
    }

    /// Collapses the shadow directly under `top` into its own backer,
    /// shortening the chain `grandparent ← middle ← top` to
    /// `survivor ← top`. Returns `None` when the chain is too short.
    ///
    /// Both objects in the middle must be internal (no entry references,
    /// exactly one shadow each) — otherwise another process could observe
    /// the merge — or `CannotCollapse` is returned.
    pub fn collapse_under(
        &mut self,
        top: ObjId,
        mode: CollapseMode,
    ) -> Result<Option<CollapseReport>, VmError> {
        let middle = match self.objects.get(&top).ok_or(VmError::NoSuchObject(top))?.backer {
            Some(m) => m,
            None => return Ok(None),
        };
        let parent = match self.objects.get(&middle).ok_or(VmError::NoSuchObject(middle))?.backer
        {
            Some(p) => p,
            None => return Ok(None),
        };
        {
            let m = self.objects.get(&middle).expect("exists");
            if m.ref_count != 0 || m.shadow_count != 1 {
                return Err(VmError::CannotCollapse(middle));
            }
            let p = self.objects.get(&parent).ok_or(VmError::NoSuchObject(parent))?;
            if p.ref_count != 0 || p.shadow_count != 1 {
                return Err(VmError::CannotCollapse(parent));
            }
        }

        let report = match mode {
            CollapseMode::Reversed => {
                // Move the shadow's pages down into the parent, replacing
                // stale versions. Linear in |middle| — the dirty set.
                let middle_pages =
                    std::mem::take(&mut self.objects.get_mut(&middle).expect("exists").pages);
                let mut moved = 0;
                let mut replaced = 0;
                let mut stale_frames = Vec::new();
                {
                    let p = self.objects.get_mut(&parent).expect("exists");
                    for (pindex, slot) in middle_pages {
                        if let Some(PageSlot::Resident { frame, .. }) = p.pages.insert(pindex, slot)
                        {
                            stale_frames.push(frame);
                            replaced += 1;
                        }
                        moved += 1;
                    }
                }
                for frame in stale_frames {
                    self.free_frame(frame);
                }
                // Relink: top now shadows the parent directly.
                self.objects.get_mut(&top).expect("exists").backer = Some(parent);
                // `middle` is gone: the parent keeps shadow_count 1 (now
                // from `top`).
                self.objects.remove(&middle);
                CollapseReport { freed: middle, survivor: parent, pages_moved: moved, pages_replaced: replaced }
            }
            CollapseMode::Forward => {
                // Classic direction: pull the parent's pages up into the
                // shadow (skipping pages the shadow already owns), then
                // splice the parent out. Linear in |parent|.
                let parent_pages =
                    std::mem::take(&mut self.objects.get_mut(&parent).expect("exists").pages);
                let grandparent = self.objects.get(&parent).expect("exists").backer;
                let mut moved = 0;
                let mut replaced = 0;
                let mut stale_frames = Vec::new();
                {
                    let m = self.objects.get_mut(&middle).expect("exists");
                    for (pindex, slot) in parent_pages {
                        if let std::collections::btree_map::Entry::Vacant(e) = m.pages.entry(pindex) {
                            e.insert(slot);
                            moved += 1;
                        } else {
                            // The shadow's version wins; the parent's page
                            // is stale.
                            if let PageSlot::Resident { frame, .. } = slot {
                                stale_frames.push(frame);
                            }
                            replaced += 1;
                        }
                    }
                    m.backer = grandparent;
                }
                for frame in stale_frames {
                    self.free_frame(frame);
                }
                self.objects.remove(&parent);
                CollapseReport { freed: parent, survivor: middle, pages_moved: moved, pages_replaced: replaced }
            }
        };
        self.stats.collapses += 1;
        self.stats.collapse_pages_moved += report.pages_moved;
        if self.trace.is_enabled() {
            let depth = self.chain_of(top)?.len() as u64;
            self.trace.instant(
                "vm",
                "vm.collapse",
                &[
                    ("moved", report.pages_moved),
                    ("replaced", report.pages_replaced),
                    ("depth", depth),
                ],
            );
        }
        Ok(Some(report))
    }

    /// Walks the shadow chain under `top`, returning object ids from top
    /// to base (used by serializers and tests).
    pub fn chain_of(&self, top: ObjId) -> Result<Vec<ObjId>, VmError> {
        let mut out = Vec::new();
        let mut cur = Some(top);
        while let Some(id) = cur {
            let obj = self.objects.get(&id).ok_or(VmError::NoSuchObject(id))?;
            out.push(id);
            cur = obj.backer;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Inherit;
    use crate::types::PAGE_SIZE;

    /// One space with an 8-page RW anonymous mapping; writes `n` pages.
    fn setup(n: u64) -> (Vm, SpaceId, u64) {
        let mut vm = Vm::new();
        let s = vm.create_space();
        let a = vm.mmap_anon(s, 8, Prot::RW).unwrap();
        for i in 0..n {
            vm.write(s, a + i * PAGE_SIZE as u64, &[i as u8 + 1]).unwrap();
        }
        (vm, s, a)
    }

    #[test]
    fn system_shadow_freezes_and_redirects() {
        let (mut vm, s, a) = setup(3);
        let top_before = vm.space(s).unwrap().entry_at(a).unwrap().object;
        let pairs = vm.system_shadow(&[s]).unwrap();
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].old_top, top_before);
        let top_after = vm.space(s).unwrap().entry_at(a).unwrap().object;
        assert_eq!(top_after, pairs[0].new_top);
        assert_ne!(top_after, top_before);
        // Lineage is preserved: same logical object.
        assert_eq!(
            vm.object(top_after).unwrap().lineage,
            vm.object(top_before).unwrap().lineage
        );
        // New writes land in the shadow, leaving the frozen copy intact.
        vm.write(s, a, &[0xFF]).unwrap();
        assert_eq!(vm.page_bytes(top_before, 0).unwrap()[0], 1);
        assert_eq!(vm.page_bytes(top_after, 0).unwrap()[0], 0xFF);
    }

    #[test]
    fn system_shadow_preserves_shared_memory() {
        // Two spaces share one object; both get repointed to one shadow.
        let mut vm = Vm::new();
        let s1 = vm.create_space();
        let s2 = vm.create_space();
        let o = vm.create_object(ObjKind::Anonymous, 4);
        vm.ref_object(o).unwrap();
        let a1 = vm.map(s1, None, 4, Prot::RW, o, 0, Inherit::Share).unwrap();
        let a2 = vm.map(s2, None, 4, Prot::RW, o, 0, Inherit::Share).unwrap();
        vm.write(s1, a1, b"shared").unwrap();

        let pairs = vm.system_shadow(&[s1, s2]).unwrap();
        assert_eq!(pairs.len(), 1, "one shadow for the shared object");
        let t1 = vm.space(s1).unwrap().entry_at(a1).unwrap().object;
        let t2 = vm.space(s2).unwrap().entry_at(a2).unwrap().object;
        assert_eq!(t1, t2, "sharing preserved through the shadow");

        // Writes from either side remain mutually visible.
        vm.write(s2, a2, b"SHARED").unwrap();
        let mut buf = [0u8; 6];
        vm.read(s1, a1, &mut buf).unwrap();
        assert_eq!(&buf, b"SHARED");
        // And the frozen copy still holds the checkpoint-time data.
        assert_eq!(&vm.page_bytes(o, 0).unwrap()[0..6], b"shared");
    }

    #[test]
    fn writes_after_shadow_fault_exactly_dirty_pages() {
        let (mut vm, s, a) = setup(4);
        vm.system_shadow(&[s]).unwrap();
        let before = vm.stats;
        // Rewrite 2 of the 4 pages.
        vm.write(s, a, &[9]).unwrap();
        vm.write(s, a + PAGE_SIZE as u64, &[9]).unwrap();
        let delta = vm.stats - before;
        assert_eq!(delta.cow_breaks, 2);
        let top = vm.space(s).unwrap().entry_at(a).unwrap().object;
        assert_eq!(vm.object(top).unwrap().resident_pages(), 2);
    }

    #[test]
    fn shadow_downgrades_exactly_resident_ptes() {
        let (mut vm, s, _a) = setup(5);
        let before = vm.stats;
        vm.system_shadow(&[s]).unwrap();
        let delta = vm.stats - before;
        assert_eq!(delta.pte_downgrades, 5, "one downgrade per dirty page");
        assert_eq!(delta.tlb_shootdowns, 1);
    }

    #[test]
    fn reversed_collapse_moves_dirty_set_only() {
        let (mut vm, s, a) = setup(6); // 6 pages in the base
        vm.system_shadow(&[s]).unwrap(); // S1 on base
        vm.write(s, a, &[7]).unwrap(); // 1 dirty page in S1
        vm.system_shadow(&[s]).unwrap(); // S2 on S1
        let top = vm.space(s).unwrap().entry_at(a).unwrap().object;
        let r = vm.collapse_under(top, CollapseMode::Reversed).unwrap().unwrap();
        assert_eq!(r.pages_moved, 1, "reversed collapse moves the dirty set");
        assert_eq!(r.pages_replaced, 1, "the stale base page is replaced");
        // Data is still correct through the chain.
        let mut buf = [0u8; 1];
        vm.read(s, a, &mut buf).unwrap();
        assert_eq!(buf, [7]);
        assert_eq!(vm.chain_of(top).unwrap().len(), 2, "chain capped at 2");
    }

    #[test]
    fn forward_collapse_moves_parent_residency() {
        let (mut vm, s, a) = setup(6);
        vm.system_shadow(&[s]).unwrap();
        vm.write(s, a, &[7]).unwrap();
        vm.system_shadow(&[s]).unwrap();
        let top = vm.space(s).unwrap().entry_at(a).unwrap().object;
        let r = vm.collapse_under(top, CollapseMode::Forward).unwrap().unwrap();
        // Forward direction pays for the base's 5 unmodified pages.
        assert_eq!(r.pages_moved, 5);
        assert_eq!(r.pages_replaced, 1);
        let mut buf = [0u8; 1];
        vm.read(s, a, &mut buf).unwrap();
        assert_eq!(buf, [7]);
    }

    #[test]
    fn collapse_refuses_referenced_middle() {
        // A fork shadow between checkpoints must block the collapse.
        let (mut vm, s, a) = setup(2);
        vm.system_shadow(&[s]).unwrap();
        let _child = vm.fork_space(s).unwrap(); // adds shadows over the top
        vm.system_shadow(&[s]).unwrap();
        let top = vm.space(s).unwrap().entry_at(a).unwrap().object;
        // The chain under `top` now has a middle with two shadows; the
        // collapse must refuse rather than corrupt the child's view.
        match vm.collapse_under(top, CollapseMode::Reversed) {
            Err(VmError::CannotCollapse(_)) | Ok(None) => {}
            other => panic!("expected refusal, got {other:?}"),
        }
    }

    #[test]
    fn collapse_none_on_short_chain() {
        let (mut vm, s, a) = setup(1);
        let top = vm.space(s).unwrap().entry_at(a).unwrap().object;
        assert_eq!(vm.collapse_under(top, CollapseMode::Reversed).unwrap(), None);
    }

    #[test]
    fn read_only_entries_are_not_shadowed() {
        let mut vm = Vm::new();
        let s = vm.create_space();
        let o = vm.create_object(ObjKind::Anonymous, 2);
        vm.map(s, None, 2, Prot::READ, o, 0, Inherit::Share).unwrap();
        assert!(vm.system_shadow(&[s]).unwrap().is_empty());
    }

    #[test]
    fn excluded_entries_are_not_shadowed() {
        let mut vm = Vm::new();
        let s = vm.create_space();
        let a = vm.mmap_anon(s, 2, Prot::RW).unwrap();
        vm.write(s, a, &[1]).unwrap();
        vm.set_sls_exclude(s, a, true).unwrap();
        assert!(vm.system_shadow(&[s]).unwrap().is_empty());
    }

    #[test]
    fn steady_state_chain_stays_bounded() {
        // Checkpoint loop: shadow, dirty, collapse — chain length ≤ 3.
        let (mut vm, s, a) = setup(4);
        for round in 0..10u64 {
            vm.system_shadow(&[s]).unwrap();
            let top = vm.space(s).unwrap().entry_at(a).unwrap().object;
            // Collapse the previous round's flushed shadow.
            match vm.collapse_under(top, CollapseMode::Reversed) {
                Ok(_) => {}
                Err(e) => panic!("round {round}: {e}"),
            }
            vm.write(s, a + (round % 4) * PAGE_SIZE as u64, &[round as u8]).unwrap();
            let chain = vm.chain_of(top).unwrap();
            assert!(chain.len() <= 3, "round {round}: chain {}", chain.len());
        }
        // Memory is still correct.
        let mut buf = [0u8; 1];
        vm.read(s, a + PAGE_SIZE as u64, &mut buf).unwrap();
        assert_eq!(buf, [9], "round 9 wrote page 1");
    }
}
