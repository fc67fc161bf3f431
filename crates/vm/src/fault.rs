//! The page-fault handler, and byte-level access through it (and
//! through an object's own pages, for files).
//!
//! Faults resolve a virtual page against the entry's shadow chain: the
//! handler searches the top object first and falls through to backers
//! (§6, "On a page fault the handler first looks into the shadow"). Write
//! faults on pages owned by an ancestor (or on clean shared pages) break
//! COW by copying the page into the top object.

use crate::object::PageSlot;
use crate::pmap::Pte;
use crate::types::{FrameId, ObjId, Prot, SpaceId, VmError, PAGE_SIZE};
use crate::Vm;

/// Where a fault found its page.
enum Found {
    /// Resident in the chain: owning object, depth (0 = top), frame.
    Resident { owner: ObjId, depth: u32, frame: FrameId },
    /// Nowhere in the chain: zero-fill.
    Missing,
}

impl Vm {
    /// Walks the shadow chain for `pindex` starting at `top`.
    fn chain_lookup(&self, top: ObjId, pindex: u64) -> Result<Found, VmError> {
        let mut cur = top;
        let mut depth = 0;
        loop {
            let obj = self.objects.get(&cur).ok_or(VmError::NoSuchObject(cur))?;
            match obj.pages.get(&pindex) {
                Some(PageSlot::Resident { frame, .. }) => {
                    return Ok(Found::Resident { owner: cur, depth, frame: *frame });
                }
                Some(PageSlot::Swapped) => {
                    return Err(VmError::NeedsPage { obj: cur, pindex });
                }
                None => match obj.backer {
                    Some(b) => {
                        cur = b;
                        depth += 1;
                    }
                    None => return Ok(Found::Missing),
                },
            }
        }
    }

    /// Resolves a fault at `vpn`, installing a PTE; returns the frame.
    ///
    /// `write` selects a write fault. Returns [`VmError::NeedsPage`] if
    /// the page is swapped out: the caller's pager fetches it, calls
    /// [`Vm::install_page`], and retries.
    pub(crate) fn resolve_fault(
        &mut self,
        space: SpaceId,
        vpn: u64,
        write: bool,
    ) -> Result<FrameId, VmError> {
        let addr = vpn * PAGE_SIZE as u64;
        // Fast path: a valid PTE.
        {
            let sp = self.spaces.get_mut(&space).ok_or(VmError::NoSuchSpace(space))?;
            if let Some(pte) = sp.pmap.get(vpn).copied() {
                if !write || pte.writable {
                    sp.pmap.mark_access(vpn, write);
                    return Ok(pte.frame);
                }
            }
        }
        self.stats.faults += 1;
        let (top, pindex, prot) = {
            let sp = self.spaces.get(&space).expect("checked above");
            let entry = sp.entry_at(addr).ok_or(VmError::BadAddress(addr))?;
            (entry.object, entry.offset_pages + (vpn - entry.start_vpn()), entry.prot)
        };
        let needed = if write { Prot::WRITE } else { Prot::READ };
        if !prot.contains(needed) {
            return Err(VmError::Protection(addr));
        }
        let found = self.chain_lookup(top, pindex)?;
        let top_has_shadows =
            self.objects.get(&top).ok_or(VmError::NoSuchObject(top))?.shadow_count > 0;

        let (frame, writable, kind, depth_arg) = match (found, write) {
            (Found::Resident { owner, depth, frame }, false) => {
                // Read fault: map the existing page. Writable only when it
                // is the top object's own page, the mapping allows writes,
                // and nothing shadows the top (otherwise writes must fault
                // so COW can intervene).
                let obj = self.objects.get(&owner).expect("owner exists");
                let dirty_own = depth == 0
                    && matches!(obj.pages.get(&pindex), Some(PageSlot::Resident { dirty: true, .. }));
                let writable = dirty_own && prot.contains(Prot::WRITE) && !top_has_shadows;
                (frame, writable, "vm.fault.map", depth as u64)
            }
            (Found::Resident { depth, frame, .. }, true) => {
                if depth == 0 {
                    // Our own page: upgrade in place and mark it dirty. A
                    // shadowed top object never receives write faults —
                    // system shadowing repoints every entry to the new
                    // shadow before resuming the application.
                    debug_assert!(!top_has_shadows, "write fault into shadowed top object");
                    let obj = self.objects.get_mut(&top).expect("top exists");
                    if let Some(PageSlot::Resident { dirty, .. }) = obj.pages.get_mut(&pindex) {
                        *dirty = true;
                    }
                    (frame, true, "vm.fault.upgrade", 0)
                } else {
                    // COW break: copy the ancestor's page into the top.
                    // If the top object is shared (several entries map
                    // it), other sharers' PTEs to the superseded frame are
                    // now stale and must refault to see this write.
                    let top_shared =
                        self.objects.get(&top).expect("top exists").ref_count > 1;
                    if top_shared {
                        self.pv_invalidate_frame(frame);
                    }
                    // The break is a refcount bump: the top object gets its
                    // own frame slot sharing the ancestor's bytes. The host
                    // copy is deferred to the first byte actually written
                    // (make_mut in `write`).
                    let page = self.frames.get(&frame).expect("resident frame").clone();
                    let new_frame = self.alloc_frame(page);
                    let obj = self.objects.get_mut(&top).expect("top exists");
                    obj.pages.insert(pindex, PageSlot::Resident { frame: new_frame, dirty: true });
                    self.stats.cow_breaks += 1;
                    (new_frame, true, "vm.cow_break", depth as u64)
                }
            }
            (Found::Missing, _) => {
                // Zero-fill into the top object: a ref to the arena's
                // shared zero frame, materialized on first byte write. The
                // page is dirty from the store's perspective (never
                // persisted).
                let z = self.arena.zero();
                let frame = self.alloc_frame(z);
                let obj = self.objects.get_mut(&top).expect("top exists");
                obj.pages.insert(pindex, PageSlot::Resident { frame, dirty: true });
                self.stats.zero_fills += 1;
                (frame, write && !top_has_shadows, "vm.zero_fill", 0)
            }
        };
        if self.trace.is_enabled() {
            self.trace.instant(
                "vm",
                kind,
                &[("space", space.0), ("vpn", vpn), ("depth", depth_arg)],
            );
        }

        // Install the PTE, replacing any stale one (and its pv entry).
        let sp = self.spaces.get_mut(&space).expect("checked above");
        let old = sp.pmap.install(vpn, Pte { frame, writable, dirty: write, accessed: true });
        if let Some(old) = old {
            self.pv_remove(old.frame, space, vpn);
        }
        self.pv_insert(frame, space, vpn);
        self.stats.pte_installs += 1;
        Ok(frame)
    }

    /// Reads `buf.len()` bytes at `addr`, faulting pages as needed.
    pub fn read(&mut self, space: SpaceId, addr: u64, buf: &mut [u8]) -> Result<(), VmError> {
        self.copy_out(addr, buf, |vm, vpn| vm.resolve_fault(space, vpn, false))
    }

    /// Writes `data` at `addr`, faulting/COW-breaking pages as needed.
    pub fn write(&mut self, space: SpaceId, addr: u64, data: &[u8]) -> Result<(), VmError> {
        self.copy_in(addr, data, |vm, vpn| vm.resolve_fault(space, vpn, true))
    }

    /// Reads `buf.len()` bytes at byte `offset` of `obj`'s own pages —
    /// the file read path: no address space, no shadow chain.
    pub fn object_read(&mut self, obj: ObjId, offset: u64, buf: &mut [u8]) -> Result<(), VmError> {
        self.copy_out(offset, buf, |vm, pindex| vm.object_page(obj, pindex, false))
    }

    /// Writes `data` at byte `offset` of `obj`'s own pages, growing the
    /// object to cover it — the file write path. A page the store's
    /// cache shares breaks COW on its first byte, as mapped memory does.
    pub fn object_write(&mut self, obj: ObjId, offset: u64, data: &[u8]) -> Result<(), VmError> {
        self.copy_in(offset, data, |vm, pindex| vm.object_page(obj, pindex, true))
    }

    /// The read loop every byte access shares: `frame_of` resolves each
    /// page number the range touches to a resident frame.
    fn copy_out(
        &mut self,
        at: u64,
        buf: &mut [u8],
        mut frame_of: impl FnMut(&mut Vm, u64) -> Result<FrameId, VmError>,
    ) -> Result<(), VmError> {
        let mut done = 0usize;
        while done < buf.len() {
            let cur = at + done as u64;
            let off = (cur % PAGE_SIZE as u64) as usize;
            let chunk = (PAGE_SIZE - off).min(buf.len() - done);
            let frame = frame_of(self, cur / PAGE_SIZE as u64)?;
            let data = self.frames.get(&frame).expect("resident frame");
            buf[done..done + chunk].copy_from_slice(&data[off..off + chunk]);
            done += chunk;
        }
        Ok(())
    }

    /// The write loop every byte access shares; see [`Vm::copy_out`].
    fn copy_in(
        &mut self,
        at: u64,
        data: &[u8],
        mut frame_of: impl FnMut(&mut Vm, u64) -> Result<FrameId, VmError>,
    ) -> Result<(), VmError> {
        let mut done = 0usize;
        while done < data.len() {
            let cur = at + done as u64;
            let off = (cur % PAGE_SIZE as u64) as usize;
            let chunk = (PAGE_SIZE - off).min(data.len() - done);
            let frame = frame_of(self, cur / PAGE_SIZE as u64)?;
            let page =
                self.arena.make_mut(self.frames.get_mut(&frame).expect("resident frame"));
            page[off..off + chunk].copy_from_slice(&data[done..done + chunk]);
            done += chunk;
        }
        Ok(())
    }

    /// Resolves page `pindex` of `obj` itself for a byte access. A write
    /// dirties the page; a missing page zero-fills dirty, like a fault
    /// past the end of a shadow chain (a write past the object's end
    /// grows it first); a swapped one raises [`VmError::NeedsPage`].
    fn object_page(&mut self, obj: ObjId, pindex: u64, write: bool) -> Result<FrameId, VmError> {
        let o = self.objects.get_mut(&obj).ok_or(VmError::NoSuchObject(obj))?;
        match o.pages.get_mut(&pindex) {
            Some(PageSlot::Resident { frame, dirty }) => {
                *dirty |= write;
                return Ok(*frame);
            }
            Some(PageSlot::Swapped) => return Err(VmError::NeedsPage { obj, pindex }),
            None if write => o.size_pages = o.size_pages.max(pindex + 1),
            None if pindex >= o.size_pages => {
                return Err(VmError::BadRange(pindex * PAGE_SIZE as u64))
            }
            None => {}
        }
        let frame = self.alloc_frame(self.arena.zero());
        let o = self.objects.get_mut(&obj).expect("checked above");
        o.pages.insert(pindex, PageSlot::Resident { frame, dirty: true });
        self.stats.zero_fills += 1;
        Ok(frame)
    }

    /// Touches (write-faults) every page in `[addr, addr+len)` without
    /// changing content — used by benchmarks to dirty a working set.
    pub fn touch(&mut self, space: SpaceId, addr: u64, len: u64) -> Result<(), VmError> {
        let first = addr / PAGE_SIZE as u64;
        let last = (addr + len).div_ceil(PAGE_SIZE as u64);
        for vpn in first..last {
            // The write fault itself marks the top object's page dirty
            // (upgrade-in-place or COW break), so no content write is
            // needed to dirty the working set.
            self.resolve_fault(space, vpn, true)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Inherit;

    #[test]
    fn write_then_read_roundtrips() {
        let mut vm = Vm::new();
        let s = vm.create_space();
        let a = vm.mmap_anon(s, 4, Prot::RW).unwrap();
        vm.write(s, a + 100, b"aurora").unwrap();
        let mut buf = [0u8; 6];
        vm.read(s, a + 100, &mut buf).unwrap();
        assert_eq!(&buf, b"aurora");
    }

    #[test]
    fn reads_of_fresh_memory_are_zero() {
        let mut vm = Vm::new();
        let s = vm.create_space();
        let a = vm.mmap_anon(s, 1, Prot::RW).unwrap();
        let mut buf = [1u8; 16];
        vm.read(s, a, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn cross_page_write() {
        let mut vm = Vm::new();
        let s = vm.create_space();
        let a = vm.mmap_anon(s, 2, Prot::RW).unwrap();
        let data: Vec<u8> = (0..PAGE_SIZE + 100).map(|i| (i % 256) as u8).collect();
        vm.write(s, a, &data).unwrap();
        let mut buf = vec![0u8; data.len()];
        vm.read(s, a, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn object_writes_grow_the_object_and_break_cow_on_shared_frames() {
        let mut vm = Vm::new();
        let o = vm.create_object(crate::object::ObjKind::Vnode { vnode: 2 }, 0);
        let data: Vec<u8> = (0..PAGE_SIZE + 100).map(|i| (i % 251) as u8).collect();
        vm.object_write(o, 10, &data).unwrap();
        assert_eq!(vm.object(o).unwrap().size_pages, 2);
        let mut buf = vec![0u8; data.len() + 10];
        vm.object_read(o, 0, &mut buf).unwrap();
        assert_eq!((&buf[..10], &buf[10..]), (&[0u8; 10][..], &data[..]));
        assert_eq!(vm.dirty_page_indices(o).unwrap(), [0, 1]);
        // A flushed page is shared with the store's cache: the next write
        // copies it, and the shared frame keeps the flushed bytes.
        let flushed = vm.page_ref(o, 0).unwrap();
        vm.mark_clean(o, 0).unwrap();
        vm.object_write(o, 10, b"new").unwrap();
        assert_eq!(&flushed[10..13], &data[..3]);
        assert_eq!(vm.dirty_page_indices(o).unwrap(), [0, 1]);
        // A read past the end is a bad range, not a zero-fill.
        let past_end = vm.object_read(o, 2 * PAGE_SIZE as u64, &mut [0]);
        assert!(matches!(past_end, Err(VmError::BadRange(_))));
    }

    #[test]
    fn unmapped_access_fails() {
        let mut vm = Vm::new();
        let s = vm.create_space();
        let mut buf = [0u8; 1];
        assert!(matches!(vm.read(s, 0xdead_0000, &mut buf), Err(VmError::BadAddress(_))));
    }

    #[test]
    fn write_to_readonly_fails() {
        let mut vm = Vm::new();
        let s = vm.create_space();
        let o = vm.create_object(crate::object::ObjKind::Anonymous, 1);
        let a = vm.map(s, None, 1, Prot::READ, o, 0, Inherit::Share).unwrap();
        assert!(matches!(vm.write(s, a, &[0]), Err(VmError::Protection(_))));
    }

    #[test]
    fn fork_preserves_cow_isolation() {
        let mut vm = Vm::new();
        let parent = vm.create_space();
        let a = vm.mmap_anon(parent, 2, Prot::RW).unwrap();
        vm.write(parent, a, b"before").unwrap();
        let child = vm.fork_space(parent).unwrap();

        // Child sees the parent's data.
        let mut buf = [0u8; 6];
        vm.read(child, a, &mut buf).unwrap();
        assert_eq!(&buf, b"before");

        // Child writes are private.
        vm.write(child, a, b"CHILD!").unwrap();
        vm.read(parent, a, &mut buf).unwrap();
        assert_eq!(&buf, b"before");

        // Parent writes are private too.
        vm.write(parent, a, b"PARENT").unwrap();
        vm.read(child, a, &mut buf).unwrap();
        assert_eq!(&buf, b"CHILD!");
    }

    #[test]
    fn fork_share_is_mutually_visible() {
        let mut vm = Vm::new();
        let parent = vm.create_space();
        let o = vm.create_object(crate::object::ObjKind::Anonymous, 1);
        let a = vm.map(parent, None, 1, Prot::RW, o, 0, Inherit::Share).unwrap();
        let child = vm.fork_space(parent).unwrap();
        vm.write(child, a, b"shared").unwrap();
        let mut buf = [0u8; 6];
        vm.read(parent, a, &mut buf).unwrap();
        assert_eq!(&buf, b"shared");
    }

    #[test]
    fn cow_break_counts_once() {
        let mut vm = Vm::new();
        let parent = vm.create_space();
        let a = vm.mmap_anon(parent, 1, Prot::RW).unwrap();
        vm.write(parent, a, &[1]).unwrap();
        let _child = vm.fork_space(parent).unwrap();
        let before = vm.stats.cow_breaks;
        vm.write(parent, a, &[2]).unwrap();
        vm.write(parent, a, &[3]).unwrap(); // second write: no new break
        assert_eq!(vm.stats.cow_breaks, before + 1);
    }

    #[test]
    fn traced_faults_emit_events_without_changing_behavior() {
        let run = |trace: aurora_trace::Trace| {
            let mut vm = Vm::new();
            vm.set_trace(trace);
            let s = vm.create_space();
            let a = vm.mmap_anon(s, 4, Prot::RW).unwrap();
            vm.write(s, a, &[1]).unwrap();
            vm.system_shadow(&[s]).unwrap();
            vm.write(s, a, &[2]).unwrap(); // COW break into the new top
            vm.stats
        };
        let t = aurora_trace::Trace::recording(|| 0);
        let traced = run(t.clone());
        let untraced = run(aurora_trace::Trace::disabled());
        assert_eq!(traced, untraced, "tracing must not perturb VM behavior");
        let names: Vec<_> = t.events().iter().map(|e| e.name.to_string()).collect();
        for expect in ["vm.zero_fill", "vm.cow_break", "vm.system_shadow"] {
            assert!(names.iter().any(|n| n == expect), "missing {expect} in {names:?}");
        }
    }

    #[test]
    fn swapped_page_raises_needs_page() {
        let mut vm = Vm::new();
        let s = vm.create_space();
        let a = vm.mmap_anon(s, 1, Prot::RW).unwrap();
        vm.write(s, a, &[9]).unwrap();
        let top = vm.space(s).unwrap().entry_at(a).unwrap().object;
        vm.mark_clean(top, 0).unwrap();
        vm.evict_page(top, 0).unwrap();
        let mut buf = [0u8; 1];
        match vm.read(s, a, &mut buf) {
            Err(VmError::NeedsPage { obj, pindex }) => {
                assert_eq!((obj, pindex), (top, 0));
            }
            other => panic!("expected NeedsPage, got {other:?}"),
        }
        // Pager brings the page back and the read succeeds.
        let mut page = aurora_frames::PageRef::zero();
        vm.arena.make_mut(&mut page)[0] = 9;
        vm.install_page(top, 0, page, false).unwrap();
        vm.read(s, a, &mut buf).unwrap();
        assert_eq!(buf, [9]);
    }
}
