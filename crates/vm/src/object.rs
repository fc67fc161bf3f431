//! VM objects: mappable collections of pages, possibly shadowing a backer.

use crate::types::{FrameId, Lineage, ObjId, VmError, PAGE_SIZE};
use crate::Vm;
use std::collections::BTreeMap;

/// What kind of memory an object represents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObjKind {
    /// Anonymous (zero-fill) memory.
    Anonymous,
    /// A memory-mapped vnode; COW for files is handled by the Aurora file
    /// system, so system shadowing skips these (§6).
    Vnode {
        /// The backing vnode's identifier in the POSIX layer.
        vnode: u64,
    },
    /// Device memory (e.g. the HPET page); read-only and never shadowed.
    Device {
        /// Device identifier in the POSIX layer.
        dev: u64,
    },
}

/// A page slot in an object: resident or swapped out to the store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PageSlot {
    /// Page is resident in the given frame; `dirty` means modified since
    /// it was last flushed to the store.
    Resident {
        /// Backing frame.
        frame: FrameId,
        /// Modified since last flush.
        dirty: bool,
    },
    /// Page content lives only in the object store (swapped out or lazily
    /// restored); faults raise [`VmError::NeedsPage`].
    Swapped,
}

/// A VM object (FreeBSD `vm_object`).
#[derive(Clone, Debug)]
pub struct VmObject {
    /// This object's id.
    pub id: ObjId,
    /// Memory kind.
    pub kind: ObjKind,
    /// Size in pages.
    pub size_pages: u64,
    /// Resident/swapped pages by page index.
    pub pages: BTreeMap<u64, PageSlot>,
    /// Shadow backer: page misses fall through to this object.
    pub backer: Option<ObjId>,
    /// References from map entries plus shadows (`shadow_count` of the
    /// backer side is tracked separately for collapse decisions).
    pub ref_count: u32,
    /// Number of shadows backed by this object.
    pub shadow_count: u32,
    /// Stable identity across system shadowing (see [`Lineage`]).
    pub lineage: Lineage,
    /// True for shadows created by [`Vm::system_shadow`]; used by the
    /// orchestrator to tell checkpoint shadows from fork shadows.
    pub system_shadow: bool,
}

impl VmObject {
    /// Number of resident pages.
    pub fn resident_pages(&self) -> u64 {
        self.pages
            .values()
            .filter(|s| matches!(s, PageSlot::Resident { .. }))
            .count() as u64
    }

    /// Number of resident dirty pages.
    pub fn dirty_pages(&self) -> u64 {
        self.pages
            .values()
            .filter(|s| matches!(s, PageSlot::Resident { dirty: true, .. }))
            .count() as u64
    }
}

impl Vm {
    /// Creates a VM object of `size_pages` pages with a fresh lineage and
    /// a reference count of 1 (held by the caller).
    pub fn create_object(&mut self, kind: ObjKind, size_pages: u64) -> ObjId {
        let id = ObjId(self.next_obj);
        self.next_obj += 1;
        let lineage = Lineage(self.next_lineage);
        self.next_lineage += 1;
        self.objects.insert(
            id,
            VmObject {
                id,
                kind,
                size_pages,
                pages: BTreeMap::new(),
                backer: None,
                ref_count: 1,
                shadow_count: 0,
                lineage,
                system_shadow: false,
            },
        );
        id
    }

    /// Increments an object's reference count.
    pub fn ref_object(&mut self, id: ObjId) -> Result<(), VmError> {
        self.objects.get_mut(&id).ok_or(VmError::NoSuchObject(id))?.ref_count += 1;
        Ok(())
    }

    /// Decrements an object's reference count, destroying it (and
    /// unreferencing its backer) when it reaches zero.
    pub fn unref_object(&mut self, id: ObjId) -> Result<(), VmError> {
        let obj = self.objects.get_mut(&id).ok_or(VmError::NoSuchObject(id))?;
        assert!(obj.ref_count > 0, "unref of dead object");
        obj.ref_count -= 1;
        if obj.ref_count == 0 && obj.shadow_count == 0 {
            self.destroy_object(id)?;
        }
        Ok(())
    }

    /// Destroys an object: frees every resident frame (invalidating PTEs
    /// through the pv table) and unreferences the backer.
    fn destroy_object(&mut self, id: ObjId) -> Result<(), VmError> {
        let obj = self.objects.remove(&id).ok_or(VmError::NoSuchObject(id))?;
        for slot in obj.pages.values() {
            if let PageSlot::Resident { frame, .. } = slot {
                self.free_frame(*frame);
            }
        }
        if let Some(backer) = obj.backer {
            if let Some(b) = self.objects.get_mut(&backer) {
                assert!(b.shadow_count > 0, "backer shadow_count underflow");
                b.shadow_count -= 1;
                if b.ref_count == 0 && b.shadow_count == 0 {
                    self.destroy_object(backer)?;
                }
            }
        }
        Ok(())
    }

    /// Installs page content into an object (used by the pager to bring a
    /// swapped page back, and by restore to populate memory).
    pub fn install_page(
        &mut self,
        obj: ObjId,
        pindex: u64,
        data: crate::types::PageData,
        dirty: bool,
    ) -> Result<(), VmError> {
        let o = self.objects.get(&obj).ok_or(VmError::NoSuchObject(obj))?;
        if pindex >= o.size_pages {
            return Err(VmError::BadRange(pindex * PAGE_SIZE as u64));
        }
        if let Some(PageSlot::Resident { frame, .. }) = o.pages.get(&pindex).copied() {
            self.free_frame(frame);
        }
        let frame = self.alloc_frame(data);
        let o = self.objects.get_mut(&obj).expect("checked above");
        o.pages.insert(pindex, PageSlot::Resident { frame, dirty });
        Ok(())
    }

    /// Marks a page as swapped out, freeing its frame. The page must be
    /// clean (its content already persisted); evicting a dirty page is a
    /// caller bug because its content would be lost.
    pub fn evict_page(&mut self, obj: ObjId, pindex: u64) -> Result<(), VmError> {
        let o = self.objects.get(&obj).ok_or(VmError::NoSuchObject(obj))?;
        match o.pages.get(&pindex) {
            Some(PageSlot::Resident { frame, dirty: false }) => {
                let frame = *frame;
                self.free_frame(frame);
                let o = self.objects.get_mut(&obj).expect("checked above");
                o.pages.insert(pindex, PageSlot::Swapped);
                self.stats.pages_evicted += 1;
                Ok(())
            }
            Some(PageSlot::Resident { dirty: true, .. }) => {
                Err(VmError::BadRange(pindex * PAGE_SIZE as u64))
            }
            _ => Err(VmError::NeedsPage { obj, pindex }),
        }
    }

    /// Marks a page slot as swapped without requiring it to have been
    /// resident — the lazy-restore path (§6, "lazy restores where pages
    /// are brought in lazily"): the first touch faults it in from the
    /// store.
    pub fn mark_swapped(&mut self, obj: ObjId, pindex: u64) -> Result<(), VmError> {
        let o = self.objects.get_mut(&obj).ok_or(VmError::NoSuchObject(obj))?;
        if pindex >= o.size_pages {
            return Err(VmError::BadRange(pindex * PAGE_SIZE as u64));
        }
        if let Some(PageSlot::Resident { frame, .. }) = o.pages.insert(pindex, PageSlot::Swapped) {
            self.free_frame(frame);
        }
        Ok(())
    }

    /// Links `child` to shadow `parent` (restore path: the serialized
    /// object hierarchy is rebuilt bottom-up). The child must not already
    /// have a backer.
    pub fn set_backer(&mut self, child: ObjId, parent: ObjId) -> Result<(), VmError> {
        if !self.objects.contains_key(&parent) {
            return Err(VmError::NoSuchObject(parent));
        }
        let c = self.objects.get_mut(&child).ok_or(VmError::NoSuchObject(child))?;
        assert!(c.backer.is_none(), "set_backer on an already-linked object");
        c.backer = Some(parent);
        self.objects.get_mut(&parent).expect("checked above").shadow_count += 1;
        Ok(())
    }

    /// Marks a resident page clean (called by the flusher once the page's
    /// content is durable in the store).
    pub fn mark_clean(&mut self, obj: ObjId, pindex: u64) -> Result<(), VmError> {
        let o = self.objects.get_mut(&obj).ok_or(VmError::NoSuchObject(obj))?;
        if let Some(PageSlot::Resident { dirty, .. }) = o.pages.get_mut(&pindex) {
            *dirty = false;
            Ok(())
        } else {
            Err(VmError::NeedsPage { obj, pindex })
        }
    }

    /// Re-marks a resident page dirty — the checkpoint abort path: a
    /// page cleaned by a flush whose epoch was rolled back no longer has
    /// a durable copy, so it must flush again next checkpoint.
    pub fn mark_dirty(&mut self, obj: ObjId, pindex: u64) -> Result<(), VmError> {
        let o = self.objects.get_mut(&obj).ok_or(VmError::NoSuchObject(obj))?;
        if let Some(PageSlot::Resident { dirty, .. }) = o.pages.get_mut(&pindex) {
            *dirty = true;
            Ok(())
        } else {
            Err(VmError::NeedsPage { obj, pindex })
        }
    }

    /// Reads a resident page's bytes (used by the checkpoint flusher).
    pub(crate) fn page_bytes(&self, obj: ObjId, pindex: u64) -> Result<&[u8; PAGE_SIZE], VmError> {
        let o = self.objects.get(&obj).ok_or(VmError::NoSuchObject(obj))?;
        match o.pages.get(&pindex) {
            Some(PageSlot::Resident { frame, .. }) => {
                Ok(self.frames.get(frame).expect("resident frame exists").bytes())
            }
            _ => Err(VmError::NeedsPage { obj, pindex }),
        }
    }

    /// Hands out a shared ref to a resident page's frame (the flusher's
    /// path into the store: the frame travels by refcount, never by copy).
    pub fn page_ref(&self, obj: ObjId, pindex: u64) -> Result<crate::types::PageData, VmError> {
        let o = self.objects.get(&obj).ok_or(VmError::NoSuchObject(obj))?;
        match o.pages.get(&pindex) {
            Some(PageSlot::Resident { frame, .. }) => {
                Ok(self.frames.get(frame).expect("resident frame exists").clone())
            }
            _ => Err(VmError::NeedsPage { obj, pindex }),
        }
    }

    /// The nearest resident copy of `pindex` in the object's *backer*
    /// chain — the page's pre-COW content. The checkpoint flusher diffs
    /// a dirty page against this parent-shadow copy to emit a sub-page
    /// redo record instead of a full image. `None` when no ancestor
    /// holds the page resident (freshly installed page, or the parent
    /// copy was swapped out).
    pub fn backer_page_ref(
        &self,
        obj: ObjId,
        pindex: u64,
    ) -> Result<Option<crate::types::PageData>, VmError> {
        let mut cur = self.objects.get(&obj).ok_or(VmError::NoSuchObject(obj))?.backer;
        while let Some(b) = cur {
            let o = self.objects.get(&b).ok_or(VmError::NoSuchObject(b))?;
            if let Some(PageSlot::Resident { frame, .. }) = o.pages.get(&pindex) {
                return Ok(Some(self.frames.get(frame).expect("resident frame exists").clone()));
            }
            cur = o.backer;
        }
        Ok(None)
    }

    /// Reads `pages` pages starting at `offset_pages` through the chain
    /// under `top` without faulting: per page the first resident copy
    /// top-down wins, a swapped slot ends the search, and whatever is not
    /// resident reads as zeros (a hole in a dump). Returns the bytes and
    /// how many pages were resident.
    pub fn read_nofault(
        &self,
        top: ObjId,
        offset_pages: u64,
        pages: u64,
    ) -> Result<(Vec<u8>, u64), VmError> {
        let chain = self.chain_of(top)?;
        let mut out = vec![0u8; pages as usize * PAGE_SIZE];
        let mut resident = 0;
        for (i, dst) in out.chunks_exact_mut(PAGE_SIZE).enumerate() {
            let pindex = offset_pages + i as u64;
            for &obj in &chain {
                match self.object(obj)?.pages.get(&pindex) {
                    Some(PageSlot::Resident { .. }) => {
                        dst.copy_from_slice(self.page_bytes(obj, pindex)?);
                        resident += 1;
                        break;
                    }
                    Some(PageSlot::Swapped) => break,
                    None => continue,
                }
            }
        }
        Ok((out, resident))
    }

    /// Iterates over the resident pages of an object: `(pindex, dirty)`.
    pub fn resident_page_indices(&self, obj: ObjId) -> Result<Vec<(u64, bool)>, VmError> {
        let o = self.objects.get(&obj).ok_or(VmError::NoSuchObject(obj))?;
        Ok(o.pages
            .iter()
            .filter_map(|(&pi, s)| match s {
                PageSlot::Resident { dirty, .. } => Some((pi, *dirty)),
                PageSlot::Swapped => None,
            })
            .collect())
    }

    /// The resident dirty pages of an object, ascending — what a
    /// checkpoint flushes.
    pub fn dirty_page_indices(&self, obj: ObjId) -> Result<Vec<u64>, VmError> {
        let o = self.objects.get(&obj).ok_or(VmError::NoSuchObject(obj))?;
        Ok(o.pages
            .iter()
            .filter(|(_, s)| matches!(s, PageSlot::Resident { dirty: true, .. }))
            .map(|(&pi, _)| pi)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_unref_destroys() {
        let mut vm = Vm::new();
        let o = vm.create_object(ObjKind::Anonymous, 4);
        assert_eq!(vm.object_count(), 1);
        vm.unref_object(o).unwrap();
        assert_eq!(vm.object_count(), 0);
    }

    #[test]
    fn install_and_read_page() {
        let mut vm = Vm::new();
        let o = vm.create_object(ObjKind::Anonymous, 4);
        let mut p = aurora_frames::PageRef::zero();
        vm.arena.make_mut(&mut p)[0] = 0xAB;
        vm.install_page(o, 2, p, true).unwrap();
        assert_eq!(vm.page_bytes(o, 2).unwrap()[0], 0xAB);
        assert_eq!(vm.object(o).unwrap().dirty_pages(), 1);
    }

    #[test]
    fn install_out_of_range_rejected() {
        let mut vm = Vm::new();
        let o = vm.create_object(ObjKind::Anonymous, 2);
        assert!(vm.install_page(o, 2, aurora_frames::PageRef::zero(), false).is_err());
    }

    #[test]
    fn evict_requires_clean() {
        let mut vm = Vm::new();
        let o = vm.create_object(ObjKind::Anonymous, 4);
        vm.install_page(o, 0, aurora_frames::PageRef::zero(), true).unwrap();
        assert!(vm.evict_page(o, 0).is_err(), "dirty page must not evict");
        vm.mark_clean(o, 0).unwrap();
        vm.evict_page(o, 0).unwrap();
        assert!(matches!(vm.page_bytes(o, 0), Err(VmError::NeedsPage { .. })));
        assert_eq!(vm.resident_frames(), 0);
    }

    #[test]
    fn reinstall_replaces_frame() {
        let mut vm = Vm::new();
        let o = vm.create_object(ObjKind::Anonymous, 1);
        vm.install_page(o, 0, aurora_frames::PageRef::zero(), false).unwrap();
        let mut p = aurora_frames::PageRef::zero();
        vm.arena.make_mut(&mut p)[1] = 7;
        vm.install_page(o, 0, p, false).unwrap();
        assert_eq!(vm.resident_frames(), 1, "old frame must be freed");
        assert_eq!(vm.page_bytes(o, 0).unwrap()[1], 7);
    }
}
