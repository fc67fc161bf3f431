//! Address spaces: the VM map (sorted entries) plus its pmap cache.

use crate::object::ObjKind;
use crate::pmap::Pmap;
use crate::types::{ObjId, Prot, SpaceId, VmError, PAGE_SIZE};
use crate::Vm;

/// Inheritance of a mapping across `fork` (FreeBSD `vm_inherit_t`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inherit {
    /// Parent and child share the object (writes are mutually visible).
    Share,
    /// Copy-on-write: each side gets a private view via shadow objects.
    Copy,
    /// The child does not inherit the mapping.
    None,
}

/// One mapped region (FreeBSD `vm_map_entry`).
#[derive(Clone, Copy, Debug)]
pub struct VmMapEntry {
    /// First mapped address (page aligned).
    pub start: u64,
    /// One past the last mapped address (page aligned).
    pub end: u64,
    /// Access protection.
    pub prot: Prot,
    /// Backing VM object (always the top of its shadow chain).
    pub object: ObjId,
    /// Offset into the object, in pages.
    pub offset_pages: u64,
    /// Fork behaviour.
    pub inherit: Inherit,
    /// Excluded from checkpoints via `sls_mctl` (§3).
    pub sls_exclude: bool,
}

impl VmMapEntry {
    /// Virtual page number of `start`.
    pub(crate) fn start_vpn(&self) -> u64 {
        self.start / PAGE_SIZE as u64
    }

    /// True if `addr` falls inside the entry.
    pub(crate) fn contains(&self, addr: u64) -> bool {
        (self.start..self.end).contains(&addr)
    }
}

/// An address space (FreeBSD `vmspace`): map entries + page tables.
#[derive(Clone, Debug)]
pub struct VmSpace {
    /// This space's id.
    pub id: SpaceId,
    /// Entries sorted by start address, non-overlapping.
    pub entries: Vec<VmMapEntry>,
    /// The page-table cache.
    pub pmap: Pmap,
}

impl VmSpace {
    /// Finds the entry containing `addr`.
    pub fn entry_at(&self, addr: u64) -> Option<&VmMapEntry> {
        let idx = self.entries.partition_point(|e| e.end <= addr);
        self.entries.get(idx).filter(|e| e.contains(addr))
    }

    fn entry_index_at(&self, addr: u64) -> Option<usize> {
        let idx = self.entries.partition_point(|e| e.end <= addr);
        self.entries.get(idx).filter(|e| e.contains(addr)).map(|_| idx)
    }
}

/// Base of the automatic placement region.
const MAP_BASE: u64 = 0x1000_0000;
/// Top of user address space (57-bit, 5-level page tables per §2).
const MAP_TOP: u64 = 1 << 56;

impl Vm {
    /// Creates an empty address space.
    pub fn create_space(&mut self) -> SpaceId {
        let id = SpaceId(self.next_space);
        self.next_space += 1;
        self.spaces.insert(id, VmSpace { id, entries: Vec::new(), pmap: Pmap::new() });
        id
    }

    /// Destroys a space, dropping its PTEs and entry references.
    pub fn destroy_space(&mut self, space: SpaceId) -> Result<(), VmError> {
        let sp = self.spaces.get_mut(&space).ok_or(VmError::NoSuchSpace(space))?;
        let ptes = sp.pmap.remove_range(0, u64::MAX);
        for (vpn, pte) in ptes {
            self.pv_remove(pte.frame, space, vpn);
        }
        let sp = self.spaces.remove(&space).expect("present above");
        for entry in sp.entries {
            self.unref_object(entry.object)?;
        }
        Ok(())
    }

    /// Maps `pages` pages of `object` (starting at `offset_pages`) into
    /// `space`. If `at` is `None` the kernel picks an address. Takes over
    /// one reference to `object` from the caller.
    #[allow(clippy::too_many_arguments)]
    pub fn map(
        &mut self,
        space: SpaceId,
        at: Option<u64>,
        pages: u64,
        prot: Prot,
        object: ObjId,
        offset_pages: u64,
        inherit: Inherit,
    ) -> Result<u64, VmError> {
        if pages == 0 {
            return Err(VmError::BadRange(0));
        }
        {
            let obj = self.objects.get(&object).ok_or(VmError::NoSuchObject(object))?;
            if offset_pages + pages > obj.size_pages {
                return Err(VmError::BadRange(offset_pages * PAGE_SIZE as u64));
            }
        }
        let len = pages * PAGE_SIZE as u64;
        let sp = self.spaces.get_mut(&space).ok_or(VmError::NoSuchSpace(space))?;
        let start = match at {
            Some(a) => {
                if a % PAGE_SIZE as u64 != 0 {
                    return Err(VmError::BadRange(a));
                }
                // Reject overlap.
                if sp.entries.iter().any(|e| a < e.end && e.start < a + len) {
                    return Err(VmError::Overlap(a));
                }
                a
            }
            None => {
                // First-fit in the automatic region.
                let mut candidate = MAP_BASE;
                for e in &sp.entries {
                    if e.start >= candidate + len {
                        break;
                    }
                    candidate = candidate.max(e.end);
                }
                if candidate + len > MAP_TOP {
                    return Err(VmError::Overlap(candidate));
                }
                candidate
            }
        };
        let entry = VmMapEntry {
            start,
            end: start + len,
            prot,
            object,
            offset_pages,
            inherit,
            sls_exclude: false,
        };
        let pos = sp.entries.partition_point(|e| e.start < start);
        sp.entries.insert(pos, entry);
        Ok(start)
    }

    /// Unmaps the entry that starts exactly at `addr` (whole-entry unmap,
    /// which is all the reproduction's applications need).
    pub fn unmap(&mut self, space: SpaceId, addr: u64) -> Result<(), VmError> {
        let sp = self.spaces.get_mut(&space).ok_or(VmError::NoSuchSpace(space))?;
        let idx = sp
            .entries
            .iter()
            .position(|e| e.start == addr)
            .ok_or(VmError::BadAddress(addr))?;
        let entry = sp.entries.remove(idx);
        let ptes = sp
            .pmap
            .remove_range(entry.start / PAGE_SIZE as u64, entry.end / PAGE_SIZE as u64);
        for (vpn, pte) in ptes {
            self.pv_remove(pte.frame, space, vpn);
            self.stats.pte_invalidations += 1;
        }
        self.unref_object(entry.object)?;
        Ok(())
    }

    /// Marks the entry starting at `addr` as excluded from (or included
    /// in) checkpoints — the mechanism behind `sls_mctl` (§3).
    pub fn set_sls_exclude(
        &mut self,
        space: SpaceId,
        addr: u64,
        exclude: bool,
    ) -> Result<(), VmError> {
        let sp = self.spaces.get_mut(&space).ok_or(VmError::NoSuchSpace(space))?;
        let idx = sp.entry_index_at(addr).ok_or(VmError::BadAddress(addr))?;
        sp.entries[idx].sls_exclude = exclude;
        Ok(())
    }

    /// Forks `parent` into a new space with FreeBSD semantics: `Share`
    /// entries alias the same object; `Copy` entries get copy-on-write via
    /// shadow objects on both sides; `None` entries are dropped.
    ///
    /// Shadows are created eagerly on both sides (FreeBSD defers the
    /// parent's until its first write; eager creation is equivalent for
    /// correctness and simplifies fault handling).
    pub fn fork_space(&mut self, parent: SpaceId) -> Result<SpaceId, VmError> {
        // Entries are copied one at a time by index rather than cloning the
        // parent's whole entry list up front: a wide space (thousands of
        // entries) would otherwise be deep-copied per fork.
        let n = self.spaces.get(&parent).ok_or(VmError::NoSuchSpace(parent))?.entries.len();
        let child = self.create_space();
        for i in 0..n {
            let entry = self.spaces.get(&parent).expect("checked above").entries[i];
            match entry.inherit {
                Inherit::None => {}
                Inherit::Share => {
                    self.ref_object(entry.object)?;
                    let sp = self.spaces.get_mut(&child).expect("just created");
                    sp.entries.push(entry);
                }
                Inherit::Copy => {
                    let obj = entry.object;
                    let child_shadow = self.make_shadow(obj, false)?;
                    let parent_shadow = self.make_shadow(obj, false)?;
                    // Write-protect the original's resident pages so both
                    // sides fault their private copies.
                    let frames: Vec<_> = self
                        .objects
                        .get(&obj)
                        .expect("shadow parent exists")
                        .pages
                        .values()
                        .filter_map(|s| match s {
                            crate::object::PageSlot::Resident { frame, .. } => Some(*frame),
                            crate::object::PageSlot::Swapped => None,
                        })
                        .collect();
                    for frame in frames {
                        self.pv_write_protect(frame);
                    }
                    self.stats.tlb_shootdowns += 1;
                    // The parent entry's direct reference moves to its shadow.
                    {
                        let sp = self.spaces.get_mut(&parent).expect("parent exists");
                        let e = sp
                            .entries
                            .iter_mut()
                            .find(|e| e.start == entry.start)
                            .expect("entry still present");
                        e.object = parent_shadow;
                    }
                    self.unref_object(obj)?;
                    let sp = self.spaces.get_mut(&child).expect("just created");
                    let mut ce = entry;
                    ce.object = child_shadow;
                    sp.entries.push(ce);
                }
            }
        }
        // Entries were pushed in sorted order (parent was sorted).
        Ok(child)
    }

    /// Total resident pages reachable from `space`'s entries, following
    /// shadow chains without double-counting objects (an approximation of
    /// RSS used for checkpoint sizing).
    pub fn space_resident_pages(&self, space: SpaceId) -> Result<u64, VmError> {
        let sp = self.spaces.get(&space).ok_or(VmError::NoSuchSpace(space))?;
        let mut seen = std::collections::HashSet::new();
        let mut total = 0;
        for e in &sp.entries {
            let mut cur = Some(e.object);
            while let Some(id) = cur {
                if !seen.insert(id) {
                    break;
                }
                let obj = self.objects.get(&id).ok_or(VmError::NoSuchObject(id))?;
                total += obj.resident_pages();
                cur = obj.backer;
            }
        }
        Ok(total)
    }

    /// The entries of a space (for serializers).
    pub fn entries(&self, space: SpaceId) -> Result<&[VmMapEntry], VmError> {
        Ok(&self.spaces.get(&space).ok_or(VmError::NoSuchSpace(space))?.entries)
    }

    /// Convenience: create an anonymous object and map it (the core of
    /// `mmap(MAP_ANON)`).
    pub fn mmap_anon(
        &mut self,
        space: SpaceId,
        pages: u64,
        prot: Prot,
    ) -> Result<u64, VmError> {
        let obj = self.create_object(ObjKind::Anonymous, pages);
        self.map(space, None, pages, prot, obj, 0, Inherit::Copy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_places_and_rejects_overlap() {
        let mut vm = Vm::new();
        let s = vm.create_space();
        let o = vm.create_object(ObjKind::Anonymous, 16);
        let a = vm.map(s, Some(0x2000_0000), 16, Prot::RW, o, 0, Inherit::Copy).unwrap();
        assert_eq!(a, 0x2000_0000);
        let o2 = vm.create_object(ObjKind::Anonymous, 1);
        assert_eq!(
            vm.map(s, Some(0x2000_0000), 1, Prot::RW, o2, 0, Inherit::Copy),
            Err(VmError::Overlap(0x2000_0000))
        );
    }

    #[test]
    fn automatic_placement_finds_gaps() {
        let mut vm = Vm::new();
        let s = vm.create_space();
        let a = vm.mmap_anon(s, 4, Prot::RW).unwrap();
        let b = vm.mmap_anon(s, 4, Prot::RW).unwrap();
        assert_ne!(a, b);
        let sp = vm.space(s).unwrap();
        assert_eq!(sp.entries.len(), 2);
        assert!(sp.entries[0].end <= sp.entries[1].start);
    }

    #[test]
    fn unmap_releases_object() {
        let mut vm = Vm::new();
        let s = vm.create_space();
        let a = vm.mmap_anon(s, 4, Prot::RW).unwrap();
        assert_eq!(vm.object_count(), 1);
        vm.unmap(s, a).unwrap();
        assert_eq!(vm.object_count(), 0);
    }

    #[test]
    fn destroy_space_releases_everything() {
        let mut vm = Vm::new();
        let s = vm.create_space();
        vm.mmap_anon(s, 4, Prot::RW).unwrap();
        vm.write(s, 0x1000_0000, &[1, 2, 3]).unwrap();
        vm.destroy_space(s).unwrap();
        assert_eq!(vm.object_count(), 0);
        assert_eq!(vm.resident_frames(), 0);
    }

    #[test]
    fn entry_lookup_half_open() {
        let mut vm = Vm::new();
        let s = vm.create_space();
        let a = vm.mmap_anon(s, 2, Prot::RW).unwrap();
        let sp = vm.space(s).unwrap();
        assert!(sp.entry_at(a).is_some());
        assert!(sp.entry_at(a + 2 * PAGE_SIZE as u64 - 1).is_some());
        assert!(sp.entry_at(a + 2 * PAGE_SIZE as u64).is_none());
    }

    #[test]
    fn map_offset_past_object_rejected() {
        let mut vm = Vm::new();
        let s = vm.create_space();
        let o = vm.create_object(ObjKind::Anonymous, 4);
        assert!(vm.map(s, None, 4, Prot::RW, o, 1, Inherit::Copy).is_err());
    }
}
