//! A Mach-style virtual memory subsystem, modelled on FreeBSD's VM (§6 of
//! the paper and Figure 2).
//!
//! The paper's central performance technique — **system shadowing** — is an
//! algorithm over this object graph:
//!
//! * Address spaces ([`space::VmSpace`]) hold a list of map entries, each
//!   backed by a [`object::VmObject`].
//! * VM objects hold pages and may *shadow* a backing object: the shadow's
//!   pages are private; missing pages are found in the backer. This is how
//!   `fork` implements COW.
//! * A simulated [`pmap`] caches virtual→frame translations with per-PTE
//!   writable/dirty bits and *pv entries* (frame→PTE back-pointers), just
//!   like the hardware page tables + pv lists in FreeBSD. Write-protecting
//!   a page during shadowing walks its pv entries — the source of the
//!   ~22 ns/dirty-page slope in Table 5.
//! * [`Vm::system_shadow`] shadows every writable anonymous object across
//!   a consistency group at once, and [`Vm::collapse_under`] retires a
//!   flushed shadow — in either the classic (forward) direction or Aurora's
//!   reversed direction (§6, "Aurora optimizes the collapse operation by
//!   reversing its direction").
//!
//! The crate is pure: it never touches a clock. Every operation updates
//! [`stats::VmStats`] counters (page copies, PTE downgrades, TLB
//! shootdowns, collapse page moves); callers convert counter deltas into
//! virtual time via the cost model.

pub mod fault;
pub mod object;
pub mod pmap;
pub mod shadow;
pub mod space;
pub mod stats;
pub mod types;

pub use object::{ObjKind, PageSlot, VmObject};
pub use shadow::{CollapseMode, CollapseReport, ShadowPair};
pub use space::{Inherit, VmMapEntry, VmSpace};
pub use stats::VmStats;
pub use types::{
    FrameArena, FrameGauges, FrameId, ObjId, PageData, PageRef, Prot, SpaceId, VmError, PAGE_SIZE,
};

use std::collections::HashMap;

/// The virtual memory manager: all objects, spaces, frames, and pv state.
///
/// One `Vm` models one machine's memory. The interesting entry points are
/// [`Vm::map`], [`Vm::write`], [`Vm::fork_space`], [`Vm::system_shadow`],
/// and [`Vm::collapse_under`].
#[derive(Debug, Default)]
pub struct Vm {
    pub(crate) objects: HashMap<ObjId, VmObject>,
    pub(crate) spaces: HashMap<SpaceId, VmSpace>,
    pub(crate) frames: HashMap<FrameId, PageData>,
    /// pv entries: frame → every (space, vpn) whose PTE references it.
    pub(crate) pv: HashMap<FrameId, Vec<(SpaceId, u64)>>,
    pub(crate) next_obj: u64,
    pub(crate) next_space: u64,
    pub(crate) next_frame: u64,
    pub(crate) next_lineage: u64,
    /// The frame arena this VM allocates pages from. Shared (via clone)
    /// with the object store so a page keeps one identity from a process's
    /// address space down to the store's page cache.
    pub arena: FrameArena,
    /// Monotonic operation counters; see [`stats::VmStats`].
    pub stats: VmStats,
    /// Optional event recorder; disabled by default (pure no-op).
    pub(crate) trace: aurora_trace::Trace,
}

impl Vm {
    /// Creates an empty VM.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a trace recorder. The VM itself is clock-free; the
    /// handle's timestamps come from whoever built it.
    pub fn set_trace(&mut self, trace: aurora_trace::Trace) {
        self.trace = trace;
    }

    /// Replaces the frame arena (used after a simulated reboot to adopt
    /// the store's long-lived arena so restored pages share frames with
    /// the store's page cache).
    pub fn set_arena(&mut self, arena: FrameArena) {
        self.arena = arena;
    }

    /// Snapshot of the arena's frame gauges.
    pub fn frame_gauges(&self) -> FrameGauges {
        self.arena.gauges()
    }

    /// Number of live VM objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// The lineage of every live object (a shadow chain repeats its
    /// lineage once per object).
    pub fn lineages(&self) -> impl Iterator<Item = u64> + '_ {
        self.objects.values().map(|o| o.lineage.0)
    }

    /// Number of resident frames (machine-wide RSS in pages).
    pub fn resident_frames(&self) -> usize {
        self.frames.len()
    }

    /// Looks up an object.
    pub fn object(&self, id: ObjId) -> Result<&VmObject, VmError> {
        self.objects.get(&id).ok_or(VmError::NoSuchObject(id))
    }

    /// Looks up a space.
    pub fn space(&self, id: SpaceId) -> Result<&VmSpace, VmError> {
        self.spaces.get(&id).ok_or(VmError::NoSuchSpace(id))
    }

    pub(crate) fn alloc_frame(&mut self, data: PageData) -> FrameId {
        let id = FrameId(self.next_frame);
        self.next_frame += 1;
        self.frames.insert(id, data);
        self.stats.frames_allocated += 1;
        id
    }

    /// Frees a frame, invalidating every PTE that references it.
    pub(crate) fn free_frame(&mut self, frame: FrameId) {
        if let Some(mappings) = self.pv.remove(&frame) {
            for (space, vpn) in mappings {
                if let Some(sp) = self.spaces.get_mut(&space) {
                    sp.pmap.remove(vpn);
                    self.stats.pte_invalidations += 1;
                }
            }
        }
        self.frames.remove(&frame);
        self.stats.frames_freed += 1;
    }

    /// Registers a PTE in the pv table.
    pub(crate) fn pv_insert(&mut self, frame: FrameId, space: SpaceId, vpn: u64) {
        self.pv.entry(frame).or_default().push((space, vpn));
    }

    /// Unregisters a PTE from the pv table.
    pub(crate) fn pv_remove(&mut self, frame: FrameId, space: SpaceId, vpn: u64) {
        if let Some(v) = self.pv.get_mut(&frame) {
            v.retain(|&(s, p)| !(s == space && p == vpn));
            if v.is_empty() {
                self.pv.remove(&frame);
            }
        }
    }

    /// Invalidates every PTE mapping `frame` without freeing it. Used
    /// when a COW break on a *shared* object supersedes a frame: sharers
    /// must refault through the chain to find the new page.
    pub(crate) fn pv_invalidate_frame(&mut self, frame: FrameId) {
        if let Some(mappings) = self.pv.remove(&frame) {
            for (space, vpn) in mappings {
                if let Some(sp) = self.spaces.get_mut(&space) {
                    sp.pmap.remove(vpn);
                    self.stats.pte_invalidations += 1;
                }
            }
        }
    }

    /// Write-protects every PTE mapping `frame`, walking its pv entries.
    /// Returns the number of PTEs downgraded.
    pub(crate) fn pv_write_protect(&mut self, frame: FrameId) -> u64 {
        let mut downgraded = 0;
        if let Some(mappings) = self.pv.get(&frame).cloned() {
            for (space, vpn) in mappings {
                if let Some(sp) = self.spaces.get_mut(&space) {
                    if sp.pmap.write_protect(vpn) {
                        downgraded += 1;
                    }
                }
            }
        }
        self.stats.pte_downgrades += downgraded;
        downgraded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_vm_is_empty() {
        let vm = Vm::new();
        assert_eq!(vm.object_count(), 0);
        assert_eq!(vm.resident_frames(), 0);
    }
}
