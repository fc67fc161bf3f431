//! The physical map: a simulated per-address-space page table.
//!
//! The pmap is a *cache* of the VM map (Figure 2 of the paper): it can be
//! dropped and rebuilt from the map at any time. PTEs carry the hardware
//! writable/dirty/accessed bits that incremental checkpointing relies on.

use crate::types::FrameId;
use std::collections::BTreeMap;

/// A page table entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pte {
    /// Mapped frame.
    pub frame: FrameId,
    /// Hardware writable bit; cleared when a page is COW-protected.
    pub writable: bool,
    /// Hardware dirty bit (set on write access).
    pub dirty: bool,
    /// Hardware accessed bit (set on any access).
    pub accessed: bool,
}

/// A per-space page table, keyed by virtual page number.
#[derive(Clone, Debug, Default)]
pub struct Pmap {
    ptes: BTreeMap<u64, Pte>,
}

impl Pmap {
    /// Creates an empty pmap.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Looks up a PTE.
    pub(crate) fn get(&self, vpn: u64) -> Option<&Pte> {
        self.ptes.get(&vpn)
    }

    /// Installs (or replaces) a PTE.
    pub(crate) fn install(&mut self, vpn: u64, pte: Pte) -> Option<Pte> {
        self.ptes.insert(vpn, pte)
    }

    /// Removes a PTE, returning it.
    pub(crate) fn remove(&mut self, vpn: u64) -> Option<Pte> {
        self.ptes.remove(&vpn)
    }

    /// Clears the writable bit of a PTE; returns true if it was writable.
    pub(crate) fn write_protect(&mut self, vpn: u64) -> bool {
        match self.ptes.get_mut(&vpn) {
            Some(pte) if pte.writable => {
                pte.writable = false;
                true
            }
            _ => false,
        }
    }

    /// Marks an access: sets accessed, and dirty for writes. The PTE must
    /// exist and (for writes) be writable — callers fault first.
    pub(crate) fn mark_access(&mut self, vpn: u64, write: bool) {
        let pte = self.ptes.get_mut(&vpn).expect("access to unmapped vpn");
        pte.accessed = true;
        if write {
            debug_assert!(pte.writable, "write through read-only PTE");
            pte.dirty = true;
        }
    }

    /// Removes every PTE in `[start_vpn, end_vpn)`, returning them (the
    /// caller unregisters pv entries).
    pub(crate) fn remove_range(&mut self, start_vpn: u64, end_vpn: u64) -> Vec<(u64, Pte)> {
        let keys: Vec<u64> = self.ptes.range(start_vpn..end_vpn).map(|(&k, _)| k).collect();
        keys.into_iter().map(|k| (k, self.ptes.remove(&k).expect("just listed"))).collect()
    }

    /// Number of PTEs installed.
    pub fn len(&self) -> usize {
        self.ptes.len()
    }

    /// True when no PTEs are installed.
    pub fn is_empty(&self) -> bool {
        self.ptes.is_empty()
    }

    /// Iterates over all PTEs.
    pub fn iter(&self) -> impl Iterator<Item = (&u64, &Pte)> {
        self.ptes.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pte(frame: u64, writable: bool) -> Pte {
        Pte { frame: FrameId(frame), writable, dirty: false, accessed: false }
    }

    #[test]
    fn install_get_remove() {
        let mut p = Pmap::new();
        p.install(10, pte(1, true));
        assert_eq!(p.get(10).unwrap().frame, FrameId(1));
        assert!(p.remove(10).is_some());
        assert!(p.get(10).is_none());
    }

    #[test]
    fn write_protect_reports_transition() {
        let mut p = Pmap::new();
        p.install(5, pte(1, true));
        assert!(p.write_protect(5));
        assert!(!p.write_protect(5), "already read-only");
        assert!(!p.write_protect(99), "missing PTE");
    }

    #[test]
    fn mark_access_sets_bits() {
        let mut p = Pmap::new();
        p.install(3, pte(2, true));
        p.mark_access(3, false);
        assert!(p.get(3).unwrap().accessed);
        assert!(!p.get(3).unwrap().dirty);
        p.mark_access(3, true);
        assert!(p.get(3).unwrap().dirty);
    }

    #[test]
    fn remove_range_is_half_open() {
        let mut p = Pmap::new();
        for vpn in 0..10 {
            p.install(vpn, pte(vpn, false));
        }
        let removed = p.remove_range(3, 6);
        assert_eq!(removed.len(), 3);
        assert!(p.get(3).is_none() && p.get(5).is_none());
        assert!(p.get(6).is_some());
    }
}
