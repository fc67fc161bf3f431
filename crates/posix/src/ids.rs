//! Process/thread identifiers and the virtualizing allocator (§5.3,
//! "System Wide Identifiers").
//!
//! Aurora restores PIDs and TIDs: a restored parent must still be able to
//! signal its child by the pid it remembers, and PThread mutexes embed
//! TIDs. Conflicts with already-running processes are solved by giving
//! every process two ids — the *local* id (seen by the application,
//! preserved across restore) and the *global* id (allocated fresh,
//! visible to the rest of the system).

use crate::error::{KError, Result};
use std::collections::{HashMap, HashSet};

/// A process identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(pub u32);

/// A thread identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tid(pub u32);

/// Allocates unique global ids, with support for reserving specific
/// values (used by restore when the checkpoint-time id happens to be
/// free).
#[derive(Debug, Default)]
pub struct IdAllocator {
    next: u32,
    used: HashSet<u32>,
}

impl IdAllocator {
    /// Creates an allocator starting at `first`.
    pub(crate) fn starting_at(first: u32) -> Self {
        Self { next: first, used: HashSet::new() }
    }

    /// Allocates a fresh id.
    pub fn alloc(&mut self) -> u32 {
        loop {
            let id = self.next;
            self.next = self.next.wrapping_add(1).max(2);
            if self.used.insert(id) {
                return id;
            }
        }
    }

    /// Attempts to reserve a specific id; fails if taken.
    pub fn reserve(&mut self, id: u32) -> Result<()> {
        if self.used.insert(id) {
            Ok(())
        } else {
            Err(KError::Exist)
        }
    }

    /// Releases an id.
    pub(crate) fn release(&mut self, id: u32) {
        self.used.remove(&id);
    }
}

/// A local→global pid/tid namespace for one restored consistency group.
///
/// Processes created normally live in the identity namespace (local ==
/// global). A restore creates a fresh namespace mapping checkpoint-time
/// (local) ids to freshly allocated global ones.
#[derive(Clone, Debug, Default)]
pub struct PidNamespace {
    to_global: HashMap<u32, u32>,
}

impl PidNamespace {
    /// Records `local → global`.
    pub fn insert(&mut self, local: u32, global: u32) {
        self.to_global.insert(local, global);
    }

    /// Resolves a local id to the global one (identity if unmapped).
    pub fn global_of(&self, local: u32) -> u32 {
        self.to_global.get(&local).copied().unwrap_or(local)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_unique() {
        let mut a = IdAllocator::starting_at(100);
        let ids: HashSet<u32> = (0..1000).map(|_| a.alloc()).collect();
        assert_eq!(ids.len(), 1000);
    }

    #[test]
    fn reserve_conflicts() {
        let mut a = IdAllocator::starting_at(2);
        a.reserve(42).unwrap();
        assert_eq!(a.reserve(42), Err(KError::Exist));
        a.release(42);
        a.reserve(42).unwrap();
    }

    #[test]
    fn alloc_skips_reserved() {
        let mut a = IdAllocator::starting_at(10);
        a.reserve(11).unwrap();
        let ids: Vec<u32> = (0..3).map(|_| a.alloc()).collect();
        assert!(!ids.contains(&11));
    }

    #[test]
    fn namespace_round_trips() {
        let mut ns = PidNamespace::default();
        ns.insert(100, 9001);
        assert_eq!(ns.global_of(100), 9001);
        // Identity for unmapped ids.
        assert_eq!(ns.global_of(5), 5);
    }
}
