//! POSIX and System V shared memory.
//!
//! Both registries reference VM objects directly. This is where the
//! paper's *backmap* lives (§6): when system shadowing replaces a shared
//! object's top with a new shadow, the descriptor here must be updated so
//! later `mmap`/`shmat` calls map the latest shadow.

use aurora_vm::ObjId;
use std::collections::HashMap;

/// A named POSIX shared memory object (`shm_open`).
#[derive(Clone, Debug)]
pub struct PosixShm {
    /// Registry identity.
    pub id: u64,
    /// `shm_open` name.
    pub name: String,
    /// Backing VM object (updated by the backmap).
    pub object: ObjId,
    /// Size in pages.
    pub pages: u64,
}

/// A System V shared memory segment (`shmget`).
#[derive(Clone, Debug)]
pub struct SysvShm {
    /// Registry identity (shmid).
    pub id: u64,
    /// IPC key.
    pub key: i64,
    /// Backing VM object (updated by the backmap).
    pub object: ObjId,
    /// Size in pages.
    pub pages: u64,
    /// Attach count.
    pub nattch: u32,
}

/// The shared memory registries.
///
/// System V lives in a single global namespace — the reason Table 4 shows
/// SysV checkpointing costing ~10 µs more than POSIX shm: the serializer
/// must scan the whole namespace (§9.2).
#[derive(Clone, Debug, Default)]
pub struct ShmRegistry {
    /// POSIX shm objects by id.
    pub posix: HashMap<u64, PosixShm>,
    /// SysV segments by shmid.
    pub sysv: HashMap<u64, SysvShm>,
    next: u64,
}

impl ShmRegistry {
    /// Allocates a registry id.
    pub fn next_id(&mut self) -> u64 {
        self.next += 1;
        self.next
    }

    /// Finds a POSIX object by name.
    pub(crate) fn posix_by_name(&self, name: &str) -> Option<&PosixShm> {
        self.posix.values().find(|s| s.name == name)
    }

    /// Finds a SysV segment by key (a full namespace scan, as in the
    /// kernel).
    pub fn sysv_by_key(&self, key: i64) -> Option<&SysvShm> {
        self.sysv.values().find(|s| s.key == key)
    }

    /// The backmap update (§6): retargets every descriptor whose VM
    /// object was just replaced by a system shadow. Returns how many
    /// descriptors were updated.
    pub(crate) fn backmap_update(&mut self, old: ObjId, new: ObjId) -> usize {
        let mut n = 0;
        for s in self.posix.values_mut() {
            if s.object == old {
                s.object = new;
                n += 1;
            }
        }
        for s in self.sysv.values_mut() {
            if s.object == old {
                s.object = new;
                n += 1;
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backmap_updates_both_registries() {
        let mut r = ShmRegistry::default();
        r.posix.insert(
            1,
            PosixShm { id: 1, name: "/buf".into(), object: ObjId(10), pages: 4 },
        );
        r.sysv.insert(
            2,
            SysvShm { id: 2, key: 77, object: ObjId(10), pages: 4, nattch: 1 },
        );
        assert_eq!(r.backmap_update(ObjId(10), ObjId(20)), 2);
        assert_eq!(r.posix[&1].object, ObjId(20));
        assert_eq!(r.sysv[&2].object, ObjId(20));
        assert_eq!(r.backmap_update(ObjId(10), ObjId(30)), 0);
    }

    #[test]
    fn sysv_lookup_by_key() {
        let mut r = ShmRegistry::default();
        r.sysv.insert(5, SysvShm { id: 5, key: 42, object: ObjId(1), pages: 1, nattch: 0 });
        assert_eq!(r.sysv_by_key(42).unwrap().id, 5);
        assert!(r.sysv_by_key(43).is_none());
    }
}
