//! The kernel-object → OID mapping (§5.2).
//!
//! "For each incremental checkpoint Aurora maintains a mapping of each
//! object's address in the kernel to a 64-bit on-disk object identifier.
//! This structure allows Aurora to scan over all persistent objects and
//! serialize each of them to storage exactly once." Sharing falls out for
//! free: two fd-table slots holding the same open-file description map to
//! the same OID, so the description is stored once and both slots encode
//! a reference.

use crate::error::SlsError;
use aurora_objstore::{ObjectKind, ObjectStore, Oid};
use std::collections::HashMap;

/// The kinds of kernel objects the single level store persists, in
/// serialization order. The discriminant is the kind's record tag (and
/// its store subtype), and `kind as usize - 1` its row in
/// [`KINDS`](crate::kinds::KINDS).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u16)]
pub enum Kind {
    /// Process (global pid).
    Proc = 0x01,
    /// Thread (global tid).
    Thread = 0x02,
    /// Open-file description.
    File = 0x03,
    /// Vnode.
    Vnode = 0x04,
    /// Pipe.
    Pipe = 0x05,
    /// Socket.
    Socket = 0x06,
    /// Kqueue.
    Kqueue = 0x07,
    /// Pseudoterminal pair.
    Pty = 0x08,
    /// POSIX shared memory object.
    ShmPosix = 0x09,
    /// SysV shared memory segment.
    ShmSysv = 0x0A,
    /// Memory (VM) object, keyed by lineage.
    Mem = 0x0B,
}

/// Record tag (and store subtype) of the group manifest, the one record
/// that is not a kernel object.
pub const MANIFEST: u16 = 0x0C;

impl Kind {
    /// The store kind of this kind's on-disk representation. Vnodes and
    /// memory objects carry pages and are stored as what they are (§7);
    /// everything else is a POSIX record under its tag.
    pub(crate) fn store_kind(self) -> ObjectKind {
        match self {
            Kind::Vnode => ObjectKind::File,
            Kind::Mem => ObjectKind::Memory,
            other => ObjectKind::Posix(other as u16),
        }
    }
}

/// A key identifying a kernel object (the "address in the kernel"): its
/// kind and its kernel id — for `Mem`, the VM *lineage*, so a shadow
/// chain reuses its object across checkpoints.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct KObj(pub Kind, pub u64);

/// The per-group mapping. Cloneable so the checkpoint pipeline can
/// snapshot it before OID assignment and roll back on abort.
#[derive(Clone, Debug, Default)]
pub struct OidMap {
    map: HashMap<KObj, Oid>,
}

impl OidMap {
    /// Returns the OID for `kobj`, allocating and creating the store
    /// object on first sight.
    pub(crate) fn get_or_create(
        &mut self,
        store: &mut ObjectStore,
        kobj: KObj,
    ) -> Result<Oid, aurora_objstore::StoreError> {
        if let Some(&oid) = self.map.get(&kobj) {
            return Ok(oid);
        }
        let oid = store.alloc_oid();
        store.create_object(oid, kobj.0.store_kind())?;
        self.map.insert(kobj, oid);
        Ok(oid)
    }

    /// Looks up an existing mapping.
    pub fn get(&self, kobj: KObj) -> Option<Oid> {
        self.map.get(&kobj).copied()
    }

    /// Like [`get`](OidMap::get) for an object the serialization scan
    /// must already have assigned: a miss means the reachability walk
    /// and a record disagree about what exists.
    pub(crate) fn require(&self, kobj: KObj) -> Result<Oid, SlsError> {
        self.get(kobj).ok_or(SlsError::BadImage("object skipped assignment"))
    }

    /// Binds a kernel object to an existing OID (restore path).
    pub fn bind(&mut self, kobj: KObj, oid: Oid) {
        self.map.insert(kobj, oid);
    }

    /// Number of mapped objects.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aurora_sim::cost::Charge;
    use aurora_sim::{Clock, CostModel};
    use aurora_storage::testbed_array;

    #[test]
    fn same_kernel_object_maps_once() {
        let clock = Clock::new();
        let dev = testbed_array(&clock, 1 << 24);
        let mut store =
            ObjectStore::format(dev, Charge::new(clock, CostModel::default()), 256).unwrap();
        let mut m = OidMap::default();
        let a = m.get_or_create(&mut store, KObj(Kind::File, 7)).unwrap();
        let b = m.get_or_create(&mut store, KObj(Kind::File, 7)).unwrap();
        let c = m.get_or_create(&mut store, KObj(Kind::File, 8)).unwrap();
        assert_eq!(a, b, "shared description serializes exactly once");
        assert_ne!(a, c);
        assert_eq!(m.len(), 2);
        assert!(m.require(KObj(Kind::Pipe, 7)).is_err(), "same id, other kind: unmapped");
    }
}
