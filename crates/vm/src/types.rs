//! Core identifiers, protections, page data, and the VM error type.

use std::fmt;

pub use aurora_frames::{FrameArena, FrameGauges, PageBytes, PageRef, PAGE_SIZE};

/// Identifier of a VM object.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjId(pub u64);

/// Identifier of an address space.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpaceId(pub u64);

/// Identifier of a physical frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FrameId(pub u64);

/// A stable identity for a *logical* memory object across system
/// shadowing.
///
/// System shadows come and go every checkpoint; the on-disk object that
/// accumulates a region's deltas must stay the same. A shadow created by
/// system shadowing inherits its parent's lineage; a shadow created by
/// `fork` gets a fresh lineage because the paper persists each COW level
/// as its own on-disk object (§6, "Checkpointing the VM").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lineage(pub u64);

/// One page of data: a refcounted frame in the arena. Cloning shares
/// the frame; mutation goes through [`FrameArena::make_mut`].
pub type PageData = PageRef;

/// Memory protection bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Prot(pub u8);

impl Prot {
    /// No access.
    pub const NONE: Prot = Prot(0);
    /// Readable.
    pub const READ: Prot = Prot(1);
    /// Writable (implies readable in this model).
    pub const WRITE: Prot = Prot(2);
    /// Executable.
    pub const EXEC: Prot = Prot(4);
    /// Read + write.
    pub const RW: Prot = Prot(3);
    /// Read + exec.
    pub const RX: Prot = Prot(5);

    /// True if all bits of `other` are present.
    pub(crate) fn contains(self, other: Prot) -> bool {
        self.0 & other.0 == other.0
    }
}

/// Errors from VM operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VmError {
    /// The referenced object does not exist.
    NoSuchObject(ObjId),
    /// The referenced space does not exist.
    NoSuchSpace(SpaceId),
    /// An access hit an unmapped address.
    BadAddress(u64),
    /// A mapping request overlapped an existing entry.
    Overlap(u64),
    /// An access violated the entry's protection.
    Protection(u64),
    /// The accessed page has been swapped out; the caller's pager must
    /// fetch it from the store and call `install_page`, then retry.
    NeedsPage {
        /// Object holding the swapped page.
        obj: ObjId,
        /// Page index within the object.
        pindex: u64,
    },
    /// An offset/length was not page-aligned or out of the object.
    BadRange(u64),
    /// A collapse was requested on an object that cannot be collapsed.
    CannotCollapse(ObjId),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::NoSuchObject(id) => write!(f, "no such VM object {:?}", id),
            VmError::NoSuchSpace(id) => write!(f, "no such VM space {:?}", id),
            VmError::BadAddress(a) => write!(f, "bad address {a:#x}"),
            VmError::Overlap(a) => write!(f, "mapping overlaps at {a:#x}"),
            VmError::Protection(a) => write!(f, "protection violation at {a:#x}"),
            VmError::NeedsPage { obj, pindex } => {
                write!(f, "page {pindex} of {obj:?} is swapped out")
            }
            VmError::BadRange(a) => write!(f, "bad range at {a:#x}"),
            VmError::CannotCollapse(id) => write!(f, "cannot collapse {id:?}"),
        }
    }
}

impl std::error::Error for VmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prot_contains() {
        assert!(Prot::RW.contains(Prot::READ));
        assert!(Prot::RW.contains(Prot::WRITE));
        assert!(!Prot::READ.contains(Prot::WRITE));
        assert!(Prot::RX.contains(Prot::EXEC));
    }

    #[test]
    fn zero_page_is_zero() {
        let z: PageData = PageRef::zero();
        assert!(z.iter().all(|&b| b == 0));
    }

    #[test]
    fn zero_page_is_one_shared_frame() {
        let a: PageData = PageRef::zero();
        let b: PageData = PageRef::zero();
        assert!(PageRef::ptr_eq(&a, &b), "the zero page must not allocate");
    }
}
