//! The SLS error type.

use crate::GroupId;
use aurora_objstore::StoreError;
use aurora_posix::KError;
use aurora_sim::codec::CodecError;
use aurora_vm::VmError;
use std::fmt;

/// Errors from SLS operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SlsError {
    /// Unknown consistency group.
    NoSuchGroup(GroupId),
    /// The group has no checkpoint yet.
    NoCheckpoint(GroupId),
    /// A checkpoint image failed validation during restore.
    BadImage(&'static str),
    /// Kernel-layer failure.
    Kernel(KError),
    /// Store-layer failure.
    Store(StoreError),
    /// VM-layer failure.
    Vm(VmError),
    /// Codec failure.
    Codec(CodecError),
}

impl SlsError {
    /// True when retrying the failed operation may succeed: a transient
    /// device error surfaced through the store layer. Everything else
    /// (corrupt images, missing objects, kernel errors) is permanent.
    pub fn is_transient(&self) -> bool {
        matches!(self, SlsError::Store(e) if e.is_transient())
    }
}

impl fmt::Display for SlsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SlsError::NoSuchGroup(g) => write!(f, "no such consistency group {g:?}"),
            SlsError::NoCheckpoint(g) => write!(f, "group {g:?} has no checkpoint"),
            SlsError::BadImage(w) => write!(f, "bad checkpoint image: {w}"),
            SlsError::Kernel(e) => write!(f, "kernel: {e}"),
            SlsError::Store(e) => write!(f, "store: {e}"),
            SlsError::Vm(e) => write!(f, "vm: {e}"),
            SlsError::Codec(e) => write!(f, "codec: {e}"),
        }
    }
}

impl std::error::Error for SlsError {}

impl From<KError> for SlsError {
    fn from(e: KError) -> Self {
        SlsError::Kernel(e)
    }
}

impl From<StoreError> for SlsError {
    fn from(e: StoreError) -> Self {
        SlsError::Store(e)
    }
}

impl From<VmError> for SlsError {
    fn from(e: VmError) -> Self {
        SlsError::Vm(e)
    }
}

impl From<CodecError> for SlsError {
    fn from(e: CodecError) -> Self {
        SlsError::Codec(e)
    }
}
