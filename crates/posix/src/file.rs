//! Open-file descriptions: the kernel objects file descriptors point at.
//!
//! This is the heart of the sharing semantics the paper's §5.1 example
//! walks through: `fork` and `dup` share the *description* (offset and
//! flags included); a fresh `open` of the same path creates a new
//! description over the same vnode.

use crate::vfs::VnodeId;

/// Identifier of an open-file description in the kernel's file table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u64);

impl From<u64> for FileId {
    fn from(id: u64) -> Self {
        FileId(id)
    }
}

/// Which end of a pipe a description refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PipeEnd {
    /// The reading end.
    Read,
    /// The writing end.
    Write,
}

/// Which side of a pseudoterminal pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PtySide {
    /// The controlling (master) side.
    Master,
    /// The terminal (slave) side.
    Slave,
}

/// What an open-file description refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// A regular file or directory.
    Vnode(VnodeId),
    /// One end of a pipe.
    Pipe {
        /// Pipe identity.
        pipe: u64,
        /// Which end.
        end: PipeEnd,
    },
    /// A socket (UNIX, TCP, or UDP).
    Socket(u64),
    /// A kqueue.
    Kqueue(u64),
    /// One side of a pseudoterminal.
    Pty {
        /// Pty pair identity.
        pty: u64,
        /// Which side.
        side: PtySide,
    },
    /// A POSIX shared memory object (from `shm_open`).
    ShmPosix(u64),
    /// A whitelisted device (§5.3, "Device Files").
    Device(u64),
}

/// Open flags (subset).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpenFlags {
    /// Opened for reading.
    pub read: bool,
    /// Opened for writing.
    pub write: bool,
    /// Appends seek to EOF before each write.
    pub append: bool,
    /// Non-blocking IO.
    pub nonblock: bool,
}

impl OpenFlags {
    /// Read-only.
    pub const RDONLY: OpenFlags = OpenFlags { read: true, write: false, append: false, nonblock: false };
    /// Read-write.
    pub const RDWR: OpenFlags = OpenFlags { read: true, write: true, append: false, nonblock: false };
    /// Write-only.
    pub const WRONLY: OpenFlags = OpenFlags { read: false, write: true, append: false, nonblock: false };
}

/// An open-file description (FreeBSD `struct file`).
#[derive(Clone, Debug)]
pub struct OpenFile {
    /// What the description refers to.
    pub kind: FileKind,
    /// Shared seek offset.
    pub offset: u64,
    /// Open flags.
    pub flags: OpenFlags,
    /// References from fd-table slots and in-flight control messages.
    pub refs: u32,
    /// External synchrony disabled for this description via `sls_fdctl`
    /// (§3): outgoing data on it is released immediately.
    pub extsync_disabled: bool,
}

impl OpenFile {
    /// A description at offset 0 held by one reference.
    pub fn new(kind: FileKind, flags: OpenFlags) -> Self {
        Self { kind, offset: 0, flags, refs: 1, extsync_disabled: false }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn flag_presets() {
        assert!(OpenFlags::RDONLY.read && !OpenFlags::RDONLY.write);
        assert!(OpenFlags::RDWR.read && OpenFlags::RDWR.write);
        assert!(!OpenFlags::WRONLY.read && OpenFlags::WRONLY.write);
    }
}
