//! Asynchronous IO tracking (§5.3).
//!
//! Aurora quiesces in-flight AIOs for checkpointing: writes delay the
//! checkpoint's completion until incorporated; reads are recorded and
//! reissued at restore.

use crate::file::FileId;

/// Direction of an AIO.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AioKind {
    /// Asynchronous read: recorded in the checkpoint and reissued on
    /// restore.
    Read,
    /// Asynchronous write: the checkpoint completes only after it lands.
    Write,
}

/// One in-flight asynchronous IO.
#[derive(Clone, Debug)]
pub struct AioOp {
    /// Operation identity.
    pub id: u64,
    /// Issuing process (global pid).
    pub pid: u32,
    /// Target open-file description.
    pub file: FileId,
    /// File offset.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
    /// Direction.
    pub kind: AioKind,
}

/// The kernel AIO queue.
#[derive(Clone, Debug, Default)]
pub struct AioQueue {
    /// Operations in flight; an op leaves when it completes or its
    /// process exits.
    pub ops: Vec<AioOp>,
    next: u64,
}

impl AioQueue {
    /// Issues an AIO, returning its id.
    pub fn issue(&mut self, pid: u32, file: FileId, offset: u64, len: u64, kind: AioKind) -> u64 {
        self.next += 1;
        self.ops.push(AioOp { id: self.next, pid, file, offset, len, kind });
        self.next
    }

    /// Completes an operation: it leaves the queue.
    pub fn complete(&mut self, id: u64) {
        self.ops.retain(|o| o.id != id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issue_complete_reap() {
        let mut q = AioQueue::default();
        let a = q.issue(1, FileId(1), 0, 4096, AioKind::Write);
        let b = q.issue(1, FileId(1), 4096, 4096, AioKind::Read);
        assert_eq!(q.ops.len(), 2);
        q.complete(a);
        let left: Vec<u64> = q.ops.iter().map(|o| o.id).collect();
        assert_eq!(left, [b], "a completed op is reaped at once");
    }
}
