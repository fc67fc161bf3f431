//! The kernel error type (errno-flavoured).

use aurora_vm::VmError;
use std::fmt;

/// Errors returned by kernel operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KError {
    /// No such process.
    Srch,
    /// Bad file descriptor.
    Badf,
    /// No such file or directory.
    Noent,
    /// File exists.
    Exist,
    /// Not a directory.
    Notdir,
    /// Is a directory.
    Isdir,
    /// Invalid argument.
    Inval,
    /// Operation not supported on this object.
    Opnotsupp,
    /// Resource temporarily unavailable (would block).
    Again,
    /// Broken pipe / connection.
    Pipe,
    /// Address already in use.
    Addrinuse,
    /// Not connected.
    Notconn,
    /// Interrupted system call (visible only to non-restartable sleeps).
    Intr,
    /// A memory error from the VM layer.
    Vm(VmError),
    /// I/O error (EIO): the pager's store operation `op` failed — a
    /// device error or a checksum mismatch. (No block number: the
    /// variant must not widen `KError`, which every syscall returns.)
    Io {
        /// The store operation that failed.
        op: &'static str,
    },
}

impl fmt::Display for KError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KError::Srch => write!(f, "ESRCH: no such process"),
            KError::Badf => write!(f, "EBADF: bad file descriptor"),
            KError::Noent => write!(f, "ENOENT: no such file or directory"),
            KError::Exist => write!(f, "EEXIST: file exists"),
            KError::Notdir => write!(f, "ENOTDIR: not a directory"),
            KError::Isdir => write!(f, "EISDIR: is a directory"),
            KError::Inval => write!(f, "EINVAL: invalid argument"),
            KError::Opnotsupp => write!(f, "EOPNOTSUPP: operation not supported"),
            KError::Again => write!(f, "EAGAIN: resource temporarily unavailable"),
            KError::Pipe => write!(f, "EPIPE: broken pipe"),
            KError::Addrinuse => write!(f, "EADDRINUSE: address already in use"),
            KError::Notconn => write!(f, "ENOTCONN: not connected"),
            KError::Intr => write!(f, "EINTR: interrupted system call"),
            KError::Vm(e) => write!(f, "VM error: {e}"),
            KError::Io { op } => write!(f, "EIO: {op} failed"),
        }
    }
}

impl std::error::Error for KError {}

impl From<VmError> for KError {
    fn from(e: VmError) -> Self {
        KError::Vm(e)
    }
}

/// Result alias for kernel operations.
pub type Result<T> = std::result::Result<T, KError>;

#[cfg(test)]
mod tests {
    use super::*;

    /// Every syscall returns a `Result<_, KError>`: the kernel's error
    /// must stay no wider than the VM error it wraps.
    #[test]
    fn kernel_error_is_no_wider_than_the_vm_error() {
        assert_eq!(std::mem::size_of::<KError>(), std::mem::size_of::<VmError>());
    }
}
