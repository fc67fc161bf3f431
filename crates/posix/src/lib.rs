//! A simulated FreeBSD-like kernel: the POSIX substrate Aurora persists.
//!
//! The paper's core observation (§5) is that POSIX state forms an *object
//! graph* in the kernel — file descriptors shared through `fork`, vnodes
//! shared through independent `open`s, sockets carrying in-flight fds —
//! and that a single level store should persist that graph one object at
//! a time. This crate builds the graph for real:
//!
//! * [`Kernel`] owns a [`aurora_vm::Vm`], the process/thread tables, the
//!   open-file table, a tmpfs-style VFS with a name cache, pipes, UNIX and
//!   TCP sockets (including fd passing in control messages), POSIX and
//!   System V shared memory (with the shadow *backmap* of §6), kqueues,
//!   pseudoterminals, and an AIO queue. Descriptions, pipes, sockets,
//!   kqueues and ptys each live in a [`table::Table`].
//! * Syscall-shaped methods (`open`, `fork`, `dup`, `sendmsg_fds`, …)
//!   reproduce the sharing semantics the paper's serializers must capture:
//!   `fork` shares the file *description* (offset and all), a fresh `open`
//!   shares only the vnode.
//! * [`quiesce`] implements §5.1: IPIs force every thread of a consistency
//!   group to the kernel boundary; sleeping syscalls are interrupted and
//!   transparently restarted by rewinding the program counter.
//!
//! Everything charges the shared virtual clock through
//! [`aurora_sim::cost::Charge`], so checkpoint stop times measured above
//! this substrate reflect the modelled hardware.

pub mod aio;
pub mod error;
pub mod fd;
pub mod file;
pub mod ids;
pub mod kernel;
pub mod kqueue;
pub mod pipe;
pub mod process;
pub mod profiles;
pub mod pty;
pub mod quiesce;
pub mod shm;
pub mod socket;
pub mod table;
pub mod vfs;

pub use error::KError;
pub use fd::Fd;
pub use file::{FileId, FileKind, OpenFile};
pub use ids::{Pid, Tid};
pub use kernel::{Kernel, Pager};
pub use process::{Process, Thread, ThreadState};
pub use vfs::VnodeId;
