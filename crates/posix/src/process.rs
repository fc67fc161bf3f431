//! Processes and threads: the tree, groups/sessions, and per-thread CPU
//! state (§5.1, "Process, Thread, and CPU State").

use crate::fd::FdTable;
use crate::ids::{Pid, Tid};
use aurora_vm::SpaceId;

/// Simulated CPU register state for one thread.
///
/// The serializer copies these "off the kernel stack" at checkpoint time;
/// tests assert they survive a restore bit-for-bit.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Regs {
    /// Program counter.
    pub pc: u64,
    /// Stack pointer.
    pub sp: u64,
    /// General-purpose registers.
    pub gp: [u64; 8],
    /// FPU/vector state (lazily saved on real CPUs; an IPI flushes it at
    /// checkpoint time, §5.1).
    pub fpu: [u64; 8],
}

/// Where a thread is relative to the kernel boundary (§5.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadState {
    /// Executing in userspace.
    User,
    /// In a short, non-sleeping syscall: quiesce waits for it to finish.
    Syscall,
    /// Sleeping in a syscall (e.g. a blocking `read`): quiesce interrupts
    /// it and rewinds the PC so it transparently restarts.
    SleepingSyscall {
        /// Width of the syscall instruction, subtracted from the PC on
        /// transparent restart.
        insn_len: u8,
    },
    /// Stopped at the kernel boundary (quiesced).
    Stopped,
}

/// One thread.
#[derive(Clone, Debug)]
pub struct Thread {
    /// Global thread id.
    pub tid: Tid,
    /// Checkpoint-time (application-visible) tid.
    pub local_tid: Tid,
    /// Owning process (global pid).
    pub pid: Pid,
    /// Execution state.
    pub state: ThreadState,
    /// Signal mask (bit per signal).
    pub sigmask: u64,
    /// Pending signals.
    pub sigpending: u64,
    /// Scheduling priority.
    pub priority: i8,
    /// Register state.
    pub regs: Regs,
    /// Times this thread's syscalls were transparently restarted (for
    /// tests asserting quiesce transparency).
    pub restarts: u64,
}

/// One process.
#[derive(Clone, Debug)]
pub struct Process {
    /// Global pid.
    pub pid: Pid,
    /// Application-visible pid (== global unless restored).
    pub local_pid: Pid,
    /// Parent (global pid); `None` for the root.
    pub ppid: Option<Pid>,
    /// Process group (local id space).
    pub pgid: Pid,
    /// Session (local id space).
    pub sid: Pid,
    /// Command name.
    pub name: String,
    /// Address space.
    pub space: SpaceId,
    /// File descriptor table.
    pub fdtable: FdTable,
    /// Threads (global tids), in creation order.
    pub threads: Vec<Tid>,
    /// Children (global pids), in creation order.
    pub children: Vec<Pid>,
    /// Pending process-directed signals.
    pub sigpending: u64,
    /// PID namespace: processes restored together share one, so local
    /// pids stay routable among them without clashing with the rest of
    /// the system (§5.3).
    pub ns: u32,
    /// Marked ephemeral via `sls detach` semantics: part of the group but
    /// not persisted; the parent gets SIGCHLD after a restore (§3).
    pub ephemeral: bool,
}

/// Signal numbers used by the reproduction.
pub mod sig {
    /// Child status changed.
    pub const SIGCHLD: u32 = 20;
    /// Termination request.
    pub const SIGTERM: u32 = 15;
    /// User-defined signal used by the Aurora restore handler (§3).
    pub const SIGUSR1: u32 = 30;

    /// Bit mask for a signal number.
    pub fn bit(signo: u32) -> u64 {
        1u64 << signo
    }
}

impl Thread {
    /// A running thread of `pid` with zeroed state, whose application-
    /// visible tid is its global one.
    pub fn new(tid: Tid, pid: Pid) -> Self {
        Self {
            tid,
            local_tid: tid,
            pid,
            state: ThreadState::User,
            sigmask: 0,
            sigpending: 0,
            priority: 0,
            regs: Regs::default(),
            restarts: 0,
        }
    }
}

impl Process {
    /// A parentless process with no threads, in its own group and
    /// session, whose application-visible pid is its global one.
    pub fn new(pid: Pid, name: String, space: SpaceId, fdtable: FdTable) -> Self {
        Self {
            pid,
            local_pid: pid,
            ppid: None,
            pgid: pid,
            sid: pid,
            name,
            space,
            fdtable,
            threads: Vec::new(),
            children: Vec::new(),
            sigpending: 0,
            ns: 0,
            ephemeral: false,
        }
    }

    /// True if any thread has the signal pending (or the process does).
    pub fn has_pending(&self, signo: u32) -> bool {
        self.sigpending & sig::bit(signo) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signal_bits() {
        assert_eq!(sig::bit(1), 2);
        assert_ne!(sig::bit(sig::SIGCHLD), sig::bit(sig::SIGTERM));
    }

    #[test]
    fn regs_default_is_zero() {
        let r = Regs::default();
        assert_eq!(r.pc, 0);
        assert_eq!(r.gp, [0; 8]);
    }
}
