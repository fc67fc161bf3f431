//! Quiescing at the kernel boundary (§5.1).
//!
//! Aurora's first implementation used SIGSTOP, which was incomplete (in-
//! flight syscalls keep mutating state) and non-transparent (EINTR leaks
//! to the application). The shipping design sends IPIs to every core
//! running the group, waits for short syscalls to drain, and interrupts
//! sleeping syscalls — rewinding the thread's PC to just before the
//! `syscall` instruction so it transparently reissues the call on resume.

use crate::error::Result;
use crate::ids::Pid;
use crate::kernel::Kernel;
use crate::process::ThreadState;

/// What quiescing a group did (for tests and cost audits).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QuiesceReport {
    /// Threads stopped.
    pub threads: u64,
    /// Threads that were in short syscalls we waited out.
    pub drained_syscalls: u64,
    /// Sleeping syscalls interrupted and transparently restarted.
    pub restarted_syscalls: u64,
    /// Width of the quiesce window, virtual ns.
    pub width_ns: u64,
}

impl Kernel {
    /// Quiesces every thread of `pids` at the kernel boundary, with the
    /// window unattributed to any consistency group (group 0).
    pub fn quiesce(&mut self, pids: &[Pid]) -> Result<QuiesceReport> {
        self.quiesce_group(pids, 0)
    }

    /// Quiesces every thread of `pids`; `group` only tags the trace span
    /// (the invariant checker's quiesce mutual exclusion reads it).
    /// Charges IPI and drain costs to the clock; only the named
    /// processes stop — the rest of the machine keeps running, which is
    /// what lets another group's flush overlap this stop window.
    pub fn quiesce_group(&mut self, pids: &[Pid], group: u64) -> Result<QuiesceReport> {
        let trace = self.charge.trace().clone();
        // Window width is measured off the virtual clock directly so the
        // gauges exist (and agree) whether or not tracing is armed.
        let clock_start = self.charge.clock().now();
        let start = if trace.is_enabled() { trace.now() } else { 0 };
        let mut report = QuiesceReport::default();
        let mut tids = Vec::new();
        for &pid in pids {
            let threads = self.proc(pid)?.threads.len() as u64;
            if trace.is_enabled() {
                trace.instant("posix", "quiesce.pid", &[("pid", pid.0 as u64), ("threads", threads)]);
            }
            tids.extend(self.proc(pid)?.threads.iter().copied());
        }
        // One IPI per core the group occupies, plus the boundary drain.
        self.charge.raw(self.charge.model().quiesce_ns(tids.len() as u64));
        for tid in tids {
            let t = self.threads.get_mut(&tid).expect("listed above");
            match t.state {
                ThreadState::User => {}
                ThreadState::Syscall => {
                    report.drained_syscalls += 1;
                }
                ThreadState::SleepingSyscall { insn_len } => {
                    // Transparent restart: rewind the PC so the thread
                    // reissues the call; no EINTR ever reaches userspace.
                    t.regs.pc = t.regs.pc.wrapping_sub(insn_len as u64);
                    t.restarts += 1;
                    report.restarted_syscalls += 1;
                }
                ThreadState::Stopped => continue,
            }
            t.state = ThreadState::Stopped;
            report.threads += 1;
        }
        if trace.is_enabled() {
            let dur = trace.now() - start;
            trace.complete(
                "posix",
                "posix.quiesce",
                start,
                dur,
                &[
                    ("group", group),
                    ("threads", report.threads),
                    ("drained", report.drained_syscalls),
                    ("restarted", report.restarted_syscalls),
                ],
            );
            trace.hist("posix.quiesce_ns", dur);
        }
        self.quiesce_windows += 1;
        report.width_ns = self.charge.clock().now() - clock_start;
        self.last_quiesce_width_ns = report.width_ns;
        Ok(report)
    }

    /// Resumes a quiesced group.
    pub fn resume(&mut self, pids: &[Pid]) -> Result<()> {
        for &pid in pids {
            let tids = self.proc(pid)?.threads.clone();
            for tid in tids {
                let t = self.threads.get_mut(&tid).expect("thread of live process");
                if t.state == ThreadState::Stopped {
                    t.state = ThreadState::User;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Regs;

    #[test]
    fn quiesce_stops_all_threads() {
        let mut k = Kernel::boot();
        let p = k.spawn("app");
        k.add_thread(p).unwrap();
        k.add_thread(p).unwrap();
        let r = k.quiesce(&[p]).unwrap();
        assert_eq!(r.threads, 3);
        assert_eq!(k.quiesce_windows, 1);
        assert!(k.last_quiesce_width_ns > 0, "IPI+drain costs make the window nonzero");
        for tid in &k.proc(p).unwrap().threads.clone() {
            assert_eq!(k.threads[tid].state, ThreadState::Stopped);
        }
        k.resume(&[p]).unwrap();
        for tid in &k.proc(p).unwrap().threads.clone() {
            assert_eq!(k.threads[tid].state, ThreadState::User);
        }
    }

    #[test]
    fn sleeping_syscall_is_rewound_not_eintr() {
        let mut k = Kernel::boot();
        let p = k.spawn("app");
        let tid = k.proc(p).unwrap().threads[0];
        {
            let t = k.threads.get_mut(&tid).unwrap();
            t.regs = Regs { pc: 0x400_1002, ..Regs::default() };
            t.state = ThreadState::SleepingSyscall { insn_len: 2 };
        }
        let r = k.quiesce(&[p]).unwrap();
        assert_eq!(r.restarted_syscalls, 1);
        let t = &k.threads[&tid];
        assert_eq!(t.regs.pc, 0x400_1000, "PC rewound past the syscall insn");
        assert_eq!(t.restarts, 1);
    }

    #[test]
    fn per_group_windows_are_tracked_independently() {
        let mut k = Kernel::boot();
        let p1 = k.spawn("a");
        let p2 = k.spawn("b");
        k.add_thread(p2).unwrap();
        let w1 = k.quiesce_group(&[p1], 1).unwrap().width_ns;
        k.resume(&[p1]).unwrap();
        let w2 = k.quiesce_group(&[p2], 2).unwrap().width_ns;
        assert_eq!(k.quiesce_windows, 2);
        assert!(w1 > 0 && w2 > 0);
        assert!(w2 > w1, "two threads drain slower than one");
        assert_eq!(k.last_quiesce_width_ns, w2);
        // Group 1's processes kept running through group 2's window.
        use crate::process::ThreadState;
        for tid in &k.proc(p1).unwrap().threads.clone() {
            assert_eq!(k.threads[tid].state, ThreadState::User);
        }
    }

    #[test]
    fn quiesce_charges_the_clock() {
        let mut k = Kernel::boot();
        let p = k.spawn("app");
        let before = k.charge.clock().now();
        k.quiesce(&[p]).unwrap();
        assert!(k.charge.clock().now() > before);
    }
}
