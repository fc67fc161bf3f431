//! The calibrated cost model.
//!
//! Every primitive operation the real Aurora implementation pays for is
//! charged to the virtual clock through a [`CostModel`]. The calibration
//! constants below are derived from the paper's testbed (dual Intel Xeon
//! Silver 4116 @ 2.1 GHz, 96 GiB RAM, 4× Intel Optane 900P striped at
//! 64 KiB) and from the micro-level costs its evaluation implies:
//!
//! * Table 5 shows incremental checkpoint stop time growing by ~22 ns per
//!   dirty page (the linear cost of marking PTEs copy-on-write), over a
//!   fixed ~185 µs quiesce + OS-state + shadowing cost.
//! * Table 4 implies small POSIX objects serialize in 1–2 µs: a couple of
//!   lock acquisitions plus a dozen cache-missing pointer chases.
//! * The journal API writes a 4 KiB page synchronously in 28 µs — an NVMe
//!   write latency plus a small CPU overhead (§7).
//!
//! Keeping every constant in one struct makes the calibration auditable
//! and lets ablation benches perturb individual costs.

use crate::clock::Clock;
use aurora_trace::Trace;

/// Number of bytes in a (small) page.
pub const PAGE_SIZE: usize = 4096;

/// Calibrated per-primitive costs, in nanoseconds unless noted.
///
/// The [`Default`] instance is the paper-testbed calibration; experiments
/// may override fields for ablations.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Acquiring an uncontended kernel mutex/spinlock.
    pub lock_ns: u64,
    /// A cache-missing pointer chase (DRAM access).
    pub cache_miss_ns: u64,
    /// Allocating a small kernel object (zone allocator hit).
    pub alloc_ns: u64,
    /// Entering/leaving the kernel at the syscall boundary.
    pub syscall_ns: u64,
    /// One interprocessor interrupt round trip used to force a core to the
    /// kernel boundary during quiesce (§5.1).
    pub ipi_ns: u64,
    /// Per-core cost of a TLB shootdown (system shadowing invalidates the
    /// TLB, §6).
    pub tlb_shootdown_ns: u64,
    /// Marking one PTE copy-on-write during shadowing (Table 5 slope).
    pub pte_cow_ns: u64,
    /// Installing one PTE on a soft page fault.
    pub pte_install_ns: u64,
    /// A soft page-fault trap (no IO): enter handler, walk chain head.
    pub page_fault_ns: u64,
    /// Copying one 4 KiB page (COW break or checkpoint gather).
    pub page_copy_ns: u64,
    /// CPU cost of encoding one byte into a checkpoint record.
    pub encode_byte_ns_x100: u64,
    /// Scanning one kevent when serializing a kqueue (Table 4: 1024 events
    /// in 35.2 µs ⇒ ~32 ns each).
    pub kevent_ns: u64,
    /// Scanning one entry of the global System V namespace (Table 4: SysV
    /// shm costs ~10 µs more than POSIX shm).
    pub sysv_scan_entry_ns: u64,
    /// Creating a device node in devfs (Table 4: pseudoterminal restore is
    /// dominated by this: ~30 µs).
    pub devfs_create_ns: u64,
    /// Fixed orchestration cost of a full/incremental checkpoint: the
    /// serialization barrier across the OS, per-checkpoint bookkeeping,
    /// and cross-core rendezvous (Table 5's ~185 µs floor).
    pub checkpoint_barrier_ns: u64,
    /// Fixed cost of an atomic single-region checkpoint (`sls_memckpt`):
    /// no OS-wide barrier, just the shadow + flush setup (Table 5's
    /// ~80 µs floor).
    pub memckpt_fixed_ns: u64,
    /// Bulk memory bandwidth for in-kernel copies, bytes/second.
    pub memcpy_bytes_per_sec: u64,
    /// Number of logical cores participating in IPIs/shootdowns.
    pub cores: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            lock_ns: 20,
            cache_miss_ns: 90,
            alloc_ns: 60,
            syscall_ns: 200,
            ipi_ns: 1_200,
            tlb_shootdown_ns: 1_500,
            pte_cow_ns: 22,
            pte_install_ns: 30,
            page_fault_ns: 1_100,
            page_copy_ns: 700,
            encode_byte_ns_x100: 18, // 0.18 ns/byte ≈ 5.5 GB/s encoder
            kevent_ns: 32,
            sysv_scan_entry_ns: 110,
            devfs_create_ns: 27_000,
            checkpoint_barrier_ns: 120_000,
            memckpt_fixed_ns: 60_000,
            memcpy_bytes_per_sec: 6_000_000_000,
            cores: 24, // dual Xeon Silver 4116 with hyperthreading = 48 HT, 24 phys
        }
    }
}

impl CostModel {
    /// Cost of copying `bytes` of memory.
    pub(crate) fn memcpy_ns(&self, bytes: u64) -> u64 {
        // Round up so tiny copies are never free.
        (bytes.saturating_mul(1_000_000_000)).div_ceil(self.memcpy_bytes_per_sec)
    }

    /// Cost of encoding `bytes` into a checkpoint record.
    pub(crate) fn encode_ns(&self, bytes: u64) -> u64 {
        (bytes * self.encode_byte_ns_x100).div_ceil(100)
    }

    /// Cost of quiescing a consistency group running on `threads` threads:
    /// one IPI per core plus the syscall-boundary drain.
    pub fn quiesce_ns(&self, threads: u64) -> u64 {
        let cores = threads.min(self.cores).max(1);
        cores * self.ipi_ns + threads * self.syscall_ns
    }

    /// Cost of a full TLB shootdown across the cores an address space runs
    /// on.
    pub fn shootdown_ns(&self, threads: u64) -> u64 {
        threads.min(self.cores).max(1) * self.tlb_shootdown_ns
    }
}

/// A cost accountant binding a [`CostModel`] to a [`Clock`].
///
/// Components take a `Charge` handle and call its methods as they execute
/// primitive operations; the handle advances the shared virtual clock.
///
/// The accountant also carries the session [`Trace`]: every subsystem that
/// can charge virtual time can reach the recorder through it, and charges
/// themselves feed per-kind aggregated histograms (`charge.locks`, …) when
/// tracing is enabled. Recording never advances the clock, so enabling the
/// trace cannot perturb a run's virtual timeline.
#[derive(Clone, Debug)]
pub struct Charge {
    clock: Clock,
    model: CostModel,
    trace: Trace,
}

impl Charge {
    /// Creates an accountant charging `model` costs to `clock`, with
    /// tracing disabled.
    pub fn new(clock: Clock, model: CostModel) -> Self {
        Self { clock, model, trace: Trace::disabled() }
    }

    /// The underlying clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The underlying model.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// The trace recorder this accountant reports to.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Installs a trace recorder (pass [`Trace::disabled`] to detach).
    pub fn set_trace(&mut self, trace: Trace) {
        self.trace = trace;
    }

    fn charged(&self, kind: &'static str, ns: u64) {
        self.clock.advance(ns);
        if self.trace.is_enabled() {
            self.trace.hist(kind, ns);
        }
    }

    /// Charges `n` lock acquisitions.
    pub fn locks(&self, n: u64) {
        self.charged("charge.locks", n * self.model.lock_ns);
    }

    /// Charges `n` cache-missing pointer chases.
    pub fn misses(&self, n: u64) {
        self.charged("charge.misses", n * self.model.cache_miss_ns);
    }

    /// Charges `n` small allocations.
    pub fn allocs(&self, n: u64) {
        self.charged("charge.allocs", n * self.model.alloc_ns);
    }

    /// Charges encoding `bytes` of record data.
    pub fn encode(&self, bytes: u64) {
        self.charged("charge.encode", self.model.encode_ns(bytes));
    }

    /// Charges copying `bytes` of memory.
    pub fn memcpy(&self, bytes: u64) {
        self.charged("charge.memcpy", self.model.memcpy_ns(bytes));
    }

    /// Charges an arbitrary raw duration (for model-specific costs).
    pub fn raw(&self, ns: u64) {
        self.charged("charge.raw", ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memcpy_rounds_up() {
        let m = CostModel::default();
        assert!(m.memcpy_ns(1) >= 1);
        // 6 GB/s ⇒ 4 KiB in ~683 ns.
        let page = m.memcpy_ns(PAGE_SIZE as u64);
        assert!((600..800).contains(&page), "page copy {page} ns");
    }

    #[test]
    fn table5_slope_matches_paper() {
        // 1 GiB of dirty pages should add ~5.8 ms of PTE COW marking,
        // matching Table 5's 6.1 ms incremental checkpoint.
        let m = CostModel::default();
        let pages = (1u64 << 30) / PAGE_SIZE as u64;
        let ns = pages * m.pte_cow_ns;
        assert!((4_000_000..8_000_000).contains(&ns), "slope {ns} ns");
    }

    #[test]
    fn charge_advances_clock() {
        let clock = Clock::new();
        let charge = Charge::new(clock.clone(), CostModel::default());
        charge.locks(2);
        charge.misses(1);
        assert_eq!(clock.now(), 2 * 20 + 90);
    }

    #[test]
    fn traced_charges_feed_histograms_without_extra_time() {
        let clock = Clock::new();
        let mut charge = Charge::new(clock.clone(), CostModel::default());
        charge.set_trace(Trace::recording({
            let c = clock.clone();
            move || c.now()
        }));
        charge.locks(2);
        charge.memcpy(4096);
        // Same clock advance as the untraced accountant.
        let plain_clock = Clock::new();
        let plain = Charge::new(plain_clock.clone(), CostModel::default());
        plain.locks(2);
        plain.memcpy(4096);
        assert_eq!(clock.now(), plain_clock.now());
        let hists = charge.trace().histograms();
        let names: Vec<&str> = hists.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["charge.locks", "charge.memcpy"]);
        assert_eq!(hists[0].1.count(), 1);
    }

    #[test]
    fn quiesce_scales_with_threads_up_to_cores() {
        let m = CostModel::default();
        assert!(m.quiesce_ns(4) < m.quiesce_ns(16));
        // Beyond the core count only the per-thread drain grows.
        let a = m.quiesce_ns(24);
        let b = m.quiesce_ns(48);
        assert_eq!(b - a, 24 * m.syscall_ns);
    }
}
