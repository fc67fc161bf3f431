//! A pre-wired machine for examples and quickstarts: kernel + testbed
//! store + SLS on one virtual clock.

use crate::{Sls, SlsError};
use aurora_objstore::ObjectStore;
use aurora_posix::{Kernel, Pid};
use aurora_sim::cost::Charge;
use aurora_sim::{Clock, CostModel};
use aurora_storage::faulty::{FaultHandle, FaultPlan};
use aurora_storage::raid1::MirrorHandle;
use aurora_storage::{
    faulty_testbed_array, mirrored_testbed_array, nand_testbed_array, testbed_array, SharedDevice,
};
use aurora_vm::{Prot, PAGE_SIZE};

/// A simulated machine running the Aurora single level store.
pub struct World {
    /// The SLS (owns the kernel; applications run against
    /// `world.sls.kernel`).
    pub sls: Sls,
    /// The shared virtual clock.
    pub clock: Clock,
}

impl World {
    /// Boots the paper's testbed: 4× Optane-like devices striped at
    /// 64 KiB (2 GiB each), default cost calibration.
    pub fn quickstart() -> Self {
        Self::with_store_bytes(2 << 30)
    }

    /// Boots with `bytes` per store device.
    pub fn with_store_bytes(bytes: u64) -> Self {
        Self::with_store_bytes_on(Clock::new(), bytes)
    }

    /// Boots a machine on `clock` over a fresh store formatted on
    /// `device` — the one place kernel, store and SLS are wired together.
    pub fn on(clock: Clock, device: SharedDevice) -> Self {
        let model = CostModel::default();
        let kernel = Kernel::new(clock.clone(), model.clone());
        let store = ObjectStore::format(device, Charge::new(clock.clone(), model), 64 * 1024)
            .expect("format fresh store");
        Self { sls: Sls::new(kernel, store), clock }
    }

    /// Boots with `bytes` per store device on an existing virtual
    /// clock — how `aurora-cluster` puts N machines in one discrete-event
    /// timeline: every node's kernel, store, and device stack charge the
    /// same clock, so cross-node message timings compose with local I/O.
    pub fn with_store_bytes_on(clock: Clock, bytes: u64) -> Self {
        let dev = testbed_array(&clock, bytes);
        Self::on(clock, dev)
    }

    /// Boots with `bytes` per TLC-NAND store device
    /// ([`aurora_storage::nand_testbed_array`]): the latency-bound
    /// storage profile the checkpoint scheduler benchmarks run against.
    pub fn with_nand_store_bytes(bytes: u64) -> Self {
        let clock = Clock::new();
        let dev = nand_testbed_array(&clock, bytes);
        Self::on(clock, dev)
    }

    /// Boots with `bytes` per store device behind a fault-injecting
    /// device wrapper, returning the handle that arms and inspects the
    /// fault plan (crash-recovery and degraded-mode tests).
    pub fn with_faulty_store(bytes: u64, plan: FaultPlan) -> (Self, FaultHandle) {
        let clock = Clock::new();
        let (dev, handle) = faulty_testbed_array(&clock, bytes, plan);
        (Self::on(clock, dev), handle)
    }

    /// Boots the degraded-mode testbed: a two-way mirror whose members
    /// are each a fault-injectable two-way stripe, `bytes` per leaf
    /// device (logical capacity `2 * bytes`). Returns the machine and the
    /// mirror control handle (fail/revive/rebuild/scrub, and each
    /// member's fault injector for storms).
    pub fn with_mirrored_store(bytes: u64) -> (Self, MirrorHandle) {
        let clock = Clock::new();
        let (dev, mirror) = mirrored_testbed_array(&clock, bytes);
        (Self::on(clock, dev), mirror)
    }

    /// Turns on tracing for the whole machine, stamping every event with
    /// the shared virtual clock. Returns the recording handle; export it
    /// with [`aurora_trace::chrome::export`] or read it back directly.
    pub fn enable_tracing(&mut self) -> aurora_trace::Trace {
        let clock = self.clock.clone();
        let trace = aurora_trace::Trace::recording(move || clock.now());
        self.sls.install_trace(trace.clone());
        trace
    }

    /// Turns on the virtual-time metrics sampler (gauge rows at most
    /// once per `period_ns`). Returns the series handle for exporters
    /// ([`aurora_trace::Sampler::series_json`] /
    /// [`prometheus_text`](aurora_trace::Sampler::prometheus_text)).
    pub fn enable_sampling(&mut self, period_ns: u64) -> aurora_trace::Sampler {
        self.sls.install_sampler(period_ns)
    }

    /// Spawns a toy application: one process with a 16-page counter
    /// region at a known address. Returns its pid.
    pub fn spawn_counter_app(&mut self) -> Pid {
        let pid = self.sls.kernel.spawn("counter");
        let addr = self
            .sls
            .kernel
            .mmap_anon(pid, 16, Prot::RW)
            .expect("map counter region");
        self.sls.kernel.mem_write(pid, addr, &0u64.to_le_bytes()).expect("init counter");
        pid
    }

    /// Increments the counter app's counter (first mapping, first bytes).
    pub fn bump_counter(&mut self, pid: Pid) -> Result<u64, SlsError> {
        let space = self.sls.kernel.proc(pid)?.space;
        let addr = self.sls.kernel.vm.entries(space)?[0].start;
        let mut buf = [0u8; 8];
        self.sls.kernel.mem_read(pid, addr, &mut buf)?;
        let v = u64::from_le_bytes(buf) + 1;
        self.sls.kernel.mem_write(pid, addr, &v.to_le_bytes())?;
        Ok(v)
    }

    /// Reads the counter app's counter.
    pub fn read_counter(&mut self, pid: Pid) -> Result<u64, SlsError> {
        let space = self.sls.kernel.proc(pid)?.space;
        let addr = self.sls.kernel.vm.entries(space)?[0].start;
        let mut buf = [0u8; 8];
        self.sls.kernel.mem_read(pid, addr, &mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Dirty a contiguous region of a process (benchmark helper).
    pub fn dirty_region(&mut self, pid: Pid, pages: u64) -> Result<u64, SlsError> {
        let addr = self.sls.kernel.mmap_anon(pid, pages, Prot::RW)?;
        self.sls.kernel.mem_touch(pid, addr, pages * PAGE_SIZE as u64)?;
        Ok(addr)
    }
}
