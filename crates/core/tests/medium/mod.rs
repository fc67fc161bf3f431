//! A machine whose store device logs every write, so a test can find the
//! extent a checkpoint's redo records went to and corrupt it on the
//! medium.

use std::sync::Arc;

use aurora_core::world::World;
use aurora_core::{AuroraApi, GroupId};
use aurora_posix::Pid;
use aurora_sim::sync::Mutex;
use aurora_sim::Clock;
use aurora_storage::device::{self, BlockDevice, Completion, SharedDevice};
use aurora_storage::{share, testbed_array};
use aurora_vm::{Prot, PAGE_SIZE};

/// `(lba, blocks)` of every device write, in issue order.
pub type WriteLog = Arc<Mutex<Vec<(u64, u64)>>>;

struct Logged {
    inner: SharedDevice,
    clock: Clock,
    log: WriteLog,
}

impl BlockDevice for Logged {
    fn block_size(&self) -> usize {
        self.inner.lock().block_size()
    }
    fn capacity_blocks(&self) -> u64 {
        self.inner.lock().capacity_blocks()
    }
    fn clock(&self) -> &Clock {
        &self.clock
    }
    fn read(&mut self, lba: u64, n: u64) -> device::Result<Vec<u8>> {
        self.inner.lock().read(lba, n)
    }
    fn read_from(&mut self, lba: u64, n: u64, at: u64) -> device::Result<(Vec<u8>, u64)> {
        self.inner.lock().read_from(lba, n, at)
    }
    fn write(&mut self, lba: u64, data: &[u8]) -> device::Result<Completion> {
        self.log.lock().push((lba, (data.len() / PAGE_SIZE) as u64));
        self.inner.lock().write(lba, data)
    }
    fn write_after(
        &mut self,
        lba: u64,
        data: &[u8],
        after: Completion,
    ) -> device::Result<Completion> {
        self.log.lock().push((lba, (data.len() / PAGE_SIZE) as u64));
        self.inner.lock().write_after(lba, data, after)
    }
    fn flush(&mut self) -> Completion {
        self.inner.lock().flush()
    }
    fn crash(&mut self) {
        self.inner.lock().crash();
    }
    fn bytes_written(&self) -> u64 {
        self.inner.lock().bytes_written()
    }
    fn geometry(&self) -> (u64, u64) {
        self.inner.lock().geometry()
    }
}

/// A testbed machine whose store device logs its writes.
pub fn logged_world() -> (World, WriteLog) {
    let clock = Clock::new();
    let log: WriteLog = Arc::new(Mutex::new(Vec::new()));
    let inner = testbed_array(&clock, 1 << 28);
    let dev = share(Logged { inner, clock: clock.clone(), log: log.clone() });
    (World::on(clock, dev), log)
}

/// One process with a `pages`-page region of distinct bytes, attached,
/// with a full checkpoint and then a delta one rewriting 64 bytes of
/// every page: its redo records share one packed extent. Returns the
/// process, the region, the group and that extent's first block.
pub fn image_with_a_packed_extent(
    w: &mut World,
    log: &WriteLog,
    pages: u64,
) -> (Pid, u64, GroupId, u64) {
    let k = &mut w.sls.kernel;
    let pid = k.spawn("packed");
    let addr = k.mmap_anon(pid, pages, Prot::RW).unwrap();
    let fill: Vec<u8> = (0..pages as usize * PAGE_SIZE).map(|i| (i * 7 % 253) as u8).collect();
    k.mem_write(pid, addr, &fill).unwrap();
    let gid = w.sls.attach(pid, Default::default()).unwrap();
    w.sls.sls_checkpoint(gid).unwrap();
    w.sls.sls_barrier(gid).unwrap();
    for pi in 0..pages {
        let at = addr + pi * PAGE_SIZE as u64 + 512;
        w.sls.kernel.mem_write(pid, at, &[pi as u8 ^ 0xA5; 64]).unwrap();
    }
    let mark = log.lock().len();
    w.sls.sls_checkpoint(gid).unwrap();
    w.sls.sls_barrier(gid).unwrap();
    // The data region lies above the metadata log: the highest write is
    // the extent, not the commit record.
    let extent = log.lock()[mark..].iter().map(|&(lba, _)| lba).max().unwrap();
    (pid, addr, gid, extent)
}

/// Flips a byte of the first record in the packed extent at `lba`.
pub fn corrupt_first_record(w: &World, lba: u64) {
    let dev = w.sls.store().lock().device().clone();
    let mut dev = dev.lock();
    let mut block = dev.read(lba, 1).unwrap();
    block[20] ^= 0x40;
    dev.write(lba, &block).unwrap();
    dev.flush();
}
