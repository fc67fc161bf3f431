//! An in-memory NVMe device with an Optane-like performance model and
//! honest crash semantics.

use crate::device::{BlockDevice, Completion, DeviceError, QueueStats, Result};
use aurora_sim::Clock;
use aurora_trace::Trace;
use std::collections::HashMap;

/// Performance parameters of one NVMe device.
#[derive(Clone, Copy, Debug)]
pub struct NvmeParams {
    /// Latency added to every read command, ns.
    pub read_latency_ns: u64,
    /// Latency added to every write command, ns.
    pub write_latency_ns: u64,
    /// Sustained read bandwidth, bytes/second.
    pub read_bw: u64,
    /// Sustained write bandwidth, bytes/second.
    pub write_bw: u64,
}

impl NvmeParams {
    /// Intel Optane 900P: ~10 µs access latency, ~2.5 GB/s read,
    /// ~2.2 GB/s write.
    pub fn optane_900p() -> Self {
        Self {
            read_latency_ns: 10_000,
            write_latency_ns: 10_000,
            read_bw: 2_500_000_000,
            write_bw: 2_200_000_000,
        }
    }

    /// A RAM-speed "device" for in-memory checkpoints (Table 6's "Mem"
    /// rows: checkpoints not flushed to disk).
    pub fn ramdisk() -> Self {
        Self {
            read_latency_ns: 200,
            write_latency_ns: 200,
            read_bw: 20_000_000_000,
            write_bw: 20_000_000_000,
        }
    }

    /// A commodity datacenter TLC-NAND SSD: reads served from the
    /// mapping cache at ~80 µs, writes paying the flash program time
    /// (~500 µs to the durability point — TLC page program plus
    /// controller batching), ~2.0 / 1.6 GB/s streaming. The interesting
    /// contrast to Optane for checkpoint scheduling: commits are
    /// latency-bound, so overlapping many groups' flushes hides most of
    /// the wait.
    pub(crate) fn tlc_nand() -> Self {
        Self {
            read_latency_ns: 80_000,
            write_latency_ns: 500_000,
            read_bw: 2_000_000_000,
            write_bw: 1_600_000_000,
        }
    }

    /// A spinning disk, for the EROS-era contrast in ablations: ~8 ms
    /// seek + rotational latency, ~150 MB/s streaming.
    pub fn spinning_disk() -> Self {
        Self {
            read_latency_ns: 8_000_000,
            write_latency_ns: 8_000_000,
            read_bw: 150_000_000,
            write_bw: 150_000_000,
        }
    }
}

/// The device block size used throughout the reproduction.
pub const BLOCK_SIZE: usize = 4096;

/// An in-memory simulated NVMe device.
///
/// Writes are queued: data is immediately visible to reads (device-side
/// buffering) but only durable once the modelled transfer completes. A
/// [`crash`](BlockDevice::crash) reverts every non-durable write, which is
/// what the object store's recovery tests rely on.
pub struct NvmeDevice {
    clock: Clock,
    params: NvmeParams,
    capacity_blocks: u64,
    /// Durable contents. Missing blocks read as zeros.
    durable: HashMap<u64, Box<[u8]>>,
    /// Buffered (visible, not yet durable) writes: lba → (done_at, data).
    buffered: HashMap<u64, (u64, Box<[u8]>)>,
    /// The device pipeline: time the channel is busy until.
    busy_until: u64,
    bytes_written: u64,
    trace: Trace,
}

impl NvmeDevice {
    /// Creates a device of `bytes` capacity on `clock`.
    pub fn new(clock: Clock, params: NvmeParams, bytes: u64) -> Self {
        assert!(bytes >= BLOCK_SIZE as u64, "device too small");
        Self {
            clock,
            params,
            capacity_blocks: bytes / BLOCK_SIZE as u64,
            durable: HashMap::new(),
            buffered: HashMap::new(),
            busy_until: 0,
            bytes_written: 0,
            trace: Trace::disabled(),
        }
    }

    fn check(&self, lba: u64, nblocks: u64) -> Result<()> {
        if lba + nblocks > self.capacity_blocks {
            return Err(DeviceError::OutOfRange { lba, nblocks, capacity: self.capacity_blocks });
        }
        Ok(())
    }

    /// Moves buffered writes that have completed into the durable map.
    fn settle(&mut self) {
        let now = self.clock.now();
        let done: Vec<u64> = self
            .buffered
            .iter()
            .filter(|(_, (t, _))| *t <= now)
            .map(|(lba, _)| *lba)
            .collect();
        for lba in done {
            let (_, data) = self.buffered.remove(&lba).expect("just found");
            self.durable.insert(lba, data);
        }
    }

    fn transfer_ns(&self, bytes: u64, bw: u64) -> u64 {
        bytes.saturating_mul(1_000_000_000).div_ceil(bw)
    }

    /// The one write path. Pipelined model: the transfer occupies the
    /// channel at its next free slot and the fixed latency overlaps the
    /// next command. An ordered write (`after`) cannot complete before
    /// its barrier, but NVMe queues are out of order, so the barrier
    /// delays only this command — the channel stays available to
    /// independent commands rather than stalling head-of-line.
    fn queue_write(&mut self, lba: u64, data: &[u8], after: Option<Completion>) -> Result<Completion> {
        if data.is_empty() || !data.len().is_multiple_of(BLOCK_SIZE) {
            return Err(DeviceError::Misaligned { len: data.len(), block_size: BLOCK_SIZE });
        }
        let nblocks = (data.len() / BLOCK_SIZE) as u64;
        self.check(lba, nblocks)?;
        self.settle();
        let transfer = self.transfer_ns(data.len() as u64, self.params.write_bw);
        let chan = self.clock.now().max(self.busy_until);
        let start = chan.max(after.map_or(0, |a| a.done_at));
        let done = start + self.params.write_latency_ns + transfer;
        self.busy_until = chan + transfer;
        for i in 0..nblocks {
            let off = i as usize * BLOCK_SIZE;
            let block: Box<[u8]> = data[off..off + BLOCK_SIZE].into();
            self.buffered.insert(lba + i, (done, block));
        }
        self.bytes_written += data.len() as u64;
        if self.trace.is_enabled() {
            let (dur, args) = (done - start, [("lba", lba), ("nblocks", nblocks)]);
            match after {
                None => self.trace.complete("storage", "nvme.write", start, dur, &args),
                Some(a) => self.trace.complete(
                    "storage",
                    "nvme.write_after",
                    start,
                    dur,
                    &[args[0], args[1], ("barrier", a.done_at)],
                ),
            }
        }
        Ok(Completion { done_at: done })
    }
}

impl BlockDevice for NvmeDevice {
    fn block_size(&self) -> usize {
        BLOCK_SIZE
    }

    fn capacity_blocks(&self) -> u64 {
        self.capacity_blocks
    }

    fn clock(&self) -> &Clock {
        &self.clock
    }

    fn read(&mut self, lba: u64, nblocks: u64) -> Result<Vec<u8>> {
        let now = self.clock.now();
        let (data, done) = self.read_from(lba, nblocks, now)?;
        self.clock.advance_to(done);
        self.settle();
        Ok(data)
    }

    fn read_from(&mut self, lba: u64, nblocks: u64, issue_at: u64) -> Result<(Vec<u8>, u64)> {
        self.check(lba, nblocks)?;
        let mut out = vec![0u8; nblocks as usize * BLOCK_SIZE];
        for i in 0..nblocks {
            let src = self
                .buffered
                .get(&(lba + i))
                .map(|(_, d)| &d[..])
                .or_else(|| self.durable.get(&(lba + i)).map(|d| &d[..]));
            if let Some(src) = src {
                let off = i as usize * BLOCK_SIZE;
                out[off..off + BLOCK_SIZE].copy_from_slice(src);
            }
        }
        // The read shares the channel with in-flight writes.
        let start = issue_at.max(self.busy_until);
        let done = start
            + self.params.read_latency_ns
            + self.transfer_ns(nblocks * BLOCK_SIZE as u64, self.params.read_bw);
        self.busy_until = done.saturating_sub(self.params.read_latency_ns);
        if self.trace.is_enabled() {
            self.trace.complete(
                "storage",
                "nvme.read",
                start,
                done - start,
                &[("lba", lba), ("nblocks", nblocks)],
            );
        }
        Ok((out, done))
    }

    fn write(&mut self, lba: u64, data: &[u8]) -> Result<Completion> {
        self.queue_write(lba, data, None)
    }

    fn write_after(&mut self, lba: u64, data: &[u8], after: Completion) -> Result<Completion> {
        self.queue_write(lba, data, Some(after))
    }

    fn flush(&mut self) -> Completion {
        let last = self.buffered.values().map(|(t, _)| *t).max().unwrap_or(self.clock.now());
        self.clock.advance_to(last);
        self.settle();
        Completion { done_at: last }
    }

    fn crash(&mut self) {
        self.settle();
        self.buffered.clear();
    }

    fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    fn set_trace(&mut self, trace: Trace) {
        self.trace = trace;
    }

    fn queue_stats(&self) -> QueueStats {
        // Buffered blocks whose completion is still in the future are the
        // in-flight queue; already-completed ones are just unsettled.
        let now = self.clock.now();
        let depth = self.buffered.values().filter(|(t, _)| *t > now).count() as u64;
        QueueStats { depth, bytes_in_flight: depth * BLOCK_SIZE as u64 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> NvmeDevice {
        NvmeDevice::new(Clock::new(), NvmeParams::optane_900p(), 1 << 24)
    }

    #[test]
    fn write_then_read_roundtrips() {
        let mut d = dev();
        let data = vec![7u8; BLOCK_SIZE * 2];
        d.write(3, &data).unwrap();
        assert_eq!(d.read(3, 2).unwrap(), data);
    }

    #[test]
    fn unwritten_blocks_read_zero() {
        let mut d = dev();
        assert_eq!(d.read(0, 1).unwrap(), vec![0u8; BLOCK_SIZE]);
    }

    #[test]
    fn write_is_async_flush_waits() {
        let mut d = dev();
        let t0 = d.clock().now();
        let c = d.write(0, &vec![1u8; BLOCK_SIZE]).unwrap();
        assert_eq!(d.clock().now(), t0, "write must not advance the clock");
        assert!(c.done_at > t0);
        let f = d.flush();
        assert_eq!(d.clock().now(), f.done_at);
        assert_eq!(f.done_at, c.done_at);
    }

    #[test]
    fn crash_loses_unflushed_writes() {
        let mut d = dev();
        d.write(0, &vec![1u8; BLOCK_SIZE]).unwrap();
        d.flush();
        d.write(0, &vec![2u8; BLOCK_SIZE]).unwrap();
        d.crash(); // the second write never became durable
        assert_eq!(d.read(0, 1).unwrap(), vec![1u8; BLOCK_SIZE]);
    }

    #[test]
    fn crash_preserves_completed_writes() {
        let mut d = dev();
        let c = d.write(0, &vec![9u8; BLOCK_SIZE]).unwrap();
        d.clock().advance_to(c.done_at);
        d.crash();
        assert_eq!(d.read(0, 1).unwrap(), vec![9u8; BLOCK_SIZE]);
    }

    #[test]
    fn bandwidth_model_is_plausible() {
        // 1 GiB written to one Optane-like device should take ~0.49 s.
        let mut d = NvmeDevice::new(Clock::new(), NvmeParams::optane_900p(), 2 << 30);
        let chunk = vec![0u8; 1 << 20];
        let mut last = Completion::immediate(0);
        for i in 0..1024u64 {
            last = last.join(d.write(i * 256, &chunk).unwrap());
        }
        let sec = last.done_at as f64 / 1e9;
        assert!((0.4..0.6).contains(&sec), "1 GiB took {sec} s");
    }

    #[test]
    fn out_of_range_rejected() {
        let mut d = dev();
        let cap = d.capacity_blocks();
        assert!(matches!(d.write(cap, &vec![0u8; BLOCK_SIZE]), Err(DeviceError::OutOfRange { .. })));
        assert!(matches!(d.read(cap - 1, 2), Err(DeviceError::OutOfRange { .. })));
    }

    #[test]
    fn misaligned_write_rejected() {
        let mut d = dev();
        assert!(matches!(d.write(0, &[0u8; 100]), Err(DeviceError::Misaligned { .. })));
    }

    #[test]
    fn queue_stats_track_inflight_writes() {
        let mut d = dev();
        assert_eq!(d.queue_stats(), QueueStats::default());
        let c = d.write(0, &vec![1u8; BLOCK_SIZE * 2]).unwrap();
        let q = d.queue_stats();
        assert_eq!(q.depth, 2);
        assert_eq!(q.bytes_in_flight, 2 * BLOCK_SIZE as u64);
        d.clock().advance_to(c.done_at);
        assert_eq!(d.queue_stats().depth, 0, "durable writes leave the queue");
    }

    #[test]
    fn reads_see_buffered_writes() {
        let mut d = dev();
        d.write(5, &vec![3u8; BLOCK_SIZE]).unwrap();
        // Not yet durable, but visible.
        assert_eq!(d.read(5, 1).unwrap(), vec![3u8; BLOCK_SIZE]);
    }
}
