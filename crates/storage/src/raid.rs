//! RAID-0 striping across several devices — the testbed's 4×64 KiB layout.

use crate::device::{BlockDevice, Completion, DeviceError, Result};
use aurora_sim::Clock;

/// A RAID-0 (striping) array over homogeneous devices.
///
/// Logical blocks are distributed round-robin in stripe-sized units, so a
/// large sequential write engages every member device in parallel — the
/// source of the testbed's ~4× single-device bandwidth.
pub struct Raid0 {
    devices: Vec<Box<dyn BlockDevice + Send>>,
    /// Stripe unit in blocks.
    stripe_blocks: u64,
    block_size: usize,
    capacity_blocks: u64,
}

impl Raid0 {
    /// Creates a stripe set with a `stripe_bytes` unit (e.g. 64 KiB).
    ///
    /// Returns [`DeviceError::BadConfig`] for a zero-device or
    /// zero-stripe configuration, a stripe that is not a whole number of
    /// blocks, or heterogeneous members.
    pub fn new(devices: Vec<Box<dyn BlockDevice + Send>>, stripe_bytes: usize) -> Result<Self> {
        if devices.is_empty() {
            return Err(DeviceError::BadConfig { reason: "raid0 needs at least one device" });
        }
        let block_size = devices[0].block_size();
        if stripe_bytes == 0 || !stripe_bytes.is_multiple_of(block_size) {
            return Err(DeviceError::BadConfig {
                reason: "stripe must be a non-zero whole number of blocks",
            });
        }
        let per_dev = devices[0].capacity_blocks();
        for d in &devices {
            if d.block_size() != block_size {
                return Err(DeviceError::BadConfig { reason: "heterogeneous block sizes" });
            }
            if d.capacity_blocks() != per_dev {
                return Err(DeviceError::BadConfig { reason: "heterogeneous capacities" });
            }
        }
        let capacity_blocks = per_dev * devices.len() as u64;
        Ok(Self {
            devices,
            stripe_blocks: (stripe_bytes / block_size) as u64,
            block_size,
            capacity_blocks,
        })
    }

    /// Maps a logical block to `(device index, device-local block)`.
    fn map(&self, lba: u64) -> (usize, u64) {
        let stripe = lba / self.stripe_blocks;
        let within = lba % self.stripe_blocks;
        let ndev = self.devices.len() as u64;
        let dev = (stripe % ndev) as usize;
        let dev_stripe = stripe / ndev;
        (dev, dev_stripe * self.stripe_blocks + within)
    }

    /// Splits `[lba, lba+nblocks)` into runs contiguous on one device.
    fn runs(&self, lba: u64, nblocks: u64) -> Vec<(usize, u64, u64, u64)> {
        // (device, device lba, logical offset blocks, run blocks)
        let mut out = Vec::new();
        let mut off = 0;
        while off < nblocks {
            let cur = lba + off;
            let (dev, dev_lba) = self.map(cur);
            let left_in_stripe = self.stripe_blocks - (cur % self.stripe_blocks);
            let run = left_in_stripe.min(nblocks - off);
            out.push((dev, dev_lba, off, run));
            off += run;
        }
        out
    }

    /// The one write path: each per-member run is issued as its own
    /// (possibly ordered) command, and the stripe is durable when the
    /// slowest run is.
    fn striped_write(&mut self, lba: u64, data: &[u8], after: Option<Completion>) -> Result<Completion> {
        if data.is_empty() || !data.len().is_multiple_of(self.block_size) {
            return Err(DeviceError::Misaligned { len: data.len(), block_size: self.block_size });
        }
        let nblocks = (data.len() / self.block_size) as u64;
        if lba + nblocks > self.capacity_blocks {
            return Err(DeviceError::OutOfRange { lba, nblocks, capacity: self.capacity_blocks });
        }
        let mut completion = Completion::immediate(self.clock().now());
        for (dev, dev_lba, off, run) in self.runs(lba, nblocks) {
            let byte_off = off as usize * self.block_size;
            let chunk = &data[byte_off..byte_off + run as usize * self.block_size];
            let c = match after {
                Some(a) => self.devices[dev].write_after(dev_lba, chunk, a)?,
                None => self.devices[dev].write(dev_lba, chunk)?,
            };
            completion = completion.join(c);
        }
        Ok(completion)
    }
}

impl BlockDevice for Raid0 {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn capacity_blocks(&self) -> u64 {
        self.capacity_blocks
    }

    fn clock(&self) -> &Clock {
        self.devices[0].clock()
    }

    fn read(&mut self, lba: u64, nblocks: u64) -> Result<Vec<u8>> {
        let now = self.clock().now();
        let (data, done) = self.read_from(lba, nblocks, now)?;
        self.clock().advance_to(done);
        Ok(data)
    }

    fn read_from(&mut self, lba: u64, nblocks: u64, issue_at: u64) -> Result<(Vec<u8>, u64)> {
        if lba + nblocks > self.capacity_blocks {
            return Err(DeviceError::OutOfRange { lba, nblocks, capacity: self.capacity_blocks });
        }
        // Member reads are issued in parallel; the stripe completes when
        // the slowest member does.
        let mut out = vec![0u8; (nblocks as usize) * self.block_size];
        let mut done = issue_at;
        for (dev, dev_lba, off, run) in self.runs(lba, nblocks) {
            let (data, d) = self.devices[dev].read_from(dev_lba, run, issue_at)?;
            let byte_off = off as usize * self.block_size;
            out[byte_off..byte_off + data.len()].copy_from_slice(&data);
            done = done.max(d);
        }
        Ok((out, done))
    }

    fn write(&mut self, lba: u64, data: &[u8]) -> Result<Completion> {
        self.striped_write(lba, data, None)
    }

    fn write_after(&mut self, lba: u64, data: &[u8], after: Completion) -> Result<Completion> {
        self.striped_write(lba, data, Some(after))
    }

    fn flush(&mut self) -> Completion {
        let mut completion = Completion::immediate(self.clock().now());
        for d in &mut self.devices {
            completion = completion.join(d.flush());
        }
        self.clock().advance_to(completion.done_at);
        completion
    }

    fn crash(&mut self) {
        for d in &mut self.devices {
            d.crash();
        }
    }

    fn bytes_written(&self) -> u64 {
        self.devices.iter().map(|d| d.bytes_written()).sum()
    }

    fn geometry(&self) -> (u64, u64) {
        (self.devices.len() as u64, self.stripe_blocks)
    }

    fn set_trace(&mut self, trace: aurora_trace::Trace) {
        // Instrumentation lives in the leaves: each member reports its own
        // I/O, so parallel stripe traffic shows up as overlapping spans.
        for d in &mut self.devices {
            d.set_trace(trace.clone());
        }
    }

    fn queue_stats(&self) -> crate::device::QueueStats {
        self.devices
            .iter()
            .fold(crate::device::QueueStats::default(), |acc, d| acc.merge(d.queue_stats()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nvme::{NvmeDevice, NvmeParams, BLOCK_SIZE};

    fn array(n: usize) -> Raid0 {
        let clock = Clock::new();
        let devices: Vec<Box<dyn BlockDevice + Send>> = (0..n)
            .map(|_| {
                Box::new(NvmeDevice::new(clock.clone(), NvmeParams::optane_900p(), 1 << 26))
                    as Box<dyn BlockDevice + Send>
            })
            .collect();
        Raid0::new(devices, 64 * 1024).unwrap()
    }

    fn one_device() -> Vec<Box<dyn BlockDevice + Send>> {
        let clock = Clock::new();
        vec![Box::new(NvmeDevice::new(clock, NvmeParams::optane_900p(), 1 << 26))
            as Box<dyn BlockDevice + Send>]
    }

    #[test]
    fn constructor_rejects_bad_configs_structurally() {
        let err = Raid0::new(Vec::new(), 64 * 1024).err().expect("zero devices must fail");
        assert!(matches!(err, DeviceError::BadConfig { .. }), "{err}");
        assert!(!err.is_transient());

        let err = Raid0::new(one_device(), 0).err().expect("zero stripe must fail");
        assert!(matches!(err, DeviceError::BadConfig { .. }), "{err}");

        let err = Raid0::new(one_device(), 100).err().expect("sub-block stripe must fail");
        assert!(matches!(err, DeviceError::BadConfig { .. }), "{err}");

        assert!(Raid0::new(one_device(), 64 * 1024).is_ok());
    }

    #[test]
    fn constructor_rejects_heterogeneous_members() {
        let clock = Clock::new();
        let devices: Vec<Box<dyn BlockDevice + Send>> = vec![
            Box::new(NvmeDevice::new(clock.clone(), NvmeParams::optane_900p(), 1 << 26)),
            Box::new(NvmeDevice::new(clock, NvmeParams::optane_900p(), 1 << 27)),
        ];
        let err = Raid0::new(devices, 64 * 1024).err().expect("mixed capacities must fail");
        assert!(matches!(err, DeviceError::BadConfig { reason } if reason.contains("capacit")));
    }

    #[test]
    fn roundtrip_across_stripe_boundaries() {
        let mut a = array(4);
        // 256 KiB spans all four stripes.
        let data: Vec<u8> = (0..256 * 1024).map(|i| (i % 251) as u8).collect();
        a.write(10, &data).unwrap();
        assert_eq!(a.read(10, data.len() as u64 / BLOCK_SIZE as u64).unwrap(), data);
    }

    #[test]
    fn striping_multiplies_write_bandwidth() {
        // The same 64 MiB written to 1 vs 4 devices should finish ~4× faster.
        let t_one = {
            let mut a = array(1);
            a.write(0, &vec![0u8; 64 << 20]).unwrap();
            a.flush().done_at
        };
        let t_four = {
            let mut a = array(4);
            a.write(0, &vec![0u8; 64 << 20]).unwrap();
            a.flush().done_at
        };
        let speedup = t_one as f64 / t_four as f64;
        assert!((3.0..5.0).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    fn mapping_is_a_bijection() {
        let a = array(4);
        let mut seen = std::collections::HashSet::new();
        for lba in 0..4096u64 {
            assert!(seen.insert(a.map(lba)), "duplicate mapping for {lba}");
        }
    }

    #[test]
    fn queue_stats_aggregate_members() {
        let mut a = array(4);
        // 256 KiB spans every member: each gets 16 in-flight blocks.
        a.write(0, &vec![0u8; 256 * 1024]).unwrap();
        let q = a.queue_stats();
        assert_eq!(q.depth, 64);
        assert_eq!(q.bytes_in_flight, 256 * 1024);
        a.flush();
        assert_eq!(a.queue_stats().depth, 0);
    }

    #[test]
    fn crash_propagates_to_members() {
        let mut a = array(2);
        a.write(0, &vec![1u8; BLOCK_SIZE]).unwrap();
        a.flush();
        a.write(0, &vec![2u8; BLOCK_SIZE]).unwrap();
        a.crash();
        assert_eq!(a.read(0, 1).unwrap(), vec![1u8; BLOCK_SIZE]);
    }
}
