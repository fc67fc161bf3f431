//! Simulated storage for the Aurora reproduction.
//!
//! The paper's testbed stores checkpoints on four Intel Optane 900P PCIe
//! NVMe devices striped at 64 KiB. This crate models that storage:
//!
//! * [`device::BlockDevice`] — the device interface. Reads are
//!   synchronous (they advance the shared virtual clock); writes are
//!   asynchronous (they return a completion time) because Aurora flushes
//!   checkpoints concurrently with application execution (§6).
//! * [`nvme::NvmeDevice`] — an in-memory device with an Optane-like
//!   latency/bandwidth model and honest crash semantics: a crash drops
//!   every write that had not yet completed.
//! * [`raid::Raid0`] — stripes several devices, the testbed's layout.
//! * [`raid1::Raid1`] — mirrors two striped halves, each member one
//!   record of device, health ladder and stale set, with read failover
//!   and online scrub/rebuild — the degraded-mode layer.

pub mod device;
pub mod faulty;
pub mod health;
pub mod nvme;
pub mod raid;
pub mod raid1;

pub use device::{share, BlockDevice, Completion, DeviceError, QueueStats, SharedDevice};
pub use faulty::{FaultHandle, FaultPlan, FaultyDevice};
pub use health::{HealthReport, HealthState};
pub use nvme::{NvmeDevice, NvmeParams};
pub use raid::Raid0;
pub use raid1::{MirrorHandle, Raid1, ScrubReport};

use aurora_sim::Clock;

/// `devices` NVMe devices of `per_device_bytes` each, striped at 64 KiB
/// on `clock` — the stripe under every testbed array.
fn stripe(clock: &Clock, devices: usize, params: NvmeParams, per_device_bytes: u64) -> Raid0 {
    let devices: Vec<Box<dyn BlockDevice + Send>> = (0..devices)
        .map(|_| {
            Box::new(NvmeDevice::new(clock.clone(), params, per_device_bytes))
                as Box<dyn BlockDevice + Send>
        })
        .collect();
    Raid0::new(devices, 64 * 1024).expect("testbed raid config is valid")
}

/// Builds the paper's testbed array: four Optane-like devices striped at
/// 64 KiB, sharing `clock`.
pub fn testbed_array(clock: &Clock, per_device_bytes: u64) -> SharedDevice {
    share(stripe(clock, 4, NvmeParams::optane_900p(), per_device_bytes))
}

/// A TLC-NAND variant of the testbed: four commodity flash devices
/// (`NvmeParams::tlc_nand`) striped at 64 KiB. Used by the group
/// scaling benchmarks, where the latency-bound durability point (rather
/// than Optane's microsecond commits) is what a checkpoint scheduler
/// has to hide.
pub fn nand_testbed_array(clock: &Clock, per_device_bytes: u64) -> SharedDevice {
    share(stripe(clock, 4, NvmeParams::tlc_nand(), per_device_bytes))
}

/// Like [`testbed_array`], but wrapped in a [`FaultyDevice`] armed with
/// `plan`. The handle re-arms and disarms the faults.
pub fn faulty_testbed_array(
    clock: &Clock,
    per_device_bytes: u64,
    plan: FaultPlan,
) -> (SharedDevice, FaultHandle) {
    let raid = stripe(clock, 4, NvmeParams::optane_900p(), per_device_bytes);
    let dev = FaultyDevice::new(Box::new(raid), plan);
    let handle = dev.handle();
    (share(dev), handle)
}

/// The degraded-mode testbed: a [`Raid1`] mirror whose two members are
/// each a fault-injectable two-way [`Raid0`] stripe of Optane-like
/// devices (total logical capacity `2 * per_device_bytes`). Returns the
/// array and the mirror control handle (fail/revive/rebuild/scrub, and
/// each member's fault injector).
pub fn mirrored_testbed_array(clock: &Clock, per_device_bytes: u64) -> (SharedDevice, MirrorHandle) {
    let half = || stripe(clock, 2, NvmeParams::optane_900p(), per_device_bytes);
    let (mirror, handle) = Raid1::new(vec![half(), half()]).expect("mirror config is valid");
    (share(mirror), handle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_array_has_expected_geometry() {
        let clock = Clock::new();
        let dev = testbed_array(&clock, 1 << 30);
        let dev = dev.lock();
        assert_eq!(dev.block_size(), 4096);
        assert_eq!(dev.capacity_blocks(), 4 * ((1u64 << 30) / 4096));
    }

    #[test]
    fn mirrored_testbed_array_reports_health_through_the_device() {
        let clock = Clock::new();
        let (dev, handle) = mirrored_testbed_array(&clock, 1 << 24);
        assert_eq!(handle.members(), 2);
        {
            let dev = dev.lock();
            assert_eq!(dev.capacity_blocks(), 2 * ((1u64 << 24) / 4096));
            let report = dev.health_report();
            assert_eq!(report.member_states.len(), 2);
            assert_eq!(report.degraded_members(), 0);
        }
        handle.fail_mirror(1);
        assert_eq!(dev.lock().health_report().degraded_members(), 1);
        assert!(dev.lock().health_report().is_degraded());
    }
}
