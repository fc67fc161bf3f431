//! One simulated machine, built by hand the way
//! `table6_applications.rs` does (`Kernel::new`, `ObjectStore::format`,
//! `Sls::new` over `testbed_array`), with the benchmark's device wrapper
//! between the store and the array.

use crate::device::{DevTap, TapDevice};
use crate::spans::SpanLog;
use aurora_core::Sls;
use aurora_objstore::ObjectStore;
use aurora_posix::Kernel;
use aurora_sim::cost::Charge;
use aurora_sim::{Clock, CostModel};
use aurora_storage::{share, testbed_array};

/// Bytes per member device of the testbed array. The device model is
/// sparse, so capacity costs nothing; it only has to outlast the
/// bump-allocated redo extents of the longest run.
pub const PER_DEVICE_BYTES: u64 = 8 << 30;

/// Metadata-log blocks (the value every in-tree harness formats with).
pub const META_BLOCKS: u64 = 64 * 1024;

/// Kernel + store + SLS on one virtual clock.
pub struct Machine {
    /// The single level store (owns the kernel).
    pub sls: Sls,
    /// The shared virtual clock.
    pub clock: Clock,
    /// Counters of the device wrapper; `None` on a bare array.
    pub tap: Option<DevTap>,
}

impl Machine {
    /// Boots a machine on `clock`. `wrap = false` leaves out the device
    /// wrapper (only the transparency test does that).
    pub fn boot(spans: &SpanLog, clock: &Clock, wrap: bool) -> Machine {
        let clock = clock.clone();
        let model = CostModel::default();
        let kernel = Kernel::new(clock.clone(), model.clone());
        let array = testbed_array(&clock, PER_DEVICE_BYTES);
        let (dev, tap) = if wrap {
            let (dev, tap) = TapDevice::new(array, spans.clone());
            (share(dev), Some(tap))
        } else {
            (array, None)
        };
        let store = ObjectStore::format(dev, Charge::new(clock.clone(), model), META_BLOCKS)
            .expect("a fresh sparse device formats");
        Machine {
            sls: Sls::new(kernel, store),
            clock,
            tap,
        }
    }

    /// Device bytes written since boot (through the trait, so it works
    /// with and without the wrapper).
    pub fn dev_bytes_written(&self) -> u64 {
        self.sls.store().lock().device().lock().bytes_written()
    }
}
