//! Counters the lower layers already keep, read from outside through
//! their public accessors (`VmStats`, `ObjectStore::gauges`,
//! `FrameArena::gauges`, the device wrapper) and turned into per-op
//! deltas.

use crate::machine::Machine;

/// Monotonic counters of one machine at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerCounters {
    /// `VmStats::faults`.
    pub faults: u64,
    /// `VmStats::cow_breaks`.
    pub cow_breaks: u64,
    /// `VmStats::zero_fills`.
    pub zero_fills: u64,
    /// `VmStats::frames_allocated`.
    pub frames_allocated: u64,
    /// `VmStats::pte_downgrades`.
    pub pte_downgrades: u64,
    /// `VmStats::collapse_pages_moved`.
    pub collapse_pages_moved: u64,
    /// `StoreGauges::redo_appended`.
    pub redo_appended: u64,
    /// `StoreGauges::redo_bytes_saved`.
    pub redo_bytes_saved: u64,
    /// `StoreGauges::redo_materializations`.
    pub materializations: u64,
    /// `StoreGauges::cache_hits`.
    pub cache_hits: u64,
    /// `StoreGauges::cache_misses`.
    pub cache_misses: u64,
    /// `FrameGauges::copies_broken`.
    pub copies_broken: u64,
    /// Device wrapper: write calls.
    pub dev_writes: u64,
    /// Device wrapper: bytes written.
    pub dev_write_bytes: u64,
    /// Device wrapper: read calls.
    pub dev_reads: u64,
    /// Device wrapper: bytes read.
    pub dev_read_bytes: u64,
    /// Device wrapper: flush calls.
    pub dev_flushes: u64,
}

impl LayerCounters {
    /// Reads every counter off `m`.
    pub fn snapshot(m: &Machine) -> Self {
        let vm = m.sls.kernel.vm.stats;
        let sg = m.sls.store().lock().gauges();
        let fg = m.sls.frame_gauges();
        let dev = m.tap.as_ref().map(|t| t.snapshot()).unwrap_or_default();
        Self {
            faults: vm.faults,
            cow_breaks: vm.cow_breaks,
            zero_fills: vm.zero_fills,
            frames_allocated: vm.frames_allocated,
            pte_downgrades: vm.pte_downgrades,
            collapse_pages_moved: vm.collapse_pages_moved,
            redo_appended: sg.redo_appended,
            redo_bytes_saved: sg.redo_bytes_saved,
            materializations: sg.redo_materializations,
            cache_hits: sg.cache_hits,
            cache_misses: sg.cache_misses,
            copies_broken: fg.copies_broken,
            dev_writes: dev.writes,
            dev_write_bytes: dev.write_bytes,
            dev_reads: dev.reads,
            dev_read_bytes: dev.read_bytes,
            dev_flushes: dev.flushes,
        }
    }

    /// Adds to `self` what happened between `before` and `after`. A
    /// counter that went *down* was reset by a reboot inside the
    /// interval (`crash_and_reboot` replaces the kernel and reopens the
    /// store), so `after` is the whole post-reset count.
    pub fn accumulate(&mut self, before: &Self, after: &Self) {
        fn d(b: u64, a: u64) -> u64 {
            if a >= b {
                a - b
            } else {
                a
            }
        }
        macro_rules! acc {
            ($($f:ident),*) => { $( self.$f += d(before.$f, after.$f); )* };
        }
        acc!(
            faults,
            cow_breaks,
            zero_fills,
            frames_allocated,
            pte_downgrades,
            collapse_pages_moved,
            redo_appended,
            redo_bytes_saved,
            materializations,
            cache_hits,
            cache_misses,
            copies_broken,
            dev_writes,
            dev_write_bytes,
            dev_reads,
            dev_read_bytes,
            dev_flushes
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reset_counter_contributes_its_post_reset_value() {
        let before = LayerCounters {
            faults: 100,
            cow_breaks: 5,
            ..Default::default()
        };
        let after = LayerCounters {
            faults: 7,
            cow_breaks: 9,
            ..Default::default()
        };
        let mut total = LayerCounters::default();
        total.accumulate(&before, &after);
        assert_eq!((total.faults, total.cow_breaks), (7, 4));
    }
}
