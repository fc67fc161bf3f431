//! The single table of every metric the benchmark reports: name, unit,
//! which clock it is read on, which direction is better, and (for the
//! end-to-end ones) the bound by which it may worsen before a change
//! counts as a regression. `BENCHMARK.json`, the README tables, the
//! printed report and `compare` all follow this table; a unit test
//! checks `BENCHMARK.json` against it.

/// Which clock (or none) a metric is read on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// `std::time::Instant` around calls: noisy, machine-dependent.
    Host,
    /// `aurora_sim::Clock`: deterministic for a given seed.
    Virt,
    /// A count or a ratio of counts: deterministic for a given seed.
    Count,
}

impl Clock {
    /// Short label for the report.
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Virt => "virt",
            Clock::Count => "count",
        }
    }
}

/// Which direction is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name, as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Clock it is read on.
    pub clock: Clock,
    /// Better direction.
    pub better: Better,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only; per-layer metrics have no bound).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: Better,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        clock,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, clock: Clock, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        clock,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};
use Clock::{Count, Host, Virt};

/// The 15 end-to-end metrics, measured with all tracing off. Every
/// workload reports every one; README.md says where each workload
/// samples it.
///
/// A bound has to hold across *seeds*: the acceptance rule takes ten
/// runs from ten seeds and wants their interquartile spread within the
/// bound (and, to be safe, within a third of it). Virtual and count
/// metrics repeat exactly for one seed — `compare --exact` holds them to
/// equality — but differ by up to 3 % from seed to seed, so their bounds
/// are three times that, not the 1 % a single seed would allow.
pub const END_TO_END: [MetricDef; 15] = [
    e2e("setup_s", "s", Host, Lower, 0.25),
    e2e("host_ops_per_s", "1/s", Host, Higher, 0.15),
    e2e("host_op_us_p50", "us", Host, Lower, 0.15),
    e2e("host_op_us_p95", "us", Host, Lower, 0.20),
    e2e("host_drift_ratio", "ratio", Host, Lower, 0.20),
    e2e("host_peak_rss_mib", "MiB", Host, Lower, 0.10),
    e2e("virt_stop_us_p50", "us", Virt, Lower, 0.01),
    e2e("virt_stop_us_p95", "us", Virt, Lower, 0.01),
    e2e("virt_durable_us_p50", "us", Virt, Lower, 0.02),
    e2e("virt_restore_us_p50", "us", Virt, Lower, 0.12),
    e2e("virt_app_ops_per_s", "1/s", Virt, Higher, 0.02),
    e2e("virt_app_lat_us_p50", "us", Virt, Lower, 0.03),
    e2e("virt_app_lat_us_p95", "us", Virt, Lower, 0.03),
    e2e("dev_write_amp", "ratio", Count, Lower, 0.04),
    e2e("dev_footprint_ratio", "ratio", Count, Lower, 0.12),
];

/// The per-layer metrics of the traced run, `<crate>.<metric>`.
pub const PER_LAYER: [MetricDef; 88] = [
    // sim — probes.
    layer("sim.encode_ns_per_kib", "ns/KiB", Host, Lower),
    layer("sim.decode_ns_per_kib", "ns/KiB", Host, Lower),
    layer("sim.fnv_ns_per_page", "ns", Host, Lower),
    // storage — device wrapper.
    layer("storage.writes_per_op", "count", Count, Lower),
    layer("storage.write_kib_per_op", "KiB", Count, Lower),
    layer("storage.flushes_per_op", "count", Count, Lower),
    layer("storage.reads_per_op", "count", Count, Lower),
    layer("storage.read_kib_per_op", "KiB", Count, Lower),
    layer("storage.queue_depth_max", "count", Count, Lower),
    layer("storage.inflight_kib_max", "KiB", Count, Lower),
    layer("storage.host_us_per_op", "us", Host, Lower),
    layer("storage.host_share", "ratio", Host, Lower),
    // objstore — gauges() deltas and end-of-run gauges.
    layer("objstore.redo_appended_per_op", "count", Count, Lower),
    layer("objstore.redo_kib_saved_per_op", "KiB", Count, Higher),
    layer("objstore.materializations_per_op", "count", Count, Lower),
    layer("objstore.chain_len_p95", "count", Count, Lower),
    layer("objstore.cache_hit_ratio", "ratio", Count, Higher),
    layer("objstore.cache_pages_end", "count", Count, Lower),
    layer("objstore.epochs_retained_end", "count", Count, Lower),
    layer("objstore.objects_end", "count", Count, Lower),
    // objstore — probes, one store per probe.
    layer("objstore.append_redo_ns_per_rec", "ns", Host, Lower),
    layer("objstore.write_pages_ns_per_page", "ns", Host, Lower),
    layer("objstore.commit_ns", "ns", Host, Lower),
    layer("objstore.gc_ns_per_epoch", "ns", Host, Lower),
    layer("objstore.read_cold_ns_per_page", "ns", Host, Lower),
    layer("objstore.read_warm_ns_per_page", "ns", Host, Lower),
    layer("objstore.read_at_lsn_ns_per_page", "ns", Host, Lower),
    layer("objstore.reopen_ms", "ms", Host, Lower),
    layer("objstore.scrub_ns_per_page", "ns", Host, Lower),
    // frames — gauges and probes.
    layer("frames.resident_end", "count", Count, Lower),
    layer("frames.shared_end", "count", Count, Higher),
    layer("frames.copies_broken_per_op", "count", Count, Lower),
    layer("frames.alloc_ns_per_page", "ns", Host, Lower),
    layer("frames.make_mut_ns_per_page", "ns", Host, Lower),
    // vm — VmStats deltas and probes.
    layer("vm.faults_per_op", "count", Count, Lower),
    layer("vm.cow_breaks_per_op", "count", Count, Lower),
    layer("vm.zero_fills_per_op", "count", Count, Lower),
    layer("vm.frames_allocated_per_op", "count", Count, Lower),
    layer("vm.pte_downgrades_per_op", "count", Count, Lower),
    layer("vm.collapse_pages_moved_per_op", "count", Count, Lower),
    layer("vm.cow_break_ns", "ns", Host, Lower),
    layer("vm.write_hit_ns", "ns", Host, Lower),
    layer("vm.system_shadow_ns_per_page", "ns", Host, Lower),
    layer("vm.collapse_ns_per_page", "ns", Host, Lower),
    layer("vm.install_page_ns", "ns", Host, Lower),
    // posix — spans and counts.
    layer("posix.mem_write_host_us_per_op", "us", Host, Lower),
    layer("posix.mem_read_fault_ns_per_page", "ns", Host, Lower),
    layer("posix.exit_host_us_per_op", "us", Host, Lower),
    layer("posix.profile_build_us", "us", Host, Lower),
    layer("posix.objects_per_image", "count", Count, Lower),
    // core — virtual, from CheckpointStats::stages().
    layer("core.stage_quiesce_us_p50", "us", Virt, Lower),
    layer("core.stage_collapse_us_p50", "us", Virt, Lower),
    layer("core.stage_aio_us_p50", "us", Virt, Lower),
    layer("core.stage_os_state_us_p50", "us", Virt, Lower),
    layer("core.stage_shadow_us_p50", "us", Virt, Lower),
    layer("core.stage_resume_us_p50", "us", Virt, Lower),
    layer("core.stage_flush_us_p50", "us", Virt, Lower),
    layer("core.stage_seal_us_p50", "us", Virt, Lower),
    layer("core.stage_commit_us_p50", "us", Virt, Lower),
    layer("core.pages_flushed_per_op", "count", Count, Lower),
    layer("core.kib_flushed_per_op", "KiB", Count, Lower),
    layer("core.shared_frames_p50", "count", Count, Higher),
    layer("core.retries", "count", Count, Lower),
    // core — virtual, from RestoreReport.
    layer("core.restore_full_virt_us_p50", "us", Virt, Lower),
    layer("core.restore_lazy_virt_us_p50", "us", Virt, Lower),
    layer("core.restore_at_virt_us_p50", "us", Virt, Lower),
    layer("core.pages_read_per_restore", "count", Count, Lower),
    // core — host, from spans.
    layer("core.checkpoint_host_us_p50", "us", Host, Lower),
    layer("core.checkpoint_host_us_p95", "us", Host, Lower),
    layer("core.barrier_host_us_p50", "us", Host, Lower),
    layer("core.retain_last_host_us_p50", "us", Host, Lower),
    layer("core.restore_full_host_us_p50", "us", Host, Lower),
    layer("core.restore_lazy_host_us_p50", "us", Host, Lower),
    layer("core.restore_at_host_us_p50", "us", Host, Lower),
    layer("core.reboot_host_ms_p50", "ms", Host, Lower),
    layer("core.self_share", "ratio", Host, Lower),
    // core — counting allocator.
    layer("core.allocs_per_op", "count", Count, Lower),
    layer("core.alloc_kib_per_op", "KiB", Count, Lower),
    // apps / workloads — memcached_100hz.
    layer("apps.request_host_ns_p50", "ns", Host, Lower),
    layer("apps.arena_wraps", "count", Count, Lower),
    layer("workloads.gen_host_ns_per_req", "ns", Host, Lower),
    layer("workloads.set_share", "ratio", Count, Lower),
    // trace / harness — the instruments price themselves.
    layer("harness.span_overhead_pct", "%", Host, Lower),
    layer("harness.unattributed_share", "ratio", Host, Lower),
    layer("trace.overhead_pct", "%", Host, Lower),
    layer("trace.events_per_op", "count", Count, Lower),
    layer("trace.dropped_records", "count", Count, Lower),
    layer("trace.export_ns_per_event", "ns", Host, Lower),
];

/// Relative difference `compare --exact` tolerates in a virtual metric
/// that includes device completion times (see [`exact_tolerance`]).
pub const PLACEMENT_TOLERANCE: f64 = 5e-4;

/// How far two runs of one commit from one seed may differ in `def`
/// before `compare --exact` calls it a difference.
///
/// Counts, ratios of counts and stop time (pure CPU-model time) repeat
/// bit for bit: tolerance 0. Virtual metrics that include *device
/// completion times* — time to durable, restore time, the op's virtual
/// duration and what derives from it — repeat exactly on three of the
/// four workloads but move by ~1e-5 on `ckpt_sparse`, where the store's
/// history GC frees raw blocks in `HashMap` iteration order and so
/// changes which stripe member a later full image queues on (README,
/// "Determinism"). They get [`PLACEMENT_TOLERANCE`]. Host metrics are
/// never held to equality.
pub fn exact_tolerance(def: &MetricDef) -> Option<f64> {
    const DEVICE_TIMED: [&str; 10] = [
        "virt_durable_us_p50",
        "virt_restore_us_p50",
        "virt_app_ops_per_s",
        "virt_app_lat_us_p50",
        "virt_app_lat_us_p95",
        "core.stage_flush_us_p50",
        "core.stage_commit_us_p50",
        "core.restore_full_virt_us_p50",
        "core.restore_lazy_virt_us_p50",
        "core.restore_at_virt_us_p50",
    ];
    match def.clock {
        Clock::Host => None,
        _ if DEVICE_TIMED.contains(&def.name) => Some(PLACEMENT_TOLERANCE),
        _ => Some(0.0),
    }
}

/// Looks a definition up by name in either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// One reported value.
#[derive(Clone, Debug)]
pub struct Value {
    /// The definition it reports.
    pub def: &'static MetricDef,
    /// The value, as measured.
    pub value: f64,
    /// Samples behind it (0 for a plain count or ratio).
    pub n: usize,
    /// Set when a percentile had too few samples beyond it to meet the
    /// ten-beyond rule (per-layer metrics only; an end-to-end metric in
    /// that state fails the run).
    pub thin: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(
                m.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                m.name
            );
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.name
            );
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn setup_has_the_largest_bound_and_none_exceeds_a_quarter() {
        let setup = find("setup_s").unwrap().bound.unwrap();
        for m in &END_TO_END {
            let b = m.bound.expect("end-to-end metrics are bounded");
            assert!(b <= 0.25 && b <= setup, "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }
}
