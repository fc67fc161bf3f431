//! Provenance overhead: the same quorum-replication scenario with epoch
//! provenance fully on (per-node trace rings, causal-graph stitching,
//! the flight recorder) versus fully off.
//!
//! The claim under test is **zero virtual cost**: tracing and graph
//! building are observer work — they charge nothing to the virtual
//! clock, so both runs must produce the *identical* virtual timeline
//! (same per-round stop times, same commit horizons, same final clock).
//! The benchmark asserts that bit-for-bit, then reports the observer's
//! real footprint (ring events recorded, graphs snapshotted) and the
//! release-latency / stop-time histograms the regression gate watches.

use crate::{header, row, BenchReport};
use aurora_cluster::{Cluster, ClusterConfig};
use aurora_core::SlsOptions;
use aurora_trace::Histogram;
use aurora_vm::Prot;

fn rounds() -> u64 {
    if crate::quick() {
        6
    } else {
        30
    }
}

struct Run {
    /// Virtual clock at the end of the run.
    end_ns: u64,
    /// Per-round checkpoint stop times (virtual ns).
    stop_hist: Histogram,
    /// Per-round commit durability horizons, summed (timeline digest).
    durable_sum: u64,
    /// Quorum watermark at the end.
    watermark: u64,
    /// Ring events recorded across all nodes (0 with provenance off).
    ring_events: u64,
    /// Epoch graphs the flight recorder holds (0 with provenance off).
    graphs: u64,
    /// Leader release-latency histogram (empty with provenance off).
    release_hist: Histogram,
}

fn run_mode(provenance: bool) -> Run {
    let mut c = Cluster::new(ClusterConfig::default());
    if provenance {
        c.enable_provenance(8);
    }
    let pid = c.leader().kernel.spawn("counter");
    let addr = c.leader().kernel.mmap_anon(pid, 16, Prot::RW).unwrap();
    c.leader().kernel.mem_write(pid, addr, &0u64.to_le_bytes()).unwrap();
    let gid = c
        .attach_on_leader(pid, SlsOptions { external_synchrony: true, ..SlsOptions::default() })
        .unwrap();
    let mut stop_hist = Histogram::default();
    let mut durable_sum = 0u64;
    for _ in 0..rounds() {
        let mut buf = [0u8; 8];
        c.leader().kernel.mem_read(pid, addr, &mut buf).unwrap();
        let v = u64::from_le_bytes(buf) + 1;
        c.leader().kernel.mem_write(pid, addr, &v.to_le_bytes()).unwrap();
        let stats = c.checkpoint_and_replicate(gid).unwrap();
        stop_hist.record(stats.stop_time_ns);
        durable_sum = durable_sum.wrapping_add(stats.durable_at);
        c.drain().unwrap();
    }
    let ring_events: u64 =
        (0..c.nodes.len()).map(|i| c.node_trace(i).event_count() as u64).sum();
    let release_hist = c
        .node_trace(0)
        .histograms()
        .into_iter()
        .find(|(n, _)| n == "release_latency")
        .map(|(_, h)| h)
        .unwrap_or_default();
    Run {
        end_ns: c.clock.now(),
        stop_hist,
        durable_sum,
        watermark: c.quorum_watermark(gid.0),
        ring_events,
        graphs: c.flight_recorder().map(|fr| fr.len() as u64).unwrap_or(0),
        release_hist,
    }
}

pub(crate) fn run() -> BenchReport {
    let mut report = BenchReport::new("trace_overhead");
    header(
        "Provenance overhead: quorum replication with tracing on vs off",
        &["provenance", "virtual end", "stop p95 (ns)", "ring events", "graphs"],
    );
    let mut runs = Vec::new();
    for (name, on) in [("off", false), ("on", true)] {
        let r = run_mode(on);
        row(&[
            name.to_string(),
            format!("{}", r.end_ns),
            format!("{}", r.stop_hist.percentile(95.0)),
            format!("{}", r.ring_events),
            format!("{}", r.graphs),
        ]);
        report.push(name, "virtual_end_ns", r.end_ns as f64);
        report.push(name, "stop_p95_ns", r.stop_hist.percentile(95.0) as f64);
        report.push(name, "quorum_watermark", r.watermark as f64);
        report.push(name, "ring_events", r.ring_events as f64);
        report.push(name, "flight_graphs", r.graphs as f64);
        report.merge_histogram(&format!("stop.provenance_{name}"), &r.stop_hist);
        runs.push(r);
    }
    let (off, on) = (&runs[0], &runs[1]);
    let identical = off.end_ns == on.end_ns
        && off.stop_hist.count() == on.stop_hist.count()
        && off.stop_hist.sum() == on.stop_hist.sum()
        && off.durable_sum == on.durable_sum
        && off.watermark == on.watermark;
    println!(
        "\nvirtual timeline with provenance on is {} (observer charges zero virtual \
         time); on-run recorded {} ring events and {} epoch graphs",
        if identical { "IDENTICAL to off" } else { "DIVERGENT — observer effect!" },
        on.ring_events,
        on.graphs
    );
    assert!(identical, "provenance must not perturb the virtual timeline");
    report.push("overhead", "timeline_identical", f64::from(u8::from(identical)));
    report.push(
        "overhead",
        "release_p95_ns",
        on.release_hist.percentile(95.0) as f64,
    );
    report.merge_histogram("release_latency.provenance_on", &on.release_hist);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Zero-cost-when-disabled, zero *virtual* cost when enabled: both
    /// modes walk the same virtual timeline, and the off mode records
    /// nothing at all.
    #[test]
    fn provenance_is_virtual_time_neutral() {
        let off = run_mode(false);
        let on = run_mode(true);
        assert_eq!(off.end_ns, on.end_ns, "virtual end diverged");
        assert_eq!(off.stop_hist.sum(), on.stop_hist.sum(), "stop times diverged");
        assert_eq!(off.durable_sum, on.durable_sum, "durability horizons diverged");
        assert_eq!(off.watermark, on.watermark);
        assert_eq!(off.ring_events, 0, "disabled tracing records nothing");
        assert_eq!(off.graphs, 0);
        assert!(on.ring_events > 0 && on.graphs > 0, "enabled run observed the epochs");
        assert!(on.release_hist.count() > 0, "release latency measured with provenance on");
    }
}
