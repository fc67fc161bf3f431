//! Figure 5: Memcached latency with throughput pegged at 120 k ops/s
//! (15% of peak) over varying checkpoint periods — the worst case for
//! transparent persistence, where checkpoint stalls dominate instead of
//! hiding behind network queueing.
//!
//! Paper shape: baseline average 157 µs; with persistence the average
//! rises to ~600 µs even at a 100 ms period, and the 95th percentile is
//! far above the average (requests caught behind a stop).

use crate::memcached_sim::{run as mc_run, sweep, McSimConfig};
use crate::{header, row, BenchReport};
use aurora_sim::units::{fmt_ns, fmt_ops, MS};

pub(crate) fn run() -> BenchReport {
    let mut report = BenchReport::new("fig5_memcached_pegged");
    let duration = if crate::quick() { 100 * MS } else { 400 * MS };
    header(
        "Figure 5: Memcached latency at a pegged 120k ops/s",
        &["period", "throughput", "avg lat", "p95 lat", "ckpts"],
    );
    for (label, period) in sweep() {
        let r = mc_run(McSimConfig {
            period_ns: period,
            duration_ns: duration,
            offered_ops_per_sec: Some(120_000),
            seed: 2,
        });
        row(&[
            label.clone(),
            fmt_ops(r.throughput),
            fmt_ns(r.avg_ns),
            fmt_ns(r.p95_ns),
            r.checkpoints.to_string(),
        ]);
        report.push(label.clone(), "throughput_ops_s", r.throughput);
        report.push(label.clone(), "avg_latency_ns", r.avg_ns as f64);
        report.push(label.clone(), "p95_latency_ns", r.p95_ns as f64);
        report.push(label, "checkpoints", r.checkpoints as f64);
    }
    println!(
        "\n(paper: baseline avg 157 µs; persistence adds latency at every\n\
         period — more at shorter periods — and inflates the tail)"
    );
    report
}
