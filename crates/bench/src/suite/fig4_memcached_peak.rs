//! Figure 4: Memcached at max throughput over varying checkpoint
//! periods — throughput and latency vs the no-persistence baseline.
//!
//! Paper shape: baseline just above 1M ops/s; transparent persistence at
//! a 10 ms period roughly halves throughput and multiplies latency;
//! both recover as the period grows (fewer checkpoints per second).

use crate::memcached_sim::{run as mc_run, sweep, McSimConfig};
use crate::{header, row, BenchReport};
use aurora_sim::units::{fmt_ns, fmt_ops, MS};

pub(crate) fn run() -> BenchReport {
    let mut report = BenchReport::new("fig4_memcached_peak");
    let duration = if crate::quick() { 100 * MS } else { 400 * MS };
    header(
        "Figure 4: Memcached max throughput vs checkpoint period",
        &["period", "throughput", "avg lat", "p95 lat", "ckpts"],
    );
    for (label, period) in sweep() {
        let r = mc_run(McSimConfig {
            period_ns: period,
            duration_ns: duration,
            offered_ops_per_sec: None,
            seed: 1,
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
        "\n(paper: baseline ~1.05M ops/s; with Aurora ~0.5M at 10 ms rising\n\
         toward baseline as the period grows; latency falls with period)"
    );
    report
}
