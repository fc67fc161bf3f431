//! The 15 end-to-end metrics of one untraced pass.
//!
//! Every workload reports every metric; where a workload's timed ops do
//! not exercise a path, the metric comes from the place the workload
//! *does* exercise it (README.md, "Where each workload samples each
//! metric"): `restore_chain` takes the checkpoint-side metrics from the
//! chain-building checkpoints of its set-up, `ckpt_sparse` and
//! `memcached_100hz` take the restore metric from the crash + restore
//! that ends the run.

use crate::metrics::{self, Value};
use crate::run::Pass;
use crate::stats::{drift_ratio, Samples};
use crate::workloads::common::{
    APP_BYTES, APP_LAT_NS, APP_OPS, DEV_BYTES, DURABLE_NS, RESTORE_NS, STOP_NS,
};

/// Device block size the footprint is counted in.
const BLOCK: f64 = 4096.0;

/// `VmHWM` of this process, MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn value(name: &str, value: f64, n: usize) -> Value {
    Value {
        def: metrics::find(name).expect("metric is in the table"),
        value,
        n,
        thin: false,
    }
}

/// A percentile of an end-to-end series, in µs. A sample too thin for
/// the percentile fails the run: an end-to-end number is either
/// supported or not reported.
fn pct_us(name: &str, s: &mut Samples, p: f64) -> Result<Value, String> {
    let ns = s.percentile(p).map_err(|t| {
        format!(
            "{name}: p{p} needs ≥ 10 samples beyond it, has {} of {} — run more ops",
            t.beyond, t.n
        )
    })?;
    Ok(value(name, ns / 1e3, s.len()))
}

/// Computes the end-to-end metrics of `p` (a `Mode::Plain` pass).
pub fn end_to_end(p: &mut Pass, peak_rss_mib: f64) -> Result<Vec<Value>, String> {
    let done = p.h.op_host_ns.len();
    if done == 0 {
        return Err("no timed op completed".into());
    }
    let host_s = p.h.op_host_ns.iter().sum::<f64>() / 1e9;
    let virt_s = p.h.op_virt_ns.iter().sum::<f64>() / 1e9;
    let mut host = Samples::from_vec(p.h.op_host_ns.clone());
    let drift = drift_ratio(&p.h.op_host_ns);
    let mut setup = Samples::from_vec(p.setup_s.clone());

    let app_bytes = p.h.count(APP_BYTES) as f64;
    let dev_bytes = p.h.count(DEV_BYTES) as f64;
    if app_bytes == 0.0 || p.resident_bytes == 0 {
        return Err("the run changed no application bytes or has no resident image".into());
    }

    Ok(vec![
        value("setup_s", setup.median(), setup.len()),
        value("host_ops_per_s", done as f64 / host_s, done),
        pct_us("host_op_us_p50", &mut host, 50.0)?,
        pct_us("host_op_us_p95", &mut host, 95.0)?,
        value("host_drift_ratio", drift, done),
        value("host_peak_rss_mib", peak_rss_mib, 0),
        pct_us("virt_stop_us_p50", p.h.series(STOP_NS), 50.0)?,
        pct_us("virt_stop_us_p95", p.h.series(STOP_NS), 95.0)?,
        pct_us("virt_durable_us_p50", p.h.series(DURABLE_NS), 50.0)?,
        pct_us("virt_restore_us_p50", p.h.series(RESTORE_NS), 50.0)?,
        value(
            "virt_app_ops_per_s",
            p.h.count(APP_OPS) as f64 / virt_s,
            done,
        ),
        pct_us("virt_app_lat_us_p50", p.h.series(APP_LAT_NS), 50.0)?,
        pct_us("virt_app_lat_us_p95", p.h.series(APP_LAT_NS), 95.0)?,
        value("dev_write_amp", dev_bytes / app_bytes, 0),
        value(
            "dev_footprint_ratio",
            p.distinct_lbas as f64 * BLOCK / p.resident_bytes as f64,
            0,
        ),
    ])
}
