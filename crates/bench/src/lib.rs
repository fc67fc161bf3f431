//! Shared helpers for the experiment harnesses.
//!
//! Every table and figure of the paper has one entry in [`suite::all`];
//! run them with `cargo run --release -p aurora-bench -- [NAME…] [--out
//! DIR]` (the `bench_all` binary: no name runs the whole suite). Each
//! prints the paper's reference numbers next to the reproduction's, so
//! the *shape* comparison is immediate, and writes the same numbers as a
//! machine-readable `BENCH_<name>.json`. Set `AURORA_BENCH_QUICK=1` to
//! shrink workload sizes for smoke runs.

pub mod memcached_sim;
pub mod suite;

use aurora_sim::stats::summarize_runs;

/// True when `AURORA_BENCH_QUICK` asks for shrunken smoke-test sizes.
pub fn quick() -> bool {
    std::env::var("AURORA_BENCH_QUICK").map(|v| !v.is_empty() && v != "0").unwrap_or(false)
}

/// One named measurement of a benchmark: `group` scopes it (a table row,
/// a configuration), `name` says what was measured, `value` is the raw
/// number (ns, ops/s, pages — the name carries the unit).
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub group: String,
    pub name: String,
    pub value: f64,
}

/// Frame-arena gauges at the end of a benchmark run, exported as the
/// report's `frames` block: how much page sharing the unified COW frame
/// arena achieved (resident frames, frames with refcount ≥ 2, COW copies
/// broken by writes, and sharing observed during the last system-shadow
/// checkpoint, right after its flush stage).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrameBlock {
    pub resident: u64,
    pub shared: u64,
    pub copies_broken: u64,
    pub shared_at_checkpoint: u64,
}

/// A machine-readable benchmark result: everything the printed table
/// shows, as raw numbers.
#[derive(Clone, Debug, Default)]
pub struct BenchReport {
    /// Benchmark name (`table5_memory_objects`, …) — the `BENCH_<name>`
    /// stem of the exported file.
    pub name: String,
    pub metrics: Vec<Metric>,
    /// Frame-arena gauges, when the benchmark exercises the arena.
    pub frames: Option<FrameBlock>,
    /// Pre-rendered virtual-time series
    /// ([`aurora_trace::Sampler::series_json`]), spliced verbatim into
    /// the report's `timeseries` key.
    pub timeseries: Option<String>,
    /// Named latency histograms merged across the benchmark's runs,
    /// summarized into the report's `histograms` block.
    pub histograms: Vec<(String, aurora_trace::Histogram)>,
}

impl BenchReport {
    /// Creates an empty report.
    pub(crate) fn new(name: &str) -> Self {
        Self::default().named(name)
    }

    fn named(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    /// Records one measurement.
    pub(crate) fn push(&mut self, group: impl Into<String>, name: impl Into<String>, value: f64) {
        self.metrics.push(Metric { group: group.into(), name: name.into(), value });
    }

    /// Attaches the frame-arena gauge snapshot.
    pub(crate) fn set_frames(&mut self, frames: FrameBlock) {
        self.frames = Some(frames);
    }

    /// Attaches a virtual-time metrics series (the sampler's
    /// deterministic JSON). Panics on malformed JSON — the string is
    /// spliced into the report verbatim.
    pub(crate) fn set_timeseries(&mut self, series_json: String) {
        aurora_trace::json::validate(&series_json)
            .unwrap_or_else(|e| panic!("timeseries block is not valid JSON: {e}"));
        self.timeseries = Some(series_json);
    }

    /// Merges `h` into the named histogram (creating it on first use) —
    /// per-run histograms accumulate via [`aurora_trace::Histogram::merge`].
    pub(crate) fn merge_histogram(&mut self, name: &str, h: &aurora_trace::Histogram) {
        if h.count() == 0 {
            return;
        }
        match self.histograms.iter_mut().find(|(n, _)| n == name) {
            Some((_, have)) => have.merge(h),
            None => self.histograms.push((name.to_string(), h.clone())),
        }
    }

    /// Serializes the report as deterministic JSON (insertion order, no
    /// wall-clock timestamps — two identical runs produce identical
    /// bytes).
    pub fn to_json(&self) -> String {
        use aurora_trace::json::escape;
        let mut out = String::with_capacity(256 + self.metrics.len() * 64);
        out.push_str("{\"bench\":\"");
        out.push_str(&escape(&self.name));
        out.push_str("\",\"metrics\":[");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            out.push_str(&format!(
                "{{\"group\":\"{}\",\"name\":\"{}\",\"value\":{}}}",
                escape(&m.group),
                escape(&m.name),
                v
            ));
        }
        out.push(']');
        if let Some(f) = &self.frames {
            out.push_str(&format!(
                ",\"frames\":{{\"resident\":{},\"shared\":{},\"copies_broken\":{},\
                 \"shared_at_checkpoint\":{}}}",
                f.resident, f.shared, f.copies_broken, f.shared_at_checkpoint
            ));
        }
        if let Some(ts) = &self.timeseries {
            out.push_str(",\"timeseries\":");
            out.push_str(ts);
        }
        if !self.histograms.is_empty() {
            out.push_str(",\"histograms\":{");
            for (i, (name, h)) in self.histograms.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\
                     \"p50\":{},\"p95\":{},\"p99\":{}}}",
                    escape(name),
                    h.count(),
                    h.sum(),
                    h.min(),
                    h.max(),
                    h.mean(),
                    h.percentile(50.0),
                    h.percentile(95.0),
                    h.percentile(99.0),
                ));
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

/// Prints a table header.
pub(crate) fn header(title: &str, columns: &[&str]) {
    println!("\n=== {title} ===");
    let row = columns.iter().map(|c| format!("{c:>16}")).collect::<Vec<_>>().join(" ");
    println!("{row}");
    println!("{}", "-".repeat(row.len()));
}

/// Prints one row of right-aligned cells.
pub(crate) fn row(cells: &[String]) {
    println!("{}", cells.iter().map(|c| format!("{c:>16}")).collect::<Vec<_>>().join(" "));
}

/// Formats mean±std over runs using a unit formatter.
pub fn mean_pm(runs: &[f64], fmt: impl Fn(f64) -> String) -> String {
    let s = summarize_runs(runs);
    if runs.len() > 1 && s.stddev > 0.0 {
        format!("{}±{}", fmt(s.mean), fmt(s.stddev))
    } else {
        fmt(s.mean)
    }
}

/// Ratio string (`2.1×`).
pub(crate) fn ratio(a: f64, b: f64) -> String {
    if b == 0.0 {
        "∞".to_string()
    } else {
        format!("{:.1}×", a / b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_pm_formats() {
        let s = mean_pm(&[1.0, 3.0], |v| format!("{v:.1}"));
        assert!(s.contains('±'), "{s}");
        assert_eq!(mean_pm(&[2.0], |v| format!("{v:.0}")), "2");
    }

    #[test]
    fn ratio_formats() {
        assert_eq!(ratio(4.0, 2.0), "2.0×");
        assert_eq!(ratio(1.0, 0.0), "∞");
    }
}
