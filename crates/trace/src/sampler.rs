//! The virtual-time metrics sampler: a deterministic gauge time-series.
//!
//! A [`Sampler`] accepts flat gauge snapshots (`name → u64`) and keeps
//! the ones that land on its virtual-clock period: a row is recorded
//! only when at least `period_ns` has passed since the previous row, so
//! identical runs — which poll at identical virtual times — produce
//! identical series. Rows are stamped with the *poll* time, not the due
//! time, because the poll time is itself deterministic and honest about
//! when the snapshot was actually taken.
//!
//! Alongside the rows the sampler keeps **marks**: labelled instants for
//! discontinuities (a machine reboot) that a consumer must not smooth
//! over. Exporters render the whole series as deterministic JSON (the
//! `timeseries` block of `BENCH_*.json`) and the latest row as
//! Prometheus text exposition (`sls stat --prom`).
//!
//! Like the recorder, the sampler never reads or advances the clock
//! itself — callers pass `now` in — so installing one cannot perturb a
//! run's virtual timeline.

use crate::json::escape;
use std::sync::{Arc, Mutex};

/// One recorded gauge snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sample {
    /// Virtual time of the poll that recorded the row, ns.
    pub ts: u64,
    /// Gauge values, sorted by name.
    pub values: Vec<(String, u64)>,
}

#[derive(Default)]
struct State {
    rows: Vec<Sample>,
    marks: Vec<(u64, String)>,
    last_ts: Option<u64>,
}

impl State {
    fn due(&self, now: u64, period_ns: u64) -> bool {
        self.last_ts.is_none_or(|last| now >= last.saturating_add(period_ns))
    }
}

/// A cloneable handle to one deterministic gauge time-series. All
/// clones share the rows.
#[derive(Clone)]
pub struct Sampler {
    period_ns: u64,
    state: Arc<Mutex<State>>,
}

impl std::fmt::Debug for Sampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.lock().unwrap();
        write!(f, "Sampler(period {} ns, {} rows)", self.period_ns, s.rows.len())
    }
}

impl Sampler {
    /// Creates a sampler recording at most one row per `period_ns` of
    /// virtual time (clamped to ≥ 1 so timestamps stay strictly
    /// increasing).
    pub fn new(period_ns: u64) -> Self {
        Self { period_ns: period_ns.max(1), state: Arc::new(Mutex::new(State::default())) }
    }

    /// The configured period.
    pub fn period_ns(&self) -> u64 {
        self.period_ns
    }

    /// Whether a poll at `now` would record a row.
    pub fn due(&self, now: u64) -> bool {
        self.state.lock().unwrap().due(now, self.period_ns)
    }

    /// Records a row at `now` if the period has elapsed. Returns whether
    /// the row was kept. `values` need not be sorted.
    pub fn record(&self, now: u64, mut values: Vec<(String, u64)>) -> bool {
        let mut s = self.state.lock().unwrap();
        if !s.due(now, self.period_ns) {
            return false;
        }
        values.sort_by(|a, b| a.0.cmp(&b.0));
        s.rows.push(Sample { ts: now, values });
        s.last_ts = Some(now);
        true
    }

    /// Records a labelled discontinuity (e.g. `machine.reboot`).
    pub fn mark(&self, now: u64, label: &str) {
        self.state.lock().unwrap().marks.push((now, label.to_string()));
    }

    /// Snapshot of the recorded rows, in record order.
    pub fn samples(&self) -> Vec<Sample> {
        self.state.lock().unwrap().rows.clone()
    }

    /// Snapshot of the recorded marks.
    pub fn marks(&self) -> Vec<(u64, String)> {
        self.state.lock().unwrap().marks.clone()
    }

    /// Number of recorded rows.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().rows.len()
    }

    /// True when no row has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders the whole series as one deterministic JSON object:
    /// `{"period_ns":…,"samples":[{"ts":…,"values":{…}},…],"marks":[…]}`.
    pub fn series_json(&self) -> String {
        let s = self.state.lock().unwrap();
        let mut out = String::with_capacity(64 + s.rows.len() * 128);
        out.push_str(&format!("{{\"period_ns\":{},\"samples\":[", self.period_ns));
        for (i, row) in s.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"ts\":{},\"values\":{{", row.ts));
            for (j, (k, v)) in row.values.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":{}", escape(k), v));
            }
            out.push_str("}}");
        }
        out.push_str("],\"marks\":[");
        for (i, (ts, label)) in s.marks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"ts\":{},\"label\":\"{}\"}}", ts, escape(label)));
        }
        out.push_str("]}");
        out
    }

    /// Renders the latest row as Prometheus text exposition. Gauge names
    /// are prefixed with `prefix` and sanitized (`.` and `-` become `_`);
    /// the row's virtual timestamp rides along as its own gauge.
    pub fn prometheus_text(&self, prefix: &str) -> String {
        let s = self.state.lock().unwrap();
        let Some(row) = s.rows.last() else {
            return String::new();
        };
        let mut out = String::with_capacity(64 + row.values.len() * 96);
        let metric = |name: &str| -> String {
            let mut m = String::with_capacity(prefix.len() + name.len() + 1);
            m.push_str(prefix);
            m.push('_');
            for c in name.chars() {
                m.push(if c.is_ascii_alphanumeric() { c } else { '_' });
            }
            m
        };
        let ts_name = metric("virtual_time_ns");
        out.push_str(&format!("# TYPE {ts_name} gauge\n{ts_name} {}\n", row.ts));
        for (k, v) in &row.values {
            let m = metric(k);
            out.push_str(&format!("# TYPE {m} gauge\n{m} {v}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(pairs: &[(&str, u64)]) -> Vec<(String, u64)> {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn period_gates_rows() {
        let s = Sampler::new(100);
        assert!(s.record(0, vals(&[("g", 1)])));
        assert!(!s.record(50, vals(&[("g", 2)])), "inside the period");
        assert!(s.record(100, vals(&[("g", 3)])));
        assert!(s.record(350, vals(&[("g", 4)])), "late polls still record");
        let rows = s.samples();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows.iter().map(|r| r.ts).collect::<Vec<_>>(), vec![0, 100, 350]);
    }

    #[test]
    fn timestamps_strictly_increase_even_at_period_zero() {
        let s = Sampler::new(0);
        assert!(s.record(5, vals(&[("g", 1)])));
        assert!(!s.record(5, vals(&[("g", 2)])), "same-instant row dropped");
        assert!(s.record(6, vals(&[("g", 3)])));
        let ts: Vec<u64> = s.samples().iter().map(|r| r.ts).collect();
        assert!(ts.windows(2).all(|w| w[0] < w[1]), "{ts:?}");
    }

    #[test]
    fn values_are_sorted_and_series_json_is_valid() {
        let s = Sampler::new(1);
        s.record(7, vals(&[("z.last", 2), ("a.first", 1)]));
        s.mark(9, "machine.reboot");
        let row = &s.samples()[0];
        assert_eq!(row.values[0].0, "a.first");
        let json = s.series_json();
        crate::json::validate(&json).expect("valid JSON");
        assert!(json.contains("\"period_ns\":1"));
        assert!(json.contains("\"machine.reboot\""));
    }

    #[test]
    fn identical_runs_identical_series() {
        let run = || {
            let s = Sampler::new(50);
            for t in (0..500).step_by(30) {
                s.record(t, vals(&[("x", t / 7), ("y", t * 3)]));
            }
            s.series_json()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn prometheus_text_renders_latest_row() {
        let s = Sampler::new(1);
        assert_eq!(s.prometheus_text("aurora"), "", "empty series renders nothing");
        s.record(10, vals(&[("store.cache_hits", 4)]));
        s.record(20, vals(&[("store.cache_hits", 9)]));
        let text = s.prometheus_text("aurora");
        assert!(text.contains("# TYPE aurora_store_cache_hits gauge"));
        assert!(text.contains("aurora_store_cache_hits 9"));
        assert!(text.contains("aurora_virtual_time_ns 20"));
        assert!(!text.contains("aurora_store_cache_hits 4"), "only the latest row");
    }
}
