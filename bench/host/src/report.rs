//! Printing: the human-readable report (every metric by name with its
//! value, unit, clock and sample count) and the one-line JSON result the
//! driver reads.

use crate::json::Json;
use crate::metrics::Value;

/// The outcome of one `run` invocation.
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Seed it ran from.
    pub seed: u64,
    /// `--seconds` it was sized for.
    pub seconds: u64,
    /// Traced run?
    pub traced: bool,
    /// Ops and verification checks attempted.
    pub attempted: u64,
    /// Failed ops and checks.
    pub failed: u64,
    /// First few failure messages.
    pub failures: Vec<String>,
    /// The metrics, table order.
    pub values: Vec<Value>,
}

impl Outcome {
    /// All outputs verified and no op failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Prints the report.
    pub fn print(&self) {
        println!(
            "workload {}  seed {}  sized for {} s  {}",
            self.workload,
            self.seed,
            self.seconds,
            if self.traced {
                "TRACED run: per-layer metrics (never a source of end-to-end numbers)"
            } else {
                "untraced run: end-to-end metrics"
            }
        );
        println!(
            "{:<38} {:>18}  {:<7} {:<6} samples",
            "metric", "value", "unit", "clock"
        );
        for v in &self.values {
            let n = match (v.n, v.thin) {
                (0, _) => String::new(),
                (n, false) => format!("n={n}"),
                (n, true) => format!("n={n} (too few beyond the percentile: indicative only)"),
            };
            println!(
                "{:<38} {:>18.4}  {:<7} {:<6} {}",
                v.def.name,
                v.value,
                v.def.unit,
                v.def.clock.label(),
                n
            );
        }
        println!(
            "attempted {}  failed {}  verification {}",
            self.attempted,
            self.failed,
            if self.correct() { "passed" } else { "FAILED" }
        );
        for f in &self.failures {
            println!("  failure: {f}");
        }
    }

    /// The result object: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_json(&self) -> Json {
        let metrics = self
            .values
            .iter()
            .map(|v| {
                (
                    v.def.name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(v.value)),
                        ("unit".into(), Json::Str(v.def.unit.into())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }
}
