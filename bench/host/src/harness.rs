//! What a workload talks to while it runs: op timing on both clocks,
//! named sample series, counters, and failed-op accounting.
//!
//! *Host* time is `std::time::Instant` around the op; *virt* time is
//! the machine's `aurora_sim::Clock`. The benchmark's own verification
//! runs between [`Harness::pause`] and [`Harness::resume`], which take
//! it out of both clocks' op durations.

use crate::spans::SpanLog;
use crate::stats::Samples;
use aurora_sim::Clock;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Per-run measurement state.
pub struct Harness {
    /// Span recorder shared with the device wrapper.
    pub spans: SpanLog,
    clock: Clock,
    op_start: Option<(Instant, u64)>,
    paused_at: Option<(Instant, u64)>,
    paused_host: Duration,
    paused_virt: u64,
    /// Host ns of each timed op, verification excluded.
    pub op_host_ns: Vec<f64>,
    /// Virtual ns of each timed op, verification excluded.
    pub op_virt_ns: Vec<f64>,
    series: BTreeMap<&'static str, Samples>,
    counts: BTreeMap<&'static str, u64>,
    /// Ops and verification checks attempted.
    pub attempted: u64,
    /// Ops that returned `Err` plus verification mismatches.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// While set, `rec` and `add` drop what they are given: set-up and
    /// warm-up run the same code as timed ops without feeding the
    /// timed series.
    pub muted: bool,
    /// Record the per-layer detail series too (traced run only).
    pub detail: bool,
    /// Running hash of every input the generator produced.
    pub stream: u64,
}

impl Harness {
    /// A harness with a fresh virtual clock (the machine a workload
    /// boots shares it), recording spans into `spans`.
    pub fn new(spans: SpanLog) -> Self {
        Self {
            spans,
            clock: Clock::new(),
            op_start: None,
            paused_at: None,
            paused_host: Duration::ZERO,
            paused_virt: 0,
            op_host_ns: Vec::new(),
            op_virt_ns: Vec::new(),
            series: BTreeMap::new(),
            counts: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            muted: false,
            detail: false,
            stream: 0,
        }
    }

    /// The virtual clock the workload's machine must run on.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Current virtual time, ns.
    pub fn virt_now(&self) -> u64 {
        self.clock.now()
    }

    /// Times a call into a crate as a span (a no-op wrapper when spans
    /// are off).
    pub fn call<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.spans.time(name, f)
    }

    /// Starts timed op `i`.
    pub fn op_begin(&mut self, i: usize) {
        self.spans.set_op(i as u32);
        self.paused_host = Duration::ZERO;
        self.paused_virt = 0;
        self.op_start = Some((Instant::now(), self.clock.now()));
    }

    /// Ends the current op and records its duration on both clocks.
    pub fn op_end(&mut self) {
        let (t0, v0) = self.op_start.take().expect("op_end without op_begin");
        let host = t0.elapsed() - self.paused_host;
        let virt = self.clock.now() - v0 - self.paused_virt;
        self.op_host_ns.push(host.as_nanos() as f64);
        self.op_virt_ns.push(virt as f64);
        self.attempted += 1;
    }

    /// Stops both op clocks (benchmark-side verification follows).
    pub fn pause(&mut self) {
        self.paused_at = Some((Instant::now(), self.clock.now()));
    }

    /// Restarts both op clocks.
    pub fn resume(&mut self) {
        let (t, v) = self.paused_at.take().expect("resume without pause");
        self.paused_host += t.elapsed();
        self.paused_virt += self.clock.now() - v;
    }

    /// Virtual ns paused so far in the current op (lets a workload take
    /// verification out of a multi-step virtual interval).
    pub fn paused_virt(&self) -> u64 {
        self.paused_virt
    }

    /// Folds a generated input into the op-stream hash.
    pub fn mix(&mut self, x: u64) {
        self.stream = crate::gen::mix(self.stream, x);
    }

    /// Adds a sample to the series `name`.
    pub fn rec(&mut self, name: &'static str, v: f64) {
        if self.muted {
            return;
        }
        self.series.entry(name).or_default().push(v);
    }

    /// Adds many samples to the series `name` at once.
    pub fn rec_all(&mut self, name: &'static str, vs: impl IntoIterator<Item = f64>) {
        if !self.muted {
            let series = self.series.entry(name).or_default();
            vs.into_iter().for_each(|v| series.push(v));
        }
    }

    /// Adds `n` to the counter `name`.
    pub fn add(&mut self, name: &'static str, n: u64) {
        if self.muted {
            return;
        }
        *self.counts.entry(name).or_default() += n;
    }

    /// The counter `name` (0 if never touched).
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// The series `name` (empty if never touched).
    pub fn series(&mut self, name: &'static str) -> &mut Samples {
        self.series.entry(name).or_default()
    }

    /// One verification check: counted as attempted, and as failed with
    /// `what` logged when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records a failed op or check.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}
