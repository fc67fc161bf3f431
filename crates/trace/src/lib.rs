//! `aurora-trace` — the deterministic tracing and metrics substrate.
//!
//! Every layer of the Aurora reproduction (cost charges, device I/O,
//! object-store epochs, VM faults, POSIX quiesce, the checkpoint
//! pipeline, external synchrony) reports what it does through a shared
//! [`Trace`] handle. Three properties make it fit a simulated OS:
//!
//! * **Deterministic**: events are stamped with the *virtual* clock
//!   (the recorder is constructed over a `Fn() -> u64` that reads it) and
//!   stored in issue order, so two identical runs produce byte-identical
//!   exports. No wall time, no thread IDs, no global registries.
//! * **Zero-cost when disabled**: a disabled handle is a `None`; every
//!   recording method is a single branch and never reads the clock. The
//!   virtual timeline of a run with tracing enabled is bit-identical to
//!   one with it disabled — recording never charges time.
//! * **Exportable**: [`chrome::export`] renders the event list as Chrome
//!   trace-event JSON (loadable in `about://tracing` or Perfetto);
//!   aggregated [`Histogram`]s feed the bench harness's machine-readable
//!   metrics files.
//!
//! The crate is dependency-free and sits below `aurora-sim`: the
//! simulator's `Charge` accountant carries a `Trace`, so every subsystem
//! that can charge virtual time can also trace.

pub mod causal;
pub mod chrome;
pub mod flight;
pub mod invariant;
pub mod json;
pub mod probe;
pub mod sampler;
pub mod stats;

pub use causal::{CausalEvent, CausalGraph, CriticalPath, HopKind, PathHop};
pub use flight::FlightRecorder;
pub use invariant::InvariantChecker;
pub use probe::{ProbeId, ProbeSpec};
pub use sampler::{Sample, Sampler};
pub use stats::Histogram;

use probe::ProbeSet;
use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default event-ring capacity: generous enough that no current test or
/// bench run evicts, small enough to bound a pathological run's memory.
pub const DEFAULT_TRACE_CAP: usize = 1 << 20;

/// Event kinds, mirroring the Chrome trace-event phases we emit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// A span with a start and a duration (`ph: "X"`).
    Complete,
    /// A point event (`ph: "i"`).
    Instant,
}

/// One recorded event. Arguments are `u64` only — every quantity in the
/// simulation (epochs, pids, bytes, nanoseconds) is an integer, and
/// integer-only args keep exports trivially deterministic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual-clock timestamp, ns.
    pub ts: u64,
    /// Duration for [`Phase::Complete`] events, ns (0 otherwise).
    pub dur: u64,
    /// Event kind.
    pub ph: Phase,
    /// Category — the emitting subsystem (`"pipeline"`, `"storage"`, …).
    pub cat: &'static str,
    /// Event name.
    pub name: Cow<'static, str>,
    /// Key/value arguments.
    pub args: Vec<(&'static str, u64)>,
}

struct Inner {
    now: Box<dyn Fn() -> u64 + Send + Sync>,
    /// Bounded ring: oldest records are evicted once `cap` is reached.
    events: Mutex<VecDeque<TraceEvent>>,
    cap: usize,
    dropped: AtomicU64,
    hists: Mutex<BTreeMap<String, Histogram>>,
    probes: ProbeSet,
}

/// A cloneable subscriber handle. All clones share one event buffer.
///
/// The [`Default`]/[`Trace::disabled`] handle records nothing: every
/// method is a branch on a `None` and returns immediately, so
/// instrumented code pays nothing when tracing is off.
#[derive(Clone, Default)]
pub struct Trace {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Trace(disabled)"),
            Some(i) => write!(f, "Trace({} events)", i.events.lock().unwrap().len()),
        }
    }
}

impl Trace {
    /// The no-op handle.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A recording handle stamping events with `now` (the virtual clock),
    /// its event ring holding [`DEFAULT_TRACE_CAP`] records.
    pub fn recording(now: impl Fn() -> u64 + Send + Sync + 'static) -> Self {
        Self::recording_with_cap(now, DEFAULT_TRACE_CAP)
    }

    /// A recording handle with an explicit event-ring capacity (clamped
    /// to ≥ 1). Probes and histograms are unaffected by the cap: probes
    /// run before eviction, histograms aggregate in place.
    pub(crate) fn recording_with_cap(now: impl Fn() -> u64 + Send + Sync + 'static, cap: usize) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                now: Box::new(now),
                events: Mutex::new(VecDeque::new()),
                cap: cap.max(1),
                dropped: AtomicU64::new(0),
                hists: Mutex::new(BTreeMap::new()),
                probes: ProbeSet::default(),
            })),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The recorder's current timestamp (0 when disabled).
    pub fn now(&self) -> u64 {
        self.inner.as_ref().map(|i| (i.now)()).unwrap_or(0)
    }

    /// The single recording path: probes observe the record first (so
    /// they see every record regardless of ring capacity), then it
    /// enters the ring, evicting the oldest record when full.
    fn push(&self, ev: TraceEvent) {
        if let Some(i) = &self.inner {
            i.probes.dispatch(&ev);
            let mut events = i.events.lock().unwrap();
            if events.len() >= i.cap {
                events.pop_front();
                i.dropped.fetch_add(1, Ordering::Relaxed);
            }
            events.push_back(ev);
        }
    }

    /// Records a point event stamped now.
    pub fn instant(
        &self,
        cat: &'static str,
        name: impl Into<Cow<'static, str>>,
        args: &[(&'static str, u64)],
    ) {
        if self.inner.is_some() {
            let ts = self.now();
            self.push(TraceEvent {
                ts,
                dur: 0,
                ph: Phase::Instant,
                cat,
                name: name.into(),
                args: args.to_vec(),
            });
        }
    }

    /// Records a span with explicit start and duration (for operations
    /// whose interval is known after the fact, e.g. a device completion).
    pub fn complete(
        &self,
        cat: &'static str,
        name: impl Into<Cow<'static, str>>,
        start_ns: u64,
        dur_ns: u64,
        args: &[(&'static str, u64)],
    ) {
        self.push(TraceEvent {
            ts: start_ns,
            dur: dur_ns,
            ph: Phase::Complete,
            cat,
            name: name.into(),
            args: args.to_vec(),
        });
    }

    /// Opens a span starting now; the returned guard records a
    /// [`Phase::Complete`] event when dropped (or [`Span::end`]ed).
    pub fn span(&self, cat: &'static str, name: impl Into<Cow<'static, str>>) -> Span {
        Span {
            trace: self.clone(),
            cat,
            name: name.into(),
            start: self.now(),
            args: Vec::new(),
        }
    }

    /// Records `sample` into the named aggregated histogram.
    pub fn hist(&self, name: &str, sample: u64) {
        if let Some(i) = &self.inner {
            let mut h = i.hists.lock().unwrap();
            match h.get_mut(name) {
                Some(hist) => hist.record(sample),
                None => {
                    let mut hist = Histogram::default();
                    hist.record(sample);
                    h.insert(name.to_string(), hist);
                }
            }
        }
    }

    /// A snapshot of the retained events, in issue order (oldest records
    /// may have been evicted by the ring — see [`Trace::dropped_records`]).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner
            .as_ref()
            .map(|i| i.events.lock().unwrap().iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Number of events currently retained.
    pub fn event_count(&self) -> usize {
        self.inner.as_ref().map(|i| i.events.lock().unwrap().len()).unwrap_or(0)
    }

    /// The event ring's capacity (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.inner.as_ref().map(|i| i.cap).unwrap_or(0)
    }

    /// Records evicted from the ring since recording began.
    pub fn dropped_records(&self) -> u64 {
        self.inner.as_ref().map(|i| i.dropped.load(Ordering::Relaxed)).unwrap_or(0)
    }

    /// Registers a probe: `f` runs synchronously for every subsequent
    /// record matching `spec`, before the ring can evict it. Returns the
    /// null id ([`ProbeId`]`(0)`) on a disabled trace.
    pub fn probe(
        &self,
        spec: ProbeSpec,
        f: impl Fn(&TraceEvent) + Send + Sync + 'static,
    ) -> ProbeId {
        self.inner.as_ref().map(|i| i.probes.add(spec, f)).unwrap_or(ProbeId(0))
    }

    /// How many records a probe has matched.
    pub fn probe_hits(&self, id: ProbeId) -> u64 {
        self.inner.as_ref().map(|i| i.probes.hits(id)).unwrap_or(0)
    }

    /// A snapshot of the aggregated histograms, sorted by name.
    pub fn histograms(&self) -> Vec<(String, Histogram)> {
        self.inner
            .as_ref()
            .map(|i| i.hists.lock().unwrap().iter().map(|(k, v)| (k.clone(), v.clone())).collect())
            .unwrap_or_default()
    }

    /// Drops all recorded events and histograms and zeroes the dropped
    /// counter (keeps the handle — and its probes — live).
    pub fn clear(&self) {
        if let Some(i) = &self.inner {
            i.events.lock().unwrap().clear();
            i.hists.lock().unwrap().clear();
            i.dropped.store(0, Ordering::Relaxed);
        }
    }

    /// Renders the recorded events as Chrome trace-event JSON.
    pub fn export_chrome(&self) -> String {
        chrome::export(&self.events())
    }
}

/// A live span; dropping it records the completed interval.
#[must_use = "dropping immediately records a zero-length span"]
pub struct Span {
    trace: Trace,
    cat: &'static str,
    name: Cow<'static, str>,
    start: u64,
    args: Vec<(&'static str, u64)>,
}

impl Span {
    /// The span's start timestamp.
    pub fn start_ns(&self) -> u64 {
        self.start
    }

    /// Attaches an argument (recorded at close).
    pub fn arg(&mut self, key: &'static str, value: u64) {
        if self.trace.is_enabled() {
            self.args.push((key, value));
        }
    }

    /// Closes the span now (equivalent to dropping it).
    pub fn end(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.trace.is_enabled() {
            let end = self.trace.now();
            self.trace.push(TraceEvent {
                ts: self.start,
                dur: end.saturating_sub(self.start),
                ph: Phase::Complete,
                cat: self.cat,
                name: std::mem::replace(&mut self.name, Cow::Borrowed("")),
                args: std::mem::take(&mut self.args),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn clocked() -> (Arc<AtomicU64>, Trace) {
        let t = Arc::new(AtomicU64::new(0));
        let t2 = t.clone();
        (t, Trace::recording(move || t2.load(Ordering::Relaxed)))
    }

    #[test]
    fn disabled_records_nothing() {
        let t = Trace::disabled();
        t.instant("x", "e", &[("a", 1)]);
        t.hist("h", 3);
        let mut s = t.span("x", "s");
        s.arg("k", 1);
        drop(s);
        assert!(!t.is_enabled());
        assert_eq!(t.event_count(), 0);
        assert!(t.histograms().is_empty());
    }

    #[test]
    fn events_are_stamped_and_ordered() {
        let (clock, t) = clocked();
        t.instant("a", "first", &[]);
        clock.store(10, Ordering::Relaxed);
        t.instant("a", "second", &[("v", 7)]);
        let evs = t.events();
        assert_eq!(evs.len(), 2);
        assert_eq!((evs[0].ts, evs[1].ts), (0, 10));
        assert_eq!(evs[1].args, vec![("v", 7)]);
    }

    #[test]
    fn span_measures_interval() {
        let (clock, t) = clocked();
        clock.store(100, Ordering::Relaxed);
        let mut s = t.span("cat", "work");
        s.arg("n", 3);
        clock.store(250, Ordering::Relaxed);
        s.end();
        let evs = t.events();
        assert_eq!(evs.len(), 1);
        assert_eq!((evs[0].ts, evs[0].dur), (100, 150));
        assert_eq!(evs[0].ph, Phase::Complete);
        assert_eq!(evs[0].args, vec![("n", 3)]);
    }

    #[test]
    fn clones_share_the_buffer() {
        let (_, t) = clocked();
        let t2 = t.clone();
        t.instant("a", "x", &[]);
        t2.instant("a", "y", &[]);
        assert_eq!(t.event_count(), 2);
        assert_eq!(t2.event_count(), 2);
    }

    #[test]
    fn histogram_buckets_and_percentiles() {
        let mut h = Histogram::default();
        for v in [1u64, 2, 3, 4, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.mean(), 1110 / 6);
        assert!(h.percentile(50.0) >= 3);
        assert!(h.percentile(100.0) >= 1000);
        let empty = Histogram::default();
        assert_eq!(empty.percentile(99.0), 0);
        assert_eq!(empty.mean(), 0);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let (clock, _) = clocked();
        let t2 = clock.clone();
        let t = Trace::recording_with_cap(move || t2.load(Ordering::Relaxed), 3);
        for i in 0..5u64 {
            t.instant("a", "e", &[("i", i)]);
        }
        assert_eq!(t.event_count(), 3);
        assert_eq!(t.dropped_records(), 2);
        assert_eq!(t.capacity(), 3);
        let evs = t.events();
        assert_eq!(evs[0].args, vec![("i", 2)], "oldest two evicted");
        assert_eq!(evs[2].args, vec![("i", 4)]);
        t.clear();
        assert_eq!(t.dropped_records(), 0);
    }

    #[test]
    fn probes_see_records_the_ring_evicts() {
        let seen = Arc::new(AtomicU64::new(0));
        let s2 = seen.clone();
        let t = Trace::recording_with_cap(|| 0, 2);
        let id = t.probe(ProbeSpec::any().name_prefix("e"), move |_| {
            s2.fetch_add(1, Ordering::Relaxed);
        });
        for _ in 0..10 {
            t.instant("a", "e", &[]);
        }
        assert_eq!(t.event_count(), 2, "ring bounded");
        assert_eq!(seen.load(Ordering::Relaxed), 10, "probe saw every record");
        assert_eq!(t.probe_hits(id), 10);
    }

    #[test]
    fn probe_callback_may_emit_records() {
        let (_, t) = clocked();
        let t2 = t.clone();
        t.probe(ProbeSpec::any().name_prefix("outer"), move |_| {
            t2.instant("probe", "inner", &[]);
        });
        t.instant("a", "outer", &[]);
        let names: Vec<_> = t.events().iter().map(|e| e.name.to_string()).collect();
        assert_eq!(names, vec!["inner", "outer"], "re-entrant emission must not deadlock");
    }

    #[test]
    fn disabled_trace_probe_api_is_inert() {
        let t = Trace::disabled();
        let id = t.probe(ProbeSpec::any(), |_| panic!("must never run"));
        assert_eq!(id, ProbeId(0));
        t.instant("a", "e", &[]);
        assert_eq!(t.probe_hits(id), 0);
        assert_eq!(t.dropped_records(), 0);
    }

    #[test]
    fn histogram_merge_matches_combined_recording() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut combined = Histogram::default();
        for v in [1u64, 5, 9, 200] {
            a.record(v);
            combined.record(v);
        }
        for v in [3u64, 7_000, 0] {
            b.record(v);
            combined.record(v);
        }
        let mut into_empty = Histogram::default();
        into_empty.merge(&b);
        assert_eq!(into_empty, b, "merging into an empty histogram copies the other");
        a.merge(&b);
        assert_eq!(a, combined);
        for p in [50.0, 95.0, 99.0, 99.9] {
            assert_eq!(a.percentile(p), combined.percentile(p));
        }
        let mut empty = Histogram::default();
        empty.merge(&Histogram::default());
        assert_eq!(empty, Histogram::default(), "merging empties stays empty");
    }

    #[test]
    fn identical_runs_identical_events() {
        let run = || {
            let (clock, t) = clocked();
            for i in 0..50u64 {
                clock.store(i * 7, Ordering::Relaxed);
                t.instant("cat", "tick", &[("i", i)]);
                t.hist("lat", i % 11);
            }
            (t.events(), t.histograms())
        };
        assert_eq!(run(), run());
    }
}
