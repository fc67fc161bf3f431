//! The online invariant checker: cross-layer assertions expressed as
//! probes over the live event stream.
//!
//! Arming a checker on a recording [`Trace`](crate::Trace) registers one
//! probe per invariant; every test, benchmark, and crash schedule that
//! runs with the checker armed becomes a cross-layer assertion run at no
//! virtual-time cost. The invariants:
//!
//! 1. **Epoch monotonicity** — `epoch.commit` (and `recovery.replay`)
//!    epochs strictly increase; a `recovery.begin` resets the watermark,
//!    because recovery legitimately rewinds to the last durable epoch
//!    and reuses the numbers a crash destroyed.
//! 2. **External synchrony: seal before release, release after
//!    durability** — every `extsync.release` names an epoch that was
//!    previously sealed (`extsync.seal`), and fires no earlier than the
//!    batch's recorded durability horizon.
//! 3. **Quiesce-window mutual exclusion** — `posix.quiesce` windows
//!    never overlap: the kernel must not stop a group while another
//!    stop-the-world window is still open.
//! 4. **Frozen-frame immutability** — every `frames.write` that hits a
//!    shared (refcount ≥ 2, i.e. frozen-by-someone) frame reports a COW
//!    copy; an in-place write to a shared frame would mutate a frozen
//!    checkpoint's view of memory.
//! 5. **Redo-chain termination** — every `redo.materialize` chain walk
//!    ends at a full-image record (`full_base = 1`); a chain with no
//!    base cannot be replayed into a page.
//! 6. **Durability watermark ordering** — every `redo.watermark` holds
//!    `VDL ≤ VCL`: a consistency point cannot be durable before every
//!    record below it is on the device.
//!
//! Violations are collected, not panicked, so a harness can run to
//! completion and report every failure; [`InvariantChecker::assert_clean`]
//! is the test-facing panic. [`InvariantChecker::on_violation`] registers
//! sinks that fire synchronously at the moment a violation is detected —
//! the flight recorder uses this to dump the causal graphs of the last
//! few epochs while the evidence is still in the rings.

use crate::probe::ProbeSpec;
use crate::{Phase, Trace, TraceEvent};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

#[derive(Default)]
struct State {
    checked: u64,
    violations: Vec<String>,
    last_epoch: Option<u64>,
    sealed: BTreeSet<u64>,
    quiesce_end: u64,
}

type Sink = Arc<dyn Fn(&str) + Send + Sync>;

/// One invariant's check: updates its watch state from a matching event
/// and returns the violations that event reveals.
type Check = fn(&mut State, &TraceEvent) -> Vec<String>;

/// A live invariant checker. Cloning shares the collected state.
#[derive(Clone, Default)]
pub struct InvariantChecker {
    state: Arc<Mutex<State>>,
    sinks: Arc<Mutex<Vec<Sink>>>,
}

fn arg(ev: &TraceEvent, key: &str) -> Option<u64> {
    ev.args.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
}

/// Every invariant: the events it watches and its check.
fn invariants() -> [(ProbeSpec, Check); 7] {
    [
        (ProbeSpec::any().cat("objstore").name_prefix("epoch.commit"), epoch_commit),
        (ProbeSpec::any().cat("objstore").name_prefix("recovery."), recovery),
        (ProbeSpec::any().name_prefix("extsync."), extsync),
        (
            ProbeSpec::any().cat("posix").name_prefix("posix.quiesce").phase(Phase::Complete),
            quiesce_exclusion,
        ),
        (ProbeSpec::any().cat("frames").name_prefix("frames.write"), frozen_frame),
        (ProbeSpec::any().cat("objstore").name_prefix("redo.materialize"), chain_termination),
        (ProbeSpec::any().cat("objstore").name_prefix("redo.watermark"), watermark_ordering),
    ]
}

/// Moves the epoch watermark to `epoch`; returns the previous watermark
/// when `epoch` does not exceed it.
fn advance_epoch(st: &mut State, epoch: u64) -> Option<u64> {
    st.last_epoch.replace(epoch).filter(|&last| epoch <= last)
}

/// Invariant 1: committed epochs strictly increase.
fn epoch_commit(st: &mut State, ev: &TraceEvent) -> Vec<String> {
    let epoch = arg(ev, "epoch").unwrap_or(0);
    match advance_epoch(st, epoch) {
        Some(last) => vec![format!(
            "epoch monotonicity: commit of epoch {epoch} at t={} after epoch {last}",
            ev.ts
        )],
        None => Vec::new(),
    }
}

/// Invariant 1 across a crash: `recovery.begin` rewinds the epoch space,
/// and replays must ascend.
fn recovery(st: &mut State, ev: &TraceEvent) -> Vec<String> {
    match ev.name.as_ref() {
        "recovery.begin" => st.last_epoch = None,
        "recovery.replay" => {
            let epoch = arg(ev, "epoch").unwrap_or(0);
            if let Some(last) = advance_epoch(st, epoch) {
                return vec![format!(
                    "epoch monotonicity: recovery replayed epoch {epoch} after {last}"
                )];
            }
        }
        _ => {}
    }
    Vec::new()
}

/// Invariant 2: external synchrony ordering.
fn extsync(st: &mut State, ev: &TraceEvent) -> Vec<String> {
    let mut fresh = Vec::new();
    let epoch = arg(ev, "epoch").unwrap_or(0);
    match ev.name.as_ref() {
        "extsync.seal" => {
            st.sealed.insert(epoch);
        }
        "extsync.release" => {
            if !st.sealed.contains(&epoch) {
                fresh.push(format!(
                    "extsync ordering: release of epoch {epoch} at t={} never sealed",
                    ev.ts
                ));
            }
            if let Some(durable_at) = arg(ev, "durable_at") {
                if ev.ts < durable_at {
                    fresh.push(format!(
                        "extsync durability: epoch {epoch} released at t={} before \
                         durable_at={durable_at}",
                        ev.ts
                    ));
                }
            }
        }
        _ => {}
    }
    fresh
}

/// Invariant 3: quiesce-window mutual exclusion.
fn quiesce_exclusion(st: &mut State, ev: &TraceEvent) -> Vec<String> {
    let mut fresh = Vec::new();
    if ev.ts < st.quiesce_end {
        fresh.push(format!(
            "quiesce exclusion: window [{}, {}) overlaps one ending at {}",
            ev.ts,
            ev.ts + ev.dur,
            st.quiesce_end
        ));
    }
    st.quiesce_end = st.quiesce_end.max(ev.ts + ev.dur);
    fresh
}

/// Invariant 4: frozen-frame immutability.
fn frozen_frame(_: &mut State, ev: &TraceEvent) -> Vec<String> {
    let shared = arg(ev, "shared").unwrap_or(0);
    let copied = arg(ev, "copied").unwrap_or(0);
    if shared == 1 && copied == 0 {
        return vec![format!(
            "frozen-frame immutability: in-place write to a shared frame at t={}",
            ev.ts
        )];
    }
    Vec::new()
}

/// Invariant 5: redo-chain termination.
fn chain_termination(_: &mut State, ev: &TraceEvent) -> Vec<String> {
    if arg(ev, "full_base").unwrap_or(0) == 0 {
        return vec![format!(
            "redo chain termination: materialization at t={} walked a chain with \
             no full-image base",
            ev.ts
        )];
    }
    Vec::new()
}

/// Invariant 6: durability watermark ordering, VDL never exceeds VCL.
fn watermark_ordering(_: &mut State, ev: &TraceEvent) -> Vec<String> {
    let vcl = arg(ev, "vcl").unwrap_or(0);
    let vdl = arg(ev, "vdl").unwrap_or(0);
    if vdl > vcl {
        return vec![format!("watermark ordering: VDL {vdl} exceeds VCL {vcl} at t={}", ev.ts)];
    }
    Vec::new()
}

impl InvariantChecker {
    /// Arms every invariant on `trace`. On a disabled trace this is a
    /// no-op checker that trivially stays clean.
    pub fn arm(trace: &Trace) -> Self {
        let checker = Self::default();
        for (spec, check) in invariants() {
            let c = checker.clone();
            trace.probe(spec, move |ev| {
                let fresh = {
                    let mut st = c.state.lock().unwrap();
                    st.checked += 1;
                    let fresh = check(&mut st, ev);
                    st.violations.extend(fresh.iter().cloned());
                    fresh
                };
                c.notify(&fresh);
            });
        }
        checker
    }

    /// Dispatches freshly detected violations to the registered sinks.
    /// Runs outside the state lock so a sink may inspect the checker (or
    /// trigger a flight-recorder dump) without deadlocking.
    fn notify(&self, fresh: &[String]) {
        if fresh.is_empty() {
            return;
        }
        let snapshot: Vec<Sink> = self.sinks.lock().unwrap().clone();
        for msg in fresh {
            for sink in &snapshot {
                sink(msg);
            }
        }
    }

    /// Registers a sink invoked synchronously (outside the checker's
    /// internal lock) for every violation detected from now on. The
    /// flight recorder hangs its dump trigger here.
    pub fn on_violation(&self, f: impl Fn(&str) + Send + Sync + 'static) {
        self.sinks.lock().unwrap().push(Arc::new(f));
    }

    /// Events the checker has examined.
    pub fn checked(&self) -> u64 {
        self.state.lock().unwrap().checked
    }

    /// The violations collected so far.
    pub fn violations(&self) -> Vec<String> {
        self.state.lock().unwrap().violations.clone()
    }

    /// True when no invariant has been violated.
    pub fn is_clean(&self) -> bool {
        self.state.lock().unwrap().violations.is_empty()
    }

    /// Panics with every collected violation (test assertion).
    pub fn assert_clean(&self) {
        let st = self.state.lock().unwrap();
        assert!(
            st.violations.is_empty(),
            "invariant checker found {} violation(s) over {} events:\n  {}",
            st.violations.len(),
            st.checked,
            st.violations.join("\n  ")
        );
    }
}

impl std::fmt::Debug for InvariantChecker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock().unwrap();
        write!(f, "InvariantChecker({} checked, {} violations)", st.checked, st.violations.len())
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
    fn monotone_epochs_are_clean_and_regressions_caught() {
        let (_, t) = clocked();
        let c = InvariantChecker::arm(&t);
        t.instant("objstore", "epoch.commit", &[("epoch", 1)]);
        t.instant("objstore", "epoch.commit", &[("epoch", 2)]);
        assert!(c.is_clean());
        t.instant("objstore", "epoch.commit", &[("epoch", 2)]);
        assert!(!c.is_clean());
        assert!(c.violations()[0].contains("epoch monotonicity"));
    }

    #[test]
    fn recovery_resets_the_epoch_watermark() {
        let (_, t) = clocked();
        let c = InvariantChecker::arm(&t);
        t.instant("objstore", "epoch.commit", &[("epoch", 5)]);
        t.instant("objstore", "recovery.begin", &[]);
        t.instant("objstore", "recovery.replay", &[("epoch", 3)]);
        t.instant("objstore", "epoch.commit", &[("epoch", 4)]);
        assert!(c.is_clean(), "{:?}", c.violations());
        // But replays themselves must ascend.
        t.instant("objstore", "recovery.begin", &[]);
        t.instant("objstore", "recovery.replay", &[("epoch", 3)]);
        t.instant("objstore", "recovery.replay", &[("epoch", 2)]);
        assert!(!c.is_clean());
    }

    #[test]
    fn release_requires_prior_seal_and_durability() {
        let (clock, t) = clocked();
        let c = InvariantChecker::arm(&t);
        clock.store(100, Ordering::Relaxed);
        t.instant("extsync", "extsync.seal", &[("epoch", 1), ("durable_at", 150)]);
        clock.store(200, Ordering::Relaxed);
        t.instant("extsync", "extsync.release", &[("epoch", 1), ("durable_at", 150)]);
        assert!(c.is_clean(), "{:?}", c.violations());
        t.instant("extsync", "extsync.release", &[("epoch", 9), ("durable_at", 0)]);
        assert!(!c.is_clean());
        let (_, t2) = clocked();
        let c2 = InvariantChecker::arm(&t2);
        t2.instant("extsync", "extsync.seal", &[("epoch", 1), ("durable_at", 500)]);
        t2.instant("extsync", "extsync.release", &[("epoch", 1), ("durable_at", 500)]);
        assert!(!c2.is_clean(), "released at t=0 before durable_at=500");
    }

    #[test]
    fn overlapping_quiesce_windows_are_violations() {
        let (_, t) = clocked();
        let c = InvariantChecker::arm(&t);
        t.complete("posix", "posix.quiesce", 100, 50, &[]);
        t.complete("posix", "posix.quiesce", 150, 50, &[]);
        assert!(c.is_clean(), "{:?}", c.violations());
        t.complete("posix", "posix.quiesce", 180, 10, &[]);
        assert!(!c.is_clean());
    }

    #[test]
    fn inplace_write_to_shared_frame_is_a_violation() {
        let (_, t) = clocked();
        let c = InvariantChecker::arm(&t);
        t.instant("frames", "frames.write", &[("shared", 0), ("copied", 0), ("zero", 0)]);
        t.instant("frames", "frames.write", &[("shared", 1), ("copied", 1), ("zero", 0)]);
        assert!(c.is_clean());
        t.instant("frames", "frames.write", &[("shared", 1), ("copied", 0), ("zero", 0)]);
        assert!(!c.is_clean());
        assert_eq!(c.checked(), 3);
    }

    #[test]
    fn chain_without_full_base_is_a_violation() {
        let (_, t) = clocked();
        let c = InvariantChecker::arm(&t);
        t.instant("objstore", "redo.materialize", &[("oid", 7), ("chain_len", 3), ("full_base", 1)]);
        assert!(c.is_clean(), "{:?}", c.violations());
        t.instant("objstore", "redo.materialize", &[("oid", 7), ("full_base", 0)]);
        assert!(!c.is_clean());
        assert!(c.violations()[0].contains("redo chain termination"));
    }

    #[test]
    fn vdl_above_vcl_is_a_violation() {
        let (_, t) = clocked();
        let c = InvariantChecker::arm(&t);
        t.instant("objstore", "redo.watermark", &[("vcl", 10), ("vdl", 10)]);
        t.instant("objstore", "redo.watermark", &[("vcl", 12), ("vdl", 10)]);
        assert!(c.is_clean(), "{:?}", c.violations());
        t.instant("objstore", "redo.watermark", &[("vcl", 12), ("vdl", 13)]);
        assert!(!c.is_clean());
        assert!(c.violations()[0].contains("watermark ordering"));
    }

    #[test]
    fn checker_on_disabled_trace_is_inert() {
        let t = Trace::disabled();
        let c = InvariantChecker::arm(&t);
        t.instant("objstore", "epoch.commit", &[("epoch", 1)]);
        assert!(c.is_clean());
        assert_eq!(c.checked(), 0);
    }

    #[test]
    fn violation_sinks_fire_once_per_violation() {
        let (_, t) = clocked();
        let c = InvariantChecker::arm(&t);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s2 = seen.clone();
        c.on_violation(move |msg| s2.lock().unwrap().push(msg.to_string()));
        t.instant("objstore", "epoch.commit", &[("epoch", 3)]);
        assert!(seen.lock().unwrap().is_empty(), "clean events must not fire sinks");
        t.instant("objstore", "epoch.commit", &[("epoch", 3)]);
        let got = seen.lock().unwrap().clone();
        assert_eq!(got.len(), 1);
        assert!(got[0].contains("epoch monotonicity"));
        assert_eq!(c.violations(), got);
    }

    #[test]
    fn violation_sink_may_inspect_the_checker() {
        // A sink that re-enters the checker's accessors (as the flight
        // recorder's dump path does) must not deadlock.
        let (_, t) = clocked();
        let c = InvariantChecker::arm(&t);
        let c2 = c.clone();
        let count = Arc::new(AtomicU64::new(0));
        let n2 = count.clone();
        c.on_violation(move |_| {
            n2.store(c2.violations().len() as u64, Ordering::Relaxed);
        });
        t.instant("objstore", "redo.watermark", &[("vcl", 1), ("vdl", 2)]);
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }
}
