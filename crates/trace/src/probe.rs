//! The streaming probe engine: DTrace-style predicates over the live
//! event stream.
//!
//! A probe is a [`ProbeSpec`] predicate plus a callback. Registered on a
//! recording [`Trace`](crate::Trace), the callback runs *synchronously*
//! for every matching record at the moment it is emitted — before the
//! bounded ring can evict it — so subscribers (the invariant checker,
//! `sls watch`, tests) observe the complete stream regardless of buffer
//! capacity.
//!
//! Cost model: with no probes registered, emission pays one relaxed
//! atomic load on top of the plain recording path. With probes
//! registered, each record is matched against every spec; callbacks run
//! only on a match. Probes never read or advance the clock, so arming
//! them cannot perturb a run's virtual timeline.

use crate::{Phase, TraceEvent};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// A predicate over trace records. Every populated field must match;
/// the default matches everything.
#[derive(Clone, Debug, Default)]
pub struct ProbeSpec {
    /// Event name must start with this.
    pub name_prefix: Option<Cow<'static, str>>,
    /// Category (emitting subsystem) must equal this.
    pub cat: Option<&'static str>,
    /// Event phase must equal this.
    pub phase: Option<Phase>,
}

impl ProbeSpec {
    /// A spec matching every record.
    pub fn any() -> Self {
        Self::default()
    }

    /// Restricts to names starting with `prefix`.
    pub fn name_prefix(mut self, prefix: impl Into<Cow<'static, str>>) -> Self {
        self.name_prefix = Some(prefix.into());
        self
    }

    /// Restricts to one category (subsystem).
    pub fn cat(mut self, cat: &'static str) -> Self {
        self.cat = Some(cat);
        self
    }

    /// Restricts to one phase.
    pub(crate) fn phase(mut self, phase: Phase) -> Self {
        self.phase = Some(phase);
        self
    }

    /// Whether `ev` satisfies every populated field.
    pub(crate) fn matches(&self, ev: &TraceEvent) -> bool {
        self.name_prefix.as_ref().is_none_or(|p| ev.name.starts_with(p.as_ref()))
            && self.cat.is_none_or(|c| ev.cat == c)
            && self.phase.is_none_or(|ph| ev.ph == ph)
    }
}

/// Handle to a registered probe (read its hit count).
/// `ProbeId(0)` is the null id a disabled trace hands out.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ProbeId(pub u64);

/// A registered callback, shareable so dispatch can run it lock-free.
type ProbeFn = Arc<dyn Fn(&TraceEvent) + Send + Sync>;

struct ProbeEntry {
    id: u64,
    spec: ProbeSpec,
    hits: Arc<AtomicU64>,
    f: ProbeFn,
}

/// The set of live probes on one recorder. Shared by all `Trace` clones.
#[derive(Default)]
pub(crate) struct ProbeSet {
    /// Number of registered probes — the emission fast path's only read.
    count: AtomicUsize,
    next_id: AtomicU64,
    probes: Mutex<Vec<ProbeEntry>>,
}

impl ProbeSet {
    pub(crate) fn add(
        &self,
        spec: ProbeSpec,
        f: impl Fn(&TraceEvent) + Send + Sync + 'static,
    ) -> ProbeId {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let mut probes = self.probes.lock().unwrap();
        probes.push(ProbeEntry {
            id,
            spec,
            hits: Arc::new(AtomicU64::new(0)),
            f: Arc::new(f),
        });
        self.count.store(probes.len(), Ordering::Relaxed);
        ProbeId(id)
    }

    pub(crate) fn hits(&self, id: ProbeId) -> u64 {
        self.probes
            .lock()
            .unwrap()
            .iter()
            .find(|p| p.id == id.0)
            .map(|p| p.hits.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Runs every matching probe on `ev`. Callbacks are invoked with the
    /// probe lock released, so a callback may itself emit trace records
    /// (they recurse through dispatch safely).
    pub(crate) fn dispatch(&self, ev: &TraceEvent) {
        if self.count.load(Ordering::Relaxed) == 0 {
            return;
        }
        let matched: Vec<(Arc<AtomicU64>, ProbeFn)> = {
            let probes = self.probes.lock().unwrap();
            probes
                .iter()
                .filter(|p| p.spec.matches(ev))
                .map(|p| (p.hits.clone(), p.f.clone()))
                .collect()
        };
        for (hits, f) in matched {
            hits.fetch_add(1, Ordering::Relaxed);
            f(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cat: &'static str, name: &'static str, dur: u64, args: &[(&'static str, u64)]) -> TraceEvent {
        TraceEvent {
            ts: 0,
            dur,
            ph: if dur > 0 { Phase::Complete } else { Phase::Instant },
            cat,
            name: Cow::Borrowed(name),
            args: args.to_vec(),
        }
    }

    #[test]
    fn spec_fields_all_constrain() {
        let e = ev("objstore", "epoch.commit", 0, &[("epoch", 3), ("oid", 7)]);
        assert!(ProbeSpec::any().matches(&e));
        assert!(ProbeSpec::any().name_prefix("epoch.").matches(&e));
        assert!(!ProbeSpec::any().name_prefix("pipeline").matches(&e));
        assert!(ProbeSpec::any().cat("objstore").matches(&e));
        assert!(!ProbeSpec::any().cat("vm").matches(&e));
        assert!(ProbeSpec::any().phase(Phase::Instant).matches(&e));
        assert!(!ProbeSpec::any().phase(Phase::Complete).matches(&e));
    }

    #[test]
    fn dispatch_counts_hits_of_matching_probes() {
        let set = ProbeSet::default();
        let seen = Arc::new(AtomicU64::new(0));
        let s2 = seen.clone();
        let id = set.add(ProbeSpec::any().name_prefix("a"), move |_| {
            s2.fetch_add(1, Ordering::Relaxed);
        });
        set.dispatch(&ev("x", "abc", 0, &[]));
        set.dispatch(&ev("x", "zzz", 0, &[]));
        assert_eq!(seen.load(Ordering::Relaxed), 1);
        assert_eq!(set.hits(id), 1);
    }
}
