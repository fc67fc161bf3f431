//! The crash flight recorder: a bounded ring of recent epoch causal
//! graphs, dumped the moment something goes wrong.
//!
//! Post-mortem debugging of a replicated epoch needs the cross-node
//! story of the last few epochs *at the moment of failure* — after a
//! crash the per-node rings have moved on. The [`FlightRecorder`] is the
//! black box: the cluster pushes each epoch's [`CausalGraph`] in as the
//! quorum watermark passes it, the recorder keeps the last `K`, and a
//! trigger (an online-invariant violation via
//! [`InvariantChecker::on_violation`](crate::InvariantChecker::on_violation),
//! or a `crash_and_reboot`) freezes them into one deterministic JSON
//! dump.
//!
//! Graphs whose contributing rings evicted records while the epoch was
//! live arrive with `truncated: true` and are presented as such — a
//! lossy graph must never masquerade as a complete one.

use crate::causal::CausalGraph;
use crate::json::escape;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Default number of epoch graphs retained.
pub const DEFAULT_FLIGHT_CAP: usize = 8;

struct FlightInner {
    cap: usize,
    graphs: VecDeque<CausalGraph>,
    last_dump: Option<String>,
    dump_count: u64,
}

/// A cloneable handle to one bounded flight-recorder ring.
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Arc<Mutex<FlightInner>>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_FLIGHT_CAP)
    }
}

impl FlightRecorder {
    /// A recorder retaining the causal graphs of the last `cap` epochs
    /// (clamped to ≥ 1).
    pub fn new(cap: usize) -> Self {
        Self {
            inner: Arc::new(Mutex::new(FlightInner {
                cap: cap.max(1),
                graphs: VecDeque::new(),
                last_dump: None,
                dump_count: 0,
            })),
        }
    }

    /// Records `graph`, replacing any retained graph for the same
    /// `(epoch, group)` and evicting the oldest beyond capacity.
    pub fn record(&self, graph: CausalGraph) {
        let mut st = self.inner.lock().unwrap();
        if let Some(slot) =
            st.graphs.iter_mut().find(|g| g.epoch == graph.epoch && g.group == graph.group)
        {
            *slot = graph;
            return;
        }
        if st.graphs.len() >= st.cap {
            st.graphs.pop_front();
        }
        st.graphs.push_back(graph);
    }

    /// Retained graphs, oldest first.
    pub fn graphs(&self) -> Vec<CausalGraph> {
        self.inner.lock().unwrap().graphs.iter().cloned().collect()
    }

    /// Number of graphs currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().graphs.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.inner.lock().unwrap().cap
    }

    /// Freezes the retained graphs into a deterministic JSON dump,
    /// stamped with the trigger `reason` and the virtual time `now`.
    /// Returns the dump (also retrievable via [`FlightRecorder::last_dump`]).
    pub fn trigger(&self, reason: &str, now: u64) -> String {
        let mut st = self.inner.lock().unwrap();
        let mut out = String::with_capacity(128 + st.graphs.len() * 256);
        let truncated = st.graphs.iter().any(|g| g.truncated);
        out.push_str(&format!(
            "{{\"reason\":\"{}\",\"at\":{now},\"truncated\":{truncated},\"graphs\":[",
            escape(reason)
        ));
        for (i, g) in st.graphs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&g.to_json());
        }
        out.push_str("]}");
        st.last_dump = Some(out.clone());
        st.dump_count += 1;
        out
    }

    /// The most recent dump, if any trigger has fired.
    pub fn last_dump(&self) -> Option<String> {
        self.inner.lock().unwrap().last_dump.clone()
    }

    /// How many times a trigger has fired.
    pub fn dump_count(&self) -> u64 {
        self.inner.lock().unwrap().dump_count
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.inner.lock().unwrap();
        write!(f, "FlightRecorder({}/{} graphs, {} dumps)", st.graphs.len(), st.cap, st.dump_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causal::{CausalGraph, HopKind};
    use crate::json::validate;

    fn graph(epoch: u64, truncated: bool) -> CausalGraph {
        let mut g = CausalGraph::new(epoch, 0);
        g.truncated = truncated;
        let a = g.hop(0, "stage.seal", HopKind::Stage, epoch * 100, 10, vec![], vec![]);
        let b = g.hop(1, "recv_apply", HopKind::Member, epoch * 100 + 50, 0, vec![a], vec![]);
        g.terminal = Some(b);
        g
    }

    #[test]
    fn ring_is_bounded_and_replaces_same_epoch() {
        let fr = FlightRecorder::new(3);
        for e in 1..=5u64 {
            fr.record(graph(e, false));
        }
        assert_eq!(fr.len(), 3);
        let epochs: Vec<u64> = fr.graphs().iter().map(|g| g.epoch).collect();
        assert_eq!(epochs, vec![3, 4, 5]);
        // Re-recording epoch 4 updates in place, no eviction.
        fr.record(graph(4, true));
        let epochs: Vec<u64> = fr.graphs().iter().map(|g| g.epoch).collect();
        assert_eq!(epochs, vec![3, 4, 5]);
        assert!(fr.graphs()[1].truncated);
    }

    #[test]
    fn trigger_dumps_deterministic_json() {
        let fr = FlightRecorder::new(4);
        fr.record(graph(1, false));
        fr.record(graph(2, false));
        let a = fr.trigger("invariant: epoch monotonicity", 12345);
        let b = fr.trigger("invariant: epoch monotonicity", 12345);
        assert_eq!(a, b);
        validate(&a).expect("dump must be well-formed JSON");
        assert!(a.contains("\"reason\":\"invariant: epoch monotonicity\""));
        assert!(a.contains("\"at\":12345"));
        assert!(a.contains("\"truncated\":false"));
        assert_eq!(fr.dump_count(), 2);
        assert_eq!(fr.last_dump().unwrap(), b);
    }

    #[test]
    fn lossy_graphs_mark_the_dump_truncated() {
        let fr = FlightRecorder::new(2);
        fr.record(graph(1, false));
        fr.record(graph(2, true));
        let dump = fr.trigger("crash_and_reboot", 99);
        assert!(dump.contains("\"truncated\":true"));
    }

    #[test]
    fn empty_recorder_still_dumps() {
        let fr = FlightRecorder::default();
        assert!(fr.is_empty());
        assert_eq!(fr.capacity(), DEFAULT_FLIGHT_CAP);
        let dump = fr.trigger("probe", 0);
        validate(&dump).unwrap();
        assert!(dump.contains("\"graphs\":[]"));
        assert!(fr.last_dump().is_some());
    }
}
