//! Cross-node causal graphs over the per-node trace rings.
//!
//! A single checkpoint epoch's life spans several machines: the leader
//! quiesces and flushes, the commit record seals the epoch, the delta
//! stream crosses the fabric, each follower applies and acks at its
//! durable floor, and only the quorum watermark finally lets external
//! synchrony release the epoch's responses. Each node records its part
//! of that story in its own bounded ring; a [`CausalGraph`] stitches the
//! rings back into one DAG keyed by `(epoch, group)`.
//!
//! Nodes of the graph are [`CausalEvent`]s — a hop of the epoch's
//! lifecycle attributed to a pipeline **stage**, a fabric **link**, a
//! quorum **member**, or **local** engine work. Edges are dependency
//! indices (`deps`), pointing at the hops that had to complete first.
//!
//! The **critical path** is the longest causal chain from the epoch's
//! seal to its quorum release: starting at the terminal event, walk
//! backward always choosing the predecessor that *finished last* (the
//! binding constraint), deterministically tie-breaking on the smaller
//! index. Consecutive-hop durations are defined as the gap between the
//! predecessor's completion and this hop's completion, so the hop
//! durations telescope: their sum is exactly the end-to-end seal→release
//! latency, which `sls explain` and the CI gate rely on.
//!
//! Everything here is pure data + arithmetic over virtual timestamps, so
//! two identically-seeded runs produce byte-identical [`CausalGraph::to_json`]
//! exports.

use crate::json::escape;

/// What a hop of the epoch lifecycle is attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HopKind {
    /// A checkpoint-pipeline stage on the leader (quiesce … commit).
    Stage,
    /// Time on a fabric link (serialization + propagation + queuing).
    Link,
    /// Work on a quorum member (apply, durable-floor wait, ack).
    Member,
    /// Local engine work that is none of the above (watermark, release).
    Local,
}

impl HopKind {
    /// Stable lowercase name used in exports and gauge suffixes.
    pub fn as_str(self) -> &'static str {
        match self {
            HopKind::Stage => "stage",
            HopKind::Link => "link",
            HopKind::Member => "member",
            HopKind::Local => "local",
        }
    }
}

/// One hop of an epoch's lifecycle, tagged with the node whose ring it
/// came from. `deps` are indices of hops that causally precede this one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CausalEvent {
    /// Node whose trace ring recorded this hop.
    pub node: u64,
    /// Hop label (e.g. `stage.flush`, `replicate`, `recv_apply`).
    pub label: String,
    /// Attribution class.
    pub kind: HopKind,
    /// Virtual start timestamp, ns.
    pub ts: u64,
    /// Duration, ns (0 for point events).
    pub dur: u64,
    /// Indices of causal predecessors within the graph.
    pub deps: Vec<usize>,
    /// Extra key/value detail carried from the trace record.
    pub args: Vec<(String, u64)>,
}

impl CausalEvent {
    /// Completion time: when this hop's effect exists.
    pub(crate) fn done(&self) -> u64 {
        self.ts + self.dur
    }
}

/// One hop on the extracted critical path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathHop {
    /// Hop label.
    pub label: String,
    /// Attribution class.
    pub kind: HopKind,
    /// Node the hop ran on.
    pub node: u64,
    /// When the path entered this hop (predecessor's completion).
    pub from_ns: u64,
    /// When this hop completed.
    pub until_ns: u64,
    /// `until_ns - from_ns`; hop durations telescope to the total.
    pub dur_ns: u64,
}

/// The extracted critical path: hops in causal order, telescoping.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CriticalPath {
    /// Hops from root to terminal.
    pub hops: Vec<PathHop>,
    /// Start of the first hop (seal time).
    pub start_ns: u64,
    /// Completion of the terminal hop (release time).
    pub end_ns: u64,
    /// `end_ns - start_ns`, equal to the sum of hop durations.
    pub total_ns: u64,
}

impl CriticalPath {
    /// Total nanoseconds attributed to `kind` along the path.
    pub fn attributed_ns(&self, kind: HopKind) -> u64 {
        self.hops.iter().filter(|h| h.kind == kind).map(|h| h.dur_ns).sum()
    }
}

/// The causal event graph of one epoch of one consistency group.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CausalGraph {
    /// Checkpoint epoch this graph describes.
    pub epoch: u64,
    /// Consistency group.
    pub group: u64,
    /// True when any contributing ring evicted records while this epoch
    /// was live — the graph may be missing hops and must not be
    /// presented as complete.
    pub truncated: bool,
    /// Hops, in insertion order.
    pub events: Vec<CausalEvent>,
    /// Index of the terminal hop (the release), when known.
    pub terminal: Option<usize>,
}

impl CausalGraph {
    /// An empty graph for `(epoch, group)`.
    pub fn new(epoch: u64, group: u64) -> Self {
        Self { epoch, group, ..Default::default() }
    }

    /// Appends a hop, returning its index for later `deps` references.
    pub(crate) fn add(&mut self, ev: CausalEvent) -> usize {
        self.events.push(ev);
        self.events.len() - 1
    }

    /// Convenience: append a hop depending on `deps`.
    #[allow(clippy::too_many_arguments)]
    pub fn hop(
        &mut self,
        node: u64,
        label: impl Into<String>,
        kind: HopKind,
        ts: u64,
        dur: u64,
        deps: Vec<usize>,
        args: Vec<(String, u64)>,
    ) -> usize {
        self.add(CausalEvent { node, label: label.into(), kind, ts, dur, deps, args })
    }

    /// True when the dependency edges form a DAG (Kahn's algorithm).
    pub fn is_acyclic(&self) -> bool {
        let n = self.events.len();
        let mut indegree = vec![0usize; n];
        for ev in &self.events {
            for &d in &ev.deps {
                if d < n {
                    indegree[d] += 1; // edge ev -> dep (reverse direction is fine for Kahn)
                }
            }
        }
        let mut ready: Vec<usize> =
            (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut seen = 0;
        while let Some(i) = ready.pop() {
            seen += 1;
            for &d in &self.events[i].deps {
                if d < n {
                    indegree[d] -= 1;
                    if indegree[d] == 0 {
                        ready.push(d);
                    }
                }
            }
        }
        seen == n
    }

    /// Distinct nodes contributing hops.
    pub fn node_span(&self) -> usize {
        let mut nodes: Vec<u64> = self.events.iter().map(|e| e.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes.len()
    }

    fn terminal_index(&self) -> Option<usize> {
        self.terminal.or_else(|| {
            // Fall back to the hop that completed last (smallest index on
            // ties, for determinism).
            self.events
                .iter()
                .enumerate()
                .max_by(|(ia, a), (ib, b)| a.done().cmp(&b.done()).then(ib.cmp(ia)))
                .map(|(i, _)| i)
        })
    }

    /// Extracts the critical path: from the terminal hop walk backward,
    /// at each step following the predecessor that completed last
    /// (ties broken toward the smaller index), then emit hops forward
    /// with telescoping durations.
    pub fn critical_path(&self) -> CriticalPath {
        let Some(mut cur) = self.terminal_index() else {
            return CriticalPath::default();
        };
        if !self.is_acyclic() {
            return CriticalPath::default();
        }
        let mut chain = vec![cur];
        loop {
            let ev = &self.events[cur];
            let next = ev
                .deps
                .iter()
                .copied()
                .filter(|&d| d < self.events.len())
                .max_by(|&a, &b| {
                    self.events[a]
                        .done()
                        .cmp(&self.events[b].done())
                        .then(b.cmp(&a))
                });
            match next {
                Some(d) => {
                    chain.push(d);
                    cur = d;
                }
                None => break,
            }
        }
        chain.reverse();
        let root = &self.events[chain[0]];
        let start_ns = root.ts;
        let mut hops = Vec::with_capacity(chain.len());
        let mut prev_done = start_ns;
        for &i in &chain {
            let ev = &self.events[i];
            let until = ev.done().max(prev_done);
            hops.push(PathHop {
                label: ev.label.clone(),
                kind: ev.kind,
                node: ev.node,
                from_ns: prev_done,
                until_ns: until,
                dur_ns: until - prev_done,
            });
            prev_done = until;
        }
        let end_ns = prev_done;
        CriticalPath { hops, start_ns, end_ns, total_ns: end_ns - start_ns }
    }

    /// Renders the graph (events, edges, critical path, acyclicity) as
    /// one deterministic JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.events.len() * 96);
        out.push_str(&format!(
            "{{\"epoch\":{},\"group\":{},\"truncated\":{},\"acyclic\":{},\"events\":[",
            self.epoch,
            self.group,
            self.truncated,
            self.is_acyclic()
        ));
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"id\":{i},\"node\":{},\"kind\":\"{}\",\"label\":\"{}\",\"ts\":{},\"dur\":{},\"deps\":[",
                ev.node,
                ev.kind.as_str(),
                escape(&ev.label),
                ev.ts,
                ev.dur
            ));
            for (j, d) in ev.deps.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&d.to_string());
            }
            out.push_str("],\"args\":{");
            for (j, (k, v)) in ev.args.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":{v}", escape(k)));
            }
            out.push_str("}}");
        }
        let cp = self.critical_path();
        out.push_str(&format!(
            "],\"critical_path\":{{\"start_ns\":{},\"end_ns\":{},\"total_ns\":{},\"hops\":[",
            cp.start_ns, cp.end_ns, cp.total_ns
        ));
        for (i, h) in cp.hops.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"label\":\"{}\",\"kind\":\"{}\",\"node\":{},\"from_ns\":{},\"until_ns\":{},\"dur_ns\":{}}}",
                escape(&h.label),
                h.kind.as_str(),
                h.node,
                h.from_ns,
                h.until_ns,
                h.dur_ns
            ));
        }
        out.push_str("]}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;

    fn linear_graph() -> CausalGraph {
        let mut g = CausalGraph::new(7, 0);
        let a = g.hop(0, "stage.seal", HopKind::Stage, 100, 50, vec![], vec![]);
        let b = g.hop(0, "replicate", HopKind::Local, 150, 0, vec![a], vec![]);
        let c = g.hop(1, "recv_apply", HopKind::Member, 400, 0, vec![b], vec![]);
        let d = g.hop(0, "ack", HopKind::Link, 600, 0, vec![c], vec![]);
        let e = g.hop(0, "release", HopKind::Local, 650, 0, vec![d], vec![]);
        g.terminal = Some(e);
        g
    }

    #[test]
    fn critical_path_telescopes_to_end_to_end_latency() {
        let g = linear_graph();
        let cp = g.critical_path();
        assert_eq!(cp.hops.len(), 5);
        assert_eq!(cp.start_ns, 100);
        assert_eq!(cp.end_ns, 650);
        assert_eq!(cp.total_ns, 550);
        let sum: u64 = cp.hops.iter().map(|h| h.dur_ns).sum();
        assert_eq!(sum, cp.total_ns, "hop durations must telescope exactly");
        assert_eq!(cp.attributed_ns(HopKind::Member), 250);
        assert_eq!(cp.attributed_ns(HopKind::Link), 200);
    }

    #[test]
    fn critical_path_picks_the_latest_finishing_branch() {
        let mut g = CausalGraph::new(1, 0);
        let seal = g.hop(0, "stage.seal", HopKind::Stage, 0, 10, vec![], vec![]);
        let fast = g.hop(1, "recv_apply", HopKind::Member, 40, 0, vec![seal], vec![]);
        let slow = g.hop(2, "recv_apply", HopKind::Member, 90, 0, vec![seal], vec![]);
        let quorum =
            g.hop(0, "quorum", HopKind::Local, 120, 0, vec![fast, slow], vec![]);
        g.terminal = Some(quorum);
        let cp = g.critical_path();
        let nodes: Vec<u64> = cp.hops.iter().map(|h| h.node).collect();
        assert_eq!(nodes, vec![0, 2, 0], "the slow follower binds the path");
    }

    #[test]
    fn cycles_are_detected_and_yield_an_empty_path() {
        let mut g = linear_graph();
        assert!(g.is_acyclic());
        // Manufacture a cycle: seal depends on release.
        g.events[0].deps.push(4);
        assert!(!g.is_acyclic());
        assert_eq!(g.critical_path(), CriticalPath::default());
    }

    #[test]
    fn json_is_valid_and_deterministic() {
        let a = linear_graph().to_json();
        let b = linear_graph().to_json();
        assert_eq!(a, b);
        validate(&a).expect("graph json must be well-formed");
        assert!(a.contains("\"acyclic\":true"));
        assert!(a.contains("\"truncated\":false"));
        assert!(a.contains("\"total_ns\":550"));
    }

    #[test]
    fn node_span_counts_distinct_nodes() {
        assert_eq!(linear_graph().node_span(), 2);
        assert_eq!(CausalGraph::new(0, 0).node_span(), 0);
    }

    #[test]
    fn empty_graph_has_empty_path() {
        let g = CausalGraph::new(3, 1);
        assert!(g.is_acyclic());
        assert_eq!(g.critical_path(), CriticalPath::default());
        validate(&g.to_json()).unwrap();
    }
}
