//! Epoch provenance end to end: per-node rings stitched into one causal
//! graph whose critical path spans nodes and telescopes exactly to the
//! seal→release latency; deterministic JSON across identical runs; the
//! flight recorder fed as the quorum watermark advances and dumped on
//! an invariant violation.

use aurora_cluster::{Cluster, ClusterConfig};
use aurora_core::{GroupId, SlsOptions};
use aurora_posix::Pid;
use aurora_trace::{HopKind, InvariantChecker, Sampler};
use aurora_vm::Prot;

fn gauge(gauges: &[(String, u64)], name: &str) -> u64 {
    gauges
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("gauge {name} missing"))
        .1
}

fn spawn_attached(c: &mut Cluster) -> (Pid, GroupId) {
    let pid = c.leader().kernel.spawn("counter");
    let addr = c.leader().kernel.mmap_anon(pid, 16, Prot::RW).unwrap();
    c.leader().kernel.mem_write(pid, addr, &0u64.to_le_bytes()).unwrap();
    let gid = c
        .attach_on_leader(pid, SlsOptions { external_synchrony: true, ..SlsOptions::default() })
        .unwrap();
    (pid, gid)
}

fn bump(c: &mut Cluster, pid: Pid) {
    let sls = c.leader();
    let space = sls.kernel.proc(pid).unwrap().space;
    let addr = sls.kernel.vm.entries(space).unwrap()[0].start;
    let mut buf = [0u8; 8];
    sls.kernel.mem_read(pid, addr, &mut buf).unwrap();
    let v = u64::from_le_bytes(buf) + 1;
    sls.kernel.mem_write(pid, addr, &v.to_le_bytes()).unwrap();
}

/// Runs a deterministic 3-node quorum scenario with provenance on and
/// returns the cluster plus the group and last epoch committed.
fn provenance_run(rounds: usize) -> (Cluster, GroupId, u64) {
    let mut c = Cluster::new(ClusterConfig::default());
    c.enable_provenance(8);
    let (pid, gid) = spawn_attached(&mut c);
    let mut last = 0;
    for _ in 0..rounds {
        bump(&mut c, pid);
        last = c.checkpoint_and_replicate(gid).unwrap().epoch;
        c.drain().unwrap();
    }
    (c, gid, last)
}

/// The tentpole acceptance: the causal graph of a replicated epoch is
/// acyclic, spans ≥ 2 nodes, and its critical-path hop durations sum
/// exactly to the measured seal→release latency.
#[test]
fn critical_path_spans_nodes_and_sums_to_release_latency() {
    let (c, gid, epoch) = provenance_run(3);
    let g = c.epoch_graph(gid.0, epoch).expect("graph for a replicated epoch");
    assert!(g.is_acyclic());
    assert!(!g.truncated, "nothing dropped in a short run");
    assert!(g.node_span() >= 2, "graph covers leader and followers, got {}", g.node_span());

    let cp = g.critical_path();
    assert!(!cp.hops.is_empty());
    let mut path_nodes: Vec<u64> = cp.hops.iter().map(|h| h.node).collect();
    path_nodes.sort_unstable();
    path_nodes.dedup();
    assert!(path_nodes.len() >= 2, "critical path crosses the fabric: {path_nodes:?}");

    // Telescoping: hop durations sum exactly to end-to-end.
    let hop_sum: u64 = cp.hops.iter().map(|h| h.dur_ns).sum();
    assert_eq!(hop_sum, cp.total_ns);
    assert_eq!(cp.total_ns, cp.end_ns - cp.start_ns);

    // ...and end-to-end matches the raw trace: pipeline start to the
    // epoch's extsync.release instant.
    let events = c.node_trace(0).events();
    let arg = |e: &aurora_trace::TraceEvent, k: &str| {
        e.args.iter().find(|(n, _)| *n == k).map(|&(_, v)| v)
    };
    let release = events
        .iter()
        .find(|e| e.name == "extsync.release" && arg(e, "epoch") == Some(epoch))
        .expect("epoch released");
    assert_eq!(cp.end_ns, release.ts, "terminal hop is the release");
    let quiesce = events
        .iter()
        .filter(|e| e.name == "quiesce" && arg(e, "epoch") == Some(epoch))
        .map(|e| e.ts)
        .min()
        .expect("quiesce span recorded");
    assert_eq!(cp.start_ns, quiesce, "path roots at the stop-the-world stage");
    assert_eq!(hop_sum, release.ts - quiesce, "waterfall covers seal→release exactly");

    // Attribution covers all classes on a replicated epoch.
    assert!(cp.attributed_ns(HopKind::Stage) > 0);
    assert!(
        cp.attributed_ns(HopKind::Link) + cp.attributed_ns(HopKind::Member) > 0,
        "replication shows up on the path"
    );

    // The flight recorder saw every quorum-covered epoch, and the
    // critical-path gauges went out to every node.
    let fr = c.flight_recorder().expect("provenance on");
    assert_eq!(fr.len(), 3, "one graph per epoch, all within capacity");
    let (g_grp, g_epoch, g_cp) = c.last_critical_path().expect("path extracted").clone();
    assert_eq!((g_grp, g_epoch), (gid.0, epoch));
    for node in 0..c.nodes.len() {
        let gauges = c.nodes[node].sls.stat_gauges();
        assert_eq!(gauge(&gauges, "cluster.epoch.critical_path.epoch"), epoch);
        assert_eq!(gauge(&gauges, "cluster.epoch.critical_path.total_ns"), g_cp.total_ns);
        assert_eq!(gauge(&gauges, "cluster.epoch.critical_path.hops"), g_cp.hops.len() as u64);
        assert_eq!(gauge(&gauges, "cluster.trace_dropped"), 0);
        let by_kind: u64 = ["stage", "link", "member", "local"]
            .iter()
            .map(|k| gauge(&gauges, &format!("cluster.epoch.critical_path.{k}_ns")))
            .sum();
        assert_eq!(by_kind, g_cp.total_ns, "attribution partitions the total");
    }
}

/// Determinism: the same seeded scenario exports a byte-identical
/// causal-graph JSON and a byte-identical metrics time series across
/// two runs — provenance collection adds nothing nondeterministic.
#[test]
fn graph_json_and_series_are_byte_identical_across_runs() {
    let run = || {
        let (c, gid, epoch) = provenance_run(3);
        let g = c.epoch_graph(gid.0, epoch).unwrap();
        let json = g.to_json();
        aurora_trace::json::validate(&json).expect("graph JSON well-formed");
        let sampler = Sampler::new(1);
        for node in 0..c.nodes.len() {
            sampler.record(c.clock.now() + node as u64, c.nodes[node].sls.stat_gauges());
        }
        let dump = c.flight_recorder().unwrap().trigger("test", c.clock.now());
        aurora_trace::json::validate(&dump).expect("dump JSON well-formed");
        (json, sampler.series_json(), dump)
    };
    let (a_json, a_series, a_dump) = run();
    let (b_json, b_series, b_dump) = run();
    assert_eq!(a_json, b_json, "causal graph JSON is deterministic");
    assert_eq!(a_series, b_series, "metrics export is deterministic with provenance on");
    assert_eq!(a_dump, b_dump, "flight-recorder dump is deterministic");
}

/// The flight recorder auto-dumps when the online invariant checker
/// fires: wiring a violation sink to `trigger` snapshots the last K
/// epochs' causality at the moment the invariant broke.
#[test]
fn invariant_violation_dumps_flight_recorder() {
    let (c, gid, epoch) = provenance_run(2);
    let fr = c.flight_recorder().unwrap().clone();
    assert_eq!(fr.dump_count(), 0);

    let trace = c.node_trace(0);
    let checker = InvariantChecker::arm(&trace);
    {
        let fr = fr.clone();
        let clock = c.clock.clone();
        checker.on_violation(move |why| {
            fr.trigger(why, clock.now());
        });
    }
    // Induce a violation: a release of an epoch that was never sealed.
    trace.instant("extsync", "extsync.release", &[("epoch", 9999), ("durable_at", 0)]);
    assert!(!checker.is_clean());
    assert_eq!(fr.dump_count(), 1, "sink fired exactly once");
    let dump = fr.last_dump().expect("dump captured");
    aurora_trace::json::validate(&dump).unwrap();
    assert!(dump.contains("extsync ordering"), "dump names the violated invariant");
    assert!(
        dump.contains(&format!("\"epoch\":{epoch},\"group\":{}", gid.0)),
        "dump holds the last epochs' graphs"
    );
}

/// Dead follower: the graph still builds from the leader and the live
/// follower, and the path never visits the dead node.
#[test]
fn graph_skips_dead_followers() {
    let mut c = Cluster::new(ClusterConfig::default());
    c.enable_provenance(4);
    let (pid, gid) = spawn_attached(&mut c);
    c.kill(2);
    bump(&mut c, pid);
    let epoch = c.checkpoint_and_replicate(gid).unwrap().epoch;
    c.drain().unwrap();

    let g = c.epoch_graph(gid.0, epoch).expect("graph with one live follower");
    assert!(g.is_acyclic());
    assert!(g.events.iter().all(|e| e.node != 2), "dead node contributes no hops");
    let cp = g.critical_path();
    assert!(cp.hops.iter().any(|h| h.node == 1), "quorum path goes through node 1");
    let hop_sum: u64 = cp.hops.iter().map(|h| h.dur_ns).sum();
    assert_eq!(hop_sum, cp.total_ns);
}
