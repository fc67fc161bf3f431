//! Quorum-replicated epoch commits end to end: 3 nodes on one virtual
//! clock, sealed epochs streamed to followers, acks driving the quorum
//! durable watermark that gates external synchrony, follower death
//! mid-commit, lossy-link self-healing, and coordinated pruning.

use aurora_cluster::{Cluster, ClusterConfig};
use aurora_core::{GroupId, SlsOptions};
use aurora_posix::Pid;
use aurora_sim::net::LinkModel;
use aurora_trace::InvariantChecker;
use aurora_vm::Prot;

fn gauge(gauges: &[(String, u64)], name: &str) -> u64 {
    gauges
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("gauge {name} missing"))
        .1
}

/// Spawns a counter app on the leader and attaches it (extsync on, so
/// releases exercise the quorum gate).
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

/// Three nodes, quorum 2: every committed epoch reaches both followers,
/// the quorum watermark tracks the newest epoch, and the followers'
/// stores hold byte-identical pages for every replicated object.
#[test]
fn three_nodes_replicate_epochs_to_quorum() {
    let mut c = Cluster::new(ClusterConfig::default());
    let trace = {
        let clock = c.clock.clone();
        let t = aurora_trace::Trace::recording(move || clock.now());
        c.leader().install_trace(t.clone());
        t
    };
    let checker = InvariantChecker::arm(&trace);
    let (pid, gid) = spawn_attached(&mut c);

    let mut last_epoch = 0;
    for _ in 0..5 {
        bump(&mut c, pid);
        let stats = c.checkpoint_and_replicate(gid).unwrap();
        last_epoch = stats.epoch;
        c.drain().unwrap();
    }

    assert_eq!(c.quorum_watermark(gid.0), last_epoch, "all acks in, watermark at head");
    for (node, w) in c.watermarks(gid.0) {
        assert_eq!(w, last_epoch, "node {node} fully caught up");
    }
    // Followers committed one record per replicated epoch, attributed
    // to the same group.
    for f in 1..c.nodes.len() {
        assert_eq!(c.nodes[f].applied_epochs(gid.0), 5);
        let store = c.nodes[f].sls.store().lock();
        assert_eq!(store.epochs_for(gid.0).len(), 5);
        assert!(store.durable_floor(gid.0) > 0, "follower floor advanced");
    }

    // Byte-identity: every object/page the leader holds at the head
    // epoch reads back identically from each follower's local commit.
    let leader_store = c.nodes[0].sls.store().clone();
    let oids = leader_store.lock().objects_at(last_epoch).unwrap();
    assert!(!oids.is_empty());
    let mut pages_compared = 0u64;
    for f in 1..c.nodes.len() {
        let local = c.nodes[f].local_epoch_of(gid.0, last_epoch).unwrap();
        let follower_store = c.nodes[f].sls.store().clone();
        for &oid in &oids {
            let pages = leader_store.lock().pages_at(oid, last_epoch).unwrap();
            for pi in pages {
                let a = leader_store.lock().read_page(oid, pi, last_epoch).unwrap();
                let b = follower_store.lock().read_page(oid, pi, local).unwrap();
                assert_eq!(a.bytes(), b.bytes(), "oid {oid:?} page {pi} differs on node {f}");
                pages_compared += 1;
            }
        }
    }
    assert!(pages_compared > 0);

    assert!(checker.checked() > 0, "invariant probes fired");
    checker.assert_clean();
}

/// The quorum gate on external synchrony: with quorum = all 3 nodes and
/// one follower dead, sealed batches stay withheld even though they are
/// locally durable; with quorum 2 they release.
#[test]
fn quorum_gate_withholds_until_acked() {
    for (quorum, expect_release) in [(2usize, true), (3usize, false)] {
        let mut c = Cluster::new(ClusterConfig { quorum, ..ClusterConfig::default() });
        let (pid, gid) = spawn_attached(&mut c);
        c.kill(2);
        for _ in 0..3 {
            bump(&mut c, pid);
            c.checkpoint_and_replicate(gid).unwrap();
            c.drain().unwrap();
        }
        let gauges = c.leader().stat_gauges();
        let sealed = gauge(&gauges, "extsync.sealed_total");
        let released = gauge(&gauges, "extsync.released_total");
        assert_eq!(sealed, 3);
        if expect_release {
            assert_eq!(released, sealed, "quorum 2 of 3 releases with one dead follower");
        } else {
            assert_eq!(released, 0, "quorum 3 never reached with a dead follower");
            assert_eq!(c.quorum_watermark(gid.0), 0);
        }
    }
}

/// The quorum gate is per group. Quorum 3 of 3, follower 2 down while
/// group B's epoch replicates and back for group A's later epoch: A's
/// watermark passes B's epoch number, but B — acked by two nodes — must
/// stay withheld.
#[test]
fn one_groups_quorum_does_not_release_another_groups_epoch() {
    let mut c = Cluster::new(ClusterConfig { quorum: 3, ..ClusterConfig::default() });
    let (pa, ga) = spawn_attached(&mut c);
    let (pb, gb) = spawn_attached(&mut c);

    c.nodes[2].alive = false;
    bump(&mut c, pb);
    let eb = c.checkpoint_and_replicate(gb).unwrap().epoch;
    c.drain().unwrap();
    assert_eq!(c.quorum_watermark(gb.0), 0, "B never reached three acks");

    c.nodes[2].alive = true;
    bump(&mut c, pa);
    let ea = c.checkpoint_and_replicate(ga).unwrap().epoch;
    c.drain().unwrap();
    assert_eq!(c.quorum_watermark(ga.0), ea);
    assert!(ea > eb, "A's watermark covers B's epoch number");

    let gauges = c.leader().stat_gauges();
    assert_eq!(gauge(&gauges, "extsync.sealed_total"), 2);
    assert_eq!(gauge(&gauges, "extsync.released_total"), 1, "only A's epoch has a quorum");
    assert_eq!(gauge(&gauges, "extsync.pending_batches"), 1);
}

/// Killing a follower *mid-commit* — after the delta is on the wire,
/// before it acks — leaves the epoch committed at quorum 2 with zero
/// invariant violations, and the cluster keeps committing after.
#[test]
fn follower_death_mid_commit_survives_at_quorum() {
    let mut c = Cluster::new(ClusterConfig::default());
    let trace = {
        let clock = c.clock.clone();
        let t = aurora_trace::Trace::recording(move || clock.now());
        c.leader().install_trace(t.clone());
        t
    };
    let checker = InvariantChecker::arm(&trace);
    let (pid, gid) = spawn_attached(&mut c);

    // Two healthy epochs first.
    for _ in 0..2 {
        bump(&mut c, pid);
        c.checkpoint_and_replicate(gid).unwrap();
        c.drain().unwrap();
    }

    // Epoch 3: the delta to node 2 is in flight when the node dies —
    // it is dropped on delivery and never acked.
    bump(&mut c, pid);
    let stats = c.checkpoint_and_replicate(gid).unwrap();
    assert!(c.queue_depth() > 0, "deltas in flight");
    c.kill(2);
    c.drain().unwrap();

    assert_eq!(c.quorum_watermark(gid.0), stats.epoch, "leader + node 1 are a quorum");
    assert_eq!(c.nodes[1].watermark(gid.0), stats.epoch);
    assert!(c.nodes[2].watermark(gid.0) < stats.epoch, "dead node missed the epoch");
    let gauges = c.leader().stat_gauges();
    assert_eq!(gauge(&gauges, "extsync.released_total"), gauge(&gauges, "extsync.sealed_total"));

    // The cluster keeps committing without the dead node.
    for _ in 0..3 {
        bump(&mut c, pid);
        let s = c.checkpoint_and_replicate(gid).unwrap();
        c.drain().unwrap();
        assert_eq!(c.quorum_watermark(gid.0), s.epoch);
    }
    assert_eq!(gauge(&c.leader().stat_gauges(), "cluster.nodes_alive"), 2);

    assert!(checker.checked() > 0);
    checker.assert_clean();
}

/// Cumulative deltas self-heal a lossy link: dropped streams just widen
/// the next delta, and a few extra replication rounds converge the
/// follower to the head epoch with identical bytes.
#[test]
fn lossy_link_self_heals_with_cumulative_deltas() {
    let mut c = Cluster::new(ClusterConfig {
        link: LinkModel { loss_ppm: 300_000, ..LinkModel::default() },
        ..ClusterConfig::default()
    });
    let (pid, gid) = spawn_attached(&mut c);

    let mut last_epoch = 0;
    for _ in 0..6 {
        bump(&mut c, pid);
        last_epoch = c.checkpoint_and_replicate(gid).unwrap().epoch;
        c.drain().unwrap();
    }
    // Stragglers: re-replicate until every live node has the head (the
    // loss model is deterministic, so the bound is just generous).
    let mut rounds = 0;
    while c.watermarks(gid.0).iter().any(|&(_, w)| w < last_epoch) {
        c.replicate(gid).unwrap();
        c.drain().unwrap();
        rounds += 1;
        assert!(rounds < 64, "lossy link failed to converge");
    }
    assert!(c.stats.deltas_lost > 0, "the loss model actually fired");
    assert_eq!(c.quorum_watermark(gid.0), last_epoch);
}

/// Coordinated pruning reclaims history below the minimum live
/// watermark on every node, never below what a dead node would need
/// from a *cumulative* catch-up delta.
#[test]
fn coordinated_prune_tracks_min_watermark() {
    let mut c = Cluster::new(ClusterConfig::default());
    let (pid, gid) = spawn_attached(&mut c);

    for _ in 0..6 {
        bump(&mut c, pid);
        c.checkpoint_and_replicate(gid).unwrap();
        c.drain().unwrap();
    }
    let before: usize = c.nodes[1].sls.store().lock().epochs_for(gid.0).len();
    assert_eq!(before, 6);

    let reclaimed = c.coordinated_prune(gid, 2).unwrap();
    assert!(reclaimed > 0, "history below the watermark reclaimed");
    for f in 1..c.nodes.len() {
        assert_eq!(c.nodes[f].applied_epochs(gid.0), 2, "follower {f} kept `keep` epochs");
    }
    let leader_epochs = c.nodes[0].sls.store().lock().epochs_for(gid.0).len();
    assert!((2..6).contains(&leader_epochs));
    assert_eq!(gauge(&c.leader().stat_gauges(), "cluster.pruned_epochs"), reclaimed);

    // Replication still works on the pruned history.
    bump(&mut c, pid);
    let s = c.checkpoint_and_replicate(gid).unwrap();
    c.drain().unwrap();
    assert_eq!(c.quorum_watermark(gid.0), s.epoch);
}

/// The `cluster.*` gauges surface through `stat_gauges` on every node,
/// with standalone defaults before any cluster drives them.
#[test]
fn cluster_gauges_surface_everywhere() {
    // Standalone node: defaults present, all zero.
    let w = aurora_core::world::World::quickstart();
    let gauges = w.sls.stat_gauges();
    assert_eq!(gauge(&gauges, "cluster.quorum_lag"), 0);
    assert_eq!(gauge(&gauges, "cluster.repl_queue_depth"), 0);
    assert_eq!(gauge(&gauges, "cluster.migration_round"), 0);
    assert_eq!(gauge(&gauges, "cluster.migration_dirty_pages"), 0);

    // Clustered: replication populates the extended set.
    let mut c = Cluster::new(ClusterConfig::default());
    let (pid, gid) = spawn_attached(&mut c);
    bump(&mut c, pid);
    c.checkpoint_and_replicate(gid).unwrap();
    c.drain().unwrap();
    let gauges = c.leader().stat_gauges();
    assert_eq!(gauge(&gauges, "cluster.nodes_alive"), 3);
    assert!(gauge(&gauges, "cluster.deltas_sent") >= 2);
    assert!(gauge(&gauges, "cluster.fabric_bytes") > 0);
    assert_eq!(gauge(&gauges, "cluster.quorum_lag"), 0, "drained cluster has no lag");
    // Followers see the same keys.
    let fg = c.nodes[1].sls.stat_gauges();
    assert_eq!(gauge(&fg, "cluster.nodes_alive"), 3);
}
