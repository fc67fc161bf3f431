//! Replicated Aurora: N simulated single-level-store nodes sharing one
//! discrete-event virtual clock, connected by the latency/bandwidth/loss
//! message fabric in `aurora-sim`.
//!
//! ## Quorum epoch commits
//!
//! One node (node 0) leads each consistency group. After a local epoch
//! commit, the leader streams the sealed epoch's *delta* — only what
//! changed since the epoch each follower last acknowledged, read from
//! the object store's commit-record chain — to every live follower.
//! A follower applies the stream, commits a record attributed to the
//! same group (so its durable floor advances per group exactly like the
//! leader's), and acks with that floor. The leader folds acks into the
//! cluster's ack table; the newest epoch acked by a configurable
//! quorum (leader included) is the **quorum durable watermark**, and it
//! gates external synchrony: sealed message batches release only once
//! their epoch is both locally durable *and* under the watermark — the
//! cluster-wide release point layered onto the single-node seal/release
//! machinery.
//!
//! Cumulative deltas make loss self-healing: a dropped stream just means
//! the next replication round resends from the follower's last acked
//! epoch. A killed follower stops acking and drops out of the quorum
//! arithmetic; commits keep releasing as long as `quorum` nodes (leader
//! included) still ack.
//!
//! ## Coordinated pruning
//!
//! Every node exposes a per-group watermark (leader: last committed
//! epoch; follower: last applied epoch). The cluster-wide prune point is
//! the minimum watermark over live nodes — aura-style coordinated GC:
//! history below the point every replica has safely applied can be
//! reclaimed everywhere without breaking a catch-up delta, because
//! deltas always start at a follower's acked epoch (≥ the prune point).
//!
//! ## Live migration
//!
//! [`migrate`] layers iterative pre-copy rounds on the same delta
//! streams: checkpoint, ship the delta while the workload keeps dirtying
//! pages, repeat until the round's page count converges, then a final
//! stop-and-copy whose pause is measured in virtual µs.

pub mod migrate;
pub mod provenance;

pub use migrate::{MigrationConfig, MigrationReport, RoundStats};

use aurora_core::world::World;
use aurora_core::{CheckpointStats, GroupId, Sls, SlsError, SlsOptions};
use aurora_posix::Pid;
use aurora_sim::net::{Fabric, LinkModel};
use aurora_sim::Clock;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// Cluster construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Node count (node 0 leads).
    pub nodes: usize,
    /// Acks (leader included) required before an epoch's sealed batches
    /// release.
    pub quorum: usize,
    /// Store bytes per node device.
    pub store_bytes: u64,
    /// The message fabric's link model.
    pub link: LinkModel,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self { nodes: 3, quorum: 2, store_bytes: 1 << 28, link: LinkModel::default() }
    }
}

/// Replication traffic counters (gauge sources).
#[derive(Clone, Copy, Debug, Default)]
pub struct ClusterStats {
    /// Epoch deltas streamed to followers.
    pub deltas_sent: u64,
    /// Deltas the fabric's loss model dropped.
    pub deltas_lost: u64,
    /// Follower acks folded into the quorum watermark.
    pub acks_received: u64,
    /// Store epochs reclaimed by coordinated pruning, all nodes.
    pub pruned_epochs: u64,
}

/// A message in flight on the fabric.
#[derive(Clone, Debug)]
enum Packet {
    /// Leader → follower: a cumulative epoch delta.
    Delta { group: u64, to_epoch: u64, stream: Vec<u8> },
    /// Follower → leader: "epoch applied, durable at my floor".
    Ack { group: u64, epoch: u64, durable_at: u64 },
}

#[derive(Clone, Debug)]
struct Event {
    at: u64,
    seq: u64,
    src: u64,
    dst: u64,
    pkt: Packet,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// One simulated machine in the cluster.
pub struct Node {
    /// The node's single level store (kernel + object store).
    pub sls: Sls,
    /// Dead nodes neither receive nor send; in-flight traffic to them
    /// is dropped on delivery.
    pub alive: bool,
    /// Per-group: leader epoch → local epoch for every applied delta,
    /// ascending — the follower's watermark is the last key.
    applied: BTreeMap<u64, BTreeMap<u64, u64>>,
}

impl Node {
    /// The node's replication watermark for `group`: the newest leader
    /// epoch it has applied and committed (0 if none).
    pub fn watermark(&self, group: u64) -> u64 {
        self.applied.get(&group).and_then(|m| m.keys().next_back().copied()).unwrap_or(0)
    }

    /// The local epoch under which this node committed the leader's
    /// `leader_epoch` of `group` (followers; `None` if never applied or
    /// pruned).
    pub fn local_epoch_of(&self, group: u64, leader_epoch: u64) -> Option<u64> {
        self.applied.get(&group).and_then(|m| m.get(&leader_epoch).copied())
    }

    /// Applied (unpruned) epochs this node retains for `group`.
    pub fn applied_epochs(&self, group: u64) -> usize {
        self.applied.get(&group).map_or(0, |m| m.len())
    }
}

/// N Aurora nodes on one virtual clock, with quorum-replicated epoch
/// commits over the message fabric.
pub struct Cluster {
    /// The clock every node (and the fabric) shares.
    pub clock: Clock,
    /// The message fabric.
    pub fabric: Fabric,
    /// The nodes; index 0 leads.
    pub nodes: Vec<Node>,
    /// Acks required (leader included) to release an epoch.
    pub quorum: usize,
    /// Replication counters.
    pub stats: ClusterStats,
    /// Replication acks: group → node → the newest leader epoch that
    /// node has applied and made durable (the leader votes for itself).
    acks: BTreeMap<u64, BTreeMap<u64, u64>>,
    events: BinaryHeap<Reverse<Event>>,
    seq: u64,
    /// Migration progress mirrored into the gauges (set by [`migrate`]).
    pub(crate) migration_round: u64,
    pub(crate) migration_dirty_pages: u64,
    /// The always-on flight recorder once provenance is enabled: every
    /// epoch's causal graph is pushed here as the quorum watermark
    /// passes it (see [`provenance`]).
    pub(crate) flight: Option<aurora_trace::FlightRecorder>,
    /// Per-group highest epoch whose causal graph has been snapshotted.
    pub(crate) provenance_head: BTreeMap<u64, u64>,
    /// The most recent critical path extracted, `(group, epoch, path)`
    /// — the `cluster.epoch.critical_path.*` gauge source.
    pub(crate) last_critical_path: Option<(u64, u64, aurora_trace::CriticalPath)>,
}

pub(crate) const LEADER: usize = 0;
/// Wire size of an ack message (header-only).
const ACK_BYTES: u64 = 64;

impl Cluster {
    /// Boots `cfg.nodes` machines on one fresh virtual clock.
    pub fn new(cfg: ClusterConfig) -> Self {
        assert!(cfg.nodes >= 1 && cfg.quorum >= 1 && cfg.quorum <= cfg.nodes);
        let clock = Clock::new();
        let nodes = (0..cfg.nodes)
            .map(|_| Node {
                sls: World::with_store_bytes_on(clock.clone(), cfg.store_bytes).sls,
                alive: true,
                applied: BTreeMap::new(),
            })
            .collect();
        Self {
            clock,
            fabric: Fabric::new(cfg.link),
            nodes,
            quorum: cfg.quorum,
            stats: ClusterStats::default(),
            acks: BTreeMap::new(),
            events: BinaryHeap::new(),
            seq: 0,
            migration_round: 0,
            migration_dirty_pages: 0,
            flight: None,
            provenance_head: BTreeMap::new(),
            last_critical_path: None,
        }
    }

    /// The leading node's SLS.
    pub fn leader(&mut self) -> &mut Sls {
        &mut self.nodes[LEADER].sls
    }

    /// Spawns a process on the leader and attaches it as a replicated
    /// consistency group.
    pub fn attach_on_leader(&mut self, root: Pid, opts: SlsOptions) -> Result<GroupId, SlsError> {
        self.nodes[LEADER].sls.attach(root, opts)
    }

    /// Marks a node dead: it stops acking, and traffic addressed to it
    /// is dropped on delivery. The quorum arithmetic sees one fewer
    /// voter from the next ack on.
    pub fn kill(&mut self, node: usize) {
        assert_ne!(node, LEADER, "the leader cannot be killed (no election protocol)");
        self.nodes[node].alive = false;
    }

    /// Checkpoints `gid` on the leader and replicates the sealed epoch
    /// to every live follower. Returns the checkpoint's stats.
    pub fn checkpoint_and_replicate(
        &mut self,
        gid: GroupId,
    ) -> Result<CheckpointStats, SlsError> {
        let stats = self.nodes[LEADER].sls.checkpoint_now(gid)?;
        // The leader votes for itself.
        self.note_ack(gid.0, LEADER as u64, stats.epoch);
        self.replicate(gid)?;
        self.refresh_release_gate(gid.0)?;
        self.update_gauges(gid.0);
        Ok(stats)
    }

    /// Streams the group's newest epoch to every live follower as a
    /// cumulative delta from that follower's last *acked* epoch — a lost
    /// stream or a late follower is healed by the next round without a
    /// retransmit queue.
    pub fn replicate(&mut self, gid: GroupId) -> Result<(), SlsError> {
        let to_epoch = {
            let store = self.nodes[LEADER].sls.store().lock();
            match store.epochs_for(gid.0).last().copied() {
                Some(e) => e,
                None => return Ok(()),
            }
        };
        let now = self.clock.now();
        for f in 1..self.nodes.len() {
            if !self.nodes[f].alive {
                continue;
            }
            let from = self.acked_epoch(gid.0, f);
            if from >= to_epoch {
                continue;
            }
            let (stream, delta) =
                self.nodes[LEADER].sls.send_delta_stats(from, to_epoch)?;
            self.stats.deltas_sent += 1;
            let trace = self.nodes[LEADER].sls.kernel.charge.trace();
            if trace.is_enabled() {
                trace.instant(
                    "cluster",
                    "cluster.replicate",
                    &[
                        ("group", gid.0),
                        ("to_node", f as u64),
                        ("from_epoch", from),
                        ("to_epoch", to_epoch),
                        ("pages", delta.pages),
                        ("bytes", delta.bytes),
                    ],
                );
            }
            match self.fabric.send(LEADER as u64, f as u64, delta.bytes, now) {
                Some(at) => self.push_event(at, LEADER as u64, f as u64, Packet::Delta {
                    group: gid.0,
                    to_epoch,
                    stream,
                }),
                None => self.stats.deltas_lost += 1,
            }
        }
        Ok(())
    }

    fn push_event(&mut self, at: u64, src: u64, dst: u64, pkt: Packet) {
        let seq = self.seq;
        self.seq += 1;
        self.events.push(Reverse(Event { at, seq, src, dst, pkt }));
    }

    /// The leader's view of what `node` has acked for `group`.
    fn acked_epoch(&self, group: u64, node: usize) -> u64 {
        self.nodes[node].watermark(group)
    }

    /// Delivers every in-flight message, advancing the shared clock to
    /// each arrival; returns when the fabric is quiet.
    pub fn drain(&mut self) -> Result<(), SlsError> {
        while let Some(Reverse(ev)) = self.events.pop() {
            self.clock.advance_to(ev.at);
            self.deliver(ev)?;
        }
        Ok(())
    }

    fn deliver(&mut self, ev: Event) -> Result<(), SlsError> {
        match ev.pkt {
            Packet::Delta { group, to_epoch, stream } => {
                let dst = ev.dst as usize;
                if !self.nodes[dst].alive {
                    return Ok(());
                }
                {
                    let trace = self.nodes[dst].sls.kernel.charge.trace();
                    if trace.is_enabled() {
                        trace.instant(
                            "cluster",
                            "cluster.delta_arrive",
                            &[
                                ("group", group),
                                ("to_epoch", to_epoch),
                                ("from_node", ev.src),
                                ("bytes", stream.len() as u64),
                            ],
                        );
                    }
                }
                let report = self.nodes[dst].sls.recv_apply(&stream, group)?;
                self.nodes[dst]
                    .applied
                    .entry(group)
                    .or_default()
                    .insert(to_epoch, report.local_epoch);
                // Ack at the follower's durable floor. `recv_apply`
                // barriered, so "now" is that floor.
                let now = self.clock.now();
                if let Some(at) =
                    self.fabric.send(ev.dst, ev.src, ACK_BYTES, now)
                {
                    self.push_event(at, ev.dst, ev.src, Packet::Ack {
                        group,
                        epoch: to_epoch,
                        durable_at: report.durable_at,
                    });
                }
            }
            Packet::Ack { group, epoch, durable_at } => {
                if !self.nodes[ev.dst as usize].alive {
                    return Ok(());
                }
                self.stats.acks_received += 1;
                {
                    let trace = self.nodes[ev.dst as usize].sls.kernel.charge.trace();
                    if trace.is_enabled() {
                        trace.instant(
                            "cluster",
                            "cluster.ack",
                            &[
                                ("group", group),
                                ("epoch", epoch),
                                ("from_node", ev.src),
                                ("durable_at", durable_at),
                            ],
                        );
                    }
                }
                self.note_ack(group, ev.src, epoch);
                self.refresh_release_gate(group)?;
                self.update_gauges(group);
            }
        }
        Ok(())
    }

    /// Records that `node` has applied and made durable the replicated
    /// commit record for `epoch` of `group`. Acks only move forward — a
    /// late ack for an older epoch never regresses a node's entry.
    fn note_ack(&mut self, group: u64, node: u64, epoch: u64) {
        let acked = self.acks.entry(group).or_default().entry(node).or_insert(0);
        *acked = (*acked).max(epoch);
    }

    /// Recomputes `group`'s quorum durable watermark from the ack table
    /// and re-gates that group's external synchrony on the leader with
    /// it, releasing anything newly covered.
    fn refresh_release_gate(&mut self, group: u64) -> Result<(), SlsError> {
        let watermark = self.quorum_watermark(group);
        let sls = &mut self.nodes[LEADER].sls;
        sls.set_release_gate(GroupId(group), Some(watermark))?;
        let trace = sls.kernel.charge.trace();
        if trace.is_enabled() {
            trace.instant(
                "cluster",
                "cluster.quorum_watermark",
                &[("group", group), ("epoch", watermark)],
            );
        }
        sls.pump_external_synchrony();
        // Now that releases for newly covered epochs have fired, their
        // causal graphs are complete — snapshot them into the flight
        // recorder and refresh the critical-path gauges.
        self.snapshot_provenance(group);
        Ok(())
    }

    /// The newest epoch of `group` acked by at least `quorum` nodes,
    /// counting every node that has ever acked (0 until a quorum exists
    /// — callers treat that as "nothing released yet").
    pub fn quorum_watermark(&self, group: u64) -> u64 {
        let quorum = self.quorum.max(1);
        let Some(acks) = self.acks.get(&group).filter(|a| a.len() >= quorum) else { return 0 };
        let mut epochs: Vec<u64> = acks.values().copied().collect();
        epochs.sort_unstable_by(|a, b| b.cmp(a));
        epochs[quorum - 1]
    }

    /// Every node's per-group watermark: `(node, newest leader epoch
    /// committed/applied there)`.
    pub fn watermarks(&self, group: u64) -> Vec<(usize, u64)> {
        (0..self.nodes.len())
            .map(|i| {
                let w = if i == LEADER {
                    self.nodes[LEADER]
                        .sls
                        .store()
                        .lock()
                        .epochs_for(group)
                        .last()
                        .copied()
                        .unwrap_or(0)
                } else {
                    self.nodes[i].watermark(group)
                };
                (i, w)
            })
            .collect()
    }

    /// Aura-style coordinated history pruning: computes the minimum
    /// per-node watermark over live nodes, then every live node drops
    /// store history below it, each keeping at least `keep` epochs.
    /// Dead nodes are skipped — they rejoin via a cumulative delta from
    /// their acked epoch, which pruning never crosses because the prune
    /// point is the *minimum* live watermark. Returns epochs reclaimed
    /// across the cluster.
    pub fn coordinated_prune(&mut self, gid: GroupId, keep: usize) -> Result<u64, SlsError> {
        let cutoff = self
            .watermarks(gid.0)
            .into_iter()
            .filter(|&(i, _)| self.nodes[i].alive)
            .map(|(_, w)| w)
            .min()
            .unwrap_or(0);
        if cutoff == 0 {
            return Ok(0);
        }
        let mut reclaimed = 0u64;
        // Leader: count epochs at or above the cutoff, bound history to
        // max(that, keep) via the group-aware reclamation path.
        {
            let at_or_above = {
                let store = self.nodes[LEADER].sls.store().lock();
                store.epochs_for(gid.0).iter().filter(|&&e| e >= cutoff).count()
            };
            reclaimed +=
                self.nodes[LEADER].sls.retain_last(gid, at_or_above.max(keep))?;
        }
        // Followers: drop applied epochs below the cutoff, oldest first.
        for f in 1..self.nodes.len() {
            if !self.nodes[f].alive {
                continue;
            }
            let node = &mut self.nodes[f];
            let Some(applied) = node.applied.get_mut(&gid.0) else { continue };
            while applied.len() > keep {
                let (&leader_epoch, _) = applied.iter().next().expect("non-empty");
                if leader_epoch >= cutoff {
                    break;
                }
                node.sls.store().lock().drop_oldest_checkpoint()?;
                applied.remove(&leader_epoch);
                reclaimed += 1;
            }
        }
        self.stats.pruned_epochs += reclaimed;
        let trace = self.nodes[LEADER].sls.kernel.charge.trace();
        if trace.is_enabled() {
            trace.instant(
                "cluster",
                "cluster.prune",
                &[("group", gid.0), ("cutoff", cutoff), ("reclaimed", reclaimed)],
            );
        }
        self.update_gauges(gid.0);
        Ok(reclaimed)
    }

    /// Pushes the current replication state into every node's
    /// `cluster.*` gauges (surfaced by `Sls::stat_gauges` and the
    /// metrics sampler).
    pub(crate) fn update_gauges(&mut self, group: u64) {
        let watermark = self.quorum_watermark(group);
        let leader_epoch = self
            .nodes[LEADER]
            .sls
            .store()
            .lock()
            .epochs_for(group)
            .last()
            .copied()
            .unwrap_or(0);
        let queue = self.events.len() as u64;
        let alive = self.nodes.iter().filter(|n| n.alive).count() as u64;
        let fabric = self.fabric.stats();
        for i in 0..self.nodes.len() {
            let own = if i == LEADER { leader_epoch } else { self.nodes[i].watermark(group) };
            let dropped = self.nodes[i].sls.kernel.charge.trace().dropped_records();
            let mut gauges = vec![
                ("cluster.quorum_lag".to_string(), leader_epoch.saturating_sub(watermark)),
                ("cluster.trace_dropped".to_string(), dropped),
                ("cluster.repl_queue_depth".to_string(), queue),
                ("cluster.migration_round".to_string(), self.migration_round),
                ("cluster.migration_dirty_pages".to_string(), self.migration_dirty_pages),
                ("cluster.nodes_alive".to_string(), alive),
                ("cluster.quorum_watermark".to_string(), watermark),
                ("cluster.local_watermark".to_string(), own),
                ("cluster.deltas_sent".to_string(), self.stats.deltas_sent),
                ("cluster.deltas_lost".to_string(), self.stats.deltas_lost),
                ("cluster.acks_received".to_string(), self.stats.acks_received),
                ("cluster.pruned_epochs".to_string(), self.stats.pruned_epochs),
                ("cluster.fabric_bytes".to_string(), fabric.sent_bytes),
            ];
            if let Some((g, e, cp)) = &self.last_critical_path {
                if *g == group {
                    gauges.push(("cluster.epoch.critical_path.epoch".to_string(), *e));
                    gauges.push((
                        "cluster.epoch.critical_path.total_ns".to_string(),
                        cp.total_ns,
                    ));
                    gauges.push((
                        "cluster.epoch.critical_path.hops".to_string(),
                        cp.hops.len() as u64,
                    ));
                    for kind in [
                        aurora_trace::HopKind::Stage,
                        aurora_trace::HopKind::Link,
                        aurora_trace::HopKind::Member,
                        aurora_trace::HopKind::Local,
                    ] {
                        gauges.push((
                            format!("cluster.epoch.critical_path.{}_ns", kind.as_str()),
                            cp.attributed_ns(kind),
                        ));
                    }
                }
            }
            self.nodes[i].sls.set_cluster_gauges(gauges);
        }
    }

    /// In-flight fabric messages (replication queue depth).
    pub fn queue_depth(&self) -> usize {
        self.events.len()
    }
}
