//! The Aurora single level store (the paper's contribution).
//!
//! [`Sls`] is the SLS orchestrator of §4: it owns the simulated kernel
//! and the object store, and implements:
//!
//! * **Consistency groups** (§3): sets of process trees checkpointed
//!   atomically, with external synchrony on communication leaving the
//!   group.
//! * **The POSIX object model** (§5.2): every kernel object reachable
//!   from the group — processes, threads, open-file descriptions, vnodes,
//!   pipes, sockets (with in-flight fds), kqueues, pseudoterminals, POSIX
//!   and SysV shared memory, and the VM object hierarchy — is persisted
//!   as its own on-disk object, exactly once, with sharing restored by
//!   re-linking OIDs rather than inferred.
//! * **The checkpoint pipeline** (§4–6): quiesce at the kernel boundary →
//!   serialize small objects into buffers → system-shadow the memory →
//!   resume → flush concurrently → commit; retired shadows are collapsed
//!   (reversed by default) at the next checkpoint.
//! * **Restore** (§5.3): full or lazy, with PID/TID virtualization,
//!   SIGCHLD for ephemeral children, and relinked sharing.
//! * **The Aurora API** (Table 3): `sls_checkpoint`, `sls_restore`,
//!   `sls_memckpt`, `sls_journal`, `sls_barrier`, `sls_mctl`,
//!   `sls_fdctl`.
//! * **Swap integration** (§6): clean pages evict without IO; faults page
//!   in from the latest checkpoint; lazy restores defer memory loading.

pub mod api;
pub mod checkpoint;
pub mod dump;
pub mod error;
pub mod extsync;
pub mod kinds;
pub mod oidmap;
pub mod pipeline;
pub mod restore;
mod scheduler;
pub mod sendrecv;
pub mod swap;
pub mod wire;
pub mod world;

pub use api::AuroraApi;
pub use checkpoint::{CheckpointStats, Reach, StageFailure};
pub use error::SlsError;
pub use pipeline::{GroupRun, Phase};
pub use kinds::{KindDef, KindOps, KINDS};
pub use oidmap::{KObj, Kind};
pub use restore::RestoreMode;
pub use sendrecv::{ApplyReport, DeltaStats};

pub use aurora_frames::{FrameArena, FrameGauges, PageRef};

use aurora_objstore::{ObjectStore, Oid};
use aurora_posix::{Kernel, Pid, VnodeId};
use aurora_sim::units::MS;
use aurora_vm::CollapseMode;
use oidmap::OidMap;
use aurora_sim::sync::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// A shareable object store handle (shared with the kernel's pager).
pub type SharedStore = Arc<Mutex<ObjectStore>>;

/// How a VM lineage maps to its on-disk object, with branch visibility
/// for the pager: versions ≤ `floor` or ≥ `resume` are visible. Live
/// lineages see everything (`floor = u64::MAX`); lineages restored at an
/// old epoch see only their own past and their own new future.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LineageBinding {
    /// On-disk object.
    pub oid: Oid,
    /// Highest historical epoch visible.
    pub floor: u64,
    /// First post-restore epoch visible.
    pub resume: u64,
}

impl LineageBinding {
    /// A live (unrestored) binding: every committed version visible.
    pub fn live(oid: Oid) -> Self {
        Self { oid, floor: u64::MAX, resume: 0 }
    }
}

/// Identifier of a consistency group.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u64);

/// Per-group configuration.
#[derive(Clone, Copy, Debug)]
pub struct SlsOptions {
    /// Checkpoint period for [`Sls::tick`] (default 10 ms — 100×/s, §3).
    pub period_ns: u64,
    /// Buffer outbound messages until the covering checkpoint is durable
    /// (§3). Per-descriptor opt-out via `sls_fdctl`.
    pub external_synchrony: bool,
    /// Collapse direction for retired system shadows (§6; `Forward` only
    /// for the ablation).
    pub collapse_mode: CollapseMode,
}

impl Default for SlsOptions {
    fn default() -> Self {
        Self {
            period_ns: 10 * MS,
            external_synchrony: true,
            collapse_mode: CollapseMode::Reversed,
        }
    }
}

/// Multiplier [`Sls::tick`] applies to every group's checkpoint period
/// while the device stack reports `Degraded` or worse: fewer, wider
/// epochs give a limping device room to drain.
const DEGRADED_PERIOD_FACTOR: u64 = 4;

/// How the checkpoint flush stage writes dirty pages (§15).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CheckpointMode {
    /// One full 4 KiB image per dirty page (the pre-redo behavior;
    /// still used as the fallback for un-diffable pages).
    FullPage,
    /// Diff each dirty page against its parent COW shadow and log the
    /// changed span as a redo record — "the log is the database".
    #[default]
    Delta,
}

/// One sealed batch of outbound messages awaiting its checkpoint.
#[derive(Clone, Debug)]
pub(crate) struct SealedBatch {
    /// Store epoch of the covering checkpoint.
    pub epoch: u64,
    /// Release when the clock reaches this (the commit's durability).
    pub durable_at: u64,
    /// Virtual time the batch was sealed (commit time) — the zero point
    /// of the `release_latency` histogram.
    pub sealed_at: u64,
    /// Messages sealed per socket id.
    pub counts: HashMap<u64, usize>,
}

/// One consistency group: everything the engine knows about it lives
/// here and dies with it.
#[derive(Debug)]
pub(crate) struct Group {
    pub id: GroupId,
    /// Root pids; membership is the live tree closure under the roots.
    pub roots: Vec<Pid>,
    pub opts: SlsOptions,
    pub oidmap: OidMap,
    /// The group's manifest object in the store.
    pub manifest: Oid,
    /// Store epochs holding this group's checkpoints, ascending.
    pub epochs: Vec<u64>,
    /// Durability horizon of the latest commit.
    pub pending_durable: u64,
    /// Virtual time of the last checkpoint (for `tick`).
    pub last_checkpoint_ns: u64,
    /// External-synchrony batches awaiting durability.
    pub sealed: VecDeque<SealedBatch>,
    /// Cluster release gate: when set, sealed batches whose epoch
    /// exceeds this watermark stay withheld even once locally durable —
    /// the group's quorum durable watermark (set by `aurora-cluster` as
    /// follower acks arrive).
    pub release_gate: Option<u64>,
    /// Content fingerprints of flushed vnodes (flush only what changed).
    pub vnode_hash: HashMap<VnodeId, u64>,
    /// Named (user-visible) checkpoints: name → store epoch.
    pub named: HashMap<String, u64>,
    /// Stats of the group's most recent checkpoint (per-group gauge
    /// source).
    pub last_stats: Option<CheckpointStats>,
    /// Width of the group's most recent quiesce window, virtual ns.
    pub last_quiesce_width_ns: Option<u64>,
    /// Pages frozen (PTEs downgraded) by the group's most recent system
    /// shadow.
    pub shadow_pages: Option<u64>,
}

impl Group {
    /// A group with no history: the next checkpoint is full.
    fn new(id: GroupId, roots: Vec<Pid>, opts: SlsOptions, manifest: Oid) -> Self {
        Self {
            id,
            roots,
            opts,
            oidmap: OidMap::default(),
            manifest,
            epochs: Vec::new(),
            pending_durable: 0,
            last_checkpoint_ns: 0,
            sealed: VecDeque::new(),
            release_gate: None,
            vnode_hash: HashMap::new(),
            named: HashMap::new(),
            last_stats: None,
            last_quiesce_width_ns: None,
            shadow_pages: None,
        }
    }
}

/// The single level store orchestrator.
pub struct Sls {
    /// The kernel under the SLS (applications run against this).
    pub kernel: Kernel,
    pub(crate) store: SharedStore,
    pub(crate) groups: HashMap<GroupId, Group>,
    /// lineage → binding map shared with the kernel's pager.
    pub(crate) lineage_oids: Arc<Mutex<HashMap<u64, LineageBinding>>>,
    /// The installed trace recorder (disabled by default), kept here so
    /// a crash/reboot can re-arm the fresh kernel with it.
    trace: aurora_trace::Trace,
    /// The installed metrics sampler (absent by default). Polled at
    /// checkpoint and tick boundaries; never advances the clock.
    sampler: Option<aurora_trace::Sampler>,
    /// Stage timings of the most recent checkpoint (gauge source).
    pub(crate) last_stats: Option<CheckpointStats>,
    /// Checkpoints committed since boot, across groups.
    pub(crate) checkpoints_taken: u64,
    /// External-synchrony batches sealed / released since boot.
    pub(crate) extsync_sealed: u64,
    pub(crate) extsync_released: u64,
    /// How the Flush stage writes dirty pages: sub-page redo records
    /// (the default) or one full image per page, the reference the
    /// delta path is measured against. Takes effect at the next flush.
    pub checkpoint_mode: CheckpointMode,
    /// Retries spent by all checkpoint runs since boot (gauge source).
    pub(crate) retries_spent_total: u64,
    /// `cluster.*` gauges pushed down by the cluster layer (quorum lag,
    /// replication queue depth, migration progress). A standalone node
    /// reports the defaults — a cluster of one, zero lag.
    pub(crate) cluster_gauges: HashMap<String, u64>,
    /// This node's identity in a cluster (0 standalone / leader). Rides
    /// in the v2 delta-stream header so a receiver can attribute the
    /// frame to its origin in the cross-node causal graph.
    pub(crate) node_id: u64,
    /// The installed flight recorder, if any: `crash_and_reboot` (and,
    /// via `InvariantChecker::on_violation`, the online checker) dumps
    /// the causal graphs of the last few epochs through this handle.
    flight: Option<aurora_trace::FlightRecorder>,
    /// The only source of group ids: attach and restore both draw from
    /// it, a reboot (which forgets every group) rewinds it.
    next_group: u64,
}

impl Sls {
    /// Creates an SLS over a kernel and a formatted store, wiring the
    /// kernel's pager to the store.
    pub fn new(mut kernel: Kernel, store: ObjectStore) -> Self {
        let store: SharedStore = Arc::new(Mutex::new(store));
        let lineage_oids = Arc::new(Mutex::new(HashMap::new()));
        // One frame arena from VM to store: pages flushed, cached, and
        // restored are the same refcounted frames, so the gauges see
        // every layer.
        kernel.vm.set_arena(store.lock().arena().clone());
        kernel.set_pager(Box::new(swap::StorePager {
            store: store.clone(),
            lineage_oids: lineage_oids.clone(),
        }));
        Self {
            kernel,
            store,
            groups: HashMap::new(),
            lineage_oids,
            trace: aurora_trace::Trace::disabled(),
            sampler: None,
            last_stats: None,
            checkpoints_taken: 0,
            extsync_sealed: 0,
            extsync_released: 0,
            checkpoint_mode: CheckpointMode::Delta,
            retries_spent_total: 0,
            cluster_gauges: HashMap::new(),
            node_id: 0,
            flight: None,
            next_group: 1,
        }
    }

    /// Sets this node's cluster identity (carried in outbound delta
    /// streams and stamped on trace provenance events).
    pub fn set_node_id(&mut self, id: u64) {
        self.node_id = id;
    }

    /// This node's cluster identity (0 standalone / leader).
    pub fn node_id(&self) -> u64 {
        self.node_id
    }

    /// Installs a flight recorder: `crash_and_reboot` will dump the
    /// retained epoch causal graphs through it, and callers can wire the
    /// same handle into `InvariantChecker::on_violation`.
    pub fn install_flight_recorder(&mut self, fr: aurora_trace::FlightRecorder) {
        self.flight = Some(fr);
    }

    /// The installed flight recorder, if any.
    pub fn flight_recorder(&self) -> Option<&aurora_trace::FlightRecorder> {
        self.flight.as_ref()
    }

    /// Sets (or clears) `gid`'s external-synchrony release gate: the
    /// group's sealed batches with an epoch above the watermark stay
    /// withheld even once locally durable. The cluster layer advances
    /// this to the group's quorum durable watermark as replication acks
    /// arrive; `None` restores single-node behavior (local durability
    /// alone releases). Other groups' batches are not affected.
    pub fn set_release_gate(&mut self, gid: GroupId, watermark: Option<u64>) -> Result<(), SlsError> {
        self.groups.get_mut(&gid).ok_or(SlsError::NoSuchGroup(gid))?.release_gate = watermark;
        Ok(())
    }

    /// Replaces the `cluster.*` gauges the cluster layer surfaces through
    /// [`Sls::stat_gauges`] and the metrics sampler.
    pub fn set_cluster_gauges(&mut self, gauges: Vec<(String, u64)>) {
        self.cluster_gauges = gauges.into_iter().collect();
    }

    /// The device stack's aggregated health report: per-member states
    /// plus failover/rebuild counters for a mirrored array, the default
    /// (no members, healthy) for everything else.
    pub fn device_health(&self) -> aurora_storage::HealthReport {
        self.store.lock().device().lock().health_report()
    }

    /// Whether the device stack currently reports a `Degraded` (or
    /// worse) member — the signal the scheduler and tick cadence
    /// throttle on. `Suspect` alone does not throttle.
    pub fn device_degraded(&self) -> bool {
        self.device_health().is_degraded()
    }

    /// Installs a trace recorder on every instrumented layer under this
    /// SLS: the kernel's cost accountant (whose charge histograms and
    /// pipeline spans ride on it), the VM, and the object store (which
    /// forwards the handle to its devices).
    pub fn install_trace(&mut self, trace: aurora_trace::Trace) {
        self.kernel.charge.set_trace(trace.clone());
        self.kernel.vm.set_trace(trace.clone());
        self.store.lock().set_trace(trace.clone());
        self.trace = trace;
    }

    /// Installs a virtual-time metrics sampler polling at most once per
    /// `period_ns`. Returns a handle sharing the series (for exporters).
    /// Polls happen at checkpoint/tick boundaries; none of them reads or
    /// advances the clock beyond what the run already does, so sampling
    /// cannot perturb the virtual timeline.
    pub fn install_sampler(&mut self, period_ns: u64) -> aurora_trace::Sampler {
        let s = aurora_trace::Sampler::new(period_ns);
        self.sampler = Some(s.clone());
        s
    }

    /// The installed sampler, if any.
    pub fn sampler(&self) -> Option<&aurora_trace::Sampler> {
        self.sampler.as_ref()
    }

    /// Every subsystem gauge under this SLS, flattened to `name → value`
    /// and sorted by name: the frame arena, the store and its device
    /// stack, the kernel's quiesce accounting, the checkpoint pipeline's
    /// latest stage timings, and external synchrony. Pure read.
    pub fn stat_gauges(&self) -> Vec<(String, u64)> {
        let fg = self.kernel.vm.frame_gauges();
        let (sg, dq, dev_bytes, health) = {
            let store = self.store.lock();
            let sg = store.gauges();
            let dev = store.device().lock();
            (sg, dev.queue_stats(), dev.bytes_written(), dev.health_report())
        };
        let pending: u64 = self.groups.values().map(|g| g.sealed.len() as u64).sum();
        let mut v: Vec<(String, u64)> = vec![
            ("frames.resident".into(), fg.resident),
            ("frames.shared".into(), fg.shared),
            ("frames.copies_broken".into(), fg.copies_broken),
            ("store.cache_pages".into(), sg.cache_pages),
            ("store.cache_hits".into(), sg.cache_hits),
            ("store.cache_misses".into(), sg.cache_misses),
            ("store.epochs".into(), sg.epochs),
            ("store.current_epoch".into(), sg.current_epoch),
            ("store.floor".into(), sg.floor),
            ("store.objects".into(), sg.objects),
            ("store.open_drafts".into(), sg.open_drafts),
            ("redo.appended".into(), sg.redo_appended),
            ("redo.chain_len.p95".into(), sg.redo_chain_len_p95),
            ("redo.materializations".into(), sg.redo_materializations),
            ("redo.bytes_saved".into(), sg.redo_bytes_saved),
            ("redo.vcl".into(), sg.redo_vcl),
            ("redo.vdl".into(), sg.redo_vdl),
            ("dev.queue_depth".into(), dq.depth),
            ("dev.bytes_in_flight".into(), dq.bytes_in_flight),
            ("dev.bytes_written".into(), dev_bytes),
            ("quiesce.windows".into(), self.kernel.quiesce_windows),
            ("quiesce.last_width_ns".into(), self.kernel.last_quiesce_width_ns),
            ("pipeline.checkpoints".into(), self.checkpoints_taken),
            ("extsync.sealed_total".into(), self.extsync_sealed),
            ("extsync.released_total".into(), self.extsync_released),
            ("extsync.pending_batches".into(), pending),
            ("trace.dropped_records".into(), self.trace.dropped_records()),
            ("trace.capacity".into(), self.trace.capacity() as u64),
            ("device.health.degraded_members".into(), health.degraded_members()),
            ("device.health.worst".into(), health.worst_code()),
            ("device.health.read_fallbacks".into(), health.read_fallbacks),
            ("device.health.remapped_blocks".into(), health.bad_blocks_remapped),
            ("raid.rebuild.pending_blocks".into(), health.rebuild_pending_blocks),
            ("raid.rebuild.copied_blocks".into(), health.rebuild_copied_blocks),
            ("raid.rebuild.completed".into(), health.rebuilds_completed),
            ("retry.budget.spent_total".into(), self.retries_spent_total),
        ];
        // Cluster view: defaults describe a standalone node (a cluster
        // of one — no lag, nothing queued); the cluster layer overrides
        // them via `set_cluster_gauges` as replication progresses.
        for key in
            ["cluster.quorum_lag", "cluster.repl_queue_depth", "cluster.migration_round", "cluster.migration_dirty_pages"]
        {
            v.push((key.into(), self.cluster_gauges.get(key).copied().unwrap_or(0)));
        }
        for (k, val) in &self.cluster_gauges {
            if !matches!(
                k.as_str(),
                "cluster.quorum_lag"
                    | "cluster.repl_queue_depth"
                    | "cluster.migration_round"
                    | "cluster.migration_dirty_pages"
            ) {
                v.push((k.clone(), *val));
            }
        }
        for (i, state) in health.member_states.iter().enumerate() {
            v.push((format!("device.health.m{i}"), state.code()));
        }
        if let Some(s) = &self.last_stats {
            v.push(("retry.budget.last_run".into(), s.retries as u64));
            v.push(("pipeline.last_stop_ns".into(), s.stop_time_ns));
            v.push(("pipeline.last_quiesce_ns".into(), s.quiesce_ns));
            v.push(("pipeline.last_shadow_ns".into(), s.shadow_ns));
            v.push(("pipeline.last_flush_ns".into(), s.flush_ns));
            v.push(("pipeline.last_commit_ns".into(), s.commit_ns));
            v.push(("pipeline.last_pages_flushed".into(), s.pages_flushed));
        }
        // One gauge block per consistency group, each row present once
        // the group has got that far, so overlapping pipelines stay
        // individually observable.
        for g in self.groups.values() {
            let n = g.id.0;
            if let Some(s) = &g.last_stats {
                v.push((format!("pipeline.g{n}.last_stop_ns"), s.stop_time_ns));
                v.push((format!("pipeline.g{n}.last_flush_ns"), s.flush_ns));
                v.push((format!("pipeline.g{n}.last_commit_ns"), s.commit_ns));
                v.push((format!("pipeline.g{n}.last_pages_flushed"), s.pages_flushed));
            }
            if let Some(w) = g.last_quiesce_width_ns {
                v.push((format!("quiesce.g{n}.last_width_ns"), w));
            }
            if let Some(pages) = g.shadow_pages {
                v.push((format!("frames.g{n}.shadow_pages"), pages));
            }
        }
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Polls the installed sampler: records a gauge row if the sampling
    /// period has elapsed. Returns whether a row was recorded. Safe (and
    /// a no-op) without a sampler.
    pub fn sample_metrics(&mut self) -> bool {
        let Some(sampler) = self.sampler.clone() else {
            return false;
        };
        let now = self.kernel.charge.clock().now();
        if !sampler.due(now) {
            return false;
        }
        let gauges = self.stat_gauges();
        sampler.record(now, gauges)
    }

    /// Attaches a process tree to the SLS as a new consistency group
    /// (`sls attach`). The first checkpoint is full.
    pub fn attach(&mut self, root: Pid, opts: SlsOptions) -> Result<GroupId, SlsError> {
        self.kernel.proc(root)?;
        let manifest = self.store.lock().alloc_oid();
        Ok(self.add_group(vec![root], opts, manifest).id)
    }

    /// Registers a new group under the next free id — the only place a
    /// [`Group`] is made and the only place an id is handed out.
    pub(crate) fn add_group(&mut self, roots: Vec<Pid>, opts: SlsOptions, manifest: Oid) -> &mut Group {
        let id = GroupId(self.next_group);
        self.next_group += 1;
        self.groups.entry(id).or_insert(Group::new(id, roots, opts, manifest))
    }

    /// Drops the pager bindings of lineages no live VM object carries
    /// any more (their processes exited). Lineage ids are never reused,
    /// so nothing can look one up again; each restore runs this before
    /// binding its own lineages, which keeps the map bounded by the live
    /// objects instead of growing with every restore ever made.
    pub(crate) fn forget_dead_lineages(&mut self) {
        let mut live: Vec<u64> = self.kernel.vm.lineages().collect();
        live.sort_unstable();
        self.lineage_oids.lock().retain(|lineage, _| live.binary_search(lineage).is_ok());
    }

    /// Marks a process ephemeral (`sls detach`): still quiesced with its
    /// group, never persisted; the parent sees SIGCHLD after a restore.
    pub fn detach(&mut self, pid: Pid) -> Result<(), SlsError> {
        self.kernel.proc_mut(pid)?.ephemeral = true;
        Ok(())
    }

    /// Live member pids of a group: the tree closure under its roots,
    /// in parent-before-child order.
    pub fn group_pids(&self, gid: GroupId) -> Result<Vec<Pid>, SlsError> {
        let g = self.groups.get(&gid).ok_or(SlsError::NoSuchGroup(gid))?;
        let mut out = Vec::new();
        let mut queue: VecDeque<Pid> = g.roots.iter().copied().collect();
        while let Some(pid) = queue.pop_front() {
            let Ok(p) = self.kernel.proc(pid) else { continue };
            if p.dead {
                continue;
            }
            out.push(pid);
            queue.extend(p.children.iter().copied());
        }
        Ok(out)
    }

    /// The groups currently attached (`sls ps`).
    pub fn groups(&self) -> Vec<GroupId> {
        let mut v: Vec<GroupId> = self.groups.keys().copied().collect();
        v.sort();
        v
    }

    /// Store epochs belonging to a group's history.
    pub fn history(&self, gid: GroupId) -> Result<&[u64], SlsError> {
        Ok(&self.groups.get(&gid).ok_or(SlsError::NoSuchGroup(gid))?.epochs)
    }

    /// Names the group's latest checkpoint (`sls checkpoint <name>`).
    pub fn name_checkpoint(&mut self, gid: GroupId, name: &str) -> Result<u64, SlsError> {
        let g = self.groups.get_mut(&gid).ok_or(SlsError::NoSuchGroup(gid))?;
        let epoch = *g.epochs.last().ok_or(SlsError::NoCheckpoint(gid))?;
        g.named.insert(name.to_string(), epoch);
        Ok(epoch)
    }

    /// Looks up a named checkpoint.
    pub fn named_checkpoint(&self, gid: GroupId, name: &str) -> Result<u64, SlsError> {
        self.groups
            .get(&gid)
            .ok_or(SlsError::NoSuchGroup(gid))?
            .named
            .get(name)
            .copied()
            .ok_or(SlsError::NoCheckpoint(gid))
    }

    /// Periodic driver: checkpoints every group whose period has elapsed
    /// through [`checkpoint_all`](Sls::checkpoint_all), so the stop
    /// windows of several due groups stagger against each other's
    /// flushes instead of serializing. Returns the stats of the
    /// checkpoints taken.
    pub fn tick(&mut self) -> Result<Vec<CheckpointStats>, SlsError> {
        let now = self.kernel.charge.clock().now();
        // Degraded-mode cadence stretch: while the device stack reports
        // a degraded member, every group's effective period widens so
        // the limping device sees fewer, wider epochs. Recovery restores
        // the configured cadence on the very next tick.
        let factor = if self.device_degraded() { DEGRADED_PERIOD_FACTOR } else { 1 };
        let mut due: Vec<GroupId> = self
            .groups
            .values()
            .filter(|g| {
                now.saturating_sub(g.last_checkpoint_ns)
                    >= g.opts.period_ns.saturating_mul(factor)
            })
            .map(|g| g.id)
            .collect();
        due.sort();
        let out = if due.is_empty() { Vec::new() } else { self.checkpoint_all(&due)? };
        self.pump_external_synchrony();
        self.sample_metrics();
        Ok(out)
    }

    /// Checkpoints every group in `gids` — the one checkpoint driver.
    /// The pipelines are overlapped by the scheduler: group B
    /// quiesces and serializes while group A's flush is in flight, and
    /// each group's epoch commits against its own draft's durability
    /// barrier. Returns one [`CheckpointStats`] per group, `gids` order.
    pub fn checkpoint_all(&mut self, gids: &[GroupId]) -> Result<Vec<CheckpointStats>, SlsError> {
        let all = scheduler::run(self, gids)?;
        for stats in &all {
            self.retries_spent_total += stats.retries as u64;
            self.checkpoints_taken += stats.committed() as u64;
            if let Some(g) = self.groups.get_mut(&GroupId(stats.group)) {
                g.last_stats = Some(stats.clone());
            }
            self.last_stats = Some(stats.clone());
        }
        self.sample_metrics();
        Ok(all)
    }

    /// The store handle (benchmarks and tools).
    pub fn store(&self) -> &SharedStore {
        &self.store
    }

    /// Frame-arena gauges for the one arena shared by the VM and the
    /// store: resident frames, shared frames, and COW copies broken.
    pub fn frame_gauges(&self) -> aurora_frames::FrameGauges {
        self.kernel.vm.frame_gauges()
    }

    /// Looks up a kernel object's OID in a group's mapping (tools and
    /// tests).
    pub fn oidmap_lookup(&self, gid: GroupId, kobj: oidmap::KObj) -> Option<Oid> {
        self.groups.get(&gid)?.oidmap.get(kobj)
    }

    /// Bounds a group's retained history to its `n` most recent
    /// checkpoints, reclaiming superseded blocks from the store
    /// (§7: "Users can use the history… only limited by the available
    /// storage" — and reclaim it when they don't).
    pub fn retain_last(&mut self, gid: GroupId, n: usize) -> Result<u64, SlsError> {
        let mut reclaimed = 0;
        loop {
            let g = self.groups.get_mut(&gid).ok_or(SlsError::NoSuchGroup(gid))?;
            if g.epochs.len() <= n.max(1) {
                break;
            }
            let dropped = g.epochs.remove(0);
            g.named.retain(|_, &mut e| e != dropped);
            let mut store = self.store.lock();
            // The group's epochs are the store's epochs in this
            // single-tenant configuration; drop the oldest store
            // checkpoint until the group's floor is reached.
            while store.epochs().first().copied() == Some(dropped)
                || store.epochs().first().map(|&e| e < dropped).unwrap_or(false)
            {
                store.drop_oldest_checkpoint()?;
                reclaimed += 1;
            }
        }
        Ok(reclaimed)
    }

    /// Simulates a machine crash + reboot: in-flight device writes are
    /// lost, the store recovers to its last complete checkpoint, and the
    /// kernel restarts empty (all processes die). Groups are forgotten —
    /// rediscover them with [`Sls::manifests_at`] and restore.
    pub fn crash_and_reboot(&mut self) -> Result<(), SlsError> {
        // Dump the black box first: the causal graphs of the last few
        // epochs, frozen at the instant of the crash.
        if let Some(fr) = &self.flight {
            fr.trigger("crash_and_reboot", self.kernel.charge.clock().now());
        }
        self.store.lock().crash_and_reopen_in_place()?;
        let clock = self.kernel.charge.clock().clone();
        let model = self.kernel.charge.model().clone();
        let mut kernel = Kernel::new(clock, model);
        self.lineage_oids.lock().clear();
        // The fresh kernel rejoins the store's (surviving) frame arena so
        // the gauges stay continuous across the reboot.
        kernel.vm.set_arena(self.store.lock().arena().clone());
        kernel.set_pager(Box::new(swap::StorePager {
            store: self.store.clone(),
            lineage_oids: self.lineage_oids.clone(),
        }));
        self.kernel = kernel;
        // The reboot replaced the kernel; re-arm its charge accountant
        // and VM with the installed trace (a reboot is an event worth
        // seeing in the timeline, not a reason to stop recording).
        if self.trace.is_enabled() {
            self.kernel.charge.set_trace(self.trace.clone());
            self.kernel.vm.set_trace(self.trace.clone());
            self.trace.instant("core", "machine.reboot", &[]);
        }
        // The sampler survives the reboot too; the discontinuity is
        // recorded as a mark, never smoothed into the gauge rows.
        if let Some(s) = &self.sampler {
            s.mark(self.kernel.charge.clock().now(), "machine.reboot");
        }
        // Every group dies here with everything known about it; ids
        // start over with them.
        self.groups.clear();
        self.next_group = 1;
        self.last_stats = None;
        Ok(())
    }
}
