//! The staged checkpoint pipeline (§4–6), made explicit: Quiesce →
//! Collapse → AioDrain → Serialize → Shadow → Resume → Flush → Seal →
//! Commit. Each stage produces a typed output consumed by later stages
//! and is timed back-to-back on the virtual clock, so the per-stage
//! breakdown in [`CheckpointStats`] is exact: the first six stages sum
//! to the application stop time, and all nine sum to
//! [`CheckpointStats::stage_total_ns`].
//!
//! The pipeline is sharded by consistency group: a [`GroupRun`] is one
//! group's checkpoint as a resumable state machine over four phases
//! (Stop → Flush → Seal → Commit), every store mutation staged under
//! the group's draft epoch. [`Sls::checkpoint_all`] drives runs to
//! completion through the scheduler, which interleaves many runs so
//! group B can quiesce while group A's flush is still in flight.
//!
//! The Serialize and Flush stages walk the [`KINDS`] table — the
//! pipeline knows *when* to serialize, each kind's definition knows
//! *how*.

use crate::checkpoint::{CheckpointStats, Reach, StageFailure};
use crate::kinds::{AssignCtx, FlushCtx, KindOps, ManifestRecord, KINDS};
use crate::oidmap::{KObj, Kind, OidMap, MANIFEST};
use crate::owed::OwedPages;
use crate::wire::Record;
use crate::{GroupId, SealedBatch, Sls, SlsError};
use aurora_objstore::{CommitInfo, Oid};
use aurora_posix::Pid;
use aurora_vm::{CollapseMode, ObjId, SpaceId};
use std::collections::{BTreeSet, HashMap, HashSet};

/// Attempts a device-facing stage (Flush, Commit) gets — first try plus
/// retries — before the checkpoint aborts and rolls back.
const MAX_ATTEMPTS: u32 = 4;
/// Backoff before retry `k` is `BACKOFF_BASE_NS << (k - 1)`, charged to
/// the virtual clock: deterministic, and visible in the stage timings.
const BACKOFF_BASE_NS: u64 = 50_000;

/// The recorded stage boundaries of one pipeline run: (name, start ns,
/// duration ns), pipeline order. Always recorded (it is nine tuples);
/// both [`CheckpointStats`] and the trace exporter read from it.
#[derive(Default)]
struct StageSpans(Vec<(&'static str, u64, u64)>);

/// Output of the Quiesce stage: the frozen membership.
pub struct Quiesced {
    /// Every live member, ephemeral included (all are quiesced).
    pub pids: Vec<Pid>,
    /// The persistent members (what gets serialized).
    pub persist: Vec<Pid>,
    /// The persistent members' address spaces.
    pub spaces: Vec<SpaceId>,
    /// First (full) checkpoint of the group?
    pub full: bool,
}

/// Output of the Serialize stage: the reachability scan and the encoded
/// records, ready to flush.
pub struct Serialized {
    /// Everything reachable from the group (§5.2's exactly-once scan).
    pub reach: Reach,
    /// Encoded records, (OID, record bytes), serialization order.
    pub buffers: Vec<(Oid, Vec<u8>)>,
}

/// Output of the Flush stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct FlushOut {
    /// Pages written to the store.
    pub pages_flushed: u64,
    /// Data bytes written (records + pages).
    pub bytes_flushed: u64,
}

/// Live-world state the checkpoint mutates before anything commits,
/// captured before the Serialize stage so an abort can restore it.
struct Snapshot {
    oidmap: OidMap,
    /// The pager bindings this run's Serialize inserted — an undo list,
    /// not a copy of the cross-group map: other groups' runs insert
    /// theirs in between, and an abort must not erase them.
    new_lineages: Vec<u64>,
    /// The owed file pages this run's flush wrote: an abort owes them
    /// again.
    owed: OwedPages,
}

/// Where a [`GroupRun`] is in its checkpoint. The Stop phase runs the
/// first six stages (quiesce → resume) contiguously so the group's stop
/// window stays one closed interval; the later phases are separate steps
/// a scheduler can interleave with other groups' phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Quiesce → Collapse → AioDrain → Serialize → Shadow → Resume.
    Stop,
    /// Flush records and pages, concurrent with execution.
    Flush,
    /// Seal outbound messages (external synchrony).
    Seal,
    /// Commit the group's draft epoch.
    Commit,
    /// Finished (committed or aborted); stats are ready.
    Done,
}

/// One group's checkpoint as a resumable state machine. A `GroupRun`
/// holds no borrow of the [`Sls`], so a scheduler can hold many runs
/// and step them against one world — each [`step`](GroupRun::step)
/// re-stages the store's draft cursor to this group first, so store
/// mutations from interleaved runs land in separate draft epochs.
pub struct GroupRun {
    gid: GroupId,
    collapse_mode: CollapseMode,
    pids: Vec<Pid>,
    persist: Vec<Pid>,
    full: bool,
    /// Pages flush attempts marked clean, kept across retries: an abort
    /// must re-dirty them because their "durable" copies die with the
    /// rolled-back epoch.
    cleaned_pages: Vec<(ObjId, u64)>,
    spans: StageSpans,
    t0: u64,
    last: u64,
    stats: CheckpointStats,
    snap: Option<Snapshot>,
    q: Option<Quiesced>,
    s: Option<Serialized>,
    fout: FlushOut,
    sealed: Option<HashMap<u64, usize>>,
    phase: Phase,
    /// Backpressure horizon: the Stop phase must not start before the
    /// group's previous checkpoint is durable (§7).
    ready_at: u64,
}

impl GroupRun {
    /// Prepares a checkpoint run of `gid`: validates membership and
    /// records the group's backpressure horizon (Aurora waits for the
    /// previous checkpoint to fully persist before initiating another,
    /// §7). The clock is *not* advanced here — the scheduler overlaps
    /// the wait with other groups' phases.
    pub fn new(sls: &mut Sls, gid: GroupId) -> Result<Self, SlsError> {
        let pids = sls.group_pids(gid)?;
        let persist: Vec<Pid> = pids
            .iter()
            .copied()
            .filter(|&p| sls.kernel.proc(p).map(|pr| !pr.ephemeral).unwrap_or(false))
            .collect();
        if persist.is_empty() {
            return Err(SlsError::NoSuchGroup(gid));
        }
        let (collapse_mode, ready_at) = {
            let g = sls.groups.get(&gid).ok_or(SlsError::NoSuchGroup(gid))?;
            (g.opts.collapse_mode, g.pending_durable)
        };
        let full = sls.groups[&gid].epochs.is_empty();
        Ok(Self {
            gid,
            collapse_mode,
            pids,
            persist,
            full,
            cleaned_pages: Vec::new(),
            spans: StageSpans::default(),
            t0: 0,
            last: 0,
            stats: CheckpointStats { group: gid.0, ..CheckpointStats::default() },
            snap: None,
            q: None,
            s: None,
            fout: FlushOut::default(),
            sealed: None,
            phase: Phase::Stop,
            ready_at,
        })
    }

    /// The run's current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// True once the run committed or aborted.
    pub fn is_done(&self) -> bool {
        self.phase == Phase::Done
    }

    /// Virtual time before which the Stop phase must not start (the
    /// group's previous checkpoint's durability horizon).
    pub fn ready_at(&self) -> u64 {
        self.ready_at
    }

    /// The finished run's stats. Call only when [`is_done`](Self::is_done).
    pub fn take_stats(self) -> CheckpointStats {
        debug_assert!(self.phase == Phase::Done, "stats taken from an unfinished run");
        self.stats
    }

    /// Closes the current stage at the clock's now.
    fn mark(&mut self, clock: &aurora_sim::Clock, name: &'static str) {
        let now = clock.now();
        self.spans.0.push((name, self.last, now - self.last));
        self.last = now;
    }

    /// Runs the current phase to its boundary and advances. Stage
    /// timings re-anchor at each step so interleaved runs never charge
    /// another group's clock advances to their own stages; within one
    /// step the marks are cumulative off one stopwatch, so they sum
    /// exactly.
    ///
    /// The device-facing phases (Flush, Commit) get four tries with
    /// exponential backoff for transient device errors; a phase that
    /// still fails aborts the checkpoint — the group's
    /// uncommitted draft epoch is discarded and the live world rolled
    /// back — and the failure is reported in
    /// [`CheckpointStats::failure`] rather than as an `Err`: the
    /// machine keeps running and the next checkpoint starts clean.
    pub fn step(&mut self, sls: &mut Sls) -> Result<(), SlsError> {
        let clock = sls.kernel.charge.clock().clone();
        match self.phase {
            Phase::Stop => {
                sls.store.lock().stage_for(self.gid.0);
                self.t0 = clock.now();
                self.last = self.t0;
                let q = self.quiesce(sls)?;
                self.mark(&clock, "quiesce");
                self.collapse(sls, &q)?;
                self.mark(&clock, "collapse");
                self.aio_drain(sls, &q)?;
                self.mark(&clock, "aio-drain");
                // Serialize is the first stage that mutates shared state
                // (OID assignment, lineage bindings); snapshot just
                // before it.
                self.snap = Some(self.snapshot(sls)?);
                let s = self.serialize(sls, &q)?;
                self.mark(&clock, "serialize");
                self.shadow(sls, &q, &s)?;
                self.mark(&clock, "shadow");
                self.resume(sls, &q)?;
                self.mark(&clock, "resume");
                self.q = Some(q);
                self.s = Some(s);
                self.phase = Phase::Flush;
            }
            Phase::Flush => {
                sls.store.lock().stage_for(self.gid.0);
                self.last = clock.now();
                let s = self.s.take().expect("serialized in Stop");
                match self.with_retry(sls, |run, sls| run.flush(sls, &s)) {
                    Ok(f) => {
                        self.mark(&clock, "flush");
                        // The flush handed the frozen frames to the
                        // store's page cache by reference — sample the
                        // aliasing while it is visible, before
                        // post-resume writes break it.
                        self.stats.shared_frames = sls.kernel.vm.frame_gauges().shared;
                        self.fout = f;
                        self.s = Some(s);
                        self.phase = Phase::Seal;
                    }
                    Err((attempts, cause)) => {
                        self.mark(&clock, "flush");
                        self.finish_stages(sls);
                        self.abort(sls, "flush", attempts, cause);
                    }
                }
            }
            Phase::Seal => {
                self.last = clock.now();
                let sealed = self.seal(sls)?;
                self.mark(&clock, "seal");
                self.sealed = Some(sealed);
                self.phase = Phase::Commit;
            }
            Phase::Commit => {
                sls.store.lock().stage_for(self.gid.0);
                self.last = clock.now();
                let sealed = self.sealed.take().expect("sealed in Seal");
                match self.with_retry(sls, |run, sls| run.commit(sls, sealed.clone())) {
                    Ok(info) => {
                        self.mark(&clock, "commit");
                        self.stats.epoch = info.epoch;
                        self.stats.full = self.full;
                        self.stats.objects =
                            self.s.as_ref().map(|s| s.buffers.len() as u64).unwrap_or(0);
                        self.stats.pages_flushed = self.fout.pages_flushed;
                        self.stats.bytes_flushed = self.fout.bytes_flushed;
                        self.stats.durable_at = info.durable_at;
                        self.finish_stages(sls);
                        sls.store.lock().stage_for(0);
                        self.phase = Phase::Done;
                    }
                    Err((attempts, cause)) => {
                        self.mark(&clock, "commit");
                        self.finish_stages(sls);
                        self.abort(sls, "commit", attempts, cause);
                    }
                }
            }
            Phase::Done => {}
        }
        Ok(())
    }

    /// Fills the per-stage stats fields from the recorded spans and, when
    /// tracing is on, emits one "pipeline" complete-span per stage plus
    /// the enclosing "checkpoint" parent span.
    fn finish_stages(&mut self, sls: &Sls) {
        let stats = &mut self.stats;
        for &(name, _, dur) in &self.spans.0 {
            match name {
                "quiesce" => stats.quiesce_ns = dur,
                "collapse" => stats.collapse_ns = dur,
                "aio-drain" => stats.aio_ns = dur,
                "serialize" => stats.os_state_ns = dur,
                "shadow" => stats.shadow_ns = dur,
                "resume" => stats.resume_ns = dur,
                "flush" => stats.flush_ns = dur,
                "seal" => stats.seal_ns = dur,
                "commit" => stats.commit_ns = dur,
                _ => unreachable!("unknown stage {name}"),
            }
        }
        stats.stop_time_ns = stats.quiesce_ns
            + stats.collapse_ns
            + stats.aio_ns
            + stats.os_state_ns
            + stats.shadow_ns
            + stats.resume_ns;
        let trace = sls.kernel.charge.trace();
        if trace.is_enabled() {
            let end = self.spans.0.last().map(|&(_, s, d)| s + d).unwrap_or(self.t0);
            trace.complete(
                "pipeline",
                "checkpoint",
                self.t0,
                end - self.t0,
                &[
                    ("group", self.gid.0),
                    ("epoch", stats.epoch),
                    ("full", stats.full as u64),
                ],
            );
            for &(name, start, dur) in &self.spans.0 {
                trace.complete(
                    "pipeline",
                    name,
                    start,
                    dur,
                    &[("group", self.gid.0), ("epoch", stats.epoch)],
                );
                trace.hist(&format!("stage.{name}"), dur);
            }
        }
    }

    /// Captures the live-world state the later stages mutate.
    fn snapshot(&self, sls: &Sls) -> Result<Snapshot, SlsError> {
        let g = sls.groups.get(&self.gid).ok_or(SlsError::NoSuchGroup(self.gid))?;
        let oidmap = g.oidmap.clone();
        Ok(Snapshot { oidmap, new_lineages: Vec::new(), owed: OwedPages::default() })
    }

    /// Runs `op` up to `MAX_ATTEMPTS` times, retrying only transient
    /// device errors, with deterministic exponential backoff charged to
    /// the virtual clock. Returns the final error with the attempt count
    /// once retries are exhausted (or immediately for permanent errors).
    fn with_retry<T>(
        &mut self,
        sls: &mut Sls,
        mut op: impl FnMut(&mut Self, &mut Sls) -> Result<T, SlsError>,
    ) -> Result<T, (u32, SlsError)> {
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            match op(self, sls) {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transient() && attempts < MAX_ATTEMPTS => {
                    self.stats.retries += 1;
                    let backoff = BACKOFF_BASE_NS << (attempts - 1);
                    let trace = sls.kernel.charge.trace();
                    if trace.is_enabled() {
                        trace.instant(
                            "pipeline",
                            "pipeline.retry",
                            &[
                                ("group", self.gid.0),
                                ("attempt", attempts as u64),
                                ("backoff_ns", backoff),
                            ],
                        );
                    }
                    sls.kernel.charge.raw(backoff);
                }
                Err(e) => return Err((attempts, e)),
            }
        }
    }

    /// Rolls the live world back after a stage exhausted its retries:
    /// the group's uncommitted draft epoch is discarded (its staged
    /// blocks freed), the group's OID map reverts to its pre-serialize
    /// snapshot, the pager bindings its Serialize inserted are dropped,
    /// every page a flush attempt marked clean is dirtied again, and the
    /// file pages it wrote because the group owed them are owed again.
    /// Other groups' in-flight drafts and bindings are untouched. The
    /// failed checkpoint is reported via
    /// [`CheckpointStats::failure`]; nothing of it remains visible.
    fn abort(&mut self, sls: &mut Sls, stage: &'static str, attempts: u32, cause: SlsError) {
        let trace = sls.kernel.charge.trace();
        if trace.is_enabled() {
            trace.instant(
                "pipeline",
                "pipeline.abort",
                &[("group", self.gid.0), ("attempts", attempts as u64)],
            );
        }
        {
            let mut store = sls.store.lock();
            store.abort_epoch_for(self.gid.0);
            store.stage_for(0);
        }
        if let Some(snap) = self.snap.take() {
            if let Some(g) = sls.groups.get_mut(&self.gid) {
                g.oidmap = snap.oidmap;
                g.owed.extend(snap.owed);
            }
            let mut lineages = sls.lineage_oids.lock();
            for lineage in snap.new_lineages {
                lineages.remove(&lineage);
            }
        }
        for (obj, pi) in std::mem::take(&mut self.cleaned_pages) {
            // The page may have been shadowed since it was flushed; a
            // non-resident slot has nothing to re-dirty (the dirty copy
            // lives elsewhere in the chain).
            let _ = sls.kernel.vm.mark_dirty(obj, pi);
        }
        self.stats.failure = Some(StageFailure { stage, group: self.gid.0, attempts, cause });
        self.phase = Phase::Done;
    }

    /// Stage 1 — Quiesce: every member (ephemeral included) stops at
    /// the kernel boundary. Only this group stops; the rest of the
    /// machine — including other groups' in-flight flushes — keeps
    /// going.
    fn quiesce(&mut self, sls: &mut Sls) -> Result<Quiesced, SlsError> {
        let report = sls.kernel.quiesce_group(&self.pids, self.gid.0)?;
        let g = sls.groups.get_mut(&self.gid).ok_or(SlsError::NoSuchGroup(self.gid))?;
        g.last_quiesce_width_ns = Some(report.width_ns);
        sls.kernel.charge.raw(sls.kernel.charge.model().checkpoint_barrier_ns);
        let spaces: Vec<SpaceId> = self
            .persist
            .iter()
            .map(|&p| sls.kernel.proc(p).map(|pr| pr.space))
            .collect::<Result<_, _>>()?;
        Ok(Quiesced {
            pids: self.pids.clone(),
            persist: self.persist.clone(),
            spaces,
            full: self.full,
        })
    }

    /// Stage 2 — Collapse: fold the shadows retired by the previous
    /// checkpoint; their flush is durable thanks to the backpressure
    /// wait.
    fn collapse(&mut self, sls: &mut Sls, q: &Quiesced) -> Result<(), SlsError> {
        if q.full {
            return Ok(());
        }
        let mut tops = BTreeSet::new();
        for &space in &q.spaces {
            for e in sls.kernel.vm.entries(space)? {
                tops.insert(e.object);
            }
        }
        for top in tops {
            // Refusals (short chains, fork shadows in the middle) are
            // expected; corruption is not.
            let _ = sls.kernel.vm.collapse_under(top, self.collapse_mode);
        }
        Ok(())
    }

    /// Stage 3 — AioDrain: in-flight writes must be incorporated before
    /// the checkpoint counts as complete — wait them out now; reads stay
    /// pending and are recorded for reissue at restore (§5.3).
    fn aio_drain(&mut self, sls: &mut Sls, q: &Quiesced) -> Result<(), SlsError> {
        let member: HashSet<u32> = q.persist.iter().map(|p| p.0).collect();
        let pending_writes: Vec<u64> = sls
            .kernel
            .aio
            .ops
            .iter()
            .filter(|op| member.contains(&op.pid) && op.kind == aurora_posix::aio::AioKind::Write)
            .map(|op| op.id)
            .collect();
        for id in pending_writes {
            // Device-side completion wait, then fold into the image.
            sls.kernel.charge.raw(12_000);
            sls.kernel.aio.complete(id);
        }
        Ok(())
    }

    /// Stage 4 — Serialize: walk the object graph once, assign OIDs, and
    /// encode every reachable object into a memory buffer — all through
    /// the kind table; no per-kind logic lives here.
    fn serialize(&mut self, sls: &mut Sls, q: &Quiesced) -> Result<Serialized, SlsError> {
        let reach = Reach::collect(&sls.kernel, &q.persist)?;
        let plan: Vec<(&KindOps, Vec<u64>)> =
            KINDS.iter().map(|ops| (ops, (ops.collect)(&reach))).collect();
        {
            let g = sls.groups.get_mut(&self.gid).ok_or(SlsError::NoSuchGroup(self.gid))?;
            let mut store = sls.store.lock();
            let mut lineages = sls.lineage_oids.lock();
            let snap = self.snap.as_mut().expect("snapshot taken before Serialize");
            let mut ctx = AssignCtx {
                kernel: &sls.kernel,
                store: &mut store,
                oids: &mut g.oidmap,
                lineages: &mut lineages,
                new_lineages: &mut snap.new_lineages,
                owed: &mut g.owed,
            };
            for (ops, ids) in &plan {
                for &id in ids {
                    (ops.assign_oid)(&mut ctx, id)?;
                }
            }
        }
        let mut buffers: Vec<(Oid, Vec<u8>)> = Vec::new();
        {
            let g = sls.groups.get(&self.gid).ok_or(SlsError::NoSuchGroup(self.gid))?;
            let k = &sls.kernel;
            for (ops, ids) in &plan {
                for &id in ids {
                    let oid = g.oidmap.require((ops.key_of)(k, id)?)?;
                    buffers.push((oid, (ops.encode)(k, id, &g.oidmap)?));
                }
            }
        }
        Ok(Serialized { reach, buffers })
    }

    /// Stage 5 — Shadow: one system shadow per writable object across
    /// the whole group; COW-mark the frozen pages; TLB shootdown (§6).
    /// The frozen page count is recorded on the group (its
    /// `frames.gN.shadow_pages` gauge).
    fn shadow(&mut self, sls: &mut Sls, q: &Quiesced, s: &Serialized) -> Result<(), SlsError> {
        let stats_before = sls.kernel.vm.stats;
        let pairs = sls.kernel.vm.system_shadow(&q.spaces)?;
        for pair in &pairs {
            sls.kernel.shm_backmap(pair.old_top, pair.new_top);
        }
        let delta = sls.kernel.vm.stats - stats_before;
        let model = sls.kernel.charge.model().clone();
        sls.kernel.charge.raw(delta.pte_downgrades * model.pte_cow_ns);
        sls.kernel.charge.raw(model.shootdown_ns(s.reach.threads.len() as u64));
        let g = sls.groups.get_mut(&self.gid).ok_or(SlsError::NoSuchGroup(self.gid))?;
        g.shadow_pages = Some(delta.pte_downgrades);
        Ok(())
    }

    /// Stage 6 — Resume: the application runs again; stop time ends.
    fn resume(&mut self, sls: &mut Sls, q: &Quiesced) -> Result<(), SlsError> {
        Ok(sls.kernel.resume(&q.pids)?)
    }

    /// Stage 7 — Flush, concurrent with execution: records as one
    /// charged metadata batch, then each kind's bulk data through its
    /// flush hook, then the group manifest.
    fn flush(&mut self, sls: &mut Sls, s: &Serialized) -> Result<FlushOut, SlsError> {
        let g = sls.groups.get_mut(&self.gid).ok_or(SlsError::NoSuchGroup(self.gid))?;
        let lineages = sls.lineage_oids.lock();
        let mut store = sls.store.lock();
        let mut out = FlushOut::default();

        store.set_meta_batch(&s.buffers)?;
        out.bytes_flushed += s.buffers.iter().map(|(_, b)| b.len() as u64).sum::<u64>();

        let mut ctx = FlushCtx {
            kernel: &mut sls.kernel,
            store: &mut store,
            oids: &g.oidmap,
            reach: &s.reach,
            pages_flushed: 0,
            bytes_flushed: 0,
            cleaned: Vec::new(),
            mode: sls.checkpoint_mode,
            lineages: &lineages,
            owed: &g.owed,
        };
        // No `?` inside the hook loop: pages a partial flush marked
        // clean must reach `cleaned_pages` even when a later hook fails,
        // or an abort could not re-dirty them.
        let mut hook_res = Ok(());
        for ops in &KINDS {
            hook_res = (ops.flush)(&mut ctx);
            if hook_res.is_err() {
                break;
            }
        }
        out.pages_flushed += ctx.pages_flushed;
        out.bytes_flushed += ctx.bytes_flushed;
        self.cleaned_pages.extend(ctx.cleaned);
        hook_res?;

        // The manifest, every checkpoint (the tree may have changed).
        let manifest = ManifestRecord {
            period_ns: g.opts.period_ns,
            extsync: g.opts.external_synchrony,
            procs: s.reach.procs.iter()
                .map(|&p| {
                    let oid = g.oidmap.require(KObj(Kind::Proc, p.0 as u64))?;
                    Ok((oid, sls.kernel.proc(p)?.local_pid.0, g.roots.contains(&p)))
                })
                .collect::<Result<_, SlsError>>()?,
            fs_vnodes: s.reach.vnodes.iter()
                .map(|&v| g.oidmap.require(KObj(Kind::Vnode, v)))
                .collect::<Result<_, _>>()?,
        };
        store.create_object(g.manifest, aurora_objstore::ObjectKind::Posix(MANIFEST))?;
        store.set_meta(g.manifest, &manifest.to_bytes())?;
        // Written: the other groups owe the file pages this run cleaned,
        // and the run holds the pages this group owed until it commits.
        let owed = std::mem::take(&mut g.owed);
        drop((store, lineages));
        sls.owe_cleaned(self.gid, &self.cleaned_pages);
        self.snap.as_mut().expect("snapshot taken before Serialize").owed.extend(owed);
        Ok(out)
    }

    /// Stage 8 — Seal outbound messages under this checkpoint (external
    /// synchrony, §3).
    fn seal(&mut self, sls: &mut Sls) -> Result<HashMap<u64, usize>, SlsError> {
        sls.seal_group_sockets(self.gid)
    }

    /// Stage 9 — Commit: one compact metadata record for this group's
    /// draft; durable once the data completions *this draft* is ordered
    /// behind land — other groups' slower flushes do not extend the
    /// barrier.
    fn commit(&mut self, sls: &mut Sls, sealed_counts: HashMap<u64, usize>) -> Result<CommitInfo, SlsError> {
        let info = {
            let mut store = sls.store.lock();
            store.commit_for(self.gid.0)?
        };
        let now = sls.kernel.charge.clock().now();
        let g = sls.groups.get_mut(&self.gid).ok_or(SlsError::NoSuchGroup(self.gid))?;
        g.epochs.push(info.epoch);
        g.pending_durable = info.durable_at;
        g.last_checkpoint_ns = now;
        if g.opts.external_synchrony {
            let trace = sls.kernel.charge.trace();
            if trace.is_enabled() {
                trace.instant(
                    "extsync",
                    "extsync.seal",
                    &[
                        ("epoch", info.epoch),
                        ("group", self.gid.0),
                        ("durable_at", info.durable_at),
                        ("sockets", sealed_counts.len() as u64),
                    ],
                );
            }
            let g = sls.groups.get_mut(&self.gid).expect("checked above");
            g.sealed.push_back(SealedBatch {
                epoch: info.epoch,
                durable_at: info.durable_at,
                sealed_at: now,
                counts: sealed_counts,
            });
            sls.extsync_sealed += 1;
        }
        Ok(info)
    }
}
