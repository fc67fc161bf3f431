//! Crash-schedule exploration.
//!
//! The store's headline guarantee is that after an arbitrary crash,
//! [`ObjectStore::open`] recovers the last durable checkpoint and
//! nothing newer. This module turns that sentence into an exhaustive
//! test: run a workload once fault-free to learn its write trace, then
//! replay it once per write boundary with a power-cut injected there,
//! reopen the store, and check four invariants on every schedule. A
//! workload drives one or more consistency groups, each with its own
//! draft epoch, objects and journal; the invariants hold group by group
//! — one group's lost tail must not roll back or corrupt another:
//!
//! 1. **Prefix**: the group's recovered epochs are a contiguous range of
//!    its commit order (a prefix of it when nothing is ever dropped — a
//!    chained commit record cannot recover epoch N without N-1), ending
//!    at some epoch `L`, and every epoch the workload explicitly waited
//!    for (barriered) before the cut satisfies `≤ L` — durability can't
//!    be lost.
//! 2. **No unsealed state**: every golden epoch outside the recovered
//!    range is unreadable, and every recovered epoch's contents
//!    (objects, pages, metadata) are bit-exact against the golden model
//!    — nothing from a torn commit leaks through.
//! 3. **Journal idempotence**: scanning the group's journal twice yields
//!    the same records, and they are exactly the appends that completed
//!    synchronously before the cut.
//! 4. **Reopen no-op**: opening the recovered device a second time
//!    yields the identical store, group attribution included.
//!
//! Determinism makes this exhaustive instead of probabilistic: the same
//! workload always issues the same write sequence, so "crash at write
//! N" names one exact machine state.

use crate::store::content_hash;
use crate::{ObjectKind, ObjectStore, Oid, PageRef, RedoWrite, PAGE};
use aurora_sim::cost::Charge;
use aurora_sim::rng::{DetRng, Rng};
use aurora_sim::{Clock, CostModel};
use aurora_storage::faulty::{FaultHandle, FaultPlan};
use aurora_storage::{faulty_testbed_array, SharedDevice};
use aurora_trace::{InvariantChecker, Trace};
use std::collections::{BTreeSet, HashMap};

/// One step of a crash-exploration workload, issued against one
/// consistency group. Groups stage concurrently: a commit of one group
/// seals only that group's draft, leaving the others' open across the
/// crash point.
#[derive(Clone, Debug)]
pub struct WorkloadOp {
    /// Workload-local consistency group the step belongs to.
    pub group: usize,
    /// What the step does.
    pub kind: OpKind,
}

/// The action of a [`WorkloadOp`].
#[derive(Clone, Debug)]
pub enum OpKind {
    /// Write one full page image of the group's object `obj` (objects
    /// are created on first use).
    Write {
        /// Group-local object index.
        obj: usize,
        /// Page index.
        pindex: u64,
        /// Fill byte.
        fill: u8,
    },
    /// Overwrite a sub-page span through `append_redo` — the default
    /// (`CheckpointMode::Delta`) checkpoint write path. The delta is
    /// diffed against the model's current page, so it chains on that
    /// version as a packed redo record; a page with no version yet is
    /// promoted to a full image by the store.
    Delta {
        /// Group-local object index.
        obj: usize,
        /// Page index.
        pindex: u64,
        /// Byte offset of the span within the page.
        off: u32,
        /// Span length in bytes (may be zero: dirty but unchanged).
        len: u32,
        /// Fill byte of the span.
        fill: u8,
    },
    /// Replace object `obj`'s metadata.
    SetMeta {
        /// Group-local object index.
        obj: usize,
        /// Metadata tag byte.
        tag: u8,
    },
    /// Commit the group's draft; `wait` additionally barriers on its
    /// durability.
    Commit {
        /// Whether the workload waits for the checkpoint (external
        /// synchrony).
        wait: bool,
    },
    /// Synchronously append a record to the group's journal.
    JournalAppend {
        /// Record fill byte.
        fill: u8,
        /// Record length in bytes.
        len: usize,
    },
    /// Drop the store's oldest checkpoint, whichever group committed it
    /// (no-op when that would leave the group without a checkpoint).
    DropOldest,
}

/// Generates a deterministic workload over `groups` consistency groups
/// from a seed. `with_drops` mixes in history reclamation, exercising the
/// drop/crash interleaving.
pub fn workload_from_seed(
    seed: u64,
    ops: usize,
    groups: usize,
    with_drops: bool,
) -> Vec<WorkloadOp> {
    let mut rng = DetRng::seed_from_u64(seed);
    (0..ops)
        .map(|_| {
            // A lone group draws nothing for its choice, so a seed names
            // the same op stream it did before ops carried a group.
            let group = if groups > 1 { rng.gen_range(0..groups as u64) as usize } else { 0 };
            let kind = match rng.gen_range(0..10) {
                0..=1 => OpKind::Write {
                    obj: rng.gen_range(0..4) as usize,
                    pindex: rng.gen_range(0..8),
                    fill: rng.next_u64() as u8,
                },
                2..=4 => {
                    let off = rng.gen_range(0..PAGE as u64) as u32;
                    OpKind::Delta {
                        obj: rng.gen_range(0..4) as usize,
                        pindex: rng.gen_range(0..8),
                        off,
                        len: rng.gen_range(0..(PAGE as u64 - off as u64).min(600)) as u32,
                        fill: rng.next_u64() as u8,
                    }
                }
                5 => OpKind::SetMeta {
                    obj: rng.gen_range(0..4) as usize,
                    tag: rng.next_u64() as u8,
                },
                6 | 7 => OpKind::Commit { wait: rng.gen_bool(0.5) },
                8 => OpKind::JournalAppend {
                    fill: rng.next_u64() as u8,
                    len: 40 + rng.gen_range(0..6000) as usize,
                },
                _ if with_drops => OpKind::DropOldest,
                _ => OpKind::Commit { wait: true },
            };
            WorkloadOp { group, kind }
        })
        .collect()
}

/// Snapshot of one group's committed state at one epoch of the golden
/// run.
#[derive(Clone, Debug, Default)]
struct EpochModel {
    /// `(obj, pindex) -> content` for every page written before the
    /// commit.
    pages: HashMap<(usize, u64), PageRef>,
    /// `obj -> tag` for every metadata version set before the commit.
    metas: HashMap<usize, u8>,
    /// Workload objects that existed at the commit.
    objects: BTreeSet<usize>,
}

/// What one replay of the workload produced for one consistency group.
struct GroupRun {
    /// The store-level group number the group stages under: 0 for a
    /// lone group (the ungrouped draft), `1..` otherwise — group 0 is
    /// left for ungrouped callers, mirroring the SLS.
    store_group: u64,
    /// Lazily created workload objects.
    oids: Vec<Option<Oid>>,
    journal: Oid,
    /// Contents staged so far: the model of the group's next commit.
    live: EpochModel,
    /// Committed epochs in commit order (including later-dropped ones).
    epochs: Vec<u64>,
    models: HashMap<u64, EpochModel>,
    /// Epochs the workload barriered on before the cut fired.
    barriered_before_cut: Vec<u64>,
    /// Journal records appended, in order.
    jrecords: Vec<Vec<u8>>,
    /// How many of `jrecords` completed before the cut fired.
    jrecords_before_cut: usize,
}

/// Everything one replay of the workload produced.
struct Replay {
    store: ObjectStore,
    dev: SharedDevice,
    handle: FaultHandle,
    groups: Vec<GroupRun>,
    /// Highest number of concurrently open drafts observed.
    max_open_drafts: u64,
    /// Online invariant checker armed over the whole replay (epoch
    /// monotonicity across the crash, extsync ordering, frame writes).
    checker: InvariantChecker,
}

/// The workload object in `slot`, created on first use.
fn ensure_object(store: &mut ObjectStore, slot: &mut Option<Oid>) -> Oid {
    *slot.get_or_insert_with(|| {
        let o = store.alloc_oid();
        store.create_object(o, ObjectKind::Memory).expect("create");
        o
    })
}

/// Runs `workload` over a faulty testbed armed with `plan`. The store is
/// formatted (and each group's journal created and committed) fault-free
/// first, so write sequence numbers in `plan` count workload writes only
/// — use [`Explorer::golden`]'s write range for cut points.
fn replay(workload: &[WorkloadOp], groups: usize, plan: FaultPlan) -> Replay {
    let clock = Clock::new();
    let (dev, handle) = faulty_testbed_array(&clock, 1 << 26, FaultPlan::none());
    let trace = {
        let c = clock.clone();
        Trace::recording(move || c.now())
    };
    let checker = InvariantChecker::arm(&trace);
    let mut charge = Charge::new(clock, CostModel::default());
    charge.set_trace(trace);
    let mut store = ObjectStore::format(dev.clone(), charge, 2048).expect("format");
    let mut runs: Vec<GroupRun> = (0..groups)
        .map(|g| {
            let store_group = if groups == 1 { 0 } else { g as u64 + 1 };
            store.stage_for(store_group);
            let journal = store.alloc_oid();
            store.create_journal(journal, 64).expect("create journal");
            let c = store.commit_for(store_group).expect("journal commit");
            store.barrier(c);
            GroupRun {
                store_group,
                oids: vec![None; 4],
                journal,
                live: EpochModel::default(),
                // The mandatory setup commit is the group's first epoch;
                // models start from it.
                epochs: vec![c.epoch],
                models: HashMap::from([(c.epoch, EpochModel::default())]),
                barriered_before_cut: Vec::new(),
                jrecords: Vec::new(),
                jrecords_before_cut: 0,
            }
        })
        .collect();
    handle.set_plan(plan);

    let mut max_open_drafts = 0;
    for op in workload {
        let g = &mut runs[op.group];
        store.stage_for(g.store_group);
        match op.kind {
            OpKind::Write { obj, pindex, fill } => {
                let oid = ensure_object(&mut store, &mut g.oids[obj]);
                g.live.objects.insert(obj);
                let p = store.arena().alloc([fill; PAGE]);
                store.write_pages(oid, &[(pindex, p.clone())]).expect("write");
                g.live.pages.insert((obj, pindex), p);
            }
            OpKind::Delta { obj, pindex, off, len, fill } => {
                let oid = ensure_object(&mut store, &mut g.oids[obj]);
                g.live.objects.insert(obj);
                let base = g.live.pages.get(&(obj, pindex)).map_or([0u8; PAGE], |p| **p);
                let mut new = base;
                new[off as usize..(off + len) as usize].fill(fill);
                let page = store.arena().alloc(new);
                let delta = Some((off, vec![fill; len as usize]));
                let base_csum = content_hash(&base);
                let w = RedoWrite { pindex, page: page.clone(), delta, base_csum };
                store.append_redo(oid, &[w]).expect("append_redo");
                g.live.pages.insert((obj, pindex), page);
            }
            OpKind::SetMeta { obj, tag } => {
                let oid = ensure_object(&mut store, &mut g.oids[obj]);
                g.live.objects.insert(obj);
                store.set_meta(oid, &[tag; 32]).expect("set_meta");
                g.live.metas.insert(obj, tag);
            }
            OpKind::Commit { wait } => {
                let info = store.commit_for(g.store_group).expect("commit");
                if wait {
                    store.barrier(info);
                    if !handle.cut_fired() {
                        g.barriered_before_cut.push(info.epoch);
                    }
                }
                g.epochs.push(info.epoch);
                g.models.insert(info.epoch, g.live.clone());
            }
            OpKind::JournalAppend { fill, len } => {
                store.journal_append(g.journal, &vec![fill; len]).expect("append");
                g.jrecords.push(vec![fill; len]);
                if !handle.cut_fired() {
                    g.jrecords_before_cut = g.jrecords.len();
                }
            }
            OpKind::DropOldest => {
                // A group's newest checkpoint is what its barriers
                // promised; only history behind it may be reclaimed.
                let owner = store.group_of_epoch(store.epochs()[0]);
                if store.epochs_for(owner).len() >= 2 {
                    store.drop_oldest_checkpoint().expect("drop");
                }
            }
        }
        max_open_drafts = max_open_drafts.max(store.open_drafts());
    }

    Replay { store, dev, handle, groups: runs, max_open_drafts, checker }
}

/// What the golden (fault-free) run learned about a workload.
pub struct Golden {
    /// First workload write sequence number (post-setup).
    pub first_write: u64,
    /// One past the last workload write sequence number.
    pub end_write: u64,
    /// Per group: committed epochs of the fault-free run, in order.
    pub epochs: Vec<Vec<u64>>,
}

/// Summary of one exploration sweep.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScheduleReport {
    /// Distinct crash points the sweep covered.
    pub schedules: u64,
    /// Schedules in which the cut actually fired.
    pub cuts_fired: u64,
    /// Schedules that recovered at least one workload epoch.
    pub recovered_nonempty: u64,
}

/// The crash-schedule explorer: one workload, many crash points.
pub struct Explorer {
    workload: Vec<WorkloadOp>,
    groups: usize,
    with_drops: bool,
}

impl Explorer {
    /// An explorer for a seeded workload over `groups` consistency
    /// groups.
    pub fn from_seed(seed: u64, ops: usize, groups: usize, with_drops: bool) -> Self {
        Self { workload: workload_from_seed(seed, ops, groups, with_drops), groups, with_drops }
    }

    /// Runs the workload fault-free and reports its write-boundary range.
    pub(crate) fn golden(&self) -> Golden {
        let setup = replay(&[], self.groups, FaultPlan::none());
        let first_write = setup.handle.writes_seen();
        let full = replay(&self.workload, self.groups, FaultPlan::none());
        assert!(
            full.store.gauges().redo_appended > 0,
            "workload never took the packed redo path — the default checkpoint write path"
        );
        assert!(
            full.max_open_drafts >= self.groups.min(2) as u64,
            "workload never had two groups' drafts concurrently open (max {})",
            full.max_open_drafts
        );
        Golden {
            first_write,
            end_write: full.handle.writes_seen(),
            epochs: full.groups.into_iter().map(|g| g.epochs).collect(),
        }
    }

    /// Replays the workload once per crash point in
    /// `[golden.first_write, golden.end_write)` (subsampled to at most
    /// `cap` schedules when given), checking each group's four recovery
    /// invariants after each crash. `tear_seed` additionally tears the
    /// cut write at a seeded sub-block offset on every schedule.
    ///
    /// Panics (test-style) with the offending crash point on violation.
    pub fn explore(&self, cap: Option<u64>, tear_seed: Option<u64>) -> ScheduleReport {
        let golden = self.golden();
        let total = golden.end_write - golden.first_write;
        let step = match cap {
            Some(c) if c > 0 && total > c => total.div_ceil(c),
            _ => 1,
        };
        let mut report = ScheduleReport::default();
        let mut tear_rng = tear_seed.map(DetRng::seed_from_u64);
        let mut cut = golden.first_write;
        while cut < golden.end_write {
            let plan = match &mut tear_rng {
                Some(rng) => {
                    // Odd offsets make the tear land mid-byte-run, never
                    // on a block boundary.
                    let bytes = (rng.gen_range(1..PAGE as u64) | 1) as usize;
                    FaultPlan::torn_cut_at(cut, bytes)
                }
                None => FaultPlan::cut_at(cut),
            };
            let run = replay(&self.workload, self.groups, plan);
            if run.handle.cut_fired() {
                report.cuts_fired += 1;
            }
            if self.check_recovery(&golden, run, cut, tear_seed.is_some()) {
                report.recovered_nonempty += 1;
            }
            report.schedules += 1;
            cut += step;
        }
        report
    }

    /// Crashes the replayed store, reopens it, and asserts the four
    /// recovery invariants for each group independently. Returns whether
    /// any workload epoch (beyond the setup commits) was recovered.
    /// `torn` relaxes the journal check: a sub-block tear may damage
    /// acknowledged records that share the torn block, so only the
    /// prefix property holds.
    fn check_recovery(&self, golden: &Golden, run: Replay, cut: u64, torn: bool) -> bool {
        let Replay { store, dev, groups, checker, .. } = run;
        let charge = store.charge().clone();
        let mut rec = store.crash_and_recover().unwrap_or_else(|e| {
            panic!("crash point {cut}: recovery failed: {e}");
        });
        // Every recovered page version must still match its write-time
        // checksum — a crash (even a torn one) may lose writes but must
        // never surface silently corrupted data.
        rec.scrub().unwrap_or_else(|e| panic!("crash point {cut}: scrub failed: {e}"));

        let mut any = false;
        for (g, (grp, committed)) in groups.iter().zip(&golden.epochs).enumerate() {
            let at = format!("crash point {cut}: group {g}");

            // Invariant 1: the group's recovered epochs are a contiguous
            // range of its commit order, a prefix of it unless history is
            // being dropped, and nothing it barriered is lost.
            let recovered = rec.epochs_for(grp.store_group);
            if let Some(first) = recovered.first() {
                let start = grp
                    .epochs
                    .iter()
                    .position(|e| e == first)
                    .unwrap_or_else(|| panic!("{at}: unknown epoch {first}"));
                assert_eq!(
                    grp.epochs[start..start + recovered.len()],
                    recovered[..],
                    "{at}: recovered epochs not contiguous in commit order"
                );
            }
            if !self.with_drops {
                assert_eq!(
                    committed[..recovered.len()],
                    recovered[..],
                    "{at}: recovered epochs not a prefix of the commit order"
                );
            }
            let last = recovered.last().copied().unwrap_or(0);
            let waited = grp.barriered_before_cut.iter().max().copied().unwrap_or(0);
            assert!(last >= waited, "{at}: barriered epoch {waited} lost (recovered up to {last})");
            any |= recovered.len() > 1;

            // Invariant 2: recovered contents are bit-exact; every other
            // epoch the group ever committed is invisible.
            for &epoch in &recovered {
                let model = &grp.models[&epoch];
                let present = rec.objects_at(epoch).expect("epoch just listed");
                for (obj, oid) in grp.oids.iter().enumerate() {
                    let Some(oid) = *oid else { continue };
                    assert_eq!(
                        present.contains(&oid),
                        model.objects.contains(&obj),
                        "{at}: epoch {epoch} object {obj} visibility mismatch"
                    );
                }
                for (&(obj, pindex), expected) in &model.pages {
                    let oid = grp.oids[obj].expect("modelled object was created");
                    let page = rec
                        .read_page(oid, pindex, epoch)
                        .unwrap_or_else(|e| panic!("{at}: epoch {epoch} read: {e}"));
                    assert!(
                        page == *expected,
                        "{at}: epoch {epoch} obj {obj} page {pindex} corrupt"
                    );
                }
                for (&obj, &tag) in &model.metas {
                    let oid = grp.oids[obj].expect("modelled object was created");
                    let meta = rec
                        .meta_at(oid, epoch)
                        .unwrap_or_else(|e| panic!("{at}: epoch {epoch} meta: {e}"));
                    assert_eq!(meta, &[tag; 32], "{at}: epoch {epoch} meta mismatch");
                }
            }
            for &epoch in committed.iter().filter(|e| !recovered.contains(e)) {
                assert!(
                    rec.objects_at(epoch).is_err(),
                    "{at}: unrecovered epoch {epoch} visible after recovery"
                );
            }

            // Invariant 3: the group's journal replays idempotently and
            // exposes exactly its synchronously completed appends.
            if !recovered.is_empty() {
                let first = rec.journal_records(grp.journal).expect("journal scan");
                let second = rec.journal_records(grp.journal).expect("journal rescan");
                assert_eq!(first, second, "{at}: journal replay not idempotent");
                if torn {
                    assert!(
                        first.len() <= grp.jrecords.len()
                            && first == grp.jrecords[..first.len()],
                        "{at}: journal records not a prefix of the appends"
                    );
                } else {
                    assert_eq!(
                        first,
                        grp.jrecords[..grp.jrecords_before_cut],
                        "{at}: journal records differ from completed appends"
                    );
                }
            }
        }

        // Invariant 4: a second open is a no-op, group attribution
        // included.
        let again = ObjectStore::open(dev, charge)
            .unwrap_or_else(|e| panic!("crash point {cut}: second open failed: {e}"));
        assert_eq!(again.epochs(), rec.epochs(), "crash point {cut}: second open changed epochs");
        for (g, grp) in groups.iter().enumerate() {
            let at = format!("crash point {cut}: group {g}");
            let recovered = rec.epochs_for(grp.store_group);
            assert_eq!(
                again.epochs_for(grp.store_group),
                recovered,
                "{at}: second open changed the group's epochs"
            );
            let Some(&last) = recovered.last() else { continue };
            let present = rec.objects_at(last).expect("epoch exists");
            assert_eq!(
                again.objects_at(last).expect("epoch exists"),
                present,
                "{at}: second open changed the object set"
            );
            for oid in grp.oids.iter().flatten().filter(|oid| present.contains(oid)) {
                assert_eq!(
                    again.pages_at(*oid, last).expect("object listed"),
                    rec.pages_at(*oid, last).expect("object listed"),
                    "{at}: second open changed {oid:?}'s pages"
                );
            }
        }

        // The online invariant checker watched the whole replay plus the
        // recovery above (the charge's trace survives the crash): epoch
        // commits stayed monotone, recovery replayed epochs in order, and
        // no frame write mutated a shared frame in place.
        assert!(
            checker.checked() > 0,
            "crash point {cut}: invariant checker saw no events"
        );
        checker.assert_clean();

        any
    }
}
