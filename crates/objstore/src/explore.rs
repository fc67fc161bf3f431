//! Crash-schedule exploration.
//!
//! The store's headline guarantee is that after an arbitrary crash,
//! [`ObjectStore::open`] recovers the last durable checkpoint and
//! nothing newer. This module turns that sentence into an exhaustive
//! test: run a workload once fault-free to learn its write trace, then
//! replay it once per write boundary with a power-cut injected there,
//! reopen the store, and check four invariants on every schedule:
//!
//! 1. **Prefix**: the recovered epoch set is a contiguous range of the
//!    golden run's committed epochs, ending at some epoch `L`, and every
//!    epoch the workload explicitly waited for (barriered) before the
//!    cut satisfies `≤ L` — durability can't be lost.
//! 2. **No unsealed state**: epochs after `L` are invisible, and every
//!    recovered epoch's contents (objects, pages, metadata) are
//!    bit-exact against the golden model — nothing from a torn commit
//!    leaks through.
//! 3. **Journal idempotence**: scanning the journal twice yields the
//!    same records, and they are exactly the appends that completed
//!    synchronously before the cut.
//! 4. **Reopen no-op**: opening the recovered device a second time
//!    yields the identical store.
//!
//! Determinism makes this exhaustive instead of probabilistic: the same
//! workload always issues the same write sequence, so "crash at write
//! N" names one exact machine state.

use crate::store::fnv1a;
use crate::{ObjectKind, ObjectStore, Oid, PageRef, RedoWrite, PAGE};
use aurora_sim::cost::Charge;
use aurora_sim::rng::{DetRng, Rng};
use aurora_sim::{Clock, CostModel};
use aurora_storage::faulty::{FaultHandle, FaultPlan};
use aurora_storage::{faulty_testbed_array, SharedDevice};
use aurora_trace::{InvariantChecker, Trace};
use std::collections::{BTreeSet, HashMap};

/// One step of a crash-exploration workload.
#[derive(Clone, Debug)]
pub enum WorkloadOp {
    /// Write one full page image of object `obj` (objects are created
    /// on first use).
    Write {
        /// Workload-local object index.
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
        /// Workload-local object index.
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
        /// Workload-local object index.
        obj: usize,
        /// Metadata tag byte.
        tag: u8,
    },
    /// Commit the epoch; `wait` additionally barriers on durability.
    Commit {
        /// Whether the workload waits for the checkpoint (external
        /// synchrony).
        wait: bool,
    },
    /// Synchronously append a record to the workload journal.
    JournalAppend {
        /// Record fill byte.
        fill: u8,
        /// Record length in bytes.
        len: usize,
    },
    /// Drop the oldest checkpoint (no-op when fewer than two exist).
    DropOldest,
}

/// Generates a deterministic workload from a seed. `with_drops` mixes in
/// history reclamation, exercising the drop/crash interleaving.
pub fn workload_from_seed(seed: u64, ops: usize, with_drops: bool) -> Vec<WorkloadOp> {
    let mut rng = DetRng::seed_from_u64(seed);
    (0..ops)
        .map(|_| match rng.gen_range(0..10) {
            0..=1 => WorkloadOp::Write {
                obj: rng.gen_range(0..4) as usize,
                pindex: rng.gen_range(0..8),
                fill: rng.next_u64() as u8,
            },
            2..=4 => {
                let off = rng.gen_range(0..PAGE as u64) as u32;
                WorkloadOp::Delta {
                    obj: rng.gen_range(0..4) as usize,
                    pindex: rng.gen_range(0..8),
                    off,
                    len: rng.gen_range(0..(PAGE as u64 - off as u64).min(600)) as u32,
                    fill: rng.next_u64() as u8,
                }
            }
            5 => WorkloadOp::SetMeta {
                obj: rng.gen_range(0..4) as usize,
                tag: rng.next_u64() as u8,
            },
            6 | 7 => WorkloadOp::Commit { wait: rng.gen_bool(0.5) },
            8 => WorkloadOp::JournalAppend {
                fill: rng.next_u64() as u8,
                len: 40 + rng.gen_range(0..6000) as usize,
            },
            _ if with_drops => WorkloadOp::DropOldest,
            _ => WorkloadOp::Commit { wait: true },
        })
        .collect()
}

/// Snapshot of committed state at one epoch of the golden run.
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

/// Everything one replay of the workload produced.
struct Replay {
    store: ObjectStore,
    dev: SharedDevice,
    handle: FaultHandle,
    /// Lazily created workload objects.
    oids: Vec<Option<Oid>>,
    journal: Oid,
    /// Committed epochs in commit order (including later-dropped ones).
    epochs: Vec<u64>,
    models: HashMap<u64, EpochModel>,
    /// Epochs the workload barriered on before the cut fired.
    barriered_before_cut: Vec<u64>,
    /// Journal records appended, in order.
    jrecords: Vec<Vec<u8>>,
    /// How many of `jrecords` completed before the cut fired.
    jrecords_before_cut: usize,
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
/// formatted (and its journal created and committed) fault-free first, so
/// write sequence numbers in `plan` count workload writes only — use
/// [`Explorer::golden`]'s `workload_writes` range for cut points.
fn replay(workload: &[WorkloadOp], plan: FaultPlan) -> Replay {
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
    let journal = store.alloc_oid();
    store.create_journal(journal, 64).expect("create journal");
    let c = store.commit().expect("journal commit");
    store.barrier(c);
    // The mandatory setup commit is epoch 1; models start from it.
    let mut epochs = vec![c.epoch];
    let mut models = HashMap::from([(c.epoch, EpochModel::default())]);
    handle.set_plan(plan);

    let mut oids: Vec<Option<Oid>> = vec![None; 4];
    let mut live = EpochModel::default();
    let mut barriered_before_cut = Vec::new();
    let mut jrecords = Vec::new();
    let mut jrecords_before_cut = 0usize;

    for op in workload {
        match *op {
            WorkloadOp::Write { obj, pindex, fill } => {
                let oid = ensure_object(&mut store, &mut oids[obj]);
                live.objects.insert(obj);
                let p = store.arena().alloc([fill; PAGE]);
                store.write_pages(oid, &[(pindex, p.clone())]).expect("write");
                live.pages.insert((obj, pindex), p);
            }
            WorkloadOp::Delta { obj, pindex, off, len, fill } => {
                let oid = ensure_object(&mut store, &mut oids[obj]);
                live.objects.insert(obj);
                let base = live.pages.get(&(obj, pindex)).map_or([0u8; PAGE], |p| **p);
                let mut new = base;
                new[off as usize..(off + len) as usize].fill(fill);
                let page = store.arena().alloc(new);
                let delta = Some((off, vec![fill; len as usize]));
                let w = RedoWrite { pindex, page: page.clone(), delta, base_csum: fnv1a(&base) };
                store.append_redo(oid, &[w]).expect("append_redo");
                live.pages.insert((obj, pindex), page);
            }
            WorkloadOp::SetMeta { obj, tag } => {
                let oid = ensure_object(&mut store, &mut oids[obj]);
                live.objects.insert(obj);
                store.set_meta(oid, &[tag; 32]).expect("set_meta");
                live.metas.insert(obj, tag);
            }
            WorkloadOp::Commit { wait } => {
                let info = store.commit().expect("commit");
                if wait {
                    store.barrier(info);
                    if !handle.cut_fired() {
                        barriered_before_cut.push(info.epoch);
                    }
                }
                epochs.push(info.epoch);
                models.insert(info.epoch, live.clone());
            }
            WorkloadOp::JournalAppend { fill, len } => {
                store.journal_append(journal, &vec![fill; len]).expect("append");
                jrecords.push(vec![fill; len]);
                if !handle.cut_fired() {
                    jrecords_before_cut = jrecords.len();
                }
            }
            WorkloadOp::DropOldest => {
                if store.epochs().len() >= 2 {
                    store.drop_oldest_checkpoint().expect("drop");
                }
            }
        }
    }

    Replay {
        store,
        dev,
        handle,
        oids,
        journal,
        epochs,
        models,
        barriered_before_cut,
        jrecords,
        jrecords_before_cut,
        checker,
    }
}

/// What the golden (fault-free) run learned about a workload.
pub struct Golden {
    /// First workload write sequence number (post-setup).
    pub first_write: u64,
    /// One past the last workload write sequence number.
    pub end_write: u64,
    /// Committed epochs of the fault-free run, in order.
    pub epochs: Vec<u64>,
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
}

impl Explorer {
    /// An explorer for a seeded workload.
    pub fn from_seed(seed: u64, ops: usize, with_drops: bool) -> Self {
        Self { workload: workload_from_seed(seed, ops, with_drops) }
    }

    /// Runs the workload fault-free and reports its write-boundary range.
    pub fn golden(&self) -> Golden {
        let setup = replay(&[], FaultPlan::none());
        let first_write = setup.handle.writes_seen();
        let full = replay(&self.workload, FaultPlan::none());
        assert!(
            full.store.gauges().redo_appended > 0,
            "workload never took the packed redo path — the default checkpoint write path"
        );
        Golden { first_write, end_write: full.handle.writes_seen(), epochs: full.epochs }
    }

    /// Replays the workload once per crash point in
    /// `[golden.first_write, golden.end_write)` (subsampled to at most
    /// `cap` schedules when given), checking the four recovery
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
            let run = replay(&self.workload, plan);
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
    /// recovery invariants. Returns whether any workload epoch (beyond
    /// the setup commit) was recovered. `torn` relaxes the journal
    /// check: a sub-block tear may damage acknowledged records that
    /// share the torn block, so only the prefix property holds.
    fn check_recovery(&self, golden: &Golden, run: Replay, cut: u64, torn: bool) -> bool {
        let Replay {
            store,
            dev,
            handle: _handle,
            oids,
            journal,
            epochs: all_epochs,
            models,
            barriered_before_cut,
            jrecords,
            jrecords_before_cut,
            checker,
        } = run;
        let charge = store.charge().clone();
        let mut rec = store.crash_and_recover().unwrap_or_else(|e| {
            panic!("crash point {cut}: recovery failed: {e}");
        });
        // Every recovered page version must still match its write-time
        // checksum — a crash (even a torn one) may lose writes but must
        // never surface silently corrupted data.
        rec.scrub().unwrap_or_else(|e| panic!("crash point {cut}: scrub failed: {e}"));

        // Invariant 1: recovered epochs are a contiguous range of the
        // golden run's commit order, and nothing barriered is lost.
        let recovered: Vec<u64> = rec.epochs().to_vec();
        if let Some(&last) = recovered.last() {
            let start = all_epochs
                .iter()
                .position(|&e| e == recovered[0])
                .unwrap_or_else(|| panic!("crash point {cut}: unknown epoch {}", recovered[0]));
            assert_eq!(
                &all_epochs[start..start + recovered.len()],
                recovered.as_slice(),
                "crash point {cut}: recovered epochs not contiguous in commit order"
            );
            let waited = barriered_before_cut.iter().max().copied().unwrap_or(0);
            assert!(
                last >= waited,
                "crash point {cut}: barriered epoch {waited} lost (recovered up to {last})"
            );
        } else {
            assert!(
                barriered_before_cut.is_empty(),
                "crash point {cut}: everything lost despite barriered epochs"
            );
        }

        // Invariant 2: recovered contents are bit-exact; unsealed epochs
        // are invisible.
        for &epoch in &recovered {
            let model = &models[&epoch];
            let present = rec.objects_at(epoch).expect("epoch just listed");
            for (obj, oid) in oids.iter().enumerate() {
                let Some(oid) = *oid else { continue };
                let in_model = model.objects.contains(&obj);
                assert_eq!(
                    present.contains(&oid),
                    in_model,
                    "crash point {cut}: epoch {epoch} object {obj} visibility mismatch"
                );
            }
            for (&(obj, pindex), expected) in &model.pages {
                let oid = oids[obj].expect("modelled object was created");
                let page = rec
                    .read_page(oid, pindex, epoch)
                    .unwrap_or_else(|e| panic!("crash point {cut}: epoch {epoch} read: {e}"));
                assert!(
                    page == *expected,
                    "crash point {cut}: epoch {epoch} obj {obj} page {pindex} corrupt"
                );
            }
            for (&obj, &tag) in &model.metas {
                let oid = oids[obj].expect("modelled object was created");
                let meta = rec
                    .meta_at(oid, epoch)
                    .unwrap_or_else(|e| panic!("crash point {cut}: epoch {epoch} meta: {e}"));
                assert_eq!(meta, &[tag; 32], "crash point {cut}: epoch {epoch} meta mismatch");
            }
        }
        // Epochs committed after the recovery point must not be readable.
        let last = recovered.last().copied().unwrap_or(0);
        for &epoch in golden.epochs.iter().filter(|&&e| e > last) {
            assert!(
                rec.objects_at(epoch).is_err(),
                "crash point {cut}: unsealed epoch {epoch} visible after recovery"
            );
        }

        // Invariant 3: journal replay is idempotent and exposes exactly
        // the synchronously completed appends.
        if recovered.contains(&golden.epochs[0]) {
            let first = rec.journal_records(journal).expect("journal scan");
            let second = rec.journal_records(journal).expect("journal rescan");
            assert_eq!(first, second, "crash point {cut}: journal replay not idempotent");
            if torn {
                assert!(
                    first.len() <= jrecords.len()
                        && first == jrecords[..first.len()].to_vec(),
                    "crash point {cut}: journal records not a prefix of the appends"
                );
            } else {
                assert_eq!(
                    first,
                    jrecords[..jrecords_before_cut].to_vec(),
                    "crash point {cut}: journal records differ from completed appends"
                );
            }
        }

        // Invariant 4: a second open is a no-op.
        let again = ObjectStore::open(dev, charge)
            .unwrap_or_else(|e| panic!("crash point {cut}: second open failed: {e}"));
        assert_eq!(again.epochs(), rec.epochs(), "crash point {cut}: second open changed epochs");
        if let Some(&last) = rec.epochs().last() {
            assert_eq!(
                again.objects_at(last).expect("epoch exists"),
                rec.objects_at(last).expect("epoch exists"),
                "crash point {cut}: second open changed the object set"
            );
            for oid in oids.iter().flatten() {
                if !again.objects_at(last).expect("epoch exists").contains(oid) {
                    continue;
                }
                assert_eq!(
                    again.pages_at(*oid, last).expect("object listed"),
                    rec.pages_at(*oid, last).expect("object listed"),
                    "crash point {cut}: second open changed {oid:?}'s pages"
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

        recovered.len() > 1
    }
}

/// One step of a two-group crash-exploration workload. Groups stage
/// concurrently: a commit of one group seals only that group's draft,
/// leaving the other's open across the crash point.
#[derive(Clone, Debug)]
pub enum GroupOp {
    /// Write one page of group `g`'s object `obj` into `g`'s draft.
    Write {
        /// Consistency group (0 or 1, workload-local).
        g: usize,
        /// Group-local object index.
        obj: usize,
        /// Page index.
        pindex: u64,
        /// Fill byte.
        fill: u8,
    },
    /// Commit group `g`'s draft; `wait` barriers on its durability.
    Commit {
        /// Consistency group.
        g: usize,
        /// Whether the workload waits for the checkpoint.
        wait: bool,
    },
    /// Synchronously append to group `g`'s journal.
    JournalAppend {
        /// Consistency group.
        g: usize,
        /// Record fill byte.
        fill: u8,
        /// Record length in bytes.
        len: usize,
    },
}

/// Generates a deterministic two-group workload from a seed. Writes
/// dominate and alternate between groups, so both drafts are routinely
/// open at once; commits hit one group at a time.
pub fn group_workload_from_seed(seed: u64, ops: usize) -> Vec<GroupOp> {
    let mut rng = DetRng::seed_from_u64(seed);
    (0..ops)
        .map(|_| {
            let g = rng.gen_range(0..2) as usize;
            match rng.gen_range(0..8) {
                0..=4 => GroupOp::Write {
                    g,
                    obj: rng.gen_range(0..2) as usize,
                    pindex: rng.gen_range(0..8),
                    fill: rng.next_u64() as u8,
                },
                5 | 6 => GroupOp::Commit { g, wait: rng.gen_bool(0.5) },
                _ => GroupOp::JournalAppend {
                    g,
                    fill: rng.next_u64() as u8,
                    len: 40 + rng.gen_range(0..3000) as usize,
                },
            }
        })
        .collect()
}

/// The store-level group numbers the two workload groups stage under
/// (group 0 is left for ungrouped callers, mirroring the SLS).
const GROUPS: [u64; 2] = [1, 2];

/// Everything one replay of the two-group workload produced.
struct GroupReplay {
    store: ObjectStore,
    dev: SharedDevice,
    handle: FaultHandle,
    /// Per group: lazily created objects.
    oids: [Vec<Option<Oid>>; 2],
    /// Per group: its journal.
    journals: [Oid; 2],
    /// Per group: committed epochs in commit order.
    epochs: [Vec<u64>; 2],
    /// Per (group, epoch): modelled contents at that commit.
    models: HashMap<(usize, u64), EpochModel>,
    /// Per group: epochs barriered before the cut fired.
    barriered_before_cut: [Vec<u64>; 2],
    /// Per group: journal records appended, in order.
    jrecords: [Vec<Vec<u8>>; 2],
    /// Per group: how many appends completed before the cut.
    jrecords_before_cut: [usize; 2],
    /// Highest number of concurrently open drafts observed.
    max_open_drafts: u64,
    checker: InvariantChecker,
}

/// Replays the two-group workload over a faulty testbed armed with
/// `plan`. Setup (format, per-group journals, one barriered commit per
/// group) runs fault-free, exactly like the single-group [`replay`].
fn group_replay(workload: &[GroupOp], plan: FaultPlan) -> GroupReplay {
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
    let mut journals = [Oid(0); 2];
    let mut epochs: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
    let mut models = HashMap::new();
    for (i, &g) in GROUPS.iter().enumerate() {
        store.stage_for(g);
        let j = store.alloc_oid();
        store.create_journal(j, 64).expect("create journal");
        journals[i] = j;
        let c = store.commit_for(g).expect("setup commit");
        store.barrier(c);
        epochs[i].push(c.epoch);
        models.insert((i, c.epoch), EpochModel::default());
    }
    handle.set_plan(plan);

    let mut oids: [Vec<Option<Oid>>; 2] = [vec![None; 2], vec![None; 2]];
    let mut live: [EpochModel; 2] = [EpochModel::default(), EpochModel::default()];
    let mut barriered_before_cut: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
    let mut jrecords: [Vec<Vec<u8>>; 2] = [Vec::new(), Vec::new()];
    let mut jrecords_before_cut = [0usize; 2];
    let mut max_open_drafts = 0u64;

    for op in workload {
        match *op {
            GroupOp::Write { g, obj, pindex, fill } => {
                store.stage_for(GROUPS[g]);
                let oid = ensure_object(&mut store, &mut oids[g][obj]);
                live[g].objects.insert(obj);
                let p = store.arena().alloc([fill; PAGE]);
                store.write_pages(oid, &[(pindex, p.clone())]).expect("write");
                live[g].pages.insert((obj, pindex), p);
            }
            GroupOp::Commit { g, wait } => {
                let info = store.commit_for(GROUPS[g]).expect("commit");
                if wait {
                    store.barrier(info);
                    if !handle.cut_fired() {
                        barriered_before_cut[g].push(info.epoch);
                    }
                }
                epochs[g].push(info.epoch);
                models.insert((g, info.epoch), live[g].clone());
            }
            GroupOp::JournalAppend { g, fill, len } => {
                store.stage_for(GROUPS[g]);
                store.journal_append(journals[g], &vec![fill; len]).expect("append");
                jrecords[g].push(vec![fill; len]);
                if !handle.cut_fired() {
                    jrecords_before_cut[g] = jrecords[g].len();
                }
            }
        }
        max_open_drafts = max_open_drafts.max(store.open_drafts());
    }
    store.stage_for(0);

    GroupReplay {
        store,
        dev,
        handle,
        oids,
        journals,
        epochs,
        models,
        barriered_before_cut,
        jrecords,
        jrecords_before_cut,
        max_open_drafts,
        checker,
    }
}

/// The two-group crash-schedule explorer: both groups keep drafts in
/// flight while crashes land at every write boundary, and recovery is
/// checked group by group — one group's lost tail must not roll back or
/// corrupt the other.
pub struct GroupExplorer {
    workload: Vec<GroupOp>,
}

impl GroupExplorer {
    /// An explorer for a seeded two-group workload.
    pub fn from_seed(seed: u64, ops: usize) -> Self {
        Self { workload: group_workload_from_seed(seed, ops) }
    }

    /// Runs the workload fault-free and reports its write-boundary
    /// range, per-group epochs, and draft concurrency.
    fn golden(&self) -> (u64, u64, [Vec<u64>; 2]) {
        let setup = group_replay(&[], FaultPlan::none());
        let first_write = setup.handle.writes_seen();
        let full = group_replay(&self.workload, FaultPlan::none());
        assert!(
            full.max_open_drafts >= 2,
            "workload never had two drafts concurrently open (max {})",
            full.max_open_drafts
        );
        (first_write, full.handle.writes_seen(), full.epochs)
    }

    /// Replays the workload once per crash point (subsampled to `cap`
    /// schedules when given), checking each group's recovery invariants
    /// independently. `tear_seed` tears the cut write sub-block.
    pub fn explore(&self, cap: Option<u64>, tear_seed: Option<u64>) -> ScheduleReport {
        let (first_write, end_write, golden_epochs) = self.golden();
        let total = end_write - first_write;
        let step = match cap {
            Some(c) if c > 0 && total > c => total.div_ceil(c),
            _ => 1,
        };
        let mut report = ScheduleReport::default();
        let mut tear_rng = tear_seed.map(DetRng::seed_from_u64);
        let mut cut = first_write;
        while cut < end_write {
            let plan = match &mut tear_rng {
                Some(rng) => {
                    let bytes = (rng.gen_range(1..PAGE as u64) | 1) as usize;
                    FaultPlan::torn_cut_at(cut, bytes)
                }
                None => FaultPlan::cut_at(cut),
            };
            let run = group_replay(&self.workload, plan);
            if run.handle.cut_fired() {
                report.cuts_fired += 1;
            }
            if Self::check_group_recovery(&golden_epochs, run, cut, tear_seed.is_some()) {
                report.recovered_nonempty += 1;
            }
            report.schedules += 1;
            cut += step;
        }
        report
    }

    /// Crashes the replayed store, reopens it, and asserts the four
    /// recovery invariants for each group independently. Returns whether
    /// any workload epoch survived.
    fn check_group_recovery(
        golden: &[Vec<u64>; 2],
        run: GroupReplay,
        cut: u64,
        torn: bool,
    ) -> bool {
        let GroupReplay {
            store,
            dev,
            handle: _handle,
            oids,
            journals,
            epochs: _,
            models,
            barriered_before_cut,
            jrecords,
            jrecords_before_cut,
            max_open_drafts: _,
            checker,
        } = run;
        let charge = store.charge().clone();
        let mut rec = store
            .crash_and_recover()
            .unwrap_or_else(|e| panic!("crash point {cut}: recovery failed: {e}"));
        rec.scrub().unwrap_or_else(|e| panic!("crash point {cut}: scrub failed: {e}"));

        let mut any = false;
        for (g, &sg) in GROUPS.iter().enumerate() {
            // Invariant 1 (per group): the group's recovered epochs are a
            // prefix of its commit order — the chained commit records
            // cannot recover epoch N without N-1 — and nothing the group
            // barriered before the cut is lost.
            let recovered = rec.epochs_for(sg);
            assert_eq!(
                golden[g][..recovered.len()],
                recovered[..],
                "crash point {cut}: group {sg} epochs not a prefix of its commit order"
            );
            let last = recovered.last().copied().unwrap_or(0);
            let waited = barriered_before_cut[g].iter().max().copied().unwrap_or(0);
            assert!(
                last >= waited,
                "crash point {cut}: group {sg} barriered epoch {waited} lost (have {last})"
            );
            any |= recovered.len() > 1;

            // Invariant 2 (per group): recovered contents are bit-exact
            // against the group's model; the group's lost tail epochs are
            // invisible.
            for &epoch in &recovered {
                let model = &models[&(g, epoch)];
                let present = rec.objects_at(epoch).expect("epoch just listed");
                for (obj, oid) in oids[g].iter().enumerate() {
                    let Some(oid) = *oid else { continue };
                    assert_eq!(
                        present.contains(&oid),
                        model.objects.contains(&obj),
                        "crash point {cut}: group {sg} epoch {epoch} obj {obj} visibility"
                    );
                }
                for (&(obj, pindex), expected) in &model.pages {
                    let oid = oids[g][obj].expect("modelled object was created");
                    let page = rec
                        .read_page(oid, pindex, epoch)
                        .unwrap_or_else(|e| panic!("crash point {cut}: group {sg}: {e}"));
                    assert!(
                        page == *expected,
                        "crash point {cut}: group {sg} epoch {epoch} obj {obj} page {pindex}"
                    );
                }
            }
            for &epoch in golden[g].iter().filter(|&&e| !recovered.contains(&e)) {
                assert!(
                    rec.objects_at(epoch).is_err(),
                    "crash point {cut}: group {sg} lost epoch {epoch} still visible"
                );
            }

            // Invariant 3 (per group): the group's journal replays
            // idempotently and exposes its own synchronous appends.
            if !recovered.is_empty() {
                let first = rec.journal_records(journals[g]).expect("journal scan");
                let second = rec.journal_records(journals[g]).expect("journal rescan");
                assert_eq!(first, second, "crash point {cut}: group {sg} journal replay");
                if torn {
                    assert!(
                        first.len() <= jrecords[g].len()
                            && first == jrecords[g][..first.len()].to_vec(),
                        "crash point {cut}: group {sg} journal not a prefix"
                    );
                } else {
                    assert_eq!(
                        first,
                        jrecords[g][..jrecords_before_cut[g]].to_vec(),
                        "crash point {cut}: group {sg} journal vs completed appends"
                    );
                }
            }
        }

        // Invariant 4: a second open is a no-op, group attribution
        // included.
        let again = ObjectStore::open(dev, charge)
            .unwrap_or_else(|e| panic!("crash point {cut}: second open failed: {e}"));
        assert_eq!(again.epochs(), rec.epochs(), "crash point {cut}: second open epochs");
        for &sg in &GROUPS {
            assert_eq!(
                again.epochs_for(sg),
                rec.epochs_for(sg),
                "crash point {cut}: second open changed group {sg}'s epochs"
            );
        }

        assert!(checker.checked() > 0, "crash point {cut}: checker saw no events");
        checker.assert_clean();
        any
    }
}
