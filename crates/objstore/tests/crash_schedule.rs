//! Crash-schedule recovery harness (see `aurora_objstore::explore`).
//!
//! Every test here is deterministic: a failing schedule is named by its
//! (workload seed, crash point) pair printed in the panic message, and
//! rerunning the test reproduces it bit-for-bit.
//!
//! The sharded checkpoint engine keeps one draft epoch open per
//! consistency group, so a crash can land while several groups have
//! epochs in flight: every sweep takes a single-group and a two-group
//! workload, and each group's four recovery invariants are asserted
//! independently.
//!
//! `CRASH_SCHEDULE_CAP` (env) bounds the number of schedules per sweep
//! for CI; unset, every write boundary is explored.

use aurora_objstore::explore::{workload_from_seed, Explorer, OpKind};
use aurora_objstore::{ObjectKind, ObjectStore, PageRef, StoreError, PAGE};
use aurora_sim::cost::Charge;
use aurora_sim::{Clock, CostModel};
use aurora_storage::faulty::FaultPlan;
use aurora_storage::faulty_testbed_array;
use aurora_trace::{InvariantChecker, Trace};

fn cap() -> Option<u64> {
    std::env::var("CRASH_SCHEDULE_CAP").ok().and_then(|v| v.parse().ok())
}

/// A charge with a recording trace and the online invariant checker
/// armed over it — every manual-store test here runs with the checker
/// watching epoch commits, recovery replay, and frame writes.
fn traced_charge(clock: &Clock) -> (Charge, InvariantChecker) {
    let trace = {
        let c = clock.clone();
        Trace::recording(move || c.now())
    };
    let checker = InvariantChecker::arm(&trace);
    let mut charge = Charge::new(clock.clone(), CostModel::default());
    charge.set_trace(trace);
    (charge, checker)
}

// Every sweep below takes `(seed, ops, groups)` inputs; the two-group
// ones crash with both groups' drafts open (the golden run asserts it).

#[test]
fn every_write_boundary_recovers() {
    for (seed, ops, groups) in [(0xA0207A, 90, 1), (0x62017A, 100, 2)] {
        let report = Explorer::from_seed(seed, ops, groups, false).explore(cap(), None);
        assert!(
            report.schedules >= 100 || cap().is_some(),
            "seed {seed:#x}: workload too small: only {} crash points",
            report.schedules
        );
        assert!(report.cuts_fired == report.schedules, "every schedule must reach its cut");
        assert!(report.recovered_nonempty > 0, "some schedules must recover workload epochs");
    }
}

#[test]
fn every_write_boundary_recovers_with_torn_writes() {
    for (seed, ops, groups, tear_seed) in [(0xA0207B, 70, 1, 0x7EA2), (0x62017B, 70, 2, 0x7EA3)] {
        let report = Explorer::from_seed(seed, ops, groups, false).explore(cap(), Some(tear_seed));
        assert!(report.schedules > 0);
        assert!(report.cuts_fired == report.schedules);
    }
}

#[test]
fn drop_oldest_interleaved_with_crashes_recovers() {
    for (seed, ops, groups) in [(0xD209, 90, 1), (0x62D209, 90, 2)] {
        let report = Explorer::from_seed(seed, ops, groups, true).explore(cap(), None);
        assert!(report.schedules > 0);
        assert!(report.recovered_nonempty > 0);
    }
}

#[test]
fn a_second_seed_also_survives() {
    let cap = cap().map(|c| c / 2).filter(|&c| c > 0);
    for (seed, ops, groups) in [(0x5EED2, 80, 1), (0x62052, 100, 2)] {
        let report = Explorer::from_seed(seed, ops, groups, false).explore(cap, None);
        assert!(report.schedules > 0);
    }
}

/// The single-group seeds above name the same op streams they did
/// before ops carried a group (constants computed at the commit that
/// introduced groups to the generator): a changed hash means every crash
/// point of that sweep now names a different machine state. The hash is
/// a byte-wise FNV-1a local to this test, so the pins outlive changes to
/// the store's own content hash.
#[test]
fn single_group_seeds_name_the_same_workloads() {
    for (seed, ops, with_drops, pinned) in [
        (0xA0207A, 90, false, 0x03d95358ad739130u64),
        (0xA0207B, 70, false, 0x3727fe8e5a9fc465),
        (0xD209, 90, true, 0xf81a0605f2d0c16a),
        (0x5EED2, 80, false, 0xda9e518db3c411cb),
    ] {
        let mut words: Vec<u64> = Vec::new();
        for op in workload_from_seed(seed, ops, 1, with_drops) {
            assert_eq!(op.group, 0);
            match op.kind {
                OpKind::Write { obj, pindex, fill } => {
                    words.extend([0, obj as u64, pindex, fill as u64])
                }
                OpKind::Delta { obj, pindex, off, len, fill } => {
                    words.extend([1, obj as u64, pindex, off as u64, len as u64, fill as u64])
                }
                OpKind::SetMeta { obj, tag } => words.extend([2, obj as u64, tag as u64]),
                OpKind::Commit { wait } => words.extend([3, wait as u64]),
                OpKind::JournalAppend { fill, len } => words.extend([4, fill as u64, len as u64]),
                OpKind::DropOldest => words.push(5),
            }
        }
        let bytes = words.iter().flat_map(|w| w.to_le_bytes());
        let fnv = bytes.fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
        });
        assert_eq!(fnv, pinned, "seed {seed:#x}: op stream changed");
    }
}

/// A transient device error during a synchronous journal append leaves
/// the journal consistent, and the retried append succeeds.
#[test]
fn transient_error_during_journal_append_is_retryable() {
    let clock = Clock::new();
    let (dev, handle) = faulty_testbed_array(&clock, 1 << 26, FaultPlan::none());
    let (charge, checker) = traced_charge(&clock);
    let mut store = ObjectStore::format(dev, charge, 1024).unwrap();
    let j = store.alloc_oid();
    store.create_journal(j, 64).unwrap();
    let c = store.commit().unwrap();
    store.barrier(c);
    store.journal_append(j, b"first").unwrap();

    // Fail the next device write once.
    handle.set_plan(FaultPlan::eio_storm(handle.writes_seen(), 1));
    let err = store.journal_append(j, b"second").unwrap_err();
    assert!(err.is_transient(), "expected transient error, got {err}");
    assert!(
        matches!(err, StoreError::Device { op: "journal-append", .. }),
        "error should carry the failing op"
    );

    // The failed append consumed no journal state: retry succeeds and
    // sequence numbers stay dense.
    let seq = store.journal_append(j, b"second").unwrap();
    assert_eq!(seq, 1);
    let mut rec = store.crash_and_recover().unwrap();
    assert_eq!(
        rec.journal_records(j).unwrap(),
        vec![b"first".to_vec(), b"second".to_vec()],
        "retried append must land exactly once"
    );
    assert!(checker.checked() > 0);
    checker.assert_clean();
}

/// A transient error during a page write leaks no blocks and the retried
/// write commits normally.
#[test]
fn transient_error_during_page_write_is_retryable() {
    let clock = Clock::new();
    let (dev, handle) = faulty_testbed_array(&clock, 1 << 26, FaultPlan::none());
    let (charge, checker) = traced_charge(&clock);
    let mut store = ObjectStore::format(dev, charge, 1024).unwrap();
    let oid = store.alloc_oid();
    store.create_object(oid, ObjectKind::Memory).unwrap();

    handle.set_plan(FaultPlan::eio_storm(handle.writes_seen(), 1));
    let seven = PageRef::detached([7u8; PAGE]);
    let err = store.write_pages(oid, &[(0, seven.clone())]).unwrap_err();
    assert!(err.is_transient());
    store.write_pages(oid, &[(0, seven)]).unwrap();
    let c = store.commit().unwrap();
    store.barrier(c);
    let mut rec = store.crash_and_recover().unwrap();
    assert_eq!(*rec.read_page(oid, 0, c.epoch).unwrap(), [7u8; PAGE]);
    checker.assert_clean();
}

/// A transient error during commit leaves the log retryable: the second
/// commit writes the same region and recovery sees exactly one epoch.
#[test]
fn transient_error_during_commit_is_retryable() {
    let clock = Clock::new();
    let (dev, handle) = faulty_testbed_array(&clock, 1 << 26, FaultPlan::none());
    let (charge, checker) = traced_charge(&clock);
    let mut store = ObjectStore::format(dev, charge, 1024).unwrap();
    let oid = store.alloc_oid();
    store.create_object(oid, ObjectKind::Memory).unwrap();
    store.write_pages(oid, &[(0, PageRef::detached([3u8; PAGE]))]).unwrap();

    // Fail the commit's payload write once.
    handle.set_plan(FaultPlan::eio_storm(handle.writes_seen(), 1));
    let err = store.commit().unwrap_err();
    assert!(err.is_transient());

    let c = store.commit().unwrap();
    store.barrier(c);
    let mut rec = store.crash_and_recover().unwrap();
    assert_eq!(rec.epochs(), &[c.epoch], "exactly one committed epoch");
    assert_eq!(*rec.read_page(oid, 0, c.epoch).unwrap(), [3u8; PAGE]);
    checker.assert_clean();
}

/// Silent bit-flips never panic recovery: metadata corruption is caught
/// by record checksums (the store simply recovers less history), the
/// epoch set is still a contiguous range, and — since per-page data
/// checksums landed — a post-recovery scrub either passes or reports
/// data corruption as a *fatal* device error, never a wrong read.
#[test]
fn bitflips_degrade_gracefully() {
    for seed in [1u64, 2, 3, 4, 5] {
        let clock = Clock::new();
        let plan = FaultPlan { bitflip_per_write: 0.05, seed, ..FaultPlan::none() };
        let (dev, _handle) = faulty_testbed_array(&clock, 1 << 26, plan);
        let (charge, checker) = traced_charge(&clock);
        let mut store = ObjectStore::format(dev, charge, 1024).unwrap();
        let oid = store.alloc_oid();
        store.create_object(oid, ObjectKind::Memory).unwrap();
        let mut committed = Vec::new();
        for i in 0..10u8 {
            store.write_pages(oid, &[((i % 4) as u64, PageRef::detached([i; PAGE]))]).unwrap();
            let c = store.commit().unwrap();
            store.barrier(c);
            committed.push(c.epoch);
        }
        let mut rec = store.crash_and_recover().unwrap_or_else(|e| {
            panic!("seed {seed}: recovery must not fail on bit-flips: {e}")
        });
        let recovered = rec.epochs().to_vec();
        assert!(
            committed.windows(recovered.len()).any(|w| w == recovered.as_slice())
                || recovered.is_empty(),
            "seed {seed}: recovered epochs {recovered:?} not contiguous in {committed:?}"
        );
        // Scrub catches any data-page flip that made it into a committed
        // epoch, and reports it as fatal (a retry cannot fix the medium).
        if let Err(e) = rec.scrub() {
            assert!(
                matches!(e, StoreError::Device { op: "scrub", .. }) && !e.is_transient(),
                "seed {seed}: scrub error must be a fatal device error, got {e}"
            );
        }
        // Idempotence still holds.
        let again = ObjectStore::open(rec.device().clone(), rec.charge().clone()).unwrap();
        assert_eq!(again.epochs(), rec.epochs());
        // Even with bit-flips on the medium, the *ordering* invariants
        // hold: corruption loses history, it never reorders it.
        checker.assert_clean();
    }
}

/// The checksum satellite's proof-of-detection: flip one bit of a data
/// page on its way to the medium and the very next read reports a fatal
/// `StoreError::Device` instead of returning corrupted data.
#[test]
fn bitflip_on_data_page_is_detected_at_read() {
    let clock = Clock::new();
    let (dev, handle) = faulty_testbed_array(&clock, 1 << 26, FaultPlan::none());
    let (charge, checker) = traced_charge(&clock);
    let mut store = ObjectStore::format(dev, charge, 1024).unwrap();
    let oid = store.alloc_oid();
    store.create_object(oid, ObjectKind::Memory).unwrap();

    // Corrupt exactly the page-data write; the commit record stays clean.
    handle.set_plan(FaultPlan { bitflip_per_write: 1.0, seed: 7, ..FaultPlan::none() });
    store.write_pages(oid, &[(0, PageRef::detached([0x5Au8; PAGE]))]).unwrap();
    handle.clear_faults();
    let c = store.commit().unwrap();
    store.barrier(c);

    // The page cache still holds the clean frame handed to write_pages;
    // only the device copy is flipped. Drop it so the read goes to the
    // medium — the path the checksum protects.
    store.drop_page_cache();
    let err = store.read_page(oid, 0, c.epoch).unwrap_err();
    assert!(
        matches!(err, StoreError::Device { op: "verify-page", oid: Some(o), .. } if o == oid),
        "expected a verify-page device error, got {err}"
    );
    assert!(!err.is_transient(), "medium corruption must be fatal, not retried");

    // The bulk path and the scrub detect it too.
    assert!(store.read_pages_bulk(oid, c.epoch, &[0]).is_err());
    let scrub_err = store.scrub().unwrap_err();
    assert!(matches!(scrub_err, StoreError::Device { op: "scrub", .. }));

    // Recovery itself survives; the corrupt page stays poisoned after
    // reopen because the checksum rides in the commit record.
    let mut rec = store.crash_and_recover().unwrap();
    assert!(rec.read_page(oid, 0, c.epoch).is_err(), "corruption detected across recovery");
    checker.assert_clean();
}

/// Clean writes scrub clean, including across a crash/recover cycle.
#[test]
fn scrub_passes_on_clean_history() {
    let clock = Clock::new();
    let (dev, _handle) = faulty_testbed_array(&clock, 1 << 26, FaultPlan::none());
    let (charge, checker) = traced_charge(&clock);
    let mut store = ObjectStore::format(dev, charge, 1024).unwrap();
    let oid = store.alloc_oid();
    store.create_object(oid, ObjectKind::Memory).unwrap();
    for i in 0..6u8 {
        store.write_pages(oid, &[(i as u64, PageRef::detached([i; PAGE]))]).unwrap();
        let c = store.commit().unwrap();
        store.barrier(c);
    }
    assert_eq!(store.scrub().unwrap(), 6);
    let mut rec = store.crash_and_recover().unwrap();
    assert_eq!(rec.scrub().unwrap(), 6, "checksums survive the commit record round-trip");
    assert!(checker.checked() > 0);
    checker.assert_clean();
}

/// The crash flight recorder: with graphs of the last epochs on board
/// and a violation sink wired to `trigger`, an induced invariant
/// failure dumps the recorder automatically — no manual step between
/// "the checker fired" and "the causality snapshot exists".
#[test]
fn induced_invariant_failure_dumps_flight_recorder() {
    use aurora_trace::{CausalGraph, FlightRecorder, HopKind};

    let clock = Clock::new();
    let trace = {
        let c = clock.clone();
        Trace::recording(move || c.now())
    };
    let checker = InvariantChecker::arm(&trace);
    let mut charge = Charge::new(clock.clone(), CostModel::default());
    charge.set_trace(trace.clone());
    let (dev, _handle) = faulty_testbed_array(&clock, 1 << 26, FaultPlan::none());
    let mut store = ObjectStore::format(dev, charge, 1024).unwrap();

    // Real commits so the ring holds genuine epoch history, with one
    // causal graph per epoch recorded (as the cluster layer does for
    // replicated epochs).
    let fr = FlightRecorder::new(4);
    let oid = store.alloc_oid();
    store.create_object(oid, ObjectKind::Memory).unwrap();
    let mut last_epoch = 0;
    for i in 0..3u8 {
        store.write_pages(oid, &[(0, PageRef::detached([i; PAGE]))]).unwrap();
        let c = store.commit().unwrap();
        store.barrier(c);
        last_epoch = c.epoch;
        let mut g = CausalGraph::new(c.epoch, 0);
        let hop = g.hop(0, "stage.commit", HopKind::Stage, clock.now(), 0, vec![], vec![]);
        g.terminal = Some(hop);
        fr.record(g);
    }
    assert!(checker.is_clean());
    assert_eq!(fr.dump_count(), 0);

    // Wire the auto-dump, then induce invariant 1: replay a commit of
    // an epoch at or below the watermark without an intervening crash.
    {
        let fr = fr.clone();
        let c = clock.clone();
        checker.on_violation(move |why| {
            fr.trigger(why, c.now());
        });
    }
    trace.instant("objstore", "epoch.commit", &[("epoch", 1)]);
    assert!(!checker.is_clean());

    assert_eq!(fr.dump_count(), 1, "the violation sink dumped exactly once");
    let dump = fr.last_dump().expect("dump captured at violation time");
    aurora_trace::json::validate(&dump).unwrap();
    assert!(dump.contains("\"reason\":\"epoch monotonicity"), "dump names the violation");
    assert!(
        dump.contains(&format!("\"epoch\":{last_epoch}")),
        "dump holds the newest epoch's graph"
    );
}
