//! Checkpoint-pipeline behavior under injected device faults: bounded
//! retry with deterministic backoff for transient errors, and a clean
//! abort — live world rolled back, next checkpoint succeeds — when the
//! retries are exhausted.

use aurora_core::world::World;
use aurora_core::{AuroraApi, RestoreMode, SlsOptions};
use aurora_posix::KError;
use aurora_storage::faulty::FaultPlan;
use aurora_vm::PAGE_SIZE;

const STORE_BYTES: u64 = 1 << 28;

/// The `pipeline.checkpoints` gauge: checkpoints committed since boot.
fn checkpoints_committed(w: &World) -> u64 {
    w.sls.stat_gauges().into_iter().find(|(n, _)| n == "pipeline.checkpoints").unwrap().1
}

/// One transient device error during the Flush stage is absorbed by the
/// retry policy: the checkpoint commits, and the retry shows up in the
/// stats.
#[test]
fn transient_flush_error_is_retried_and_commits() {
    let (mut w, handle) = World::with_faulty_store(STORE_BYTES, FaultPlan::none());
    let pid = w.spawn_counter_app();
    for _ in 0..3 {
        w.bump_counter(pid).unwrap();
    }
    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();

    // Fail the checkpoint's first device write (the dirty-page flush)
    // exactly once.
    handle.set_plan(FaultPlan::eio_storm(handle.writes_seen(), 1));

    let before = w.clock.now();
    let cp = w.sls.sls_checkpoint(gid).unwrap();
    assert!(cp.committed(), "one transient error must not fail the checkpoint");
    assert_eq!(cp.failure, None);
    assert_eq!(cp.retries, 1, "exactly one retry spent");
    assert!(cp.epoch > 0);
    assert!(cp.pages_flushed > 0, "the retried flush still wrote the pages");
    assert!(w.clock.now() > before, "backoff is charged to the virtual clock");

    // The image is intact end to end.
    let r = w.sls.sls_restore(gid, None, RestoreMode::Full).unwrap();
    assert_eq!(w.read_counter(r.pids[0]).unwrap(), 3);
}

/// A wedged device (every write fails) exhausts the Flush stage's
/// attempts. The checkpoint aborts cleanly: `Ok` with the failure
/// recorded — stage, attempts, and cause — instead of an `Err`, no
/// epoch is consumed (nor counted as a committed checkpoint), and once
/// the device recovers the next checkpoint commits the same state.
#[test]
fn exhausted_flush_retries_abort_and_next_checkpoint_succeeds() {
    let (mut w, handle) = World::with_faulty_store(STORE_BYTES, FaultPlan::none());
    let pid = w.spawn_counter_app();
    w.bump_counter(pid).unwrap();
    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();

    handle.set_plan(FaultPlan::eio_storm(handle.writes_seen(), u64::MAX));
    let committed = checkpoints_committed(&w);
    let failed = w.sls.sls_checkpoint(gid).unwrap();
    let f = failed.failure.as_ref().expect("checkpoint must report its failure");
    assert!(!failed.committed());
    assert_eq!(f.stage, "flush", "dirty pages make flush the failing stage");
    assert_eq!(f.attempts, 4, "first try plus three retries");
    assert_eq!(failed.retries, 3);
    assert!(f.cause.is_transient(), "the recorded cause is the device error");
    assert_eq!(checkpoints_committed(&w), committed, "an aborted checkpoint is not a committed one");

    // The live world is untouched and still running.
    assert_eq!(w.read_counter(pid).unwrap(), 1);
    w.bump_counter(pid).unwrap();

    // Device recovers; the next checkpoint starts clean and commits.
    handle.clear_faults();
    let cp = w.sls.sls_checkpoint(gid).unwrap();
    assert!(cp.committed());
    assert!(cp.full, "the aborted checkpoint left no epoch behind");
    assert_eq!(checkpoints_committed(&w), committed + 1);
    assert!(cp.pages_flushed > 0, "rolled-back pages are dirty again and flush now");

    let r = w.sls.sls_restore(gid, None, RestoreMode::Full).unwrap();
    assert_eq!(w.read_counter(r.pids[0]).unwrap(), 2);
}

/// When nothing is dirty the only device write is the commit record, so
/// a wedged device fails the Commit stage. The abort re-dirties the
/// pages cleaned by the (successful) earlier flush of a previous run,
/// rolls back the store's staged epoch, and the epoch number is not
/// consumed: the post-recovery checkpoint gets the very next epoch.
#[test]
fn exhausted_commit_retries_abort_without_consuming_an_epoch() {
    let (mut w, handle) = World::with_faulty_store(STORE_BYTES, FaultPlan::none());
    let pid = w.spawn_counter_app();
    w.bump_counter(pid).unwrap();
    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
    let cp1 = w.sls.sls_checkpoint(gid).unwrap();
    assert!(cp1.committed());

    // Dirty two pages — the counter, and a marker the application never
    // writes again, so the *only* copy of the marker rides on the pages
    // the failed checkpoint flushes. Let both page writes succeed, then
    // wedge the device: the commit record can never land.
    w.bump_counter(pid).unwrap();
    let space = w.sls.kernel.proc(pid).unwrap().space;
    let addr = w.sls.kernel.vm.entries(space).unwrap()[0].start;
    let marker = 0xfeed_beef_u64.to_le_bytes();
    w.sls.kernel.mem_write(pid, addr + 4096, &marker).unwrap();
    handle.set_plan(FaultPlan::eio_storm(handle.writes_seen() + 2, u64::MAX));
    let failed = w.sls.sls_checkpoint(gid).unwrap();
    let f = failed.failure.as_ref().expect("commit failure must be recorded");
    assert_eq!(f.stage, "commit");
    assert_eq!(f.attempts, 4);

    handle.clear_faults();
    w.bump_counter(pid).unwrap();
    let cp2 = w.sls.sls_checkpoint(gid).unwrap();
    assert!(cp2.committed());
    assert_eq!(cp2.epoch, cp1.epoch + 1, "the aborted epoch number is reused");

    // Both pages flushed before the failed commit were re-dirtied by
    // the abort: the marker — whose blocks died with the aborted epoch —
    // survives into the successful one.
    let r = w.sls.sls_restore(gid, None, RestoreMode::Full).unwrap();
    assert_eq!(w.read_counter(r.pids[0]).unwrap(), 3);
    let mut buf = [0u8; 8];
    w.sls.kernel.mem_read(r.pids[0], addr + 4096, &mut buf).unwrap();
    assert_eq!(buf, marker, "re-dirtied page content must reach the next epoch");
}

/// A storm narrower than the four attempts a stage gets is absorbed:
/// the checkpoint commits, spending one retry per storm write it hit —
/// visible as `pipeline.retry` instants with no abort.
#[test]
fn storm_narrower_than_max_attempts_is_absorbed() {
    let (mut w, handle) = World::with_faulty_store(STORE_BYTES, FaultPlan::none());
    let trace = w.enable_tracing();
    let pid = w.spawn_counter_app();
    w.bump_counter(pid).unwrap();
    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();

    // Three consecutive failed writes: the fourth attempt gets through.
    handle.set_plan(FaultPlan::eio_storm(handle.writes_seen(), 3));
    let cp = w.sls.sls_checkpoint(gid).unwrap();
    assert!(cp.committed(), "a storm narrower than the attempts must not abort");
    assert_eq!(cp.failure, None);
    assert_eq!(cp.retries, 3, "one retry per storm write");

    let evs = trace.events();
    assert_eq!(evs.iter().filter(|e| e.name == "pipeline.retry").count(), 3);
    assert_eq!(evs.iter().filter(|e| e.name == "pipeline.abort").count(), 0);

    let r = w.sls.sls_restore(gid, None, RestoreMode::Full).unwrap();
    assert_eq!(w.read_counter(r.pids[0]).unwrap(), 1);
}

/// The backoff schedule is exact: retry `k` waits `50 µs << (k - 1)`,
/// charged to the virtual clock and reported on its `pipeline.retry`
/// instant.
#[test]
fn retry_backoff_doubles_from_50us() {
    let (mut w, handle) = World::with_faulty_store(STORE_BYTES, FaultPlan::none());
    let trace = w.enable_tracing();
    let pid = w.spawn_counter_app();
    w.bump_counter(pid).unwrap();
    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
    handle.set_plan(FaultPlan::eio_storm(handle.writes_seen(), 3));
    assert!(w.sls.sls_checkpoint(gid).unwrap().committed());
    let schedule: Vec<(u64, u64)> = trace
        .events()
        .iter()
        .filter(|e| e.name == "pipeline.retry")
        .map(|e| {
            let arg = |k: &str| e.args.iter().find(|(n, _)| *n == k).unwrap().1;
            (arg("attempt"), arg("backoff_ns"))
        })
        .collect();
    assert_eq!(schedule, vec![(1, 50_000), (2, 100_000), (3, 200_000)]);
}

/// Back-to-back failed checkpoints don't compound: each aborts cleanly,
/// and the group keeps its committed history.
#[test]
fn repeated_failures_stay_isolated() {
    let (mut w, handle) = World::with_faulty_store(STORE_BYTES, FaultPlan::none());
    let pid = w.spawn_counter_app();
    w.bump_counter(pid).unwrap();
    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
    let cp1 = w.sls.sls_checkpoint(gid).unwrap();
    assert!(cp1.committed());

    for round in 0..3 {
        w.bump_counter(pid).unwrap();
        handle.set_plan(FaultPlan::eio_storm(handle.writes_seen(), u64::MAX));
        let failed = w.sls.sls_checkpoint(gid).unwrap();
        assert!(failed.failure.is_some(), "round {round}: must abort");
        handle.clear_faults();
    }

    let cp2 = w.sls.sls_checkpoint(gid).unwrap();
    assert!(cp2.committed());
    assert_eq!(cp2.epoch, cp1.epoch + 1, "three aborts consumed no epochs");
    let r = w.sls.sls_restore(gid, None, RestoreMode::Full).unwrap();
    assert_eq!(w.read_counter(r.pids[0]).unwrap(), 4);
}

/// A region checkpoint whose flush fails must hand the store's draft
/// cursor back: the next un-grouped commit (a journal's creation) may
/// not land in the failed group's draft.
#[test]
fn failed_memckpt_returns_the_draft_cursor() {
    let (mut w, faults) = World::with_faulty_store(1 << 28, FaultPlan::none());
    let pid = w.sls.kernel.spawn("db");
    let addr = w.dirty_region(pid, 8).unwrap();
    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
    assert!(w.sls.sls_checkpoint(gid).unwrap().committed());
    w.sls.sls_barrier(gid).unwrap();

    w.sls.kernel.mem_write(pid, addr, b"region dirty").unwrap();
    faults.set_plan(FaultPlan::eio_storm(faults.writes_seen(), u64::MAX));
    assert!(w.sls.sls_memckpt(gid, pid, addr).is_err(), "the region flush hits the wedged device");
    faults.clear_faults();

    w.sls.sls_journal_create(8).unwrap();
    let store = w.sls.store().lock();
    let journal_epoch = store.last_epoch().unwrap();
    assert_eq!(store.group_of_epoch(journal_epoch), 0, "the journal committed under the group's draft");
    drop(store);
    w.sls.kernel.mem_write(pid, addr, b"and again").unwrap();
    assert!(w.sls.sls_memckpt(gid, pid, addr).is_ok(), "the group's next region checkpoint commits");
}

mod medium;

/// A lazily restored page whose redo record is corrupt on the medium
/// faults in as a structured I/O error naming the failed check — not as
/// a page the store never had.
#[test]
fn a_corrupt_record_under_a_lazy_fault_is_an_io_error() {
    let (mut w, log) = medium::logged_world();
    let (_, addr, _, extent) = medium::image_with_a_packed_extent(&mut w, &log, 4);
    medium::corrupt_first_record(&w, extent);
    w.sls.crash_and_reboot().unwrap();
    let epoch = w.sls.store().lock().last_epoch().unwrap();
    let manifest = w.sls.manifests_at(epoch).unwrap()[0];
    let r = w.sls.restore_image(manifest, epoch, RestoreMode::Lazy).unwrap();
    let mut buf = [0u8; 64];
    // Page 0 logged the extent's first record.
    let err = w.sls.kernel.mem_read(r.pids[0], addr + 512, &mut buf).unwrap_err();
    assert_eq!(err, KError::Io { op: "verify-record" });
    // Page 1's record, in the same extent, is intact.
    w.sls.kernel.mem_read(r.pids[0], addr + PAGE_SIZE as u64 + 512, &mut buf).unwrap();
    assert_eq!(buf, [1 ^ 0xA5; 64]);
}
