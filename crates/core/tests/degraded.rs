//! Degraded-mode storage end to end: mirror failover mid-checkpoint
//! under live traffic with the online invariant checker armed, rebuild
//! back to byte identity, degraded cadence stretch and flush throttling,
//! and durable floors across failover.

use aurora_core::world::World;
use aurora_core::{AuroraApi, GroupId, RestoreMode, SlsOptions};
use aurora_posix::Pid;
use aurora_sim::units::MS;
use aurora_storage::faulty::FaultPlan;
use aurora_storage::{HealthState, MirrorHandle};
use aurora_trace::InvariantChecker;
use std::collections::BTreeMap;

const LEAF_BYTES: u64 = 1 << 28;

fn gauge(gauges: &[(String, u64)], name: &str) -> u64 {
    gauges
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("gauge {name} missing"))
        .1
}

/// The counter app's region: 16 pages at its first mapping.
const IMAGE: usize = 16 * 4096;

fn region(w: &mut World, pid: Pid) -> u64 {
    let space = w.sls.kernel.proc(pid).unwrap().space;
    w.sls.kernel.vm.entries(space).unwrap()[0].start
}

fn read_image(w: &mut World, pid: Pid) -> Vec<u8> {
    let (addr, mut image) = (region(w, pid), vec![0u8; IMAGE]);
    w.sls.kernel.mem_read(pid, addr, &mut image).unwrap();
    image
}

/// `rounds` rounds of rewrite → checkpoint → barrier → keep the newest
/// two epochs on the mirrored store, so freed blocks are recycled; then
/// mirror 0 is pulled for three more such epochs and replaced. Returns
/// the machine, its mirror, the group, and every epoch's image.
fn recycle_then_replace(rounds: u64) -> (World, MirrorHandle, GroupId, BTreeMap<u64, Vec<u8>>) {
    let (mut w, mirror) = World::with_mirrored_store(LEAF_BYTES);
    let pid = w.spawn_counter_app();
    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
    let (mut image, mut images) = (vec![0u8; IMAGE], BTreeMap::new());
    for round in 0..rounds + 3 {
        if round == rounds {
            mirror.fail_mirror(0);
        }
        // Even rounds rewrite every byte: full images into recycled
        // blocks. Odd rounds change eight bytes a page: redo records in a
        // fresh extent, which only the bump pointer hands out, so its
        // blocks are freed but never written again. While mirror 0 is out
        // every round is a full image, so the epoch a crash resurrects
        // owns blocks only the resilver put on the rebuilt member.
        if round % 2 == 0 || round >= rounds {
            let fill = |(i, b): (usize, &mut u8)| *b = ((round * 16 + i as u64 / 4096) % 251) as u8;
            image.iter_mut().enumerate().for_each(fill);
        } else {
            image.chunks_mut(4096).for_each(|page| page[..8].copy_from_slice(&round.to_le_bytes()));
        }
        let addr = region(&mut w, pid);
        w.sls.kernel.mem_write(pid, addr, &image).unwrap();
        let cp = w.sls.sls_checkpoint(gid).unwrap();
        assert!(cp.committed(), "{:?}", cp.failure);
        w.sls.sls_barrier(gid).unwrap();
        w.sls.retain_last(gid, 2).unwrap();
        images.insert(cp.epoch, image.clone());
    }
    mirror.revive_mirror(0);
    (w, mirror, gid, images)
}

/// The replaced member's full resilver, less the metadata log (append
/// only, one record per commit, all of it replayed by recovery): the
/// superblock and the live data blocks. Asserts the whole resilver is
/// bounded by the store's live blocks.
fn resilver_outside_the_log(w: &World, mirror: &MirrorHandle) -> u64 {
    let g = w.sls.store().lock().gauges();
    let pending = mirror.rebuild_pending(0);
    assert!(pending <= 1 + g.log_blocks + g.data_blocks, "{pending} > live {g:?}");
    pending - g.log_blocks
}

/// The mirror's bookkeeping shrinks with the store's live blocks: after
/// 20 or 200 rounds of recycling, a replaced member resilvers the same
/// data blocks — not every block the array ever wrote. The rebuilt
/// member alone then serves every retained epoch byte for byte, before
/// and after a crash: no discard dropped a live or a reused block.
#[test]
fn replaced_mirror_resilvers_live_blocks_only_and_serves_every_epoch() {
    let (w, mirror, ..) = recycle_then_replace(20);
    let after_20 = resilver_outside_the_log(&w, &mirror);
    let (mut w, mirror, gid, images) = recycle_then_replace(200);
    assert_eq!(resilver_outside_the_log(&w, &mirror), after_20, "bounded by live data, not by N");

    while mirror.rebuild_pending(0) > 0 {
        assert!(mirror.rebuild_step(0, 256).unwrap() > 0);
    }
    mirror.flush_members();
    assert_eq!(mirror.health_report().member_states[0], HealthState::Healthy);
    mirror.fail_mirror(1);
    w.sls.store().lock().drop_page_cache();
    let retained = w.sls.store().lock().epochs().to_vec();
    assert_eq!(retained.len(), 2);
    for &e in &retained {
        let r = w.sls.sls_restore(gid, Some(e), RestoreMode::Full).unwrap();
        assert!(read_image(&mut w, r.pids[0]) == images[&e], "epoch {e} from the rebuilt member");
    }
    w.sls.crash_and_reboot().unwrap();
    let recovered = w.sls.store().lock().epochs().to_vec();
    assert!(recovered.ends_with(&retained), "{recovered:?} lost one of {retained:?}");
    for &e in &recovered {
        let manifest = w.sls.manifests_at(e).unwrap()[0];
        let r = w.sls.restore_image(manifest, e, RestoreMode::Full).unwrap();
        assert!(read_image(&mut w, r.pids[0]) == images[&e], "epoch {e} after the crash");
    }
}

/// The acceptance soak: live traffic dirties pages and checkpoints on a
/// cadence; one mirror is rigged to die partway through a checkpoint's
/// flush. The epoch still completes on the survivor, the invariant
/// checker stays clean throughout, and reviving + resilvering +
/// scrubbing the dead mirror restores `Healthy` with byte-identical
/// contents on both members.
#[test]
fn mirror_death_mid_checkpoint_under_live_traffic_recovers() {
    let (mut w, mirror) = World::with_mirrored_store(LEAF_BYTES);
    let trace = w.enable_tracing();
    let checker = InvariantChecker::arm(&trace);

    let pid = w.spawn_counter_app();
    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
    let mut bumps = 0u64;

    // Warm traffic: both mirrors healthy.
    for round in 0..10 {
        w.bump_counter(pid).unwrap();
        bumps += 1;
        if round % 5 == 4 {
            assert!(w.sls.sls_checkpoint(gid).unwrap().committed());
        }
    }

    // Arm the kill two writes into the *next* checkpoint's flush, then
    // keep the traffic running straight through the storm.
    let faults = mirror.faults(0);
    faults.set_plan(FaultPlan { die_at_write: Some(faults.writes_seen() + 2), ..FaultPlan::none() });
    let mut epochs_during_storm = 0u64;
    for round in 0..20 {
        w.bump_counter(pid).unwrap();
        bumps += 1;
        if round % 5 == 4 {
            let cp = w.sls.sls_checkpoint(gid).unwrap();
            // Mirror redundancy absorbs the death: every epoch in the
            // storm completes (a clean abort + retry would also be
            // acceptable; the mirror makes it unnecessary).
            assert!(cp.committed(), "epoch survives mirror death: {:?}", cp.failure);
            epochs_during_storm += 1;
        }
    }
    assert_eq!(epochs_during_storm, 4);

    let report = mirror.health_report();
    assert_eq!(report.member_states[0], HealthState::Failed, "mirror 0 died");
    assert!(report.rebuild_pending_blocks > 0, "missed writes tracked for resilver");
    assert!(w.sls.device_degraded());

    // The failed state is visible as structured health through every
    // layer: mirror handle, the SLS, and its gauge surface.
    assert_eq!(w.sls.device_health().member_states[0], HealthState::Failed);
    let gauges = w.sls.stat_gauges();
    assert_eq!(gauge(&gauges, "device.health.degraded_members"), 1);
    assert_eq!(gauge(&gauges, "device.health.worst"), HealthState::Failed.code());

    // Replace the drive and resilver it incrementally under virtual
    // time, then verify with a full scrub.
    mirror.revive_mirror(0);
    assert_eq!(mirror.health_report().member_states[0], HealthState::Degraded);
    while mirror.rebuild_pending(0) > 0 {
        assert!(mirror.rebuild_step(0, 64).unwrap() > 0);
    }
    mirror.flush_members();
    assert_eq!(mirror.health_report().member_states[0], HealthState::Healthy);
    assert!(!w.sls.device_degraded());

    let scrub = mirror.scrub().unwrap();
    mirror.flush_members();
    assert_eq!(scrub.mismatched_blocks, 0, "full resilver already restored identity");
    assert!(mirror.mirrors_identical().unwrap(), "mirrors byte-identical after rebuild");
    assert!(mirror.health_report().rebuilds_completed >= 1);

    // Post-recovery epoch writes both mirrors again and restores clean.
    w.bump_counter(pid).unwrap();
    bumps += 1;
    assert!(w.sls.sls_checkpoint(gid).unwrap().committed());
    let r = w.sls.sls_restore(gid, None, RestoreMode::Full).unwrap();
    assert_eq!(w.read_counter(r.pids[0]).unwrap(), bumps);

    // Zero online-invariant violations across the whole storm.
    assert!(checker.checked() > 0, "checker observed events");
    checker.assert_clean();
}

/// While the device stack reports a degraded member, `tick()` stretches
/// every group's effective period fourfold; recovery restores the
/// configured cadence immediately.
#[test]
fn degraded_device_stretches_checkpoint_cadence() {
    let (mut w, mirror) = World::with_mirrored_store(LEAF_BYTES);
    let pid = w.spawn_counter_app();
    let gid = w.sls.attach(pid, SlsOptions { period_ns: 10 * MS, ..Default::default() }).unwrap();

    w.bump_counter(pid).unwrap();
    w.clock.advance_to(w.clock.now() + 10 * MS);
    assert_eq!(w.sls.tick().unwrap().len(), 1, "healthy: due after one period");

    // Pull a drive: one period is no longer enough.
    mirror.fail_mirror(0);
    assert!(w.sls.device_degraded());
    w.bump_counter(pid).unwrap();
    let t0 = w.clock.now();
    w.clock.advance_to(t0 + 15 * MS);
    assert!(w.sls.tick().unwrap().is_empty(), "degraded: cadence stretched 4x");
    w.clock.advance_to(t0 + 60 * MS);
    let taken = w.sls.tick().unwrap();
    assert_eq!(taken.len(), 1, "stretched period elapses eventually");
    assert!(taken[0].committed(), "degraded checkpoint lands on the survivor");

    // Resilver: cadence snaps back on the next tick.
    mirror.revive_mirror(0);
    while mirror.rebuild_pending(0) > 0 {
        mirror.rebuild_step(0, 64).unwrap();
    }
    assert!(!w.sls.device_degraded());
    w.bump_counter(pid).unwrap();
    w.clock.advance_to(w.clock.now() + 15 * MS);
    assert_eq!(w.sls.tick().unwrap().len(), 1, "recovery restores the cadence");
    assert!(w.sls.sls_restore(gid, None, RestoreMode::Full).is_ok());
}

/// Epochs committed before, during, and after a mirror death all stay
/// restorable: the per-group durable floor tracks what actually reached
/// a healthy mirror, so failover never silently rolls a group back.
#[test]
fn durable_floors_survive_mirror_failover() {
    let (mut w, mirror) = World::with_mirrored_store(LEAF_BYTES);
    let pid = w.spawn_counter_app();
    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();

    // Epoch A: both mirrors healthy.
    w.bump_counter(pid).unwrap();
    let a = w.sls.sls_checkpoint(gid).unwrap();
    assert!(a.committed());

    // Kill mirror 0, then commit epoch B on the survivor alone.
    mirror.fail_mirror(0);
    w.bump_counter(pid).unwrap();
    w.bump_counter(pid).unwrap();
    let b = w.sls.sls_checkpoint(gid).unwrap();
    assert!(b.committed(), "failover epoch commits on the survivor");
    assert!(b.epoch > a.epoch);

    // Both floors hold while degraded: the old epoch and the failover
    // epoch restore to their exact counter values.
    let ra = w.sls.sls_restore(gid, Some(a.epoch), RestoreMode::Full).unwrap();
    assert_eq!(w.read_counter(ra.pids[0]).unwrap(), 1);
    let rb = w.sls.sls_restore(gid, Some(b.epoch), RestoreMode::Full).unwrap();
    assert_eq!(w.read_counter(rb.pids[0]).unwrap(), 3);

    // Resilver mirror 0 and verify the floors again on a whole array.
    mirror.revive_mirror(0);
    while mirror.rebuild_pending(0) > 0 {
        mirror.rebuild_step(0, 64).unwrap();
    }
    mirror.flush_members();
    assert!(mirror.mirrors_identical().unwrap());
    let r = w.sls.sls_restore(gid, Some(b.epoch), RestoreMode::Full).unwrap();
    assert_eq!(w.read_counter(r.pids[0]).unwrap(), 3, "floor intact after resilver");
}

/// The degraded-mode gauge surface: health and rebuild gauges move with the array's state so `sls stat`/`watch` can show a
/// storm as it happens.
#[test]
fn degraded_and_rebuild_gauges_track_the_array() {
    let (mut w, mirror) = World::with_mirrored_store(LEAF_BYTES);
    let pid = w.spawn_counter_app();
    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
    w.bump_counter(pid).unwrap();
    assert!(w.sls.sls_checkpoint(gid).unwrap().committed());

    let healthy = w.sls.stat_gauges();
    assert_eq!(gauge(&healthy, "device.health.degraded_members"), 0);
    assert_eq!(gauge(&healthy, "device.health.worst"), HealthState::Healthy.code());
    assert_eq!(gauge(&healthy, "raid.rebuild.pending_blocks"), 0);
    assert_eq!(gauge(&healthy, "device.health.m0"), HealthState::Healthy.code());
    assert_eq!(gauge(&healthy, "device.health.m1"), HealthState::Healthy.code());

    mirror.fail_mirror(0);
    w.bump_counter(pid).unwrap();
    assert!(w.sls.sls_checkpoint(gid).unwrap().committed());
    let degraded = w.sls.stat_gauges();
    assert_eq!(gauge(&degraded, "device.health.degraded_members"), 1);
    assert_eq!(gauge(&degraded, "device.health.m0"), HealthState::Failed.code());
    assert!(gauge(&degraded, "raid.rebuild.pending_blocks") > 0);

    mirror.revive_mirror(0);
    while mirror.rebuild_pending(0) > 0 {
        mirror.rebuild_step(0, 64).unwrap();
    }
    let rebuilt = w.sls.stat_gauges();
    assert_eq!(gauge(&rebuilt, "raid.rebuild.pending_blocks"), 0);
    assert!(gauge(&rebuilt, "raid.rebuild.copied_blocks") > 0);
    assert!(gauge(&rebuilt, "raid.rebuild.completed") >= 1);
    assert_eq!(gauge(&rebuilt, "device.health.m0"), HealthState::Healthy.code());
}
