//! `sls send` / `sls recv` onto a `Raid1`-backed receiver whose mirror
//! loses a member *mid-transfer*: the import completes on the survivor,
//! the online invariant checker stays clean, and the received image is
//! byte-identical to the source — then a resilver restores redundancy.

use aurora_core::world::World;
use aurora_core::{RestoreMode, SlsOptions};
use aurora_storage::faulty::FaultPlan;
use aurora_trace::InvariantChecker;

const LEAF_BYTES: u64 = 1 << 28;

#[test]
fn sendrecv_roundtrip_survives_mirror_death_mid_transfer() {
    // Source: a plain striped store with a counter app and history.
    let mut src = World::with_store_bytes(1 << 28);
    let pid = src.spawn_counter_app();
    let gid = src.sls.attach(pid, SlsOptions::default()).unwrap();
    for _ in 0..40 {
        src.bump_counter(pid).unwrap();
    }
    // A few extra dirty pages so the stream is more than a handful of
    // device writes — the member must die with the transfer still going.
    src.dirty_region(pid, 64).unwrap();
    let cp = src.sls.checkpoint_now(gid).unwrap();
    let stream = src.sls.send_stream(cp.epoch).unwrap();

    // Receiver: a two-way mirror with the invariant checker armed.
    let (mut dst, mirror) = World::with_mirrored_store(LEAF_BYTES);
    let trace = dst.enable_tracing();
    let checker = InvariantChecker::arm(&trace);

    // Rig member 0 to die a couple of writes into the import.
    let faults = mirror.faults(0);
    faults.set_plan(FaultPlan { die_at_write: Some(faults.writes_seen() + 2), ..FaultPlan::none() });
    let manifests = dst.sls.recv_stream(&stream).unwrap();
    assert!(!manifests.is_empty(), "stream carried the manifest");
    assert!(dst.sls.device_degraded(), "the member died during the transfer");
    assert_eq!(
        mirror.health_report().member_states[0],
        aurora_storage::HealthState::Failed,
        "member 0 died mid-import while member 1 took the rest"
    );

    // Byte-identity: every object/page of the source image reads back
    // identically from the degraded mirror.
    let epoch_dst = dst.sls.store().lock().last_epoch().unwrap();
    let src_store = src.sls.store().clone();
    let dst_store = dst.sls.store().clone();
    let oids = src_store.lock().objects_at(cp.epoch).unwrap();
    let mut pages_compared = 0u64;
    for &oid in &oids {
        let pages = src_store.lock().pages_at(oid, cp.epoch).unwrap();
        for pi in pages {
            let a = src_store.lock().read_page(oid, pi, cp.epoch).unwrap();
            let b = dst_store.lock().read_page(oid, pi, epoch_dst).unwrap();
            assert_eq!(a.bytes(), b.bytes(), "oid {oid:?} page {pi} differs");
            pages_compared += 1;
        }
        let ma = src_store.lock().meta_at(oid, cp.epoch).map(|m| m.to_vec()).ok();
        let mb = dst_store.lock().meta_at(oid, epoch_dst).map(|m| m.to_vec()).ok();
        assert_eq!(ma, mb, "oid {oid:?} metadata differs");
    }
    assert!(pages_compared > 64, "the image actually carried pages");

    // The image is *usable* degraded: restore and read the counter.
    let report = dst
        .sls
        .restore_image(manifests[0], epoch_dst, RestoreMode::Full)
        .unwrap();
    let new_pid = report.pids[0];
    assert_eq!(dst.read_counter(new_pid).unwrap(), 40);

    // Resilver: revive, rebuild, scrub — redundancy restored with both
    // members byte-identical.
    mirror.revive_mirror(0);
    while mirror.rebuild_pending(0) > 0 {
        assert!(mirror.rebuild_step(0, 256).unwrap() > 0);
    }
    mirror.flush_members();
    assert_eq!(mirror.scrub().unwrap().mismatched_blocks, 0);
    assert!(mirror.mirrors_identical().unwrap(), "mirrors converged after rebuild");

    assert!(checker.checked() > 0, "invariant probes fired during the import");
    checker.assert_clean();
}
