//! Sharded checkpoint engine: per-group pipelines overlapping in
//! virtual time, per-group failure isolation, and per-group external
//! synchrony.

use aurora_core::world::World;
use aurora_core::{AuroraApi, GroupId, GroupRun, Phase, SlsOptions};
use aurora_posix::Pid;
use aurora_storage::faulty::FaultPlan;
use aurora_trace::InvariantChecker;
use aurora_vm::PAGE_SIZE;

/// Spawns `n` single-process groups, each with a private dirty region,
/// and takes each group's full checkpoint so later runs are incremental.
fn fleet(w: &mut World, n: u64) -> Vec<(GroupId, Pid, u64)> {
    let mut groups = Vec::new();
    for i in 0..n {
        let pid = w.sls.kernel.spawn(&format!("g{i}"));
        let addr = w.dirty_region(pid, 8).unwrap();
        let gid = w
            .sls
            .attach(pid, SlsOptions { external_synchrony: false, ..SlsOptions::default() })
            .unwrap();
        groups.push((gid, pid, addr));
    }
    let gids: Vec<GroupId> = groups.iter().map(|&(g, _, _)| g).collect();
    let warm = w.sls.checkpoint_all(&gids).unwrap();
    let horizon = warm.iter().map(|s| s.durable_at).max().unwrap();
    w.clock.advance_to(horizon);
    groups
}

fn touch(w: &mut World, pid: Pid, addr: u64) {
    w.sls.kernel.mem_touch(pid, addr, 8 * PAGE_SIZE as u64).unwrap();
}

/// The heart of the sharded engine: group B quiesces and flushes while
/// group A's epoch is still in flight on the device — two drafts open
/// at once, and both commit.
#[test]
fn group_pipelines_overlap_in_flight_epochs() {
    let mut w = World::with_nand_store_bytes(2 << 30);
    let trace = w.enable_tracing();
    let checker = InvariantChecker::arm(&trace);
    let groups = fleet(&mut w, 2);
    let (ga, pa, aa) = groups[0];
    let (gb, pb, ab) = groups[1];
    touch(&mut w, pa, aa);
    touch(&mut w, pb, ab);

    // Group A: stop + flush — its epoch now sits in the device queue.
    let mut ra = GroupRun::new(&mut w.sls, ga).unwrap();
    w.clock.advance_to(ra.ready_at());
    ra.step(&mut w.sls).unwrap(); // Stop
    assert_eq!(ra.phase(), Phase::Flush);
    ra.step(&mut w.sls).unwrap(); // Flush
    assert_eq!(ra.phase(), Phase::Seal);
    {
        let store = w.sls.store().lock();
        assert_eq!(store.open_drafts(), 1, "A's draft is open and in flight");
        assert!(store.inflight_drafts(w.clock.now()) >= 1);
    }

    // Group B stops and flushes while A's writes are still in flight:
    // two epochs concurrently open.
    let mut rb = GroupRun::new(&mut w.sls, gb).unwrap();
    rb.step(&mut w.sls).unwrap(); // Stop
    rb.step(&mut w.sls).unwrap(); // Flush
    {
        let store = w.sls.store().lock();
        assert_eq!(store.open_drafts(), 2, "both drafts concurrently open");
        assert!(store.inflight_drafts(w.clock.now()) >= 2, "both epochs in the device queue");
    }

    // Both finish; commit order follows completion order, and each
    // group's stats carry its own identity.
    while !ra.is_done() {
        ra.step(&mut w.sls).unwrap();
    }
    while !rb.is_done() {
        rb.step(&mut w.sls).unwrap();
    }
    let sa = ra.take_stats();
    let sb = rb.take_stats();
    assert!(sa.committed() && sb.committed());
    assert_eq!(sa.group, ga.0);
    assert_eq!(sb.group, gb.0);
    assert_ne!(sa.epoch, sb.epoch);
    {
        let store = w.sls.store().lock();
        assert_eq!(store.open_drafts(), 0);
        assert_eq!(store.group_of_epoch(sa.epoch), ga.0);
        assert_eq!(store.group_of_epoch(sb.epoch), gb.0);
    }
    assert!(checker.checked() > 0);
    checker.assert_clean();
}

/// The scheduler staggers n groups round-robin and every group commits
/// its own epoch, attributed in commit order.
#[test]
fn scheduler_commits_every_group() {
    let mut w = World::with_nand_store_bytes(2 << 30);
    let trace = w.enable_tracing();
    let checker = InvariantChecker::arm(&trace);
    let groups = fleet(&mut w, 4);
    for &(_, pid, addr) in &groups {
        touch(&mut w, pid, addr);
    }
    let gids: Vec<GroupId> = groups.iter().map(|&(g, _, _)| g).collect();
    let stats = w.sls.checkpoint_all(&gids).unwrap();
    assert_eq!(stats.len(), 4);
    let mut epochs: Vec<u64> = stats.iter().map(|s| s.epoch).collect();
    epochs.dedup();
    assert_eq!(epochs.len(), 4, "each group commits its own epoch");
    for (s, &(g, _, _)) in stats.iter().zip(&groups) {
        assert!(s.committed());
        assert_eq!(s.group, g.0, "stats returned in requested group order");
    }
    // Per-group durable floors advance independently.
    let store = w.sls.store().lock();
    for s in &stats {
        assert_eq!(store.durable_floor(s.group), s.durable_at);
    }
    drop(store);
    assert!(checker.checked() > 0);
    checker.assert_clean();
}

/// A device failure during one group's flush aborts only that group's
/// epoch: the failure is tagged with the group, its draft rolls back,
/// and the other group commits unharmed.
#[test]
fn abort_is_isolated_to_the_failing_group() {
    let (mut w, faults) = World::with_faulty_store(2 << 30, FaultPlan::none());
    let groups = fleet(&mut w, 2);
    let (ga, pa, aa) = groups[0];
    let (gb, pb, ab) = groups[1];
    touch(&mut w, pa, aa);
    touch(&mut w, pb, ab);

    // Group A steps into its flush with the device wedged: every write
    // fails until the plan is cleared, exhausting the retry budget.
    let mut ra = GroupRun::new(&mut w.sls, ga).unwrap();
    w.clock.advance_to(ra.ready_at());
    ra.step(&mut w.sls).unwrap(); // Stop
    faults.set_plan(FaultPlan::eio_storm(faults.writes_seen(), u64::MAX));
    ra.step(&mut w.sls).unwrap(); // Flush -> retries exhausted -> abort
    assert!(ra.is_done());
    let sa = ra.take_stats();
    let failure = sa.failure.expect("group A's flush must fail");
    assert_eq!(failure.group, ga.0, "failure names the aborted group");
    assert_eq!(failure.stage, "flush");

    // The device heals; group B's checkpoint is untouched by A's abort.
    faults.clear_faults();
    let epochs_a_before = w.sls.store().lock().epochs_for(ga.0);
    let sb = w.sls.sls_checkpoint(gb).unwrap();
    assert!(sb.committed());
    assert_eq!(w.sls.store().lock().group_of_epoch(sb.epoch), gb.0);
    assert_eq!(
        w.sls.store().lock().epochs_for(ga.0),
        epochs_a_before,
        "B's commit must not move A's epoch history"
    );
    assert_eq!(w.sls.store().lock().open_drafts(), 0, "A's draft rolled back");

    // And group A recovers on its next attempt.
    touch(&mut w, pa, aa);
    let sa2 = w.sls.sls_checkpoint(ga).unwrap();
    assert!(sa2.committed(), "group A checkpoints cleanly after the abort");
}

/// External synchrony is sealed and released per group: the fast
/// group's response flows as soon as *its* epoch is durable, not the
/// slowest group's.
#[test]
fn extsync_releases_per_group_durability() {
    let mut w = World::with_nand_store_bytes(2 << 30);
    // Two attached servers (their own groups), one unattached client.
    let k = &mut w.sls.kernel;
    let sa = k.spawn("server-a");
    let sb = k.spawn("server-b");
    let client = k.spawn("client");
    let mut ends = Vec::new();
    for s in [sa, sb] {
        let (srv, cli) = k.socketpair(s).unwrap();
        let fid = k.resolve(s, cli).unwrap();
        k.proc_mut(s).unwrap().fdtable.remove(cli).unwrap();
        let cli = k.proc_mut(client).unwrap().fdtable.install(fid);
        ends.push((srv, cli));
    }
    let ga = w.sls.attach(sa, SlsOptions::default()).unwrap();
    let gb = w.sls.attach(sb, SlsOptions::default()).unwrap();
    for (g, s) in [(ga, sa), (gb, sb)] {
        let _ = s;
        w.sls.sls_checkpoint(g).unwrap();
        w.sls.sls_barrier(g).unwrap();
    }

    // Both servers respond; both responses are withheld.
    w.sls.kernel.send(sa, ends[0].0, b"from-a").unwrap();
    w.sls.kernel.send(sb, ends[1].0, b"from-b").unwrap();
    w.sls.pump_external_synchrony();
    assert!(w.sls.kernel.recvmsg(client, ends[0].1).is_err());
    assert!(w.sls.kernel.recvmsg(client, ends[1].1).is_err());

    // One overlapped checkpoint round covers both groups. The staggered
    // pipelines give the groups distinct durability horizons.
    let stats = w.sls.checkpoint_all(&[ga, gb]).unwrap();
    let (da, db) = (stats[0].durable_at, stats[1].durable_at);
    assert_ne!(da, db, "staggered groups reach durability at distinct times");
    let (first, second) = if da < db { (0, 1) } else { (1, 0) };
    let (dfirst, dsecond) = (da.min(db), da.max(db));

    // At the first group's durability point, its response is released
    // while the slower group's is still withheld.
    w.clock.advance_to(dfirst);
    w.sls.pump_external_synchrony();
    let (msg, _) = w.sls.kernel.recvmsg(client, ends[first].1).unwrap();
    assert_eq!(msg, if first == 0 { b"from-a" } else { b"from-b" });
    assert!(
        w.sls.kernel.recvmsg(client, ends[second].1).is_err(),
        "slow group's response must stay withheld past the fast group's release"
    );

    // The slower group's durability releases the rest.
    w.clock.advance_to(dsecond);
    w.sls.pump_external_synchrony();
    let (msg, _) = w.sls.kernel.recvmsg(client, ends[second].1).unwrap();
    assert_eq!(msg, if second == 0 { b"from-a" } else { b"from-b" });
}

/// `sls stat` gauges carry per-group rows after a multi-group round.
#[test]
fn stat_gauges_expose_per_group_rows() {
    let mut w = World::with_nand_store_bytes(2 << 30);
    let groups = fleet(&mut w, 2);
    for &(_, pid, addr) in &groups {
        touch(&mut w, pid, addr);
    }
    let gids: Vec<GroupId> = groups.iter().map(|&(g, _, _)| g).collect();
    w.sls.checkpoint_all(&gids).unwrap();
    let gauges = w.sls.stat_gauges();
    for g in &gids {
        for metric in ["last_stop_ns", "last_flush_ns", "last_commit_ns", "last_pages_flushed"] {
            let key = format!("pipeline.g{}.{metric}", g.0);
            assert!(gauges.iter().any(|(k, _)| *k == key), "missing gauge {key}");
        }
        let qkey = format!("quiesce.g{}.last_width_ns", g.0);
        assert!(gauges.iter().any(|(k, v)| *k == qkey && *v > 0), "missing gauge {qkey}");
    }
}

fn gauge(gauges: &[(String, u64)], name: &str) -> Option<u64> {
    gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
}

/// The frozen-page count of a shadow stage belongs to the group that
/// shadowed: each group reports its own figure, a later checkpoint
/// overwrites (not adds to) it, and it dies with the group.
#[test]
fn shadow_accounting_is_per_group_and_latest_wins() {
    let mut w = World::with_nand_store_bytes(2 << 30);
    let groups = fleet(&mut w, 2);
    let (ga, pa, aa) = groups[0];
    let (gb, pb, ab) = groups[1];
    touch(&mut w, pa, aa);
    w.sls.kernel.mem_touch(pb, ab, 3 * PAGE_SIZE as u64).unwrap();
    w.sls.checkpoint_all(&[ga, gb]).unwrap();
    let gauges = w.sls.stat_gauges();
    assert_eq!(gauge(&gauges, &format!("frames.g{}.shadow_pages", ga.0)), Some(8));
    assert_eq!(gauge(&gauges, &format!("frames.g{}.shadow_pages", gb.0)), Some(3));

    // A later checkpoint of the same group overwrites, not adds; the
    // other group's figure stays.
    w.sls.kernel.mem_touch(pa, aa, PAGE_SIZE as u64).unwrap();
    w.sls.sls_checkpoint(ga).unwrap();
    let gauges = w.sls.stat_gauges();
    assert_eq!(gauge(&gauges, &format!("frames.g{}.shadow_pages", ga.0)), Some(1));
    assert_eq!(gauge(&gauges, &format!("frames.g{}.shadow_pages", gb.0)), Some(3));

    // The arena survives a reboot; the groups, and their rows, do not.
    w.sls.crash_and_reboot().unwrap();
    let gauges = w.sls.stat_gauges();
    assert!(!gauges.iter().any(|(n, _)| n.ends_with(".shadow_pages")), "{gauges:?}");
}

/// Restores draw their group id from the same allocator as `attach`, so
/// an attach after a restore cannot land on (and replace) the restored
/// group.
#[test]
fn attach_after_restore_gets_a_fresh_group() {
    let mut w = World::quickstart();
    let pid = w.spawn_counter_app();
    let g1 = w.sls.attach(pid, SlsOptions::default()).unwrap();
    w.sls.sls_checkpoint(g1).unwrap();
    let restored = w.sls.sls_restore(g1, None, aurora_core::RestoreMode::Full).unwrap().group;
    let other = w.spawn_counter_app();
    let attached = w.sls.attach(other, SlsOptions::default()).unwrap();
    assert_ne!(restored, attached, "attach reused the restored group's id");
    assert_eq!(w.sls.groups(), vec![g1, restored, attached]);
    assert_eq!(w.sls.group_pids(restored).unwrap().len(), 1, "the restored group is intact");

    // A reboot forgets every group, so ids start over with them.
    w.sls.sls_barrier(g1).unwrap();
    w.sls.crash_and_reboot().unwrap();
    let p = w.spawn_counter_app();
    assert_eq!(w.sls.attach(p, SlsOptions::default()).unwrap(), GroupId(1));
}

/// A circuit breaker is state of the group it tripped for: a reboot
/// forgets it with the group, and the image restored into the reused id
/// checkpoints at once.
#[test]
fn a_reboot_forgets_breakers_with_their_groups() {
    let (mut w, faults) = World::with_faulty_store(1 << 28, FaultPlan::none());
    w.sls.set_checkpoint_config(aurora_core::CheckpointConfig {
        breaker_trip_failures: 2,
        breaker_cooldown_ns: 500_000_000,
        ..Default::default()
    });
    let pid = w.spawn_counter_app();
    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
    w.bump_counter(pid).unwrap();
    assert!(w.sls.sls_checkpoint(gid).unwrap().committed());
    w.sls.sls_barrier(gid).unwrap();
    for _ in 0..2 {
        w.bump_counter(pid).unwrap();
        faults.set_plan(FaultPlan::eio_storm(faults.writes_seen(), u64::MAX));
        assert!(!w.sls.sls_checkpoint(gid).unwrap().committed());
    }
    faults.clear_faults();
    assert_eq!(gauge(&w.sls.stat_gauges(), "pipeline.breaker.open"), Some(1));

    w.sls.crash_and_reboot().unwrap();
    let epoch = w.sls.store().lock().last_epoch().unwrap();
    let manifest = w.sls.manifests_at(epoch).unwrap()[0];
    let r = w.sls.restore_image(manifest, epoch, aurora_core::RestoreMode::Full).unwrap();
    assert_eq!(r.group, gid, "the restored image reuses the id");
    w.bump_counter(r.pids[0]).unwrap();
    let cp = w.sls.sls_checkpoint(r.group).unwrap();
    assert!(cp.committed(), "restored group inherited a breaker: {:?}", cp.failure);
    assert_eq!(gauge(&w.sls.stat_gauges(), "pipeline.breaker.open"), Some(0));
}

/// The cluster's release gate is per group: raising group A's quorum
/// watermark must not release group B's locally-durable batch.
#[test]
fn release_gate_withholds_per_group() {
    let mut w = World::quickstart();
    let k = &mut w.sls.kernel;
    let sa = k.spawn("server-a");
    let sb = k.spawn("server-b");
    let client = k.spawn("client");
    let mut ends = Vec::new();
    for s in [sa, sb] {
        let (srv, cli) = k.socketpair(s).unwrap();
        let fid = k.resolve(s, cli).unwrap();
        k.proc_mut(s).unwrap().fdtable.remove(cli).unwrap();
        let cli = k.proc_mut(client).unwrap().fdtable.install(fid);
        ends.push((srv, cli));
    }
    let ga = w.sls.attach(sa, SlsOptions::default()).unwrap();
    let gb = w.sls.attach(sb, SlsOptions::default()).unwrap();
    // Replication on, nothing acked by a quorum yet.
    w.sls.set_release_gate(ga, Some(0)).unwrap();
    w.sls.set_release_gate(gb, Some(0)).unwrap();
    w.sls.kernel.send(sa, ends[0].0, b"from-a").unwrap();
    w.sls.kernel.send(sb, ends[1].0, b"from-b").unwrap();
    let mut newest = 0;
    for g in [ga, gb] {
        newest = newest.max(w.sls.sls_checkpoint(g).unwrap().epoch);
        w.sls.sls_barrier(g).unwrap();
    }
    // Both batches are locally durable and both gates hold them.
    assert!(w.sls.kernel.recvmsg(client, ends[0].1).is_err());
    assert!(w.sls.kernel.recvmsg(client, ends[1].1).is_err());

    // A quorum acks A — even past B's epoch number. Only A releases.
    w.sls.set_release_gate(ga, Some(newest)).unwrap();
    w.sls.pump_external_synchrony();
    assert_eq!(w.sls.kernel.recvmsg(client, ends[0].1).unwrap().0, b"from-a");
    assert!(
        w.sls.kernel.recvmsg(client, ends[1].1).is_err(),
        "group B's batch was released by group A's quorum watermark"
    );

    // B releases when its own gate covers it.
    w.sls.set_release_gate(gb, Some(newest)).unwrap();
    w.sls.pump_external_synchrony();
    assert_eq!(w.sls.kernel.recvmsg(client, ends[1].1).unwrap().0, b"from-b");
    assert!(w.sls.set_release_gate(GroupId(99), None).is_err());
}

/// `checkpoint_now(g)` is `checkpoint_all(&[g])`: on identically built
/// worlds the two return equal stats and leave equal clocks and gauges —
/// with the previous epoch still in flight, under an open breaker, and
/// under a degraded mirror.
#[test]
fn checkpoint_now_is_checkpoint_all_of_one() {
    fn both(build: impl Fn() -> (World, GroupId)) {
        let (mut a, ga) = build();
        let (mut b, gb) = build();
        let sa = a.sls.checkpoint_now(ga).unwrap();
        let sb = b.sls.checkpoint_all(&[gb]).unwrap();
        assert_eq!(vec![sa], sb);
        assert_eq!(a.clock.now(), b.clock.now());
        assert_eq!(a.sls.stat_gauges(), b.sls.stat_gauges());
    }
    // Incremental, previous epoch not yet durable: the run waits out
    // its backpressure horizon first.
    both(|| {
        let mut w = World::with_nand_store_bytes(2 << 30);
        let pid = w.spawn_counter_app();
        let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
        w.sls.checkpoint_now(gid).unwrap();
        w.bump_counter(pid).unwrap();
        (w, gid)
    });
    // Open breaker: a synthesized skip, no device traffic.
    both(|| {
        let (mut w, faults) = World::with_faulty_store(1 << 28, FaultPlan::none());
        w.sls.set_checkpoint_config(aurora_core::CheckpointConfig {
            breaker_trip_failures: 1,
            ..Default::default()
        });
        let pid = w.spawn_counter_app();
        let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
        faults.set_plan(FaultPlan::eio_storm(faults.writes_seen(), u64::MAX));
        assert!(!w.sls.checkpoint_now(gid).unwrap().committed());
        faults.clear_faults();
        (w, gid)
    });
    // Degraded mirror: the flush cap is one draft.
    both(|| {
        let (mut w, mirror) = World::with_mirrored_store(1 << 28);
        let pid = w.spawn_counter_app();
        let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
        w.sls.checkpoint_now(gid).unwrap();
        mirror.fail_mirror(0);
        w.bump_counter(pid).unwrap();
        w.sls.checkpoint_now(gid).unwrap();
        assert!(w.sls.device_degraded());
        w.bump_counter(pid).unwrap();
        (w, gid)
    });
}

/// An aborted flush takes back only the pager bindings its own
/// Serialize inserted. A freshly attached group F is ready at once, so
/// the scheduler runs F's Stop, then G's Stop, then F's Flush: when F's
/// flush exhausts its retries, the binding G's Serialize just created
/// for a new mapping must survive it, or G cannot page that memory back
/// in once it is evicted.
#[test]
fn an_abort_keeps_the_other_groups_fresh_bindings() {
    let (mut w, faults) = World::with_faulty_store(2 << 30, FaultPlan::none());
    let (gg, pg, _) = fleet(&mut w, 1)[0];
    // A mapping G's last checkpoint has not seen: a new lineage.
    let addr = w.dirty_region(pg, 8).unwrap();
    let before: Vec<u8> = (0..8 * PAGE_SIZE).map(|i| (i % 251) as u8).collect();
    w.sls.kernel.mem_write(pg, addr, &before).unwrap();
    let pf = w.sls.kernel.spawn("fresh");
    w.dirty_region(pf, 8).unwrap();
    let gf = w
        .sls
        .attach(pf, SlsOptions { external_synchrony: false, ..SlsOptions::default() })
        .unwrap();

    // F's flush writes first; each attempt dies on its first write, so
    // a window of `max_attempts` writes fails exactly F's attempts.
    let attempts = w.sls.config.retry.max_attempts as u64;
    faults.set_plan(FaultPlan::eio_storm(faults.writes_seen(), attempts));
    let stats = w.sls.checkpoint_all(&[gf, gg]).unwrap();
    faults.clear_faults();
    let failure = stats[0].failure.as_ref().expect("group F's flush must fail");
    assert_eq!((failure.group, failure.stage), (gf.0, "flush"));
    assert!(stats[1].committed(), "group G commits");

    assert!(w.sls.evict_clean_pages(gg, u64::MAX).unwrap() >= 8);
    let mut after = vec![0u8; 8 * PAGE_SIZE];
    w.sls.kernel.mem_read(pg, addr, &mut after).unwrap();
    assert_eq!(after, before, "G's evicted pages come back from the store");
}
