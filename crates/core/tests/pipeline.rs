//! Pipeline-level properties: exact stage accounting, deterministic
//! images, and the bottom-up lineage flush ordering.

use aurora_core::{KObj, Kind};
use aurora_core::world::World;
use aurora_core::{AuroraApi, RestoreMode, SlsOptions};
use aurora_vm::{Prot, PAGE_SIZE};

#[test]
fn stage_timings_sum_exactly() {
    let mut w = World::quickstart();
    let pid = w.spawn_counter_app();
    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
    for i in 0..3u64 {
        w.bump_counter(pid).unwrap();
        let cp = w.sls.sls_checkpoint(gid).unwrap();
        assert_eq!(cp.full, i == 0);
        let stop_stages =
            cp.quiesce_ns + cp.collapse_ns + cp.aio_ns + cp.os_state_ns + cp.shadow_ns + cp.resume_ns;
        assert_eq!(
            stop_stages, cp.stop_time_ns,
            "the first six stages are the stop time, exactly"
        );
        assert_eq!(
            cp.stage_total_ns(),
            cp.stop_time_ns + cp.flush_ns + cp.seal_ns + cp.commit_ns,
            "all nine stages are stop + flush + seal + commit"
        );
        assert_eq!(cp.stages().iter().map(|(_, ns)| ns).sum::<u64>(), cp.stage_total_ns());
        assert!(cp.stop_time_ns > 0);
    }
}

/// Two identical machines running identical histories must produce
/// byte-identical checkpoint images: the pipeline introduces no hidden
/// nondeterminism (iteration order, timing-dependent content).
#[test]
fn identical_worlds_checkpoint_identically() {
    let run = || {
        let mut w = World::quickstart();
        let pid = w.spawn_counter_app();
        let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
        let mut epoch = 0;
        for _ in 0..3 {
            w.bump_counter(pid).unwrap();
            epoch = w.sls.sls_checkpoint(gid).unwrap().epoch;
        }
        w.sls.sls_barrier(gid).unwrap();
        w.sls.send_stream(epoch).unwrap()
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty());
    assert_eq!(a, b, "checkpoint images must be deterministic");
}

/// Chains are collected top-down but flushed bottom-up: when two frozen
/// objects of one lineage hold the same page index (here a hand-built
/// shadow whose parent still has an unflushed dirty page — the state a
/// fork shadow pins in place under a system shadow), the newer version
/// must land last and win in the store.
#[test]
fn newest_page_wins_within_a_lineage() {
    let mut w = World::quickstart();
    let pid = w.sls.kernel.spawn("app");
    let addr = w.sls.kernel.mmap_anon(pid, 1, Prot::RW).unwrap();
    let mut old = [0u8; 16];
    old[..11].copy_from_slice(b"old version");
    w.sls.kernel.mem_write(pid, addr, &old).unwrap();

    // Freeze the page under a system shadow by hand; the dirty "old"
    // page stays unflushed in the now-lower chain object.
    let space = w.sls.kernel.proc(pid).unwrap().space;
    let target = w.sls.kernel.vm.space(space).unwrap().entry_at(addr).unwrap().object;
    let pair = w.sls.kernel.vm.shadow_one(target, &[space]).unwrap();

    // The application writes the newer version into the new top.
    let mut new = [0u8; 16];
    new[..11].copy_from_slice(b"new version");
    w.sls.kernel.mem_write(pid, addr, &new).unwrap();

    // One checkpoint flushes both objects to the lineage's single OID.
    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
    let cp = w.sls.sls_checkpoint(gid).unwrap();

    // Directly in the store: the page holds the newer content.
    let lineage = w.sls.kernel.vm.object(pair.new_top).unwrap().lineage.0;
    let oid = w.sls.oidmap_lookup(gid, KObj(Kind::Mem, lineage)).unwrap();
    let entry = w.sls.kernel.vm.space(space).unwrap().entry_at(addr).unwrap();
    let pindex = entry.offset_pages + (addr - entry.start) / PAGE_SIZE as u64;
    let page = w.sls.store().lock().read_page(oid, pindex, cp.epoch).unwrap();
    assert_eq!(&page[..11], b"new version", "bottom-up flush: newest page wins");

    // And end to end: a restore sees it too.
    let r = w.sls.sls_restore(gid, None, RestoreMode::Full).unwrap();
    let mut buf = [0u8; 16];
    w.sls.kernel.mem_read(r.pids[0], addr, &mut buf).unwrap();
    assert_eq!(&buf[..11], b"new version");
}
