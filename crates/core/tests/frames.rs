//! End-to-end frame-arena properties: one page identity from the VM to
//! the object store.
//!
//! The unified COW frame arena promises (a) a checkpoint moves pages
//! from the VM into the store *by reference* — the shadow and the flush
//! copy zero page bytes on the host — and (b) a restore hands the new
//! space refs into the store's page cache, so restored memory aliases
//! the store until the first post-restore write breaks COW. The
//! `copies_broken` gauge counts every host-side page copy, which makes
//! both claims directly testable.

use aurora_core::{KObj, Kind};
use aurora_core::world::World;
use aurora_core::{AuroraApi, RestoreMode, SlsOptions};
use aurora_vm::{Prot, PAGE_SIZE};

const N: u64 = 16;

/// Spawns a process with `N` pages of distinct non-zero content.
fn spawn_patterned(w: &mut World) -> (aurora_posix::Pid, u64) {
    let pid = w.sls.kernel.spawn("frames-app");
    let addr = w.sls.kernel.mmap_anon(pid, N, Prot::RW).unwrap();
    for pi in 0..N {
        let fill = [0x10 + pi as u8; 64];
        w.sls.kernel.mem_write(pid, addr + pi * PAGE_SIZE as u64, &fill).unwrap();
    }
    (pid, addr)
}

/// The acceptance criterion: a system-shadow checkpoint of an N-page
/// dirty set performs ZERO host-side page copies at shadow time and at
/// flush time; copies happen only when the resumed application writes —
/// exactly one per written page.
#[test]
fn checkpoint_copies_no_pages_until_the_app_writes() {
    let mut w = World::quickstart();
    let (pid, addr) = spawn_patterned(&mut w);
    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();

    // Initial faults materialize zero frames; that is allocation, not
    // copying — the gauge must still be zero.
    assert_eq!(w.sls.frame_gauges().copies_broken, 0, "zero-fill is not a copy");

    let before = w.sls.frame_gauges().copies_broken;
    let cp = w.sls.sls_checkpoint(gid).unwrap();
    assert_eq!(
        w.sls.frame_gauges().copies_broken,
        before,
        "shadow + flush moved {} dirty pages with zero host-side copies",
        cp.pages_flushed
    );
    assert!(cp.pages_flushed >= N, "the dirty set was flushed");
    assert!(
        cp.shared_frames >= N,
        "during the checkpoint the frozen epoch and the store cache share \
         the frames (got {})",
        cp.shared_frames
    );

    // Post-resume writes break COW: exactly one copy per written page,
    // and a second write to the same page is free.
    for pi in 0..N {
        w.sls.kernel.mem_write(pid, addr + pi * PAGE_SIZE as u64, &[0xEE; 8]).unwrap();
    }
    assert_eq!(
        w.sls.frame_gauges().copies_broken,
        before + N,
        "exactly one COW copy per written page"
    );
    for pi in 0..N {
        w.sls.kernel.mem_write(pid, addr + pi * PAGE_SIZE as u64, &[0xEF; 8]).unwrap();
    }
    assert_eq!(
        w.sls.frame_gauges().copies_broken,
        before + N,
        "rewriting an already-broken page copies nothing"
    );
}

/// Satellite: a restored space shares frames with the store's page cache
/// until first write, then diverges — with `copies_broken` incrementing
/// exactly once per written page.
#[test]
fn restore_aliases_the_store_cache_until_first_write() {
    let mut w = World::quickstart();
    let (pid, addr) = spawn_patterned(&mut w);

    // The on-disk object is keyed by the region's lineage.
    let space = w.sls.kernel.proc(pid).unwrap().space;
    let target = w.sls.kernel.vm.space(space).unwrap().entry_at(addr).unwrap().object;
    let lineage = w.sls.kernel.vm.object(target).unwrap().lineage.0;

    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
    let cp = w.sls.sls_checkpoint(gid).unwrap();
    let oid = w.sls.oidmap_lookup(gid, KObj(Kind::Mem, lineage)).unwrap();

    let r = w.sls.sls_restore(gid, None, RestoreMode::Full).unwrap();
    let rpid = r.pids[0];
    let rspace = w.sls.kernel.proc(rpid).unwrap().space;
    let entry = *w.sls.kernel.vm.space(rspace).unwrap().entry_at(addr).unwrap();
    let robj = entry.object;

    // Every restored page is the SAME frame the store's cache holds:
    // the restore copied no bytes.
    for pi in 0..N {
        let vm_page = w.sls.kernel.vm.page_ref(robj, pi).unwrap();
        let cached = w.sls.store().lock().read_page(oid, pi, cp.epoch).unwrap();
        assert!(
            aurora_core::PageRef::ptr_eq(&vm_page, &cached),
            "restored page {pi} aliases the store's cached frame"
        );
        assert!(vm_page.ref_count() >= 2, "the alias is visible in the refcount");
    }

    // First write to each page diverges it: one copy each, and the
    // store's cache keeps the checkpointed bytes.
    let before = w.sls.frame_gauges().copies_broken;
    for pi in 0..N {
        w.sls.kernel.mem_write(rpid, addr + pi * PAGE_SIZE as u64, &[0xCC; 8]).unwrap();
    }
    assert_eq!(
        w.sls.frame_gauges().copies_broken,
        before + N,
        "exactly one COW break per first write"
    );
    for pi in 0..N {
        let vm_page = w.sls.kernel.vm.page_ref(robj, pi).unwrap();
        let cached = w.sls.store().lock().read_page(oid, pi, cp.epoch).unwrap();
        assert!(
            !aurora_core::PageRef::ptr_eq(&vm_page, &cached),
            "page {pi} diverged from the cache"
        );
        assert_eq!(cached.bytes()[0], 0x10 + pi as u8, "the epoch keeps its bytes");
        assert_eq!(vm_page.bytes()[0], 0xCC, "the space keeps its write");
    }
}
