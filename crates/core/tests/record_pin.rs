//! Pins every record byte the serializers write. The constants were
//! taken by running this file against the tree *before* the
//! one-definition-per-kind refactor: a change to any record layout,
//! field order, OID assignment order or manifest moves a hash, and has
//! to come with a `RECORD_VERSION` decision rather than slip through.

mod common;

use aurora_core::world::World;
use aurora_core::{AuroraApi, SlsOptions};
use aurora_posix::file::OpenFlags;
use aurora_posix::profiles::AppProfile;
use aurora_sim::units::MIB;

/// Byte-wise FNV-1a, local to this test so no library hash can move it.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// (objects, hash over every object's `(oid, len, meta)` in OID order,
/// hash over the manifests' metas) of the newest checkpoint.
fn image_hashes(w: &World) -> (usize, u64, u64) {
    let epoch = w.sls.store().lock().last_epoch().unwrap();
    let manifest_oids = w.sls.manifests_at(epoch).unwrap();
    let store = w.sls.store().lock();
    let mut oids = store.objects_at(epoch).unwrap();
    oids.sort();
    let mut all = FNV_OFFSET;
    for oid in &oids {
        let meta = store.meta_at(*oid, epoch).unwrap();
        fnv(&mut all, &oid.0.to_le_bytes());
        fnv(&mut all, &(meta.len() as u64).to_le_bytes());
        fnv(&mut all, meta);
    }
    let mut manifests = FNV_OFFSET;
    for m in manifest_oids {
        fnv(&mut manifests, store.meta_at(m, epoch).unwrap());
    }
    (oids.len(), all, manifests)
}

#[test]
fn one_of_everything_image_is_pinned() {
    let mut w = World::quickstart();
    let pid = common::spawn_everything(&mut w);
    let k = &mut w.sls.kernel;
    // The kinds descriptors do not reach: an attached SysV segment, a
    // descriptor in flight inside a socket buffer, a pending async read.
    let shmid = k.shmget(0x5EED, 3).unwrap();
    let addr = k.shmat(pid, shmid).unwrap();
    k.mem_write(pid, addr, b"sysv").unwrap();
    let (sa, _sb) = k.socketpair(pid).unwrap();
    let passed = k.open(pid, "/passed", OpenFlags::RDWR, true).unwrap();
    k.sendmsg_fds(pid, sa, b"with fd", &[passed]).unwrap();
    let afd = k.open(pid, "/aio", OpenFlags::RDWR, true).unwrap();
    k.write(pid, afd, &[7u8; 8192]).unwrap();
    k.aio_issue(pid, afd, 4096, 4096, false).unwrap();
    k.fork(pid).unwrap();
    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
    w.sls.sls_checkpoint(gid).unwrap();
    w.sls.sls_barrier(gid).unwrap();
    assert_eq!(image_hashes(&w), (33, 14925252328619571161, 1210455075819505447));
}

#[test]
fn app_profile_image_is_pinned() {
    let profile = AppProfile {
        name: "pinned",
        procs: 3,
        threads_per_proc: 3,
        rss_bytes: MIB,
        vm_entries: 12,
        files: 4,
        sockets: 2,
        pipes: 2,
        kqueues: 1,
        ptys: 1,
    };
    let mut w = World::quickstart();
    let pids = profile.build(&mut w.sls.kernel).unwrap();
    let gid = w.sls.attach(pids[0], SlsOptions::default()).unwrap();
    w.sls.sls_checkpoint(gid).unwrap();
    w.sls.sls_barrier(gid).unwrap();
    // A second, incremental checkpoint: records are rewritten in place.
    let k = &mut w.sls.kernel;
    let first_mapping = k.vm.entries(k.proc(pids[1]).unwrap().space).unwrap()[0].start;
    k.mem_write(pids[1], first_mapping, b"dirty").unwrap();
    w.sls.sls_checkpoint(gid).unwrap();
    w.sls.sls_barrier(gid).unwrap();
    assert_eq!(image_hashes(&w), (125, 13778261478392018513, 8505751257358856897));
}
