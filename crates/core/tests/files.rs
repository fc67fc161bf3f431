//! Files are pages: a regular file's content is a VM object, so it
//! flushes, restores and faults in exactly like memory — a one-byte
//! write flushes one page, a lazy restore reads none until the file is
//! read, and restores that replace a vnode release its old content.

use aurora_core::world::World;
use aurora_core::{AuroraApi, GroupId, RestoreMode, SlsOptions};
use aurora_posix::file::OpenFlags;
use aurora_posix::{Fd, Pid};
use aurora_storage::faulty::FaultPlan;
use aurora_vm::PAGE_SIZE;

/// Pages of the file the tests write.
const PAGES: usize = 256;

/// The file's content: each page stamped with its index.
fn content() -> Vec<u8> {
    (0..PAGES).flat_map(|p| vec![p as u8; PAGE_SIZE]).collect()
}

/// A process with no memory mappings and one open `PAGES`-page file,
/// attached and checkpointed durably: every page a later checkpoint
/// flushes or a restore reads is a file page.
fn file_image(w: &mut World) -> (Pid, Fd, GroupId) {
    let k = &mut w.sls.kernel;
    let pid = k.spawn("writer");
    let fd = k.open(pid, "/data", OpenFlags::RDWR, true).unwrap();
    k.write(pid, fd, &content()).unwrap();
    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
    w.sls.sls_checkpoint(gid).unwrap();
    w.sls.sls_barrier(gid).unwrap();
    (pid, fd, gid)
}

/// The whole file as read through `fd` from its start.
fn read_file(w: &mut World, pid: Pid, fd: Fd) -> Vec<u8> {
    w.sls.kernel.lseek(pid, fd, 0).unwrap();
    w.sls.kernel.read(pid, fd, PAGES * PAGE_SIZE + 1).unwrap()
}

#[test]
fn a_one_byte_write_flushes_one_page() {
    let mut w = World::quickstart();
    let (pid, fd, gid) = file_image(&mut w);
    let idle = w.sls.sls_checkpoint(gid).unwrap();
    assert_eq!(idle.pages_flushed, 0, "an unchanged file flushes nothing");
    w.sls.kernel.lseek(pid, fd, 100 * PAGE_SIZE as u64 + 7).unwrap();
    w.sls.kernel.write(pid, fd, b"!").unwrap();
    let cp = w.sls.sls_checkpoint(gid).unwrap();
    assert!(cp.committed());
    assert_eq!(cp.pages_flushed, 1, "one dirty page, not the whole file");
    let mut want = content();
    want[100 * PAGE_SIZE + 7] = b'!';
    let r = w.sls.sls_restore(gid, None, RestoreMode::Full).unwrap();
    assert_eq!(read_file(&mut w, r.pids[0], fd), want);
}

#[test]
fn a_lazy_restore_reads_file_pages_only_when_the_file_is_read() {
    for reboot in [false, true] {
        let mut w = World::quickstart();
        let (_, fd, gid) = file_image(&mut w);
        let restore = |w: &mut World, mode| {
            if reboot {
                let last = w.sls.store().lock().last_epoch().unwrap();
                let manifest = w.sls.manifests_at(last).unwrap()[0];
                w.sls.restore_image(manifest, last, mode).unwrap()
            } else {
                w.sls.sls_restore(gid, None, mode).unwrap()
            }
        };
        if reboot {
            w.sls.crash_and_reboot().unwrap();
        }
        let lazy = restore(&mut w, RestoreMode::Lazy);
        assert_eq!(lazy.pages_read, 0, "lazy restore read file pages (reboot: {reboot})");
        assert_eq!(read_file(&mut w, lazy.pids[0], fd), content(), "lazy (reboot: {reboot})");
        let full = restore(&mut w, RestoreMode::Full);
        assert_eq!(full.pages_read, PAGES as u64, "full restore (reboot: {reboot})");
        assert_eq!(read_file(&mut w, full.pids[0], fd), content(), "full (reboot: {reboot})");
    }
}

#[test]
fn restore_exit_cycles_leave_objects_and_frames_flat() {
    let mut w = World::quickstart();
    let root = w.spawn_counter_app();
    for _ in 0..3 {
        w.sls.kernel.fork(root).unwrap();
    }
    let k = &mut w.sls.kernel;
    let fd = k.open(root, "/tree-file", OpenFlags::RDWR, true).unwrap();
    k.write(root, fd, &vec![0xA5; 4 * PAGE_SIZE]).unwrap();
    let gid = w.sls.attach(root, SlsOptions::default()).unwrap();
    w.sls.sls_checkpoint(gid).unwrap();
    w.sls.sls_barrier(gid).unwrap();
    let mut sizes = Vec::new();
    for _ in 0..50 {
        for mode in [RestoreMode::Full, RestoreMode::Lazy] {
            let r = w.sls.sls_restore(gid, None, mode).unwrap();
            let k = &mut w.sls.kernel;
            k.lseek(r.pids[0], fd, 0).unwrap();
            assert_eq!(k.read(r.pids[0], fd, 4 * PAGE_SIZE).unwrap(), vec![0xA5; 4 * PAGE_SIZE]);
            for &pid in r.pids.iter().rev() {
                k.exit(pid).unwrap();
            }
        }
        sizes.push((w.sls.kernel.vm.object_count(), w.sls.frame_gauges().resident));
    }
    assert_eq!(sizes[49], sizes[9], "VM objects and resident frames plateau: {sizes:?}");
}

#[test]
fn an_aborted_flush_redirties_file_pages() {
    let (mut w, handle) = World::with_faulty_store(1 << 28, FaultPlan::none());
    let (pid, fd, gid) = file_image(&mut w);
    w.sls.kernel.lseek(pid, fd, 0).unwrap();
    w.sls.kernel.write(pid, fd, b"written before the abort").unwrap();
    handle.set_plan(FaultPlan::eio_storm(handle.writes_seen(), u64::MAX));
    let failed = w.sls.sls_checkpoint(gid).unwrap();
    assert_eq!(failed.failure.as_ref().map(|f| f.stage), Some("flush"));
    handle.clear_faults();
    let cp = w.sls.sls_checkpoint(gid).unwrap();
    assert!(cp.committed());
    assert_eq!(cp.pages_flushed, 1, "the aborted flush's page is dirty again");
    w.sls.sls_barrier(gid).unwrap();
    let mut want = content();
    want[..24].copy_from_slice(b"written before the abort");
    for mode in [RestoreMode::Full, RestoreMode::Lazy] {
        let r = w.sls.sls_restore(gid, None, mode).unwrap();
        assert_eq!(read_file(&mut w, r.pids[0], fd), want, "{mode:?}");
    }
}

/// Reads `len` bytes of `path` through a fresh descriptor of `pid`.
fn read_path(w: &mut World, pid: Pid, path: &str, len: usize) -> Vec<u8> {
    let fd = w.sls.kernel.open(pid, path, OpenFlags::RDONLY, false).unwrap();
    let got = w.sls.kernel.read(pid, fd, len).unwrap();
    w.sls.kernel.close(pid, fd).unwrap();
    got
}

/// Every group persists the whole namespace, but a page's dirty bit is
/// cleared by whichever group flushes it first: the other group's image
/// must hold the file all the same, before and after a later write.
#[test]
fn every_group_image_holds_a_file_another_group_flushed_first() {
    let mut w = World::quickstart();
    let (a, b) = (w.spawn_counter_app(), w.spawn_counter_app());
    let fd = w.sls.kernel.open(b, "/shared", OpenFlags::RDWR, true).unwrap();
    w.sls.kernel.write(b, fd, b"first").unwrap();
    let ga = w.sls.attach(a, SlsOptions::default()).unwrap();
    let gb = w.sls.attach(b, SlsOptions::default()).unwrap();
    for content in [b"first", b"again"] {
        w.sls.kernel.lseek(b, fd, 0).unwrap();
        w.sls.kernel.write(b, fd, content).unwrap();
        w.sls.sls_checkpoint(ga).unwrap();
        w.sls.sls_checkpoint(gb).unwrap();
        w.sls.sls_barrier(gb).unwrap();
        for gid in [ga, gb] {
            let r = w.sls.sls_restore(gid, None, RestoreMode::Lazy).unwrap();
            assert_eq!(read_path(&mut w, r.pids[0], "/shared", 5), content, "{gid:?}");
        }
    }
}

/// A restore rewinds the shared namespace to its image; the group it
/// came from keeps running, and its next checkpoint holds the rewound
/// content, whether the restore read the pages or left them in the store.
#[test]
fn the_next_checkpoint_holds_the_content_a_restore_rewound() {
    for mode in [RestoreMode::Full, RestoreMode::Lazy] {
        let mut w = World::quickstart();
        let p = w.spawn_counter_app();
        let fd = w.sls.kernel.open(p, "/f", OpenFlags::RDWR, true).unwrap();
        w.sls.kernel.write(p, fd, b"v1").unwrap();
        let gid = w.sls.attach(p, SlsOptions::default()).unwrap();
        let e1 = w.sls.sls_checkpoint(gid).unwrap().epoch;
        w.sls.kernel.lseek(p, fd, 0).unwrap();
        w.sls.kernel.write(p, fd, b"v2").unwrap();
        w.sls.sls_checkpoint(gid).unwrap();
        w.sls.sls_barrier(gid).unwrap();
        w.sls.sls_restore(gid, Some(e1), mode).unwrap();
        assert_eq!(read_path(&mut w, p, "/f", 2), b"v1", "{mode:?}: the namespace rewound");
        let cp = w.sls.sls_checkpoint(gid).unwrap();
        assert_eq!(cp.pages_flushed, 1, "{mode:?}: the rewound page");
        w.sls.sls_barrier(gid).unwrap();
        w.sls.crash_and_reboot().unwrap();
        let manifest = w.sls.manifests_at(cp.epoch).unwrap()[0];
        let r = w.sls.restore_image(manifest, cp.epoch, RestoreMode::Full).unwrap();
        assert_eq!(read_path(&mut w, r.pids[0], "/f", 2), b"v1", "{mode:?}");
    }
}

/// A restore that rewinds a file leaves its own group with clean pages
/// the group's store object holds newer content of: the restored group's
/// next image must hold the rewound content all the same — checkpointed
/// before the group it came from, or after a reboot forgot that group.
#[test]
fn a_restored_group_image_holds_the_content_it_rewound_to() {
    for reboot in [false, true] {
        for mode in [RestoreMode::Full, RestoreMode::Lazy] {
            let mut w = World::quickstart();
            let p = w.spawn_counter_app();
            let fd = w.sls.kernel.open(p, "/f", OpenFlags::RDWR, true).unwrap();
            w.sls.kernel.write(p, fd, b"v1").unwrap();
            let gid = w.sls.attach(p, SlsOptions::default()).unwrap();
            let e1 = w.sls.sls_checkpoint(gid).unwrap().epoch;
            w.sls.kernel.lseek(p, fd, 0).unwrap();
            w.sls.kernel.write(p, fd, b"v2").unwrap();
            w.sls.sls_checkpoint(gid).unwrap();
            w.sls.sls_barrier(gid).unwrap();
            let r = if reboot {
                w.sls.crash_and_reboot().unwrap();
                let manifest = w.sls.manifests_at(e1).unwrap()[0];
                w.sls.restore_image(manifest, e1, mode).unwrap()
            } else {
                w.sls.sls_restore(gid, Some(e1), mode).unwrap()
            };
            let what = format!("{mode:?}, reboot: {reboot}");
            let cp = w.sls.sls_checkpoint(r.group).unwrap();
            assert_eq!(cp.pages_flushed, 1, "{what}: the rewound page");
            w.sls.sls_barrier(r.group).unwrap();
            let again = w.sls.sls_restore(r.group, Some(cp.epoch), RestoreMode::Full).unwrap();
            assert_eq!(read_path(&mut w, again.pids[0], "/f", 2), b"v1", "{what}");
        }
    }
}

/// Another live group's own store object may hold content a restore
/// discarded although the restored image's object never did: here group
/// A's image never saw `v2`, which only group B flushed, and A's root is
/// gone. Restoring A's image rewinds the file; B's next image holds `v1`.
#[test]
fn a_restore_rewinds_what_another_group_flushed() {
    let mut w = World::quickstart();
    let (a, b) = (w.spawn_counter_app(), w.spawn_counter_app());
    let fd = w.sls.kernel.open(b, "/shared", OpenFlags::RDWR, true).unwrap();
    w.sls.kernel.write(b, fd, b"v1").unwrap();
    let ga = w.sls.attach(a, SlsOptions::default()).unwrap();
    let gb = w.sls.attach(b, SlsOptions::default()).unwrap();
    let e1 = w.sls.sls_checkpoint(ga).unwrap().epoch;
    w.sls.sls_checkpoint(gb).unwrap();
    w.sls.kernel.lseek(b, fd, 0).unwrap();
    w.sls.kernel.write(b, fd, b"v2").unwrap();
    w.sls.sls_checkpoint(gb).unwrap();
    w.sls.kernel.exit(a).unwrap();
    w.sls.sls_barrier(gb).unwrap();
    let r = w.sls.sls_restore(ga, Some(e1), RestoreMode::Lazy).unwrap();
    assert_eq!(read_path(&mut w, r.pids[0], "/shared", 2), b"v1");
    let cp = w.sls.sls_checkpoint(gb).unwrap();
    assert_eq!(cp.pages_flushed, 1, "the page B's image holds as v2");
    w.sls.sls_barrier(gb).unwrap();
    let again = w.sls.sls_restore(gb, None, RestoreMode::Full).unwrap();
    assert_eq!(read_path(&mut w, again.pids[0], "/shared", 2), b"v1");
}

/// A file's size is epoch-granular: pages a rewound-away future wrote
/// past the restored end stay out of the restored object, and out of
/// the branch's later images.
#[test]
fn a_file_rewound_to_a_shorter_size_restores_short() {
    for mode in [RestoreMode::Full, RestoreMode::Lazy] {
        let mut w = World::quickstart();
        let p = w.spawn_counter_app();
        let fd = w.sls.kernel.open(p, "/f", OpenFlags::RDWR, true).unwrap();
        w.sls.kernel.write(p, fd, b"short").unwrap();
        let gid = w.sls.attach(p, SlsOptions::default()).unwrap();
        let e1 = w.sls.sls_checkpoint(gid).unwrap().epoch;
        w.sls.kernel.write(p, fd, &vec![7; 2 * PAGE_SIZE]).unwrap();
        w.sls.sls_checkpoint(gid).unwrap();
        w.sls.sls_barrier(gid).unwrap();
        let r = w.sls.sls_restore(gid, Some(e1), mode).unwrap();
        let cp = w.sls.sls_checkpoint(r.group).unwrap();
        w.sls.sls_barrier(r.group).unwrap();
        let again = w.sls.sls_restore(r.group, Some(cp.epoch), mode).unwrap();
        assert_eq!(read_path(&mut w, again.pids[0], "/f", 3 * PAGE_SIZE), b"short", "{mode:?}");
    }
}

/// A group owes the file pages another group's flush cleaned; when the
/// checkpoint that wrote them aborts at commit, their blocks die with
/// the epoch and the group owes them again.
#[test]
fn a_commit_abort_owes_the_owed_pages_again() {
    let (mut w, handle) = World::with_faulty_store(1 << 28, FaultPlan::none());
    let (a, b) = (w.spawn_counter_app(), w.spawn_counter_app());
    let fd = w.sls.kernel.open(a, "/shared", OpenFlags::RDWR, true).unwrap();
    w.sls.kernel.write(a, fd, b"v1").unwrap();
    let ga = w.sls.attach(a, SlsOptions::default()).unwrap();
    let gb = w.sls.attach(b, SlsOptions::default()).unwrap();
    w.sls.sls_checkpoint(ga).unwrap();
    w.sls.sls_checkpoint(gb).unwrap();
    w.sls.kernel.lseek(a, fd, 0).unwrap();
    w.sls.kernel.write(a, fd, b"v2").unwrap();
    w.sls.sls_checkpoint(ga).unwrap();
    // Let the first k device writes of B's checkpoint land: the first k
    // that fails the commit rather than the flush.
    let aborted_at_commit = (0..32).any(|k| {
        handle.set_plan(FaultPlan::eio_storm(handle.writes_seen() + k, u64::MAX));
        let failed = w.sls.sls_checkpoint(gb).unwrap();
        handle.clear_faults();
        failed.failure.map(|f| f.stage) == Some("commit")
    });
    assert!(aborted_at_commit);
    assert!(w.sls.sls_checkpoint(gb).unwrap().committed());
    w.sls.sls_barrier(gb).unwrap();
    let r = w.sls.sls_restore(gb, None, RestoreMode::Full).unwrap();
    assert_eq!(read_path(&mut w, r.pids[0], "/shared", 2), b"v2");
}
