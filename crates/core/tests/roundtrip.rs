//! End-to-end checkpoint/restore tests: the correctness claims of §4–5.

use aurora_core::world::World;
use aurora_core::{AuroraApi, RestoreMode, SlsOptions};
use aurora_posix::file::OpenFlags;
use aurora_posix::process::sig;
use aurora_vm::{Prot, PAGE_SIZE};

#[test]
fn memory_survives_checkpoint_restore() {
    let mut w = World::quickstart();
    let pid = w.spawn_counter_app();
    for _ in 0..5 {
        w.bump_counter(pid).unwrap();
    }
    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
    let cp = w.sls.sls_checkpoint(gid).unwrap();
    assert!(cp.full);
    assert!(cp.stop_time_ns > 0);

    // Diverge after the checkpoint, then restore.
    for _ in 0..10 {
        w.bump_counter(pid).unwrap();
    }
    let report = w.sls.sls_restore(gid, None, RestoreMode::Full).unwrap();
    let new_pid = report.pids[0];
    assert_eq!(w.read_counter(new_pid).unwrap(), 5, "restored to checkpoint-time value");
    // The original process also still exists with its newer state.
    assert_eq!(w.read_counter(pid).unwrap(), 15);
}

#[test]
fn incremental_history_time_travel() {
    let mut w = World::quickstart();
    let pid = w.spawn_counter_app();
    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();

    let mut epochs = Vec::new();
    for i in 1..=4u64 {
        w.bump_counter(pid).unwrap();
        let cp = w.sls.sls_checkpoint(gid).unwrap();
        epochs.push((i, cp.epoch));
        assert_eq!(cp.full, i == 1);
    }
    // Restore each epoch and verify its counter value.
    for (value, epoch) in epochs {
        let r = w.sls.sls_restore(gid, Some(epoch), RestoreMode::Full).unwrap();
        assert_eq!(
            w.read_counter(r.pids[0]).unwrap(),
            value,
            "epoch {epoch} should hold counter {value}"
        );
    }
}

#[test]
fn incremental_flushes_only_dirty_pages() {
    let mut w = World::quickstart();
    let pid = w.sls.kernel.spawn("app");
    let addr = w.dirty_region(pid, 64).unwrap();
    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
    let full = w.sls.sls_checkpoint(gid).unwrap();
    assert!(full.pages_flushed >= 64);

    // Dirty 3 pages; the next checkpoint flushes roughly that.
    for i in 0..3u64 {
        w.sls.kernel.mem_write(pid, addr + i * PAGE_SIZE as u64, &[9]).unwrap();
    }
    let incr = w.sls.sls_checkpoint(gid).unwrap();
    assert!(!incr.full);
    assert!(
        incr.pages_flushed >= 3 && incr.pages_flushed <= 8,
        "incremental flushed {} pages",
        incr.pages_flushed
    );
    assert!(incr.stop_time_ns < full.stop_time_ns * 2);
}

#[test]
fn restore_preserves_fd_sharing_and_offsets() {
    // The §5.1 example, through a checkpoint: fork-shared descriptions
    // keep a shared offset; independent opens do not.
    let mut w = World::quickstart();
    let k = &mut w.sls.kernel;
    let parent = k.spawn("parent");
    let fd = k.open(parent, "/data", OpenFlags::RDWR, true).unwrap();
    k.write(parent, fd, b"0123456789").unwrap();
    k.lseek(parent, fd, 2).unwrap();
    let child = k.fork(parent).unwrap();
    let fd2 = k.open(child, "/data", OpenFlags::RDONLY, false).unwrap();

    let gid = w.sls.attach(parent, SlsOptions::default()).unwrap();
    w.sls.sls_checkpoint(gid).unwrap();
    let r = w.sls.sls_restore(gid, None, RestoreMode::Full).unwrap();
    let (rp, rc) = (r.pids[0], r.pids[1]);

    let k = &mut w.sls.kernel;
    // Shared description: parent reads 2 bytes from offset 2, child
    // continues at 4.
    assert_eq!(k.read(rp, fd, 2).unwrap(), b"23");
    assert_eq!(k.read(rc, fd, 2).unwrap(), b"45");
    // Independent description still at its own offset 0.
    assert_eq!(k.read(rc, fd2, 3).unwrap(), b"012");
}

#[test]
fn restore_preserves_shared_memory_and_cow() {
    let mut w = World::quickstart();
    let k = &mut w.sls.kernel;
    let a = k.spawn("a");
    let shm_fd = k.shm_open(a, "/seg", 4).unwrap();
    let addr = k.mmap_shm(a, shm_fd).unwrap();
    k.mem_write(a, addr, b"shared before").unwrap();
    let priv_addr = k.mmap_anon(a, 2, Prot::RW).unwrap();
    k.mem_write(a, priv_addr, b"private").unwrap();
    let b = k.fork(a).unwrap();
    // Child maps the same POSIX shm (sharing is via registry + fork).
    k.mem_write(b, addr, b"shared after ").unwrap();
    // COW divergence in the private region.
    k.mem_write(b, priv_addr, b"childpv").unwrap();

    let gid = w.sls.attach(a, SlsOptions::default()).unwrap();
    w.sls.sls_checkpoint(gid).unwrap();
    let r = w.sls.sls_restore(gid, None, RestoreMode::Full).unwrap();
    let (ra, rb) = (r.pids[0], r.pids[1]);
    let k = &mut w.sls.kernel;

    // Shared memory: restored processes still share it.
    let mut buf = [0u8; 13];
    k.mem_read(ra, addr, &mut buf).unwrap();
    assert_eq!(&buf, b"shared after ");
    k.mem_write(ra, addr, b"poke").unwrap();
    let mut buf4 = [0u8; 4];
    k.mem_read(rb, addr, &mut buf4).unwrap();
    assert_eq!(&buf4, b"poke", "restored sharing is live, not a copy");

    // COW privacy: each restored process has its own view.
    let mut pa = [0u8; 7];
    let mut pb = [0u8; 7];
    k.mem_read(ra, priv_addr, &mut pa).unwrap();
    k.mem_read(rb, priv_addr, &mut pb).unwrap();
    assert_eq!(&pa, b"private");
    assert_eq!(&pb, b"childpv");
}

#[test]
fn restore_preserves_pipes_and_inflight_fds() {
    let mut w = World::quickstart();
    let k = &mut w.sls.kernel;
    let p = k.spawn("p");
    let (pr, pw) = k.pipe(p).unwrap();
    k.write(p, pw, b"in the pipe").unwrap();

    // An fd in flight inside a unix socket (SCM_RIGHTS).
    let (sa, sb) = k.socketpair(p).unwrap();
    let file_fd = k.open(p, "/carried", OpenFlags::RDWR, true).unwrap();
    k.write(p, file_fd, b"carried-data").unwrap();
    k.lseek(p, file_fd, 0).unwrap();
    k.sendmsg_fds(p, sa, b"msg", &[file_fd]).unwrap();
    k.deliver_all();

    let gid = w.sls.attach(p, SlsOptions::default()).unwrap();
    w.sls.sls_checkpoint(gid).unwrap();
    let r = w.sls.sls_restore(gid, None, RestoreMode::Full).unwrap();
    let rp = r.pids[0];
    let k = &mut w.sls.kernel;

    assert_eq!(k.read(rp, pr, 64).unwrap(), b"in the pipe");
    let (msg, fds) = k.recvmsg(rp, sb).unwrap();
    assert_eq!(msg, b"msg");
    assert_eq!(fds.len(), 1, "in-flight descriptor restored");
    assert_eq!(k.read(rp, fds[0], 12).unwrap(), b"carried-data");
}

#[test]
fn restore_preserves_anonymous_files() {
    // §5.2: an unlinked-but-open file must survive the checkpoint.
    let mut w = World::quickstart();
    let k = &mut w.sls.kernel;
    let p = k.spawn("p");
    let fd = k.open(p, "/anon", OpenFlags::RDWR, true).unwrap();
    k.write(p, fd, b"ghost").unwrap();
    k.unlink(p, "/anon").unwrap();
    let gid = w.sls.attach(p, SlsOptions::default()).unwrap();
    w.sls.sls_checkpoint(gid).unwrap();
    let r = w.sls.sls_restore(gid, None, RestoreMode::Full).unwrap();
    let k = &mut w.sls.kernel;
    k.lseek(r.pids[0], fd, 0).unwrap();
    assert_eq!(k.read(r.pids[0], fd, 5).unwrap(), b"ghost");
}

#[test]
fn lazy_restore_pages_in_on_demand() {
    let mut w = World::quickstart();
    let pid = w.spawn_counter_app();
    w.dirty_region(pid, 256).unwrap();
    for _ in 0..7 {
        w.bump_counter(pid).unwrap();
    }
    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
    w.sls.sls_checkpoint(gid).unwrap();
    w.sls.sls_barrier(gid).unwrap();
    // Cold-cache restore (the post-reboot case): with the store's page
    // cache still warm from the flush, a full restore would be free.
    w.sls.store().lock().drop_page_cache();

    let lazy = w.sls.sls_restore(gid, None, RestoreMode::Lazy).unwrap();
    assert_eq!(lazy.pages_read, 0, "lazy restore reads nothing eagerly");
    // Faulting reads the page from the store transparently.
    assert_eq!(w.read_counter(lazy.pids[0]).unwrap(), 7);

    let full = w.sls.sls_restore(gid, None, RestoreMode::Full).unwrap();
    assert!(full.pages_read >= 256, "full restore reads the image");
    assert!(lazy.elapsed_ns < full.elapsed_ns, "lazy restore is faster");
}

#[test]
fn ephemeral_process_not_restored_parent_gets_sigchld() {
    let mut w = World::quickstart();
    let k = &mut w.sls.kernel;
    let parent = k.spawn("parent");
    let worker = k.fork(parent).unwrap();
    let gid = w.sls.attach(parent, SlsOptions::default()).unwrap();
    w.sls.detach(worker).unwrap();
    w.sls.sls_checkpoint(gid).unwrap();
    let r = w.sls.sls_restore(gid, None, RestoreMode::Full).unwrap();
    assert_eq!(r.pids.len(), 1, "ephemeral child is not restored");
    let p = w.sls.kernel.proc(r.pids[0]).unwrap();
    assert!(p.has_pending(sig::SIGCHLD), "parent learns the worker died");
}

#[test]
fn pid_virtualization_resolves_conflicts() {
    let mut w = World::quickstart();
    let pid = w.spawn_counter_app();
    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
    w.sls.sls_checkpoint(gid).unwrap();
    // The original process still runs, so its pid is taken: the restored
    // process must get a fresh global pid but keep its local pid.
    let r = w.sls.sls_restore(gid, None, RestoreMode::Full).unwrap();
    let restored = w.sls.kernel.proc(r.pids[0]).unwrap();
    assert_ne!(restored.pid, pid, "global pid is fresh");
    assert_eq!(restored.local_pid, pid, "application-visible pid preserved");
}

#[test]
fn crash_recovers_last_complete_checkpoint() {
    let mut w = World::quickstart();
    let pid = w.spawn_counter_app();
    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
    w.bump_counter(pid).unwrap();
    w.sls.sls_checkpoint(gid).unwrap();
    w.sls.sls_barrier(gid).unwrap(); // checkpoint 1 durable
    let durable_epoch = *w.sls.history(gid).unwrap().last().unwrap();

    w.bump_counter(pid).unwrap();
    w.sls.sls_checkpoint(gid).unwrap();
    // Crash before the second checkpoint is durable: the machine dies,
    // the store recovers, the kernel reboots empty.
    w.sls.crash_and_reboot().unwrap();
    assert!(w.sls.kernel.proc(pid).is_err(), "processes died in the crash");

    let last = w.sls.store().lock().last_epoch().unwrap();
    assert_eq!(last, durable_epoch, "recovery finds the last complete checkpoint");
    let manifests = w.sls.manifests_at(last).unwrap();
    assert_eq!(manifests.len(), 1);
    let r = w.sls.restore_image(manifests[0], last, RestoreMode::Full).unwrap();
    // Counter was 1 at the durable checkpoint.
    assert_eq!(w.read_counter(r.pids[0]).unwrap(), 1);
}

#[test]
fn external_synchrony_holds_messages_until_durable() {
    let mut w = World::quickstart();
    let k = &mut w.sls.kernel;
    let server = k.spawn("server");
    let client = k.spawn("client");
    let (s_srv, s_cli) = k.socketpair(server).unwrap();
    // Move the client end to the client process.
    let fid = k.resolve(server, s_cli).unwrap();
    k.proc_mut(server).unwrap().fdtable.remove(s_cli).unwrap();
    let s_cli = k.proc_mut(client).unwrap().fdtable.install(fid);

    let gid = w.sls.attach(server, SlsOptions::default()).unwrap();
    w.sls.sls_checkpoint(gid).unwrap();
    w.sls.sls_barrier(gid).unwrap();

    // The server "responds" — but the response must be withheld until
    // the covering checkpoint is durable.
    w.sls.kernel.send(server, s_srv, b"response").unwrap();
    w.sls.pump_external_synchrony();
    assert!(
        w.sls.kernel.recvmsg(client, s_cli).is_err(),
        "message released before its checkpoint"
    );

    // Checkpoint + wait for durability: now it flows.
    w.sls.sls_checkpoint(gid).unwrap();
    w.sls.sls_barrier(gid).unwrap();
    let (msg, _) = w.sls.kernel.recvmsg(client, s_cli).unwrap();
    assert_eq!(msg, b"response");
}

#[test]
fn fdctl_opts_out_of_external_synchrony() {
    let mut w = World::quickstart();
    let k = &mut w.sls.kernel;
    let server = k.spawn("server");
    let client = k.spawn("client");
    let (s_srv, s_cli) = k.socketpair(server).unwrap();
    let fid = k.resolve(server, s_cli).unwrap();
    k.proc_mut(server).unwrap().fdtable.remove(s_cli).unwrap();
    let s_cli = k.proc_mut(client).unwrap().fdtable.install(fid);

    let gid = w.sls.attach(server, SlsOptions::default()).unwrap();
    w.sls.sls_checkpoint(gid).unwrap();
    // Read-only connections don't need synchrony (§3).
    w.sls.sls_fdctl(server, s_srv, true).unwrap();
    w.sls.sls_fdctl(client, s_cli, true).unwrap();
    w.sls.kernel.send(server, s_srv, b"fast-path").unwrap();
    w.sls.pump_external_synchrony();
    let (msg, _) = w.sls.kernel.recvmsg(client, s_cli).unwrap();
    assert_eq!(msg, b"fast-path");
}

#[test]
fn memckpt_and_journal_apis() {
    let mut w = World::quickstart();
    let pid = w.sls.kernel.spawn("db");
    let addr = w.dirty_region(pid, 64).unwrap();
    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
    w.sls.sls_checkpoint(gid).unwrap();

    // Atomic region checkpoint: cheaper than a full one.
    w.sls.kernel.mem_write(pid, addr, b"region dirty").unwrap();
    let m = w.sls.sls_memckpt(gid, pid, addr).unwrap();
    assert!(m.pages_flushed >= 1);
    let full = w.sls.sls_checkpoint(gid).unwrap();
    assert!(m.stop_time_ns < full.stop_time_ns, "memckpt avoids the OS-wide barrier");

    // Journal: synchronous, sequenced.
    let j = w.sls.sls_journal_create(64).unwrap();
    assert_eq!(w.sls.sls_journal(j, b"put k1 v1").unwrap(), 0);
    assert_eq!(w.sls.sls_journal(j, b"put k2 v2").unwrap(), 1);
    w.sls.sls_journal_truncate(j).unwrap();
    assert_eq!(w.sls.sls_journal(j, b"put k3 v3").unwrap(), 2);
}

#[test]
fn migration_between_machines() {
    let mut src = World::quickstart();
    let pid = src.spawn_counter_app();
    for _ in 0..3 {
        src.bump_counter(pid).unwrap();
    }
    let gid = src.sls.attach(pid, SlsOptions::default()).unwrap();
    let cp = src.sls.sls_checkpoint(gid).unwrap();
    src.sls.sls_barrier(gid).unwrap();

    let mut dst = World::quickstart();
    let r = src.sls.migrate_to(&mut dst.sls, cp.epoch, RestoreMode::Full).unwrap();
    assert_eq!(dst.read_counter(r.pids[0]).unwrap(), 3, "state moved machines");
}

#[test]
fn coredump_is_valid_elf() {
    let mut w = World::quickstart();
    let pid = w.spawn_counter_app();
    let dump = w.sls.coredump(pid).unwrap();
    assert_eq!(&dump[0..4], b"\x7fELF");
    assert_eq!(dump[4], 2, "ELF64");
    assert_eq!(u16::from_le_bytes([dump[16], dump[17]]), 4, "ET_CORE");
    assert!(dump.len() > 16 * PAGE_SIZE, "contains the memory image");
}

#[test]
fn swap_evicts_clean_pages_without_io_and_faults_back() {
    let mut w = World::quickstart();
    let pid = w.spawn_counter_app();
    w.bump_counter(pid).unwrap();
    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
    w.sls.sls_checkpoint(gid).unwrap();
    w.sls.sls_barrier(gid).unwrap();

    let before = w.sls.kernel.vm.resident_frames();
    let bytes_before = {
        let store = w.sls.store().lock();
        let dev = store.device().clone();
        let n = dev.lock().bytes_written();
        n
    };
    let evicted = w.sls.evict_clean_pages(gid, 1000).unwrap();
    assert!(evicted > 0);
    assert!(w.sls.kernel.vm.resident_frames() < before);
    let bytes_after = {
        let store = w.sls.store().lock();
        let dev = store.device().clone();
        let n = dev.lock().bytes_written();
        n
    };
    assert_eq!(bytes_before, bytes_after, "clean eviction does no IO (§6)");

    // Touching the counter faults the page back from the store.
    assert_eq!(w.read_counter(pid).unwrap(), 1);
}

#[test]
fn checkpoint_dedups_shared_objects_exactly_once() {
    // Two processes sharing a description and a vnode: the image contains
    // one of each, not copies.
    let mut w = World::quickstart();
    let k = &mut w.sls.kernel;
    let a = k.spawn("a");
    let fd = k.open(a, "/shared", OpenFlags::RDWR, true).unwrap();
    let _b = k.fork(a).unwrap();
    let _fd_dup = k.dup(a, fd).unwrap();
    let gid = w.sls.attach(a, SlsOptions::default()).unwrap();
    let cp1 = w.sls.sls_checkpoint(gid).unwrap();
    // Objects: 2 procs + 2 threads + 1 file + vnodes(root dir + file) +
    // mem objects. Run again: no growth (stable mapping).
    let cp2 = w.sls.sls_checkpoint(gid).unwrap();
    assert_eq!(cp1.objects, cp2.objects, "exactly-once scan is stable");
}

#[test]
fn lazy_historical_restore_is_branch_consistent() {
    // Regression: a lazy restore of an OLD epoch must fault in that
    // epoch's pages, never pages written by the abandoned future — and a
    // further checkpoint on the restored branch must stay self-consistent.
    let mut w = World::quickstart();
    let pid = w.spawn_counter_app();
    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
    let mut epochs = Vec::new();
    for _ in 0..4 {
        w.bump_counter(pid).unwrap();
        epochs.push(w.sls.sls_checkpoint(gid).unwrap().epoch);
    }
    w.sls.sls_barrier(gid).unwrap();

    // Lazily restore epoch 2 (counter == 2); the fault must not see the
    // epoch-4 value.
    let r = w.sls.sls_restore(gid, Some(epochs[1]), RestoreMode::Lazy).unwrap();
    assert_eq!(w.read_counter(r.pids[0]).unwrap(), 2, "branch must see its own past");

    // The branch continues: bump and checkpoint, then lazily restore the
    // branch's own new checkpoint.
    w.bump_counter(r.pids[0]).unwrap();
    let branch_epoch = w.sls.sls_checkpoint(r.group).unwrap().epoch;
    w.sls.sls_barrier(r.group).unwrap();
    let r2 = w.sls.sls_restore(r.group, Some(branch_epoch), RestoreMode::Lazy).unwrap();
    assert_eq!(w.read_counter(r2.pids[0]).unwrap(), 3, "branch future visible on branch");
}

#[test]
fn history_retention_reclaims_but_keeps_recent_epochs() {
    let mut w = World::quickstart();
    let pid = w.spawn_counter_app();
    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
    for _ in 0..6 {
        w.bump_counter(pid).unwrap();
        w.sls.sls_checkpoint(gid).unwrap();
    }
    w.sls.sls_barrier(gid).unwrap();
    let all: Vec<u64> = w.sls.history(gid).unwrap().to_vec();
    assert_eq!(all.len(), 6);

    w.sls.retain_last(gid, 2).unwrap();
    let kept: Vec<u64> = w.sls.history(gid).unwrap().to_vec();
    assert_eq!(kept, all[4..].to_vec());
    // Old epochs are gone; recent ones restore fine.
    assert!(w.sls.sls_restore(gid, Some(all[0]), RestoreMode::Full).is_err());
    let r = w.sls.sls_restore(gid, Some(kept[1]), RestoreMode::Full).unwrap();
    assert_eq!(w.read_counter(r.pids[0]).unwrap(), 6);
}

#[test]
fn memory_overcommit_keeps_residency_bounded() {
    // §6 "Memory Overcommitment": the app's data exceeds a residency
    // target; the pageout daemon keeps evicting clean pages while the
    // workload keeps running correctly.
    let mut w = World::quickstart();
    let pid = w.sls.kernel.spawn("big-app");
    let addr = w.dirty_region(pid, 2_048).unwrap(); // 8 MiB
    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();

    let target_pages = 512u64;
    for round in 0..6u64 {
        // Touch a sliding window (the working set moves).
        let start = addr + (round * 256) * PAGE_SIZE as u64;
        w.sls.kernel.mem_touch(pid, start, 256 * PAGE_SIZE as u64).unwrap();
        w.sls.kernel.mem_write(pid, start, &round.to_le_bytes()).unwrap();
        w.sls.sls_checkpoint(gid).unwrap();
        w.sls.sls_barrier(gid).unwrap();
        let resident = w.sls.group_resident_pages(gid).unwrap();
        if resident > target_pages {
            w.sls.evict_clean_pages(gid, resident - target_pages).unwrap();
        }
        assert!(
            w.sls.group_resident_pages(gid).unwrap() <= target_pages + 64,
            "round {round}: residency exceeded the target"
        );
    }
    // All the data is still correct, paging back in on demand.
    for round in 0..6u64 {
        let start = addr + (round * 256) * PAGE_SIZE as u64;
        let mut buf = [0u8; 8];
        w.sls.kernel.mem_read(pid, start, &mut buf).unwrap();
        assert_eq!(u64::from_le_bytes(buf), round, "window {round} data lost");
    }
}

#[test]
fn aio_reads_reissued_writes_folded_in() {
    // §5.3: in-flight asynchronous writes are incorporated into the
    // checkpoint (it completes them); reads are recorded and reissued at
    // restore.
    let mut w = World::quickstart();
    let pid = w.sls.kernel.spawn("aio-app");
    let fd = w.sls.kernel.open(pid, "/data", OpenFlags::RDWR, true).unwrap();
    w.sls.kernel.write(pid, fd, &vec![0u8; 8192]).unwrap();
    w.sls.kernel.aio_issue(pid, fd, 0, 4096, true).unwrap(); // write
    w.sls.kernel.aio_issue(pid, fd, 4096, 4096, false).unwrap(); // read

    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
    w.sls.sls_checkpoint(gid).unwrap();
    use aurora_posix::aio::AioKind;
    let writes_left = w.sls.kernel.aio.ops.iter().filter(|o| o.kind == AioKind::Write).count();
    assert_eq!(writes_left, 0, "the checkpoint completed the write, and it left the queue");

    let r = w.sls.sls_restore(gid, None, RestoreMode::Full).unwrap();
    let reissued: Vec<_> = w
        .sls
        .kernel
        .aio
        .ops
        .iter()
        .filter(|o| o.pid == r.pids[0].0)
        .collect();
    assert_eq!(reissued.len(), 1, "the read is reissued for the restored process");
    assert_eq!(reissued[0].kind, AioKind::Read);
    assert_eq!((reissued[0].offset, reissued[0].len), (4096, 4096));
}

#[test]
fn incremental_delta_streams_feed_a_standby() {
    // `sls send` in continuous mode: a full stream, then small deltas;
    // the standby stays restorable at each step (pre-copy HA, §10).
    let mut src = World::quickstart();
    let pid = src.spawn_counter_app();
    src.dirty_region(pid, 64).unwrap(); // bulk state that will NOT change
    let gid = src.sls.attach(pid, SlsOptions::default()).unwrap();
    let cp1 = src.sls.sls_checkpoint(gid).unwrap();
    src.sls.sls_barrier(gid).unwrap();

    let mut dst = World::quickstart();
    let full = src.sls.send_stream(cp1.epoch).unwrap();
    let manifests = dst.sls.recv_stream(&full).unwrap();
    assert_eq!(manifests.len(), 1);

    // Work + an incremental delta.
    for _ in 0..3 {
        src.bump_counter(pid).unwrap();
    }
    let cp2 = src.sls.sls_checkpoint(gid).unwrap();
    src.sls.sls_barrier(gid).unwrap();
    let delta = src.sls.send_delta(cp1.epoch, cp2.epoch).unwrap();
    assert!(
        delta.len() < full.len() / 2,
        "delta ({}) must be much smaller than the full stream ({})",
        delta.len(),
        full.len()
    );
    dst.sls.recv_stream(&delta).unwrap();

    let epoch = dst.sls.store().lock().last_epoch().unwrap();
    let r = dst.sls.restore_image(manifests[0], epoch, RestoreMode::Full).unwrap();
    assert_eq!(dst.read_counter(r.pids[0]).unwrap(), 3, "standby has the delta state");
}

#[test]
fn a_stream_of_another_version_is_a_bad_image_not_a_compat_path() {
    // Stream format 3 is the only one this system produces. What
    // `send_stream` produces is accepted, and says so in its header.
    let mut src = World::quickstart();
    let pid = src.spawn_counter_app();
    let gid = src.sls.attach(pid, SlsOptions::default()).unwrap();
    let cp = src.sls.sls_checkpoint(gid).unwrap();
    src.sls.sls_barrier(gid).unwrap();
    let full = src.sls.send_stream(cp.epoch).unwrap();
    assert_eq!(&full[..4], &[0x54, 0x53, 3, 0], "tag 0x5354, version 3");

    // The same bytes claiming version 2 (format 3's framing, page
    // checksums by byte-wise FNV-1a) and a v1 header (epoch + object
    // count, full page images) must come back as a structured error by
    // version — never half-decoded, never a checksum mismatch.
    let mut v2 = full.clone();
    v2[2..4].copy_from_slice(&2u16.to_le_bytes());
    let mut v1 = aurora_sim::Encoder::new();
    v1.record(0x5354, 1, |e| {
        e.u64(7);
        e.u32(0);
    });
    let mut dst = World::quickstart();
    let store_state = |w: &World| {
        let s = w.sls.store().lock();
        (s.last_epoch(), s.gauges().objects, s.gauges().open_drafts)
    };
    let before = store_state(&dst);
    for (v, stream) in [(2, v2), (1, v1.finish_vec())] {
        let err = dst.sls.recv_stream(&stream).unwrap_err();
        assert!(
            matches!(err, aurora_core::SlsError::BadImage("unsupported stream version")),
            "version {v}: got {err}"
        );
        assert_eq!(store_state(&dst), before, "version {v}: nothing was installed");
    }
    assert_eq!(dst.sls.recv_stream(&full).unwrap().len(), 1);
}

#[test]
fn restored_parent_signals_child_by_remembered_pid() {
    // §5.3 "System Wide Identifiers": the whole point of restoring PIDs —
    // a parent signals its child with the pid it knew before the
    // checkpoint, even though the restored processes run under fresh
    // global pids.
    let mut w = World::quickstart();
    let parent = w.sls.kernel.spawn("parent");
    let child = w.sls.kernel.fork(parent).unwrap();
    let remembered_child_pid = child.0; // what the parent's memory holds
    let gid = w.sls.attach(parent, SlsOptions::default()).unwrap();
    w.sls.sls_checkpoint(gid).unwrap();

    let r = w.sls.sls_restore(gid, None, RestoreMode::Full).unwrap();
    let (rp, rc) = (r.pids[0], r.pids[1]);
    assert_ne!(rc.0, remembered_child_pid, "global pid is fresh (original still runs)");

    // The restored parent signals by the old (local) pid — it must reach
    // the restored child, not the original.
    w.sls.kernel.kill(rp, remembered_child_pid, sig::SIGTERM).unwrap();
    assert!(w.sls.kernel.proc(rc).unwrap().has_pending(sig::SIGTERM));
    assert!(
        !w.sls.kernel.proc(child).unwrap().has_pending(sig::SIGTERM),
        "the original child must not receive the restored parent's signal"
    );

    // Process-group delivery works in the restored namespace too.
    let pgid = w.sls.kernel.proc(rp).unwrap().pgid.0;
    w.sls.kernel.kill_pgrp(rp, pgid, sig::SIGUSR1).unwrap();
    assert!(w.sls.kernel.proc(rp).unwrap().has_pending(sig::SIGUSR1));
    assert!(w.sls.kernel.proc(rc).unwrap().has_pending(sig::SIGUSR1));
}

#[test]
fn vdso_is_reinjected_not_persisted() {
    // §5.3 "Device Files": the vDSO belongs to the running kernel; a
    // restore injects the *current* platform's copy, so applications
    // resume even after software upgrades.
    let mut w = World::quickstart();
    let pid = w.spawn_counter_app();
    let vdso_addr = w.sls.kernel.map_vdso(pid).unwrap();
    let hpet_addr = w.sls.kernel.map_hpet(pid).unwrap();
    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
    let cp = w.sls.sls_checkpoint(gid).unwrap();
    w.sls.sls_barrier(gid).unwrap();
    assert!(cp.pages_flushed < 16, "no vDSO/device pages in the image");

    // "Upgrade" the kernel, then restore.
    w.sls.kernel.vdso_version += 1;
    let r = w.sls.sls_restore(gid, None, RestoreMode::Full).unwrap();
    let space = w.sls.kernel.proc(r.pids[0]).unwrap().space;
    for (page, addr) in [("vDSO", vdso_addr), ("HPET", hpet_addr)] {
        let entry = w.sls.kernel.vm.space(space).unwrap().entry_at(addr).unwrap();
        let obj = w.sls.kernel.vm.object(entry.object).unwrap();
        assert!(
            matches!(obj.kind, aurora_vm::ObjKind::Device { .. }),
            "the {page} mapping is a fresh device injection, not restored pages"
        );
        assert_eq!(obj.resident_pages(), 0, "no stale {page} content came from the store");
    }
}

#[test]
fn fork_under_system_shadow_flushes_newest_version() {
    // Regression: O ← S1(sys) ← F(fork) ← S2(sys) with the same page
    // dirty in both F and S2 — the store must keep S2's (newer) bytes,
    // regardless of chain-walk order.
    let mut w = World::quickstart();
    let parent = w.sls.kernel.spawn("parent");
    let addr = w.sls.kernel.mmap_anon(parent, 4, Prot::RW).unwrap();
    w.sls.kernel.mem_write(parent, addr, b"v0-original").unwrap();
    let gid = w.sls.attach(parent, SlsOptions::default()).unwrap();
    w.sls.sls_checkpoint(gid).unwrap(); // S1 on O

    // Dirty the page pre-fork (lands in S1's successor — the fork
    // parent's shadow F after the fork splits the chain).
    w.sls.kernel.mem_write(parent, addr, b"v1-prefork!").unwrap();
    let _child = w.sls.kernel.fork(parent).unwrap();
    // Post-fork write in the parent goes to its fork shadow F.
    w.sls.kernel.mem_write(parent, addr, b"v2-postfork").unwrap();
    // Checkpoint: system shadow S2 goes on top of F; both F and the
    // chain below hold dirty versions of page 0.
    w.sls.kernel.mem_write(parent, addr, b"v3-newest!!").unwrap();
    let cp = w.sls.sls_checkpoint(gid).unwrap();
    w.sls.sls_barrier(gid).unwrap();

    let r = w.sls.sls_restore(gid, Some(cp.epoch), RestoreMode::Full).unwrap();
    let mut buf = [0u8; 11];
    w.sls.kernel.mem_read(r.pids[0], addr, &mut buf).unwrap();
    assert_eq!(&buf, b"v3-newest!!", "the newest version must win in the store");
}

#[test]
fn restored_objects_survive_the_restored_process_making_new_ones() {
    // Regression: restore used to file pipes, sockets, kqueues and ptys
    // under `max id + 1` without advancing the kernel's allocators, so
    // the first `pipe()` a restored process made overwrote a restored
    // pipe. Ids now come from the allocators themselves.
    use aurora_posix::fd::Fd;
    use aurora_posix::file::FileKind;
    use aurora_posix::kqueue::{Filter, Kevent};
    use aurora_posix::{Kernel, Pid};

    fn target(k: &Kernel, pid: Pid, fd: Fd) -> u64 {
        match k.files.get(k.resolve(pid, fd).unwrap()).unwrap().kind {
            FileKind::Pipe { pipe, .. } => pipe,
            FileKind::Socket(s) => s,
            FileKind::Kqueue(q) => q,
            FileKind::Pty { pty, .. } => pty,
            other => panic!("unexpected descriptor {other:?}"),
        }
    }
    let event = |ident| Kevent { ident, filter: Filter::Read, enabled: true, udata: 5 };

    for reboot in [false, true] {
        let mut w = World::quickstart();
        let k = &mut w.sls.kernel;
        let pid = k.spawn("holder");
        let (pipe_r, pipe_w) = k.pipe(pid).unwrap();
        k.write(pid, pipe_w, b"in the pipe").unwrap();
        let (sock, _peer) = k.socketpair(pid).unwrap();
        k.send(pid, sock, b"queued").unwrap();
        let kq = k.kqueue(pid).unwrap();
        k.kevent_register(pid, kq, event(9)).unwrap();
        let (pty, _slave) = k.openpty(pid).unwrap();
        let pty_id = target(k, pid, pty);
        k.ptys.get_mut(pty_id).unwrap().input.extend(b"typed");

        let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
        let cp = w.sls.sls_checkpoint(gid).unwrap();
        w.sls.sls_barrier(gid).unwrap();
        let r = if reboot {
            w.sls.crash_and_reboot().unwrap();
            let manifests = w.sls.manifests_at(cp.epoch).unwrap();
            w.sls.restore_image(manifests[0], cp.epoch, RestoreMode::Full).unwrap()
        } else {
            w.sls.sls_restore(gid, None, RestoreMode::Full).unwrap()
        };
        let rp = r.pids[0];

        // The restored process carries on: new objects, written to.
        let k = &mut w.sls.kernel;
        let live = (k.pipes.len(), k.sockets.len(), k.kqueues.len(), k.ptys.len());
        let (_, new_pipe_w) = k.pipe(rp).unwrap();
        k.write(rp, new_pipe_w, b"XX").unwrap();
        let (new_sock, _) = k.socketpair(rp).unwrap();
        k.send(rp, new_sock, b"YY").unwrap();
        let new_kq = k.kqueue(rp).unwrap();
        k.kevent_register(rp, new_kq, event(1)).unwrap();
        let (new_pty, _) = k.openpty(rp).unwrap();
        let new_pty_id = target(k, rp, new_pty);
        k.ptys.get_mut(new_pty_id).unwrap().input.extend(b"ZZ");
        assert_eq!(
            (k.pipes.len(), k.sockets.len(), k.kqueues.len(), k.ptys.len()),
            (live.0 + 1, live.1 + 2, live.2 + 1, live.3 + 1),
            "reboot={reboot}: every new id is distinct from every live id"
        );

        // Every restored object still holds what was checkpointed.
        assert_eq!(k.read(rp, pipe_r, 64).unwrap(), b"in the pipe", "reboot={reboot}");
        let s = k.sockets.get(target(k, rp, sock)).unwrap();
        let queued: Vec<&[u8]> =
            s.send_buf.iter().chain(&s.recv_buf).map(|m| m.data.as_slice()).collect();
        assert_eq!(queued, [b"queued"], "reboot={reboot}");
        assert_eq!(k.kqueues.get(target(k, rp, kq)).unwrap().events, [event(9)], "reboot={reboot}");
        assert_eq!(k.ptys.get(target(k, rp, pty)).unwrap().input, b"typed", "reboot={reboot}");
    }
}

/// Recycled blocks come off the allocator's free list tail-first, so a
/// file rewritten through several `retain_last` rounds sits on disk
/// with its pages in descending block order. Restores must still
/// assemble it by page index.
#[test]
fn rewritten_files_restore_byte_for_byte_after_history_reclamation() {
    let content = |round: u8, pages: usize| -> Vec<u8> {
        (0..pages).flat_map(|p| vec![round * 16 + p as u8; PAGE_SIZE]).collect()
    };
    for (mode, reboot) in [
        (RestoreMode::Full, false),
        (RestoreMode::Lazy, false),
        (RestoreMode::Full, true),
        (RestoreMode::Lazy, true),
    ] {
        let mut w = World::quickstart();
        let k = &mut w.sls.kernel;
        let p = k.spawn("writer");
        let big = k.open(p, "/four-pages", OpenFlags::RDWR, true).unwrap();
        k.vfs.mkdir("/dir").unwrap();
        let small = k.open(p, "/dir/one-page", OpenFlags::RDWR, true).unwrap();
        let gid = w.sls.attach(p, SlsOptions::default()).unwrap();
        for round in 0..6u8 {
            let k = &mut w.sls.kernel;
            for (fd, pages) in [(big, 4), (small, 1)] {
                k.lseek(p, fd, 0).unwrap();
                k.write(p, fd, &content(round, pages)).unwrap();
            }
            w.sls.sls_checkpoint(gid).unwrap();
            w.sls.sls_barrier(gid).unwrap();
            w.sls.retain_last(gid, 2).unwrap();
        }
        let r = if reboot {
            w.sls.crash_and_reboot().unwrap();
            let last = w.sls.store().lock().last_epoch().unwrap();
            let manifest = w.sls.manifests_at(last).unwrap()[0];
            w.sls.restore_image(manifest, last, mode).unwrap()
        } else {
            w.sls.sls_restore(gid, None, mode).unwrap()
        };
        let k = &mut w.sls.kernel;
        for (fd, pages) in [(big, 4), (small, 1)] {
            k.lseek(r.pids[0], fd, 0).unwrap();
            let got = k.read(r.pids[0], fd, pages * PAGE_SIZE).unwrap();
            let want = content(5, pages);
            assert_eq!(got.len(), want.len());
            let first_bytes: Vec<u8> = got.chunks(PAGE_SIZE).map(|c| c[0]).collect();
            assert!(
                got == want,
                "{pages}-page file ({mode:?}, reboot: {reboot}) read back pages {first_bytes:?}"
            );
        }
        // The directory entry came back too: the file resolves by path.
        let by_path = k.open(r.pids[0], "/dir/one-page", OpenFlags::RDONLY, false).unwrap();
        assert_eq!(
            k.read(r.pids[0], by_path, PAGE_SIZE).unwrap(),
            content(5, 1),
            "({mode:?}, reboot: {reboot})"
        );
    }
}

#[test]
fn exited_processes_leave_the_kernel() {
    // Restore → exit cycles of a 4-process tree: the kernel ends up
    // holding exactly the live processes and their threads.
    let mut w = World::quickstart();
    let root = w.sls.kernel.spawn("tree");
    for _ in 0..3 {
        w.sls.kernel.fork(root).unwrap();
    }
    let gid = w.sls.attach(root, SlsOptions::default()).unwrap();
    w.sls.sls_checkpoint(gid).unwrap();
    w.sls.sls_barrier(gid).unwrap();
    let live = w.sls.kernel.procs.len();
    for _ in 0..5 {
        let r = w.sls.sls_restore(gid, None, RestoreMode::Full).unwrap();
        assert_eq!(w.sls.kernel.procs.len(), live + r.pids.len());
        for &pid in r.pids.iter().rev() {
            w.sls.kernel.exit(pid).unwrap();
        }
        assert_eq!(w.sls.kernel.procs.len(), live, "every exited process was reaped");
        assert_eq!(w.sls.kernel.threads.len(), live);
    }
}

#[test]
fn closing_both_sides_frees_the_pty() {
    // At a fresh open and after a restore, a pty goes when the last
    // description of either side closes.
    let mut w = World::quickstart();
    let pid = w.sls.kernel.spawn("term");
    let (m, s) = w.sls.kernel.openpty(pid).unwrap();
    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
    w.sls.sls_checkpoint(gid).unwrap();
    w.sls.sls_barrier(gid).unwrap();
    let r = w.sls.sls_restore(gid, None, RestoreMode::Full).unwrap();
    let k = &mut w.sls.kernel;
    assert_eq!(k.ptys.len(), 2, "the original pty and the restored one");
    k.close(r.pids[0], m).unwrap();
    k.close(r.pids[0], s).unwrap();
    assert_eq!(k.ptys.len(), 1, "the restored pty is freed");
    k.close(pid, m).unwrap();
    k.close(pid, s).unwrap();
    assert!(k.ptys.is_empty(), "the fresh pty is freed");
}
