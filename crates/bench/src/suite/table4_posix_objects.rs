//! Table 4: checkpoint and restore times for individual POSIX objects.
//!
//! Paper reference (checkpoint / restore): kqueue w/1024 events
//! 35.2 µs / 2.7 µs, pipes 1.7 / 2.6, pseudoterminals 3.1 / 30.2, POSIX
//! shm 4.5 / 3.8, SysV shm 14.9 / 2.8, sockets 1.8 / 3.6, vnodes
//! 1.7 / 2.0.

use crate::{header, row, BenchReport};
use aurora_core::world::World;
use aurora_core::{AuroraApi, RestoreMode, SlsOptions};
use aurora_posix::file::OpenFlags;
use aurora_posix::kqueue::{Filter, Kevent};
use aurora_sim::units::fmt_ns;

/// Measures (checkpoint_delta, restore_delta) for a scenario: the delta
/// between a baseline process and one with the object installed, so the
/// per-object cost isolates cleanly.
fn measure(
    name: &str,
    install: impl Fn(&mut World, aurora_posix::Pid),
) -> (String, u64, u64) {
    // Baseline.
    let (base_cp, base_rs) = run_once(|_, _| {});
    let (cp, rs) = run_once(install);
    (
        name.to_string(),
        cp.saturating_sub(base_cp),
        rs.saturating_sub(base_rs),
    )
}

fn run_once(install: impl Fn(&mut World, aurora_posix::Pid)) -> (u64, u64) {
    let mut w = World::quickstart();
    let pid = w.sls.kernel.spawn("obj");
    install(&mut w, pid);
    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
    // Steady state.
    w.sls.sls_checkpoint(gid).unwrap();
    w.sls.sls_barrier(gid).unwrap();
    let cp = w.sls.sls_checkpoint(gid).unwrap();
    w.sls.sls_barrier(gid).unwrap();
    let r = w.sls.sls_restore(gid, None, RestoreMode::Lazy).unwrap();
    (cp.os_state_ns, r.elapsed_ns)
}

pub(crate) fn run() -> BenchReport {
    let mut report = BenchReport::new("table4_posix_objects");
    let kq_events: u64 = if crate::quick() { 128 } else { 1024 };
    let sysv_segments: u64 = if crate::quick() { 10 } else { 100 };
    // A populated SysV namespace (the paper's system has other segments
    // to scan past — calibrated to ~100 entries).
    let rows = [
        measure("Kqueue w/1024 ev", |w, pid| {
            let kq = w.sls.kernel.kqueue(pid).unwrap();
            for i in 0..kq_events {
                w.sls
                    .kernel
                    .kevent_register(
                        pid,
                        kq,
                        Kevent { ident: i, filter: Filter::Read, enabled: true, udata: i },
                    )
                    .unwrap();
            }
        }),
        measure("Pipes", |w, pid| {
            w.sls.kernel.pipe(pid).unwrap();
        }),
        measure("Pseudoterminals", |w, pid| {
            w.sls.kernel.openpty(pid).unwrap();
        }),
        measure("Shm (POSIX)", |w, pid| {
            let fd = w.sls.kernel.shm_open(pid, "/seg", 4).unwrap();
            let addr = w.sls.kernel.mmap_shm(pid, fd).unwrap();
            w.sls.kernel.mem_write(pid, addr, b"x").unwrap();
        }),
        measure("Shm (SysV)", |w, pid| {
            // The global namespace the serializer must scan.
            for key in 0..sysv_segments {
                w.sls.kernel.shmget(1000 + key as i64, 1).unwrap();
            }
            let id = w.sls.kernel.shmget(42, 4).unwrap();
            let addr = w.sls.kernel.shmat(pid, id).unwrap();
            w.sls.kernel.mem_write(pid, addr, b"x").unwrap();
        }),
        measure("Sockets", |w, pid| {
            w.sls.kernel.socketpair(pid).unwrap();
        }),
        measure("Vnodes", |w, pid| {
            let fd = w.sls.kernel.open(pid, "/file", OpenFlags::RDWR, true).unwrap();
            w.sls.kernel.write(pid, fd, b"content").unwrap();
        }),
    ];

    let paper: [(u64, u64); 7] = [
        (35_200, 2_700),
        (1_700, 2_600),
        (3_100, 30_200),
        (4_500, 3_800),
        (14_900, 2_800),
        (1_800, 3_600),
        (1_700, 2_000),
    ];

    header(
        "Table 4: POSIX object checkpoint/restore times",
        &["object", "checkpoint", "(paper)", "restore", "(paper)"],
    );
    for (i, (name, cp, rs)) in rows.iter().enumerate() {
        row(&[
            name.clone(),
            fmt_ns(*cp),
            fmt_ns(paper[i].0),
            fmt_ns(*rs),
            fmt_ns(paper[i].1),
        ]);
        report.push(name.clone(), "checkpoint_ns", *cp as f64);
        report.push(name.clone(), "restore_ns", *rs as f64);
    }
    println!(
        "\nShape checks: kqueue slowest to checkpoint (per-knote scan),\n\
         pty slowest to restore (devfs node creation), SysV ≫ POSIX shm\n\
         (global namespace scan)."
    );
    report
}
