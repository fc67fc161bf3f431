//! Table 5: checkpoint stop times for userspace data objects by dirty
//! size, for the three Aurora modes — incremental (full-app) checkpoints,
//! atomic region checkpoints (`sls_memckpt`), and synchronous journaling
//! (`sls_journal`).
//!
//! Paper reference (stop time): 4 KiB → 185 µs / 80 µs / 28 µs;
//! 64 MiB → 600 µs / 492 µs / 25.9 ms; 1 GiB → 6.1 ms / 6.3 ms / 417 ms.

use crate::{header, row, BenchReport, FrameBlock};
use aurora_core::world::World;
use aurora_core::{AuroraApi, SlsOptions};
use aurora_sim::units::{fmt_bytes, fmt_ns, GIB, KIB, MIB};
use aurora_vm::PAGE_SIZE;

fn incremental_stop(size: u64) -> (u64, FrameBlock, aurora_trace::Trace, aurora_trace::Sampler) {
    let mut w = World::with_store_bytes(3 << 30);
    // Arm the observability layer: per-stage latency histograms via the
    // trace, gauge rows via the sampler. Recording never advances the
    // virtual clock, so the measured stop times are unchanged.
    let trace = w.enable_tracing();
    let sampler = w.enable_sampling(1_000);
    let pid = w.sls.kernel.spawn("table5");
    let pages = (size / PAGE_SIZE as u64).max(1);
    let addr = w.dirty_region(pid, pages).unwrap();
    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
    // Reach steady state: full checkpoint, then a quiet incremental.
    w.sls.sls_checkpoint(gid).unwrap();
    w.sls.sls_barrier(gid).unwrap();
    w.sls.sls_checkpoint(gid).unwrap();
    w.sls.sls_barrier(gid).unwrap();
    // Dirty exactly `size` bytes, then measure the incremental stop.
    w.sls.kernel.mem_touch(pid, addr, pages * PAGE_SIZE as u64).unwrap();
    let stats = w.sls.sls_checkpoint(gid).unwrap();
    let g = w.sls.frame_gauges();
    let frames = FrameBlock {
        resident: g.resident,
        shared: g.shared,
        copies_broken: g.copies_broken,
        shared_at_checkpoint: stats.shared_frames,
    };
    (stats.stop_time_ns, frames, trace, sampler)
}

fn atomic_stop(size: u64) -> u64 {
    let mut w = World::with_store_bytes(3 << 30);
    let pid = w.sls.kernel.spawn("table5");
    let pages = (size / PAGE_SIZE as u64).max(1);
    let addr = w.dirty_region(pid, pages).unwrap();
    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
    w.sls.sls_checkpoint(gid).unwrap();
    w.sls.sls_barrier(gid).unwrap();
    w.sls.kernel.mem_touch(pid, addr, pages * PAGE_SIZE as u64).unwrap();
    let stats = w.sls.sls_memckpt(gid, pid, addr).unwrap();
    stats.stop_time_ns
}

fn journaled_time(size: u64) -> u64 {
    let mut w = World::with_store_bytes(3 << 30);
    let blocks = (size / PAGE_SIZE as u64 + 16).max(32);
    let j = w.sls.sls_journal_create(blocks).unwrap();
    let data = vec![0x5Au8; size as usize];
    let t0 = w.clock.now();
    w.sls.sls_journal(j, &data).unwrap();
    w.clock.now() - t0
}

pub(crate) fn run() -> BenchReport {
    let mut report = BenchReport::new("table5_memory_objects");
    let all_sizes = [
        4 * KIB,
        16 * KIB,
        64 * KIB,
        256 * KIB,
        MIB,
        4 * MIB,
        16 * MIB,
        64 * MIB,
        256 * MIB,
        GIB,
    ];
    // Paper's Table 5 for reference, ns.
    let paper: [(u64, u64, u64); 10] = [
        (185_000, 80_000, 28_000),
        (185_000, 83_000, 32_000),
        (183_000, 74_000, 55_000),
        (186_000, 81_000, 121_000),
        (186_000, 72_000, 443_000),
        (226_000, 114_000, 1_800_000),
        (304_000, 184_000, 6_600_000),
        (600_000, 492_000, 25_900_000),
        (1_900_000, 1_600_000, 104_700_000),
        (6_100_000, 6_300_000, 417_200_000),
    ];
    // Quick mode stops at 4 MiB — the large sizes dominate wall time.
    let sizes = if crate::quick() { &all_sizes[..6] } else { &all_sizes[..] };

    header(
        "Table 5: checkpoint times for userspace data objects",
        &["size", "incremental", "(paper)", "atomic", "(paper)", "journaled", "(paper)"],
    );
    for (i, &size) in sizes.iter().enumerate() {
        let (inc, frames, trace, sampler) = incremental_stop(size);
        // The arena gauges of the largest incremental run go out with the
        // report: how much frame sharing the checkpoint achieved.
        report.set_frames(frames);
        // Stage latencies accumulate across every size into one summary
        // per stage; the time series of the largest run goes out whole.
        for (name, h) in trace.histograms() {
            report.merge_histogram(&name, &h);
        }
        report.set_timeseries(sampler.series_json());
        let atomic = atomic_stop(size);
        let journal = journaled_time(size);
        row(&[
            fmt_bytes(size),
            fmt_ns(inc),
            fmt_ns(paper[i].0),
            fmt_ns(atomic),
            fmt_ns(paper[i].1),
            fmt_ns(journal),
            fmt_ns(paper[i].2),
        ]);
        let group = fmt_bytes(size);
        report.push(group.clone(), "incremental_stop_ns", inc as f64);
        report.push(group.clone(), "atomic_stop_ns", atomic as f64);
        report.push(group, "journaled_ns", journal as f64);
    }
    println!(
        "\nShape checks: incremental flat until ~1 MiB then linear in pages;\n\
         atomic ≈ incremental − fixed barrier; journaled linear in bytes and\n\
         fastest below ~64 KiB."
    );
    report
}
