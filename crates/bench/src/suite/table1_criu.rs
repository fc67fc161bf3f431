//! Table 1: a breakdown of CRIU's checkpointing overheads for a 500 MB
//! Redis process (the paper's motivating measurement, §2).
//!
//! Paper reference: OS state copy 49 ms, memory copy 413 ms, total stop
//! time 462 ms, IO write 350 ms.

use crate::{header, row, BenchReport};
use aurora_apps::redis::Redis;
use aurora_criu::{criu_dump, CriuCosts};
use aurora_posix::Kernel;
use aurora_sim::units::{fmt_ns, MIB};

pub(crate) fn run() -> BenchReport {
    let dataset: u64 = if crate::quick() { 50 * MIB } else { 500 * MIB };
    let mut report = BenchReport::new("table1_criu");
    println!("Populating a {} MiB Redis instance…", dataset / MIB);
    let mut k = Kernel::boot();
    let mut redis = Redis::launch(&mut k, dataset / 4096 + 4096).unwrap();
    redis.populate(&mut k, dataset).unwrap();

    let (stats, image) = criu_dump(&mut k, redis.pid, &CriuCosts::default()).unwrap();

    header("Table 1: CRIU checkpoint breakdown (500 MB Redis)", &["type", "CRIU", "(paper)"]);
    row(&["OS state copy".into(), fmt_ns(stats.os_state_ns), fmt_ns(49_000_000)]);
    row(&["Memory copy".into(), fmt_ns(stats.memory_copy_ns), fmt_ns(413_000_000)]);
    row(&["Total stop time".into(), fmt_ns(stats.total_stop_ns), fmt_ns(462_000_000)]);
    row(&["IO write".into(), fmt_ns(stats.io_write_ns), fmt_ns(350_000_000)]);
    println!(
        "\nImage: {} MiB across {} process(es); {} objects required sharing inference.",
        image.bytes / MIB,
        stats.procs,
        stats.inferred_objects
    );
    println!(
        "Shape checks: memory copy ≫ OS state; the application is stopped for\n\
         the entire copy; the write happens after, unsynchronized."
    );

    report.push("criu", "dataset_bytes", dataset as f64);
    report.push("criu", "os_state_ns", stats.os_state_ns as f64);
    report.push("criu", "memory_copy_ns", stats.memory_copy_ns as f64);
    report.push("criu", "total_stop_ns", stats.total_stop_ns as f64);
    report.push("criu", "io_write_ns", stats.io_write_ns as f64);
    report.push("criu", "image_bytes", image.bytes as f64);
    report.push("criu", "procs", stats.procs as f64);
    report.push("criu", "inferred_objects", stats.inferred_objects as f64);
    report
}
