//! Tables 1 and 7: full-checkpoint performance of Aurora vs CRIU vs
//! Redis' own RDB mechanism, on a 500 MiB Redis instance.
//!
//! Paper reference (Table 7):
//!   OS state   — Aurora 0.3 ms, CRIU 49 ms
//!   Memory     — Aurora 3.7 ms, CRIU 413 ms
//!   Total stop — Aurora 4.0 ms, CRIU 462 ms, RDB 8 ms
//!   IO write   — Aurora 97.6 ms, CRIU 350 ms, RDB 300 ms
//!
//! Aurora's stop time is two orders of magnitude smaller because system
//! shadowing moves the copy out of the stop window; the IO advantage
//! comes from writing through the COW store without serialization.

use crate::{header, ratio, row, BenchReport};
use aurora_apps::redis::Redis;
use aurora_core::world::World;
use aurora_core::{AuroraApi, SlsOptions};
use aurora_criu::{criu_dump, CriuCosts};
use aurora_posix::Kernel;
use aurora_sim::units::{fmt_ns, MIB};
use aurora_storage::testbed_array;

fn dataset() -> u64 {
    if crate::quick() {
        50 * MIB
    } else {
        500 * MIB
    }
}

struct Numbers {
    os_state: u64,
    memory: u64,
    total_stop: u64,
    io_write: u64,
}

fn aurora_numbers() -> Numbers {
    let dataset = dataset();
    let mut w = World::with_store_bytes(2 << 30);
    let mut redis = Redis::launch(&mut w.sls.kernel, dataset / 4096 + 4096).unwrap();
    redis.populate(&mut w.sls.kernel, dataset).unwrap();
    let gid = w.sls.attach(redis.pid, SlsOptions::default()).unwrap();
    // Steady state, then dirty the whole dataset and take the measured
    // checkpoint (the paper's full-checkpoint comparison).
    w.sls.sls_checkpoint(gid).unwrap();
    w.sls.sls_barrier(gid).unwrap();
    let mut i = 0u64;
    // Redirty everything.
    let value = vec![0xCD; 4096 - 64];
    while i * 4096 < dataset {
        redis.set(&mut w.sls.kernel, format!("key:{i:012}").as_bytes(), &value).unwrap();
        i += 1;
    }
    let t_before = w.clock.now();
    let stats = w.sls.sls_checkpoint(gid).unwrap();
    Numbers {
        os_state: stats.os_state_ns,
        memory: stats.shadow_ns,
        total_stop: stats.stop_time_ns,
        io_write: stats.durable_at.saturating_sub(t_before),
    }
}

fn criu_numbers() -> Numbers {
    let dataset = dataset();
    let mut k = Kernel::boot();
    let mut redis = Redis::launch(&mut k, dataset / 4096 + 4096).unwrap();
    redis.populate(&mut k, dataset).unwrap();
    let (stats, _image) = criu_dump(&mut k, redis.pid, &CriuCosts::default()).unwrap();
    Numbers {
        os_state: stats.os_state_ns,
        memory: stats.memory_copy_ns,
        total_stop: stats.total_stop_ns,
        io_write: stats.io_write_ns,
    }
}

fn rdb_numbers() -> Numbers {
    let dataset = dataset();
    let mut k = Kernel::boot();
    let dev = testbed_array(k.charge.clock(), 2 << 30);
    let mut redis = Redis::launch(&mut k, dataset / 4096 + 4096).unwrap();
    redis.populate(&mut k, dataset).unwrap();
    let stats = redis.bgsave(&mut k, &dev).unwrap();
    Numbers {
        os_state: 0,
        memory: 0,
        total_stop: stats.fork_stop_ns,
        io_write: stats.save_ns,
    }
}

pub(crate) fn run() -> BenchReport {
    let mut report = BenchReport::new("table7_aurora_vs_criu");
    println!("Populating three {} MiB Redis instances (takes a moment)…", dataset() / MIB);
    let aurora = aurora_numbers();
    let criu = criu_numbers();
    let rdb = rdb_numbers();

    header(
        "Table 7: Aurora vs CRIU vs RDB, 500 MiB Redis",
        &["type", "Aurora", "(paper)", "CRIU", "(paper)", "RDB", "(paper)"],
    );
    row(&[
        "OS state".into(),
        fmt_ns(aurora.os_state),
        fmt_ns(300_000),
        fmt_ns(criu.os_state),
        fmt_ns(49_000_000),
        "N/A".into(),
        "N/A".into(),
    ]);
    row(&[
        "Memory".into(),
        fmt_ns(aurora.memory),
        fmt_ns(3_700_000),
        fmt_ns(criu.memory),
        fmt_ns(413_000_000),
        "N/A".into(),
        "N/A".into(),
    ]);
    row(&[
        "Total stop".into(),
        fmt_ns(aurora.total_stop),
        fmt_ns(4_000_000),
        fmt_ns(criu.total_stop),
        fmt_ns(462_000_000),
        fmt_ns(rdb.total_stop),
        fmt_ns(8_000_000),
    ]);
    row(&[
        "IO write".into(),
        fmt_ns(aurora.io_write),
        fmt_ns(97_600_000),
        fmt_ns(criu.io_write),
        fmt_ns(350_000_000),
        fmt_ns(rdb.io_write),
        fmt_ns(300_000_000),
    ]);

    println!(
        "\nShape checks: stop-time advantage Aurora vs CRIU = {} (paper ~115×);\n\
         IO advantage Aurora vs CRIU = {} (paper ~3.6×); RDB stop ≪ CRIU stop\n\
         but ≫ Aurora stop; RDB write ≈ CRIU write (serialization bound).",
        ratio(criu.total_stop as f64, aurora.total_stop as f64),
        ratio(criu.io_write as f64, aurora.io_write as f64),
    );

    for (system, n) in [("aurora", &aurora), ("criu", &criu), ("rdb", &rdb)] {
        report.push(system, "os_state_ns", n.os_state as f64);
        report.push(system, "memory_ns", n.memory as f64);
        report.push(system, "total_stop_ns", n.total_stop as f64);
        report.push(system, "io_write_ns", n.io_write as f64);
    }
    report
}
