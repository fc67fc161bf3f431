//! Figure 6: RocksDB configurations under the Facebook Prefix_dist
//! workload — throughput and write-latency percentiles for:
//!
//! * "No Sync": ephemeral RocksDB vs unmodified RocksDB under Aurora's
//!   transparent 100 Hz checkpoints.
//! * "Sync": RocksDB with its own WAL vs the Aurora-API custom build
//!   (`sls_journal` WAL + checkpoint-on-full, §9.6).
//!
//! Paper shape: transparent mode loses ~83% of ephemeral throughput and
//! has a heavy tail (stop times); the custom WAL beats RocksDB's WAL by
//! ~75% in throughput and wins p99, but loses p99.9 (writes that trigger
//! the journal-full checkpoint wait for it).

use crate::{header, ratio, row, BenchReport};
use aurora_apps::rocksdb::{Persistence, RocksDb};
use aurora_core::world::World;
use aurora_core::{AuroraApi, SlsOptions};
use aurora_sim::units::{fmt_ns, fmt_ops, MS, SEC};
use aurora_trace::Histogram;
use aurora_vm::CollapseMode;
use aurora_workloads::prefixdist::{KvOp, PrefixDist, PrefixDistConfig};

fn ops() -> u64 {
    if crate::quick() {
        20_000
    } else {
        200_000
    }
}

struct Outcome {
    label: &'static str,
    sync: bool,
    throughput: f64,
    p99_write: u64,
    p999_write: u64,
}

fn run_config(label: &'static str, mode: Persistence, sync_class: bool) -> Outcome {
    let mut w = World::with_store_bytes(2 << 30);
    // Transparent mode needs an attached group ticking at 10 ms; the
    // custom build needs a group for its journal-full checkpoints.
    let gid = match mode {
        Persistence::AuroraTransparent | Persistence::AuroraWal { .. } => None,
        _ => None,
    };
    let mut db = RocksDb::open(&mut w.sls, 128 * 1024, mode, gid).unwrap();
    if matches!(mode, Persistence::AuroraWal { .. }) {
        // The custom build cycles its small journal via checkpoints
        // (§9.6); frequent enough that the p99.9 captures the stall.
        db.wal_limit = 256 << 10;
    }
    let gid = match mode {
        Persistence::AuroraTransparent | Persistence::AuroraWal { .. } => {
            let g = w
                .sls
                .attach(
                    db.pid,
                    SlsOptions {
                        period_ns: 10 * MS,
                        external_synchrony: false,
                        collapse_mode: CollapseMode::Reversed,
                    },
                )
                .unwrap();
            db.set_group(g);
            w.sls.sls_checkpoint(g).unwrap();
            w.sls.sls_barrier(g).unwrap();
            Some(g)
        }
        _ => None,
    };

    let mut gen = PrefixDist::new(PrefixDistConfig::default());
    // Preload.
    let preload = if crate::quick() { 2_000 } else { 20_000 };
    for _ in 0..preload {
        if let KvOp::Put { key, value_len } = gen.next_op() {
            db.put(&mut w.sls, &key, &vec![0u8; value_len]).unwrap();
        }
    }

    let t0 = w.clock.now();
    let transparent = matches!(mode, Persistence::AuroraTransparent);
    let mut next_ckpt = t0 + 10 * MS;
    let mut writes = Histogram::default();
    let mut done_ops = 0u64;
    for _ in 0..ops() {
        let arrival = w.clock.now();
        // A due checkpoint stalls the op that encounters it — the stall
        // is part of that request's latency (the paper's tail effect).
        if transparent {
            if let Some(g) = gid {
                if w.clock.now() >= next_ckpt {
                    w.sls.sls_checkpoint(g).unwrap();
                    let now = w.clock.now();
                    next_ckpt = now - now % (10 * MS) + 10 * MS;
                }
            }
        }
        match gen.next_op() {
            KvOp::Get { key } => {
                db.get(&mut w.sls, &key).unwrap();
            }
            KvOp::Put { key, value_len } => {
                db.put(&mut w.sls, &key, &vec![0u8; value_len]).unwrap();
                writes.record(w.clock.now() - arrival);
            }
            KvOp::Seek { key, entries } => {
                db.seek(&mut w.sls, &key, entries).unwrap();
            }
        }
        done_ops += 1;
    }
    let elapsed = (w.clock.now() - t0) as f64 / SEC as f64;
    Outcome {
        label,
        sync: sync_class,
        throughput: done_ops as f64 / elapsed,
        p99_write: writes.percentile(99.0),
        p999_write: writes.percentile(99.9),
    }
}

pub(crate) fn run() -> BenchReport {
    let mut report = BenchReport::new("fig6_rocksdb");
    let outcomes = vec![
        run_config("RocksDB (ephemeral)", Persistence::Ephemeral, false),
        run_config("Aurora-100Hz", Persistence::AuroraTransparent, false),
        run_config("RocksDB+WAL", Persistence::Wal { sync: true }, true),
        run_config("Aurora+WAL (custom)", Persistence::AuroraWal { sync: true }, true),
    ];

    header(
        "Figure 6: RocksDB under Prefix_dist",
        &["config", "class", "throughput", "p99 write", "p99.9 write"],
    );
    for o in &outcomes {
        row(&[
            o.label.to_string(),
            if o.sync { "Sync".into() } else { "No Sync".into() },
            fmt_ops(o.throughput),
            fmt_ns(o.p99_write),
            fmt_ns(o.p999_write),
        ]);
        report.push(o.label, "throughput_ops_s", o.throughput);
        report.push(o.label, "p99_write_ns", o.p99_write as f64);
        report.push(o.label, "p999_write_ns", o.p999_write as f64);
    }

    let ephemeral = outcomes[0].throughput;
    let transparent = outcomes[1].throughput;
    let wal = outcomes[2].throughput;
    let custom = outcomes[3].throughput;
    println!(
        "\nShape checks (paper values in parentheses):\n\
         transparent/ephemeral = {:.0}% kept (paper ~17%)\n\
         custom vs RocksDB WAL = {} (paper ~1.75×)\n\
         custom p99 < WAL p99: {} — custom p99.9 > WAL p99.9: {}",
        transparent / ephemeral * 100.0,
        ratio(custom, wal),
        outcomes[3].p99_write < outcomes[2].p99_write,
        outcomes[3].p999_write > outcomes[2].p999_write,
    );
    println!(
        "\n§9.6 code-size claim: the aurora_glue module (this repo's analogue\n\
         of the 109-line patch) replaces the WAL+SST persistence code —\n\
         see `wc -l` on crates/apps/src/rocksdb.rs's aurora_glue vs the\n\
         Wal/flush_sst paths."
    );
    report
}
