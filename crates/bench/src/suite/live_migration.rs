//! Live migration: a running memcached moves between cluster nodes
//! while mutilate traffic keeps dirtying pages. Reports pre-copy
//! convergence (pages per round), total bytes on the wire, and the
//! stop-and-copy pause in virtual µs, across traffic intensities —
//! the classic trade-off: more traffic per round means more re-dirtied
//! pages and a longer tail to converge.

use crate::{header, quick, row, BenchReport};
use aurora_apps::memcached::Memcached;
use aurora_cluster::{Cluster, ClusterConfig, MigrationConfig};
use aurora_core::SlsOptions;
use aurora_sim::units::fmt_bytes;
use aurora_trace::Histogram;
use aurora_workloads::mutilate::{McOp, Mutilate, MutilateConfig};

struct Outcome {
    rounds: u64,
    first_round_pages: u64,
    last_precopy_pages: u64,
    total_pages: u64,
    total_bytes: u64,
    pause_us: u64,
    keys_verified: u64,
    round_hist: Histogram,
}

/// One full migration at a given per-round traffic intensity: boot a
/// 3-node cluster, warm a memcached on the leader, migrate it to node 2
/// with `ops_per_round` mutilate ops served before every pre-copy
/// round, then fail over and byte-verify every key on the target.
fn run_one(ops_per_round: usize, seed_keys: u32, warm_ops: usize, seed: u64) -> Outcome {
    let mut c = Cluster::new(ClusterConfig::default());
    let mut mc = Memcached::launch(&mut c.leader().kernel, 4096, 12).unwrap();
    let gid = c.attach_on_leader(mc.pid, SlsOptions::default()).unwrap();
    let mut gen = Mutilate::new(MutilateConfig { keyspace: 512, seed, ..MutilateConfig::default() });
    for i in 0..seed_keys {
        let key = format!("seed-{i:08}").into_bytes();
        let mut v = key.clone();
        v.resize(256, b'v');
        mc.set(&mut c.leader().kernel, &key, &v).unwrap();
    }
    for _ in 0..warm_ops {
        match gen.next_op() {
            McOp::Set { key, value_len } => {
                let mut v = key.to_vec();
                v.resize(value_len.max(8), b'v');
                mc.set(&mut c.leader().kernel, &key, &v).unwrap();
            }
            McOp::Get { key } => {
                mc.get(&mut c.leader().kernel, &key).unwrap();
            }
        }
    }

    let report = c
        .live_migrate(2, gid, MigrationConfig::default(), |sls, _round| {
            for _ in 0..ops_per_round {
                match gen.next_op() {
                    McOp::Set { key, value_len } => {
                        let mut v = key.to_vec();
                        v.resize(value_len.max(8), b'v');
                        mc.set(&mut sls.kernel, &key, &v)?;
                    }
                    McOp::Get { key } => {
                        mc.get(&mut sls.kernel, &key)?;
                    }
                }
            }
            Ok(())
        })
        .unwrap();

    // Failover and byte-verify: the bench asserts correctness so a
    // regression in the delta path can't silently pass as "fast".
    let new_pid = *report.restore.pids.first().expect("restored server process");
    let mut mc_target = mc.failover_to(new_pid);
    let keys = mc.key_list();
    for key in &keys {
        let a = mc.get(&mut c.leader().kernel, key).unwrap();
        let b = mc_target.get(&mut c.nodes[2].sls.kernel, key).unwrap();
        assert_eq!(a, b, "post-failover mismatch on {:?}", String::from_utf8_lossy(key));
    }

    let mut round_hist = Histogram::default();
    for r in &report.rounds {
        round_hist.record(r.elapsed_ns);
    }
    let last_precopy =
        if report.rounds.len() >= 2 { report.rounds[report.rounds.len() - 2].pages } else { 0 };
    Outcome {
        rounds: report.rounds.len() as u64,
        first_round_pages: report.rounds[0].pages,
        last_precopy_pages: last_precopy,
        total_pages: report.total_pages,
        total_bytes: report.total_bytes,
        pause_us: report.stop_copy_pause_us,
        keys_verified: keys.len() as u64,
        round_hist,
    }
}

pub(crate) fn run() -> BenchReport {
    let mut report = BenchReport::new("live_migration");
    let (seed_keys, warm_ops) = if quick() { (200u32, 800usize) } else { (400, 2_000) };

    header(
        "Live migration: memcached between cluster nodes under mutilate load",
        &["traffic/round", "rounds", "round0 pages", "last pre-copy", "total wire", "pause µs", "keys ok"],
    );
    let intensities: &[(&str, usize)] =
        if quick() { &[("light", 50), ("heavy", 200)] } else { &[("light", 50), ("medium", 200), ("heavy", 600)] };
    for &(name, ops) in intensities {
        let o = run_one(ops, seed_keys, warm_ops, 42);
        row(&[
            format!("{name} ({ops})"),
            o.rounds.to_string(),
            o.first_round_pages.to_string(),
            o.last_precopy_pages.to_string(),
            fmt_bytes(o.total_bytes),
            o.pause_us.to_string(),
            o.keys_verified.to_string(),
        ]);
        assert!(o.rounds >= 2, "pre-copy must take at least one converging round");
        assert!(
            o.last_precopy_pages < o.first_round_pages,
            "pre-copy must converge below the full image"
        );
        assert!(o.pause_us > 0, "the stop-and-copy pause is real virtual time");
        report.push(name, "rounds", o.rounds as f64);
        report.push(name, "first_round_pages", o.first_round_pages as f64);
        report.push(name, "last_precopy_pages", o.last_precopy_pages as f64);
        report.push(name, "total_pages", o.total_pages as f64);
        report.push(name, "total_wire_bytes", o.total_bytes as f64);
        report.push(name, "stop_copy_pause_us", o.pause_us as f64);
        report.push(name, "keys_verified", o.keys_verified as f64);
        report.merge_histogram(&format!("migration.round.{name}"), &o.round_hist);
    }
    println!(
        "\nShape checks: round 0 ships the full image; later rounds carry\n\
         only what traffic re-dirtied, so heavier traffic per round means\n\
         more residual pages at stop-and-copy. The pause stays orders of\n\
         magnitude under the full first-round copy."
    );
    report
}
