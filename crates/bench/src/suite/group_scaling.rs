//! Group scaling: aggregate checkpoint throughput of the sharded
//! checkpoint engine as the number of consistency groups grows.
//!
//! One serial pipeline caps system-wide checkpoint throughput at
//! `1 / (stop + durability wait)` no matter how many applications the
//! SLS hosts. The sharded engine keys epochs by group and staggers the
//! per-group pipelines round-robin, so group B quiesces and serializes
//! while group A's flush sits in the device queue — the durability wait
//! is hidden behind other groups' stop work. On latency-bound storage
//! (TLC NAND, where the flash program time dominates small checkpoint
//! commits) that turns the wait into throughput: aggregate checkpoints/s
//! scales near-linearly from 1 to 8 groups.
//!
//! No paper reference: the paper's testbed checkpoints one group. This
//! table is the proof artifact for the sharded engine itself.

use crate::{header, row, BenchReport};
use aurora_core::world::World;
use aurora_core::{GroupId, SlsOptions};
use aurora_posix::Pid;
use aurora_sim::units::MS;

/// Checkpoint rounds measured per configuration.
fn rounds() -> u64 {
    if crate::quick() {
        8
    } else {
        40
    }
}

/// Dirty pages per group per round — kept small so commits are
/// latency-bound (the regime the scheduler helps in).
const PAGES_PER_GROUP: u64 = 16;

struct Fleet {
    w: World,
    groups: Vec<(GroupId, Pid, u64)>,
}

/// Boots one world with `n` single-process consistency groups, each
/// owning a private dirty region, warmed through its full checkpoint.
fn fleet(n: u64) -> Fleet {
    let mut w = World::with_nand_store_bytes(2 << 30);
    let mut groups = Vec::new();
    for i in 0..n {
        let pid = w.sls.kernel.spawn(&format!("shard{i}"));
        let addr = w.dirty_region(pid, PAGES_PER_GROUP).unwrap();
        let gid = w
            .sls
            .attach(
                pid,
                SlsOptions { period_ns: MS, external_synchrony: false, ..SlsOptions::default() },
            )
            .unwrap();
        groups.push((gid, pid, addr));
    }
    // Warm up: the full checkpoints, then wait out every group's
    // durability so the measured rounds start from a clean horizon.
    let gids: Vec<GroupId> = groups.iter().map(|&(g, _, _)| g).collect();
    let warm = w.sls.checkpoint_all(&gids).unwrap();
    let horizon = warm.iter().map(|s| s.durable_at).max().unwrap_or(0);
    w.clock.advance_to(horizon);
    Fleet { w, groups }
}

/// Runs the measured rounds; returns aggregate checkpoints per second.
fn aggregate_throughput(n: u64) -> f64 {
    let Fleet { mut w, groups } = fleet(n);
    let gids: Vec<GroupId> = groups.iter().map(|&(g, _, _)| g).collect();
    let t0 = w.clock.now();
    let mut last_horizon = 0u64;
    for _ in 0..rounds() {
        for &(_, pid, addr) in &groups {
            w.sls
                .kernel
                .mem_touch(pid, addr, PAGES_PER_GROUP * aurora_vm::PAGE_SIZE as u64)
                .unwrap();
        }
        let stats = w.sls.checkpoint_all(&gids).unwrap();
        for s in &stats {
            assert!(s.committed(), "group {} checkpoint failed", s.group);
        }
        last_horizon = stats.iter().map(|s| s.durable_at).max().unwrap_or(0);
    }
    // The last round's flushes must land before the clock stops.
    w.clock.advance_to(last_horizon);
    let elapsed_ns = (w.clock.now() - t0) as f64;
    (n * rounds()) as f64 * 1e9 / elapsed_ns
}

pub(crate) fn run() -> BenchReport {
    let mut report = BenchReport::new("group_scaling");
    header(
        "Group scaling: aggregate checkpoint throughput (TLC-NAND testbed)",
        &["groups", "ckpt/s (aggregate)", "per group", "speedup vs 1"],
    );
    let mut base = 0.0f64;
    for &n in &[1u64, 2, 4, 8] {
        let agg = aggregate_throughput(n);
        if n == 1 {
            base = agg;
        }
        let speedup = agg / base;
        row(&[
            n.to_string(),
            format!("{agg:.0}"),
            format!("{:.0}", agg / n as f64),
            format!("{speedup:.2}x"),
        ]);
        let group = format!("{n}_groups");
        report.push(group.clone(), "aggregate_ckpt_per_s", agg);
        report.push(group.clone(), "per_group_ckpt_per_s", agg / n as f64);
        report.push(group, "speedup_vs_1", speedup);
    }
    println!(
        "\nShape checks: per-group throughput roughly flat (each group's\n\
         durability wait hides behind the others' stop windows); 8-group\n\
         aggregate >= 4x the single-group baseline."
    );
    report
}

#[cfg(test)]
mod tests {
    #[test]
    fn eight_groups_scale_at_least_4x() {
        let base = super::aggregate_throughput(1);
        let eight = super::aggregate_throughput(8);
        assert!(
            eight >= 4.0 * base,
            "aggregate throughput at 8 groups ({eight:.0}/s) must be >= 4x \
             the single-group baseline ({base:.0}/s), got {:.2}x",
            eight / base
        );
    }
}

