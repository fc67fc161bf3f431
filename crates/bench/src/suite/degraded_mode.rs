//! Degraded-mode storage: memcached/mutilate traffic over the two-way
//! mirrored testbed in three array states — healthy, one mirror dead,
//! and rebuilding (resilver interleaved with live traffic) — reporting
//! checkpoint latency percentiles and aggregate throughput per state,
//! plus a fault-storm soak (transient EIO burst, latency inflation, and
//! a full mirror death mid-checkpoint) with the online invariant
//! checker armed and a byte-identity check after recovery.

use crate::{header, quick, ratio, row, BenchReport};
use aurora_apps::memcached::Memcached;
use aurora_core::world::World;
use aurora_core::{AuroraApi, SlsOptions};
use aurora_sim::units::{fmt_ns, MS, SEC};
use aurora_vm::CollapseMode;
use aurora_workloads::mutilate::{McOp, Mutilate, MutilateConfig};
use aurora_storage::faulty::FaultPlan;
use aurora_storage::HealthState;
use aurora_trace::{Histogram, InvariantChecker};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One-way client↔server latency (matches `memcached_sim`).
const NET_ONE_WAY_NS: u64 = 40_000;
const LEAF_BYTES: u64 = 1 << 30;
const PERIOD_NS: u64 = 10 * MS;

#[derive(Clone, Copy, PartialEq)]
enum Scenario {
    Healthy,
    Degraded,
    Rebuilding,
}

struct Outcome {
    throughput: f64,
    ckpt: Histogram,
    checkpoints: u64,
}

/// Closed-loop memcached traffic with periodic checkpoints; per-scenario
/// array state is arranged before the measured window.
fn run_scenario(s: Scenario, duration_ns: u64, preload: usize, seed: u64) -> Outcome {
    let (mut w, mirror) = World::with_mirrored_store(LEAF_BYTES);
    let mut mc = Memcached::launch(&mut w.sls.kernel, 16 * 1024, 12).unwrap();
    let mut gen = Mutilate::new(MutilateConfig { seed, ..MutilateConfig::default() });
    for _ in 0..preload {
        if let McOp::Set { key, value_len } = gen.next_op() {
            mc.set(&mut w.sls.kernel, &key, &vec![0u8; value_len]).unwrap();
        }
    }
    let gid = w
        .sls
        .attach(
            mc.pid,
            SlsOptions {
                period_ns: PERIOD_NS,
                external_synchrony: false, // §8: matches the eval harness
                collapse_mode: CollapseMode::Reversed,
            },
        )
        .unwrap();
    w.sls.sls_checkpoint(gid).unwrap();
    w.sls.sls_barrier(gid).unwrap();

    match s {
        Scenario::Healthy => {}
        Scenario::Degraded => {
            // One mirror dead for the whole measured window.
            mirror.fail_mirror(0);
        }
        Scenario::Rebuilding => {
            // Die, miss an epoch of writes, come back stale: the window
            // measures traffic with the resilver running alongside.
            mirror.fail_mirror(0);
            for _ in 0..200 {
                if let McOp::Set { key, value_len } = gen.next_op() {
                    mc.set(&mut w.sls.kernel, &key, &vec![0u8; value_len]).unwrap();
                }
            }
            w.sls.sls_checkpoint(gid).unwrap();
            mirror.revive_mirror(0);
        }
    }

    let t0 = w.clock.now();
    let deadline = t0 + duration_ns;
    let mut next_ckpt = t0 + PERIOD_NS;
    let mut ckpt = Histogram::default();
    let mut checkpoints = 0u64;
    let mut completed = 0u64;
    let mut queue: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    for c in 0..MutilateConfig::default().connections() {
        queue.push(Reverse((t0, c)));
    }
    while let Some(Reverse((send_time, conn))) = queue.pop() {
        if send_time >= deadline {
            break;
        }
        if w.clock.now() >= next_ckpt {
            let before = w.clock.now();
            let cp = w.sls.sls_checkpoint(gid).unwrap();
            assert!(cp.committed(), "scenario checkpoint failed: {:?}", cp.failure);
            ckpt.record(w.clock.now() - before);
            checkpoints += 1;
            let now = w.clock.now();
            next_ckpt = next_ckpt.max(now - now % PERIOD_NS) + PERIOD_NS;
            if s == Scenario::Rebuilding && mirror.rebuild_pending(0) > 0 {
                // The background resilver shares the array with traffic.
                mirror.rebuild_step(0, 64).unwrap();
            }
        }
        w.clock.advance_to(send_time + NET_ONE_WAY_NS);
        match gen.next_op() {
            McOp::Get { key } => {
                mc.get(&mut w.sls.kernel, &key).unwrap();
            }
            McOp::Set { key, value_len } => {
                mc.set(&mut w.sls.kernel, &key, &vec![0u8; value_len]).unwrap();
            }
        }
        completed += 1;
        queue.push(Reverse((w.clock.now() + 2 * NET_ONE_WAY_NS, conn)));
    }
    let elapsed = (w.clock.now().max(t0 + 1) - t0) as f64 / SEC as f64;
    Outcome { throughput: completed as f64 / elapsed, ckpt, checkpoints }
}

struct SoakOutcome {
    checked: u64,
    violations: u64,
    mirrors_identical: bool,
    rebuilt_healthy: bool,
    throughput: f64,
    checkpoints: u64,
    aborted: u64,
}

/// The fault-storm soak: three storms land mid-run — a transient EIO
/// burst on mirror 1, a latency storm on mirror 1, and a full death of
/// mirror 0 armed to fire partway through a checkpoint's flush — while
/// mutilate traffic keeps arriving and the online invariant checker
/// watches every event. Afterwards the dead mirror is revived,
/// resilvered, and scrubbed back to byte identity.
fn run_storm_soak(duration_ns: u64, preload: usize, seed: u64) -> SoakOutcome {
    let (mut w, mirror) = World::with_mirrored_store(LEAF_BYTES);
    let (f0, f1) = (mirror.faults(0), mirror.faults(1));
    let trace = w.enable_tracing();
    let checker = InvariantChecker::arm(&trace);
    let mut mc = Memcached::launch(&mut w.sls.kernel, 16 * 1024, 12).unwrap();
    let mut gen = Mutilate::new(MutilateConfig { seed, ..MutilateConfig::default() });
    for _ in 0..preload {
        if let McOp::Set { key, value_len } = gen.next_op() {
            mc.set(&mut w.sls.kernel, &key, &vec![0u8; value_len]).unwrap();
        }
    }
    let gid = w.sls.attach(mc.pid, SlsOptions { period_ns: PERIOD_NS, ..Default::default() }).unwrap();
    w.sls.sls_checkpoint(gid).unwrap();
    w.sls.sls_barrier(gid).unwrap();

    let t0 = w.clock.now();
    let deadline = t0 + duration_ns;
    let storms = [t0 + duration_ns / 10, t0 + (4 * duration_ns) / 10, t0 + (6 * duration_ns) / 10];
    let mut storm_idx = 0usize;
    let mut next_ckpt = t0 + PERIOD_NS;
    let mut checkpoints = 0u64;
    let mut aborted = 0u64;
    let mut completed = 0u64;
    let mut queue: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    for c in 0..MutilateConfig::default().connections() {
        queue.push(Reverse((t0, c)));
    }
    while let Some(Reverse((send_time, conn))) = queue.pop() {
        if send_time >= deadline {
            break;
        }
        if storm_idx < storms.len() && w.clock.now() >= storms[storm_idx] {
            match storm_idx {
                // Correlated transient EIO burst on mirror 1.
                0 => f1.set_plan(FaultPlan::eio_storm(f1.writes_seen(), 24)),
                // Latency inflation on mirror 1 (slow-drive brownout).
                1 => f1.set_plan(FaultPlan::latency_storm(f1.writes_seen(), 64, 2 * MS)),
                // Mirror 0 dies two writes into the next checkpoint.
                _ => f0.set_plan(FaultPlan {
                    die_at_write: Some(f0.writes_seen() + 2),
                    ..FaultPlan::none()
                }),
            }
            storm_idx += 1;
        }
        if w.clock.now() >= next_ckpt {
            let cp = w.sls.sls_checkpoint(gid).unwrap();
            if !cp.committed() {
                // A clean abort: live world rolled back, retried on the
                // next boundary. The mirror makes this rare.
                aborted += 1;
            }
            checkpoints += 1;
            let now = w.clock.now();
            next_ckpt = next_ckpt.max(now - now % PERIOD_NS) + PERIOD_NS;
            // Operational hygiene between storms: drain any storm-era
            // stale blocks while both members are still present.
            for m in 0..mirror.members() {
                if mirror.health_report().member_states[m] != HealthState::Failed
                    && mirror.rebuild_pending(m) > 0
                {
                    // Best-effort: a resilver copy landing inside the
                    // storm can itself hit the injected faults.
                    let _ = mirror.rebuild_step(m, 64);
                }
            }
        }
        w.clock.advance_to(send_time + NET_ONE_WAY_NS);
        match gen.next_op() {
            McOp::Get { key } => {
                mc.get(&mut w.sls.kernel, &key).unwrap();
            }
            McOp::Set { key, value_len } => {
                mc.set(&mut w.sls.kernel, &key, &vec![0u8; value_len]).unwrap();
            }
        }
        completed += 1;
        queue.push(Reverse((w.clock.now() + 2 * NET_ONE_WAY_NS, conn)));
    }
    let elapsed = (w.clock.now().max(t0 + 1) - t0) as f64 / SEC as f64;

    // Recovery: end the brownout on mirror 1, replace the dead mirror,
    // resilver, verify.
    f1.clear_faults();
    mirror.revive_mirror(0);
    while mirror.rebuild_pending(0) > 0 {
        mirror.rebuild_step(0, 256).unwrap();
    }
    mirror.flush_members();
    mirror.scrub().unwrap();
    mirror.flush_members();
    let report = mirror.health_report();
    SoakOutcome {
        checked: checker.checked(),
        violations: checker.violations().len() as u64,
        mirrors_identical: mirror.mirrors_identical().unwrap(),
        rebuilt_healthy: report.member_states.iter().all(|s| *s == HealthState::Healthy),
        throughput: completed as f64 / elapsed,
        checkpoints,
        aborted,
    }
}

pub(crate) fn run() -> BenchReport {
    let mut report = BenchReport::new("degraded_mode");
    let (duration, preload) = if quick() { (200 * MS, 2_000) } else { (SEC, 10_000) };

    header(
        "Degraded-mode: memcached over a two-way mirror",
        &["array state", "ops/s", "ckpts", "ckpt p50", "ckpt p95", "ckpt p99"],
    );
    let scenarios = [
        ("healthy", Scenario::Healthy),
        ("degraded", Scenario::Degraded),
        ("rebuilding", Scenario::Rebuilding),
    ];
    let mut healthy_tput = 0.0;
    let mut degraded_tput = 0.0;
    for (name, s) in scenarios {
        let o = run_scenario(s, duration, preload, 42);
        match s {
            Scenario::Healthy => healthy_tput = o.throughput,
            Scenario::Degraded => degraded_tput = o.throughput,
            Scenario::Rebuilding => {}
        }
        row(&[
            name.to_string(),
            format!("{:.0}", o.throughput),
            o.checkpoints.to_string(),
            fmt_ns(o.ckpt.percentile(50.0)),
            fmt_ns(o.ckpt.percentile(95.0)),
            fmt_ns(o.ckpt.percentile(99.0)),
        ]);
        report.push(name, "throughput_ops_per_sec", o.throughput);
        report.push(name, "checkpoints", o.checkpoints as f64);
        report.push(name, "ckpt_p95_ns", o.ckpt.percentile(95.0) as f64);
        report.merge_histogram(&format!("ckpt.{name}"), &o.ckpt);
    }
    println!(
        "\nShape checks: a dead mirror costs little steady-state throughput\n\
         (writes skip it); the rebuild window pays extra for resilver I/O\n\
         sharing the array with traffic. Healthy vs degraded: {}.",
        ratio(healthy_tput, degraded_tput.max(1.0)),
    );

    header(
        "Fault-storm soak (EIO burst, latency storm, mirror death)",
        &["metric", "value"],
    );
    let soak = run_storm_soak(duration, preload, 7);
    row(&["ops/s".into(), format!("{:.0}", soak.throughput)]);
    row(&["checkpoints".into(), soak.checkpoints.to_string()]);
    row(&["clean aborts".into(), soak.aborted.to_string()]);
    row(&["invariants checked".into(), soak.checked.to_string()]);
    row(&["invariant violations".into(), soak.violations.to_string()]);
    row(&["mirrors identical".into(), (soak.mirrors_identical as u64).to_string()]);
    row(&["rebuilt healthy".into(), (soak.rebuilt_healthy as u64).to_string()]);
    assert!(soak.checked > 0, "invariant checker must observe events");
    assert_eq!(soak.violations, 0, "online invariants must hold through the storm");
    assert!(soak.mirrors_identical, "recovery must restore byte identity");
    assert!(soak.rebuilt_healthy, "recovery must restore Healthy on every member");
    report.push("storm", "throughput_ops_per_sec", soak.throughput);
    report.push("storm", "checkpoints", soak.checkpoints as f64);
    report.push("storm", "clean_aborts", soak.aborted as f64);
    report.push("storm", "invariant_checked", soak.checked as f64);
    report.push("storm", "invariant_violations", soak.violations as f64);
    report.push("storm", "mirrors_identical", soak.mirrors_identical as u64 as f64);
    report.push("storm", "rebuilt_healthy", soak.rebuilt_healthy as u64 as f64);
    report
}
