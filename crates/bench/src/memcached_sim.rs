//! The Memcached experiment driver (Figures 4 and 5): a closed- or
//! open-loop client population over the *real* server + SLS, on the
//! shared virtual clock.
//!
//! The network contributes a fixed one-way latency; the server's 12
//! worker threads are modelled as one pipeline whose aggregate service
//! rate is [`aurora_apps::memcached::SERVICE_NS`] per op. Checkpoints run
//! for real: their stop time stalls the pipeline and their system
//! shadows make subsequent writes COW-fault — the two overheads the
//! figures measure. The paper's evaluation ran without external
//! synchrony (§8 Limitations), and so does this harness.

use aurora_apps::memcached::Memcached;
use aurora_core::world::World;
use aurora_core::{AuroraApi, SlsOptions};
use aurora_sim::units::{MS, SEC};
use aurora_trace::Histogram;
use aurora_vm::CollapseMode;
use aurora_workloads::mutilate::{McOp, Mutilate, MutilateConfig};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One-way client↔server latency (10 GbE + kernel network stack).
pub const NET_ONE_WAY_NS: u64 = 40_000;

/// Experiment configuration.
#[derive(Clone, Copy, Debug)]
pub struct McSimConfig {
    /// Checkpoint period; `None` runs the no-persistence baseline.
    pub period_ns: Option<u64>,
    /// Virtual duration of the measured run.
    pub duration_ns: u64,
    /// Open-loop offered load in ops/s; `None` = closed loop (peak).
    pub offered_ops_per_sec: Option<u64>,
    /// RNG seed.
    pub seed: u64,
}

/// Measured outcome.
#[derive(Clone, Debug)]
pub struct McSimResult {
    /// Completed operations per second.
    pub throughput: f64,
    /// Mean latency, ns.
    pub avg_ns: u64,
    /// 95th percentile latency, ns.
    pub p95_ns: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
}

/// Runs one configuration.
pub(crate) fn run(cfg: McSimConfig) -> McSimResult {
    let mut w = World::with_store_bytes(2 << 30);
    let mut mc = Memcached::launch(&mut w.sls.kernel, 64 * 1024, 12).unwrap();
    let mut gen = Mutilate::new(MutilateConfig { seed: cfg.seed, ..MutilateConfig::default() });

    // Preload the working set so GETs hit.
    for _ in 0..20_000 {
        if let McOp::Set { key, value_len } = gen.next_op() {
            mc.set(&mut w.sls.kernel, &key, &vec![0u8; value_len]).unwrap();
        } else if let McOp::Get { key } = gen.next_op() {
            mc.set(&mut w.sls.kernel, &key, b"warm").unwrap();
        }
    }

    let gid = cfg.period_ns.map(|p| {
        let gid = w
            .sls
            .attach(
                mc.pid,
                SlsOptions {
                    period_ns: p,
                    external_synchrony: false, // §8: not used in the eval
                    collapse_mode: CollapseMode::Reversed,
                },
            )
            .unwrap();
        // The attach checkpoint (full) happens before the measurement.
        w.sls.sls_checkpoint(gid).unwrap();
        w.sls.sls_barrier(gid).unwrap();
        gid
    });

    let t0 = w.clock.now();
    let deadline = t0 + cfg.duration_ns;
    let mut next_ckpt = cfg.period_ns.map(|p| t0 + p);
    let mut checkpoints = 0u64;
    let mut lat = Histogram::default();
    let mut completed = 0u64;

    // The pending-request queue: (client send time, connection id).
    let mut queue: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let conns = MutilateConfig::default().connections();
    match cfg.offered_ops_per_sec {
        None => {
            for c in 0..conns {
                queue.push(Reverse((t0, c)));
            }
        }
        Some(rate) => {
            // Pre-schedule the open-loop arrivals, round-robin over
            // connections.
            let gap = SEC / rate;
            let mut t = t0;
            let mut c = 0;
            while t < deadline {
                queue.push(Reverse((t, c % conns)));
                t += gap;
                c += 1;
            }
        }
    }

    while let Some(Reverse((send_time, conn))) = queue.pop() {
        if send_time >= deadline {
            break;
        }
        // Periodic checkpoints fire as virtual time crosses boundaries.
        if let (Some(p), Some(gid)) = (cfg.period_ns, gid) {
            let boundary = next_ckpt.expect("set with period");
            if w.clock.now() >= boundary {
                w.sls.sls_checkpoint(gid).unwrap();
                checkpoints += 1;
                let now = w.clock.now();
                next_ckpt = Some(boundary.max(now - now % p) + p);
            }
        }
        let arrival = send_time + NET_ONE_WAY_NS;
        w.clock.advance_to(arrival); // idle server waits for work
        match gen.next_op() {
            McOp::Get { key } => {
                mc.get(&mut w.sls.kernel, &key).unwrap();
            }
            McOp::Set { key, value_len } => {
                mc.set(&mut w.sls.kernel, &key, &vec![0u8; value_len]).unwrap();
            }
        }
        let done = w.clock.now();
        let latency = done + NET_ONE_WAY_NS - send_time;
        lat.record(latency);
        completed += 1;
        if cfg.offered_ops_per_sec.is_none() {
            // Closed loop: the client sends again on receipt.
            queue.push(Reverse((done + 2 * NET_ONE_WAY_NS, conn)));
        }
    }

    let elapsed = (w.clock.now().max(t0 + 1) - t0) as f64 / SEC as f64;
    McSimResult {
        throughput: completed as f64 / elapsed,
        avg_ns: lat.mean(),
        p95_ns: lat.percentile(95.0),
        checkpoints,
    }
}

/// The checkpoint periods swept by Figures 4 and 5 (ms).
pub const PERIODS_MS: [u64; 6] = [10, 20, 40, 60, 80, 100];

/// Convenience: periods as ns options plus the baseline.
pub(crate) fn sweep() -> Vec<(String, Option<u64>)> {
    let mut v = vec![("baseline".to_string(), None)];
    for p in PERIODS_MS {
        v.push((format!("{p} ms"), Some(p * MS)));
    }
    v
}
