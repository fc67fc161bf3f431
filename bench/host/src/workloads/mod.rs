//! The four workloads. Each is a closed loop driven by the one
//! benchmark thread, runs a fixed number of ops from a seed, and checks
//! the program's outputs against a shadow copy the benchmark keeps.

pub mod app_image;
pub mod ckpt_sparse;
pub mod common;
pub mod memcached;
pub mod restore_chain;

use crate::harness::Harness;
use crate::machine::Machine;

/// Names of the four workloads, in reporting order.
pub const NAMES: [&str; 4] = [
    "ckpt_sparse",
    "restore_chain",
    "app_image",
    "memcached_100hz",
];

/// One benchmark workload.
pub trait Workload: Sized {
    /// Its fixed name.
    const NAME: &'static str;
    /// Timed ops per second of `--seconds` on the box the benchmark was
    /// sized on (2 cores): the op count is `OPS_PER_SECOND × seconds`,
    /// so a run *measures for about* `--seconds` there while every
    /// virtual metric and count still repeats exactly.
    const OPS_PER_SECOND: f64;
    /// Fewest timed ops a CLI run uses, whatever `--seconds` says: enough
    /// that every p95 the workload reports has ≥ 10 samples beyond it.
    const MIN_OPS: usize = 250;
    /// Everything that sizes it except the op count.
    type Sizes: Clone;

    /// The sizes ISSUE/README describe.
    fn nominal() -> Self::Sizes;

    /// Boot, populate, first full checkpoint, warm-up ops. Set-up series
    /// (e.g. `restore_chain`'s chain-building checkpoints) go to `h`.
    /// `wrap = false` boots on the bare array (transparency test).
    fn setup(sizes: &Self::Sizes, seed: u64, wrap: bool, h: &mut Harness) -> Result<Self, String>;

    /// The machine it runs on (the runner reads layer counters off it
    /// and installs the program's trace recorder on it).
    fn machine(&mut self) -> &mut Machine;

    /// One timed op (brackets itself with `op_begin`/`op_end`).
    fn op(&mut self, i: usize, h: &mut Harness) -> Result<(), String>;

    /// End-of-run verification; returns the application's resident
    /// bytes for `dev_footprint_ratio`.
    fn verify(&mut self, h: &mut Harness) -> Result<u64, String>;
}

/// Timed ops for a `--seconds` budget.
pub fn ops_for<W: Workload>(seconds: u64) -> usize {
    ((W::OPS_PER_SECOND * seconds as f64).round() as usize).max(W::MIN_OPS)
}
