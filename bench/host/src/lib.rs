//! The repo's two-clock benchmark.
//!
//! The system under test is a deterministic user-space model of the
//! Aurora single level store: it runs on a *virtual* clock (the
//! reproduction's claims — stop time, time to durability, restore time,
//! application throughput under 100 Hz checkpointing) and on the *host*
//! clock (how fast our Rust executes an epoch, a fault, a commit, a
//! restore). This package measures both, side by side, naming the clock
//! of every number, from outside the crates: it only calls their
//! existing public functions. See README.md.

pub mod alloc;
pub mod compare;
pub mod device;
pub mod e2e;
pub mod gen;
pub mod harness;
pub mod json;
pub mod layers;
pub mod machine;
pub mod metrics;
pub mod probes;
pub mod report;
pub mod run;
pub mod spans;
pub mod stats;
pub mod traced;
pub mod workloads;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;
