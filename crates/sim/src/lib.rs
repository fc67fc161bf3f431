//! Simulation substrate for the Aurora single level store reproduction.
//!
//! The paper evaluates Aurora on real hardware (dual Xeon Silver 4116,
//! 4× Intel Optane 900P). This reproduction runs the *same algorithms* in
//! user space and accounts for their cost on a deterministic **virtual
//! clock**. This crate provides:
//!
//! * [`clock::Clock`] — the virtual nanosecond clock shared by every
//!   simulated component.
//! * [`cost::CostModel`] — calibrated per-primitive costs (lock acquire,
//!   cache-missing pointer chase, PTE update, TLB shootdown IPI, page
//!   copy, …) with the paper-derived calibration documented in one place.
//! * [`net`] — the latency/bandwidth/loss message fabric connecting
//!   simulated nodes in multi-node (cluster) experiments.
//! * [`stats`] — mean / standard deviation over repeated runs.
//! * [`codec`] — the hand-written, versioned binary codec used for every
//!   on-disk record in the object store and for checkpoint serialization.
//! * [`dist`] — deterministic workload distributions (Zipf, the Facebook
//!   ETC key/value size mixtures).
//! * [`rng`] — the in-tree deterministic PRNG those distributions draw
//!   from (no external dependency, bit-stable across builds).
//! * [`sync`] — lock wrappers with non-poisoning `lock()` ergonomics.

pub mod clock;
pub mod codec;
pub mod cost;
pub mod dist;
pub mod hash;
pub mod net;
pub mod rng;
pub mod stats;
pub mod sync;
pub mod units;

pub use clock::Clock;
pub use codec::{Decoder, Encoder};
pub use hash::content_hash;
/// [`content_hash`] under the name of the byte-wise FNV-1a it replaced:
/// the host benchmark (`bench/host`, frozen between benchmark PRs)
/// imports it by this name. New code calls [`content_hash`].
pub use hash::content_hash as fnv1a;
pub use cost::CostModel;
pub use rng::{DetRng, Rng};
