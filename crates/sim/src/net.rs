//! A latency/bandwidth/loss-modeled message fabric between simulated
//! nodes, on the shared virtual clock.
//!
//! Each ordered node pair is one full-duplex link: a propagation delay,
//! a serialization rate (the sender's NIC drains one message at a time,
//! FIFO), and an independent per-message loss probability drawn from
//! the deterministic PRNG. The fabric computes *when* a message arrives
//! (or that it never does); the caller owns the event queue that
//! delivers it.

use crate::rng::{DetRng, Rng};
use std::collections::HashMap;

/// A single FIFO server: a sender's NIC serializing one message at a
/// time.
#[derive(Clone, Debug, Default)]
struct Fifo {
    next_free: u64,
}

impl Fifo {
    /// Serves work arriving at `arrival` taking `service_ns`; returns
    /// `(start, completion)`.
    fn serve(&mut self, arrival: u64, service_ns: u64) -> (u64, u64) {
        let start = arrival.max(self.next_free);
        let done = start + service_ns;
        self.next_free = done;
        (start, done)
    }
}

/// Link parameters shared by every node pair in a [`Fabric`].
#[derive(Clone, Copy, Debug)]
pub struct LinkModel {
    /// One-way propagation delay, ns (default 50 µs: same-rack RTT of
    /// ~100 µs).
    pub latency_ns: u64,
    /// Serialization cost per KiB on the sending NIC, ns (default
    /// ~25 Gb/s ≈ 320 ns/KiB).
    pub ns_per_kib: u64,
    /// Per-message loss probability in parts per million.
    pub loss_ppm: u32,
    /// PRNG seed for the loss draws (deterministic across runs).
    pub seed: u64,
}

impl Default for LinkModel {
    fn default() -> Self {
        Self { latency_ns: 50_000, ns_per_kib: 320, loss_ppm: 0, seed: 0x004e_4554 }
    }
}

/// Counters the fabric accumulates (gauge sources).
#[derive(Clone, Copy, Debug, Default)]
pub struct FabricStats {
    /// Messages accepted for transmission.
    pub sent_msgs: u64,
    /// Payload bytes accepted for transmission.
    pub sent_bytes: u64,
    /// Messages the loss model dropped.
    pub dropped_msgs: u64,
}

/// The message fabric: per-directed-link FIFO serialization plus the
/// shared [`LinkModel`].
#[derive(Debug)]
pub struct Fabric {
    model: LinkModel,
    links: HashMap<(u64, u64), Fifo>,
    rng: DetRng,
    stats: FabricStats,
}

impl Fabric {
    /// A fabric with the given link model.
    pub fn new(model: LinkModel) -> Self {
        Self {
            model,
            links: HashMap::new(),
            rng: DetRng::seed_from_u64(model.seed),
            stats: FabricStats::default(),
        }
    }

    /// Transmits `bytes` from `src` to `dst` starting at `now`. Returns
    /// the virtual arrival time, or `None` if the loss model ate the
    /// message (the sender's NIC time is still spent — a lost packet is
    /// serialized before it vanishes).
    pub fn send(&mut self, src: u64, dst: u64, bytes: u64, now: u64) -> Option<u64> {
        let service = (bytes.div_ceil(1024)).max(1) * self.model.ns_per_kib;
        let (_, serialized) = self.links.entry((src, dst)).or_default().serve(now, service);
        self.stats.sent_msgs += 1;
        self.stats.sent_bytes += bytes;
        if self.model.loss_ppm > 0 && (self.rng.next_u64() % 1_000_000) < self.model.loss_ppm as u64 {
            self.stats.dropped_msgs += 1;
            return None;
        }
        Some(serialized + self.model.latency_ns)
    }

    /// The accumulated transmission counters.
    pub fn stats(&self) -> FabricStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_queues_back_to_back() {
        let mut f = Fifo::default();
        assert_eq!(f.serve(0, 10), (0, 10));
        assert_eq!(f.serve(5, 10), (10, 20)); // waits for the first
        assert_eq!(f.serve(100, 10), (100, 110)); // idle gap
    }

    #[test]
    fn latency_and_bandwidth_add() {
        let mut f = Fabric::new(LinkModel { latency_ns: 1000, ns_per_kib: 10, loss_ppm: 0, seed: 1 });
        // 4 KiB message: 40 ns serialization + 1000 ns propagation.
        assert_eq!(f.send(0, 1, 4096, 0), Some(1040));
        // Second message on the same link queues behind the first's
        // serialization, not its propagation.
        assert_eq!(f.send(0, 1, 4096, 0), Some(1080));
        // The reverse direction is an independent link.
        assert_eq!(f.send(1, 0, 4096, 0), Some(1040));
    }

    #[test]
    fn loss_is_deterministic() {
        let model = LinkModel { latency_ns: 10, ns_per_kib: 1, loss_ppm: 500_000, seed: 7 };
        let run = || {
            let mut f = Fabric::new(model);
            (0..64).map(|i| f.send(0, 1, 1024, i).is_some()).collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run(), "same seed, same drops");
        let dropped = a.iter().filter(|ok| !**ok).count();
        assert!(dropped > 8 && dropped < 56, "~half dropped, got {dropped}");
    }
}
