//! A small discrete-event simulation engine.
//!
//! The client/server experiments (Memcached under Mutilate load, RocksDB
//! under Prefix_dist) need queueing behaviour — tail latency comes from
//! requests waiting behind checkpoint stop times and external-synchrony
//! release batching. The engine is deliberately minimal: a time-ordered
//! event heap plus FIFO resource helpers.

use crate::clock::Clock;
use aurora_trace::Trace;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[derive(Debug, PartialEq, Eq)]
struct Scheduled<E> {
    at: u64,
    seq: u64,
    event: E,
}

impl<E: Eq> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl<E: Eq> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic event queue over a virtual [`Clock`].
///
/// Events with equal timestamps fire in scheduling order (FIFO), which
/// keeps runs reproducible.
///
/// # Examples
///
/// ```
/// use aurora_sim::des::Engine;
///
/// let mut eng: Engine<&'static str> = Engine::new();
/// eng.schedule_at(20, "second");
/// eng.schedule_at(10, "first");
/// assert_eq!(eng.next(), Some((10, "first")));
/// assert_eq!(eng.next(), Some((20, "second")));
/// assert_eq!(eng.next(), None);
/// ```
#[derive(Debug)]
pub struct Engine<E> {
    clock: Clock,
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
    seq: u64,
    trace: Trace,
}

impl<E: Eq> Engine<E> {
    /// Creates an engine with a fresh clock.
    pub fn new() -> Self {
        Self::with_clock(Clock::new())
    }

    /// Creates an engine over an existing clock (shared with device models
    /// so IO completions and request events interleave on one timeline).
    pub(crate) fn with_clock(clock: Clock) -> Self {
        Self { clock, heap: BinaryHeap::new(), seq: 0, trace: Trace::disabled() }
    }

    /// Installs a trace recorder; each dispatch then emits a `des.dispatch`
    /// instant carrying the queue depth.
    pub fn set_trace(&mut self, trace: Trace) {
        self.trace = trace;
    }

    /// The engine's clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Current virtual time.
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Schedules `event` at absolute time `at` (clamped to now).
    pub fn schedule_at(&mut self, at: u64, event: E) {
        let at = at.max(self.clock.now());
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Scheduled { at, seq, event }));
    }

    /// Pops the next event, advancing the clock to its timestamp.
    /// (Deliberately not an `Iterator`: popping advances the clock, and
    /// callers interleave schedules between pops.)
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(u64, E)> {
        let Reverse(s) = self.heap.pop()?;
        self.clock.advance_to(s.at);
        if self.trace.is_enabled() {
            self.trace
                .instant("sim", "des.dispatch", &[("seq", s.seq), ("pending", self.heap.len() as u64)]);
        }
        Some((s.at, s.event))
    }
}

impl<E: Eq> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// A single FIFO server (e.g. a NIC serializing packets).
///
/// `serve` returns the interval `[start, done)` during which the work
/// occupies the server.
#[derive(Clone, Debug, Default)]
pub struct Fifo {
    next_free: u64,
}

impl Fifo {
    /// Creates an idle server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Serves work arriving at `arrival` taking `service_ns`; returns
    /// `(start, completion)`.
    pub(crate) fn serve(&mut self, arrival: u64, service_ns: u64) -> (u64, u64) {
        let start = arrival.max(self.next_free);
        let done = start + service_ns;
        self.next_free = done;
        (start, done)
    }
}

/// A pool of `k` identical FIFO servers (e.g. worker threads on cores):
/// work goes to the earliest-free server.
#[derive(Clone, Debug)]
pub struct ServerPool {
    free_at: BinaryHeap<Reverse<u64>>,
}

impl ServerPool {
    /// Creates a pool of `k` idle servers.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "server pool needs at least one server");
        let mut free_at = BinaryHeap::with_capacity(k);
        for _ in 0..k {
            free_at.push(Reverse(0));
        }
        Self { free_at }
    }

    /// Serves work arriving at `arrival` taking `service_ns` on the
    /// earliest-free server; returns `(start, completion)`.
    pub fn serve(&mut self, arrival: u64, service_ns: u64) -> (u64, u64) {
        let Reverse(free) = self.free_at.pop().expect("pool is never empty");
        let start = arrival.max(free);
        let done = start + service_ns;
        self.free_at.push(Reverse(done));
        (start, done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_queues_back_to_back() {
        let mut f = Fifo::new();
        assert_eq!(f.serve(0, 10), (0, 10));
        assert_eq!(f.serve(5, 10), (10, 20)); // waits for the first
        assert_eq!(f.serve(100, 10), (100, 110)); // idle gap
    }

    #[test]
    fn pool_uses_all_servers() {
        let mut p = ServerPool::new(2);
        assert_eq!(p.serve(0, 10), (0, 10));
        assert_eq!(p.serve(0, 10), (0, 10)); // second server
        assert_eq!(p.serve(0, 10), (10, 20)); // queued
    }

    #[test]
    fn engine_fifo_ties() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule_at(5, 1);
        eng.schedule_at(5, 2);
        assert_eq!(eng.next(), Some((5, 1)));
        assert_eq!(eng.next(), Some((5, 2)));
        assert_eq!(eng.now(), 5);
    }

    #[test]
    fn dispatch_emits_trace_instants() {
        let mut eng: Engine<u32> = Engine::new();
        let clk = eng.clock().clone();
        eng.set_trace(Trace::recording(move || clk.now()));
        eng.schedule_at(5, 1);
        eng.schedule_at(9, 2);
        eng.next();
        eng.next();
        let evs = eng.trace.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].name, "des.dispatch");
        assert_eq!((evs[0].ts, evs[1].ts), (5, 9));
        assert_eq!(evs[0].args, vec![("seq", 0), ("pending", 1)]);
    }
}
