//! The virtual clock.
//!
//! Every simulated component charges time to a shared [`Clock`]. The clock
//! is a plain monotonic nanosecond counter: experiments are deterministic
//! and reproducible because no wall-clock time is ever consulted.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A shared virtual clock measured in nanoseconds.
///
/// Cloning a `Clock` yields a handle to the same underlying counter.
///
/// # Examples
///
/// ```
/// use aurora_sim::Clock;
///
/// let clock = Clock::new();
/// clock.advance(1_500);
/// assert_eq!(clock.now(), 1_500);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Clock {
    ns: Arc<AtomicU64>,
}

impl Clock {
    /// Creates a new clock starting at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the current virtual time in nanoseconds.
    pub fn now(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Advances the clock by `delta_ns` nanoseconds and returns the new time.
    pub fn advance(&self, delta_ns: u64) -> u64 {
        self.ns.fetch_add(delta_ns, Ordering::Relaxed) + delta_ns
    }

    /// Advances the clock to `target_ns` if it is in the future.
    ///
    /// Used when waiting for an asynchronous completion (e.g. an in-flight
    /// NVMe write): the waiter sleeps until the completion time.
    pub fn advance_to(&self, target_ns: u64) {
        // A simulation is single-threaded per clock; a CAS loop still keeps
        // the handle safe to share across test threads.
        let mut cur = self.ns.load(Ordering::Relaxed);
        while cur < target_ns {
            match self.ns.compare_exchange_weak(
                cur,
                target_ns,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }
}

/// A scoped stopwatch over a [`Clock`], for measuring the virtual duration
/// of an operation (e.g. a checkpoint stop time).
#[derive(Debug)]
pub struct Stopwatch {
    clock: Clock,
    start: u64,
}

impl Stopwatch {
    /// Starts measuring from the clock's current time.
    pub fn start(clock: &Clock) -> Self {
        Self {
            clock: clock.clone(),
            start: clock.now(),
        }
    }

    /// Returns the elapsed virtual nanoseconds since `start`.
    pub fn elapsed_ns(&self) -> u64 {
        self.clock.now() - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        assert_eq!(Clock::new().now(), 0);
    }

    #[test]
    fn advance_accumulates() {
        let c = Clock::new();
        c.advance(10);
        c.advance(32);
        assert_eq!(c.now(), 42);
    }

    #[test]
    fn clones_share_time() {
        let a = Clock::new();
        let b = a.clone();
        a.advance(7);
        assert_eq!(b.now(), 7);
    }

    #[test]
    fn advance_to_only_moves_forward() {
        let c = Clock::new();
        c.advance(100);
        c.advance_to(50);
        assert_eq!(c.now(), 100);
        c.advance_to(250);
        assert_eq!(c.now(), 250);
    }

    #[test]
    fn stopwatch_measures_elapsed() {
        let c = Clock::new();
        let sw = Stopwatch::start(&c);
        c.advance(123);
        assert_eq!(sw.elapsed_ns(), 123);
    }
}
