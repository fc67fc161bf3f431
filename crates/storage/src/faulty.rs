//! Deterministic fault injection at the block-device boundary.
//!
//! [`FaultyDevice`] wraps any [`BlockDevice`] and injects failures
//! according to an explicit [`FaultPlan`]: a power-cut at the Nth write
//! (optionally tearing that write at a sub-block boundary), transient
//! EIO-style errors over a window of write sequence numbers, latency
//! storms, bad blocks, device death, and silent bit-flips drawn from the
//! in-tree deterministic PRNG. Every injected outcome is a `fault.*`
//! trace instant carrying the write's sequence number, so a failing
//! crash schedule can be replayed and inspected from nothing but the
//! plan.
//!
//! All randomness comes from [`DetRng`] seeded by `FaultPlan::seed`, so
//! a whole failure scenario reproduces from a single `u64`.

use crate::device::{BlockDevice, Completion, DeviceError, Result};
use aurora_sim::rng::{DetRng, Rng};
use aurora_sim::sync::Mutex;
use aurora_sim::Clock;
use aurora_trace::Trace;
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::Arc;

/// What to inject, and when: one field per fault. Write sequence
/// numbers count every [`BlockDevice::write`]/
/// [`write_after`](BlockDevice::write_after) call made through the
/// wrapper, starting at 0.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Power-cut at this write: the write (and everything after it) never
    /// reaches the medium, except for an optional torn prefix.
    pub cut_at_write: Option<u64>,
    /// If cutting, how many leading bytes of the cut write survive. The
    /// remainder of the torn block is filled with garbage, and any later
    /// blocks of the same write are dropped. Clamped to `len - 1` so the
    /// tear is always sub-write.
    pub tear_bytes: Option<usize>,
    /// Writes with a sequence number in this window fail with a transient
    /// EIO: the data never reaches the device, and a retry is a fresh
    /// sequence number. An unbounded window
    /// ([`eio_storm`](FaultPlan::eio_storm)`(n, u64::MAX)`) wedges the
    /// device until the plan is replaced — how tests exhaust a
    /// checkpoint's retries.
    pub eio_writes: Range<u64>,
    /// Per-write probability of flipping one random bit of the payload
    /// before it reaches the medium (silent corruption).
    pub bitflip_per_write: f64,
    /// Writes with a sequence number in `.0` complete `.1` ns later than
    /// the device model says (a congested or error-recovering channel).
    pub slow_writes: (Range<u64>, u64),
    /// Blocks whose medium has gone bad: any read covering one fails
    /// with a fatal EIO until a successful write covers the block again
    /// (the device remaps the sector on write).
    pub bad_read_blocks: BTreeSet<u64>,
    /// The device dies outright at this write: power to the channel is
    /// lost (in-flight writes discarded) and every subsequent operation
    /// — read or write — fails fatally until the plan is cleared.
    pub die_at_write: Option<u64>,
    /// Seed for the injection PRNG (bit-flip positions).
    pub seed: u64,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// A power-cut at write `n` with no torn prefix.
    pub fn cut_at(n: u64) -> Self {
        Self { cut_at_write: Some(n), ..Self::default() }
    }

    /// A power-cut at write `n`, tearing it after `bytes` bytes.
    pub fn torn_cut_at(n: u64, bytes: usize) -> Self {
        Self { cut_at_write: Some(n), tear_bytes: Some(bytes), ..Self::default() }
    }

    /// A transient-EIO storm: writes `[from, from + n)` all fail
    /// transiently, then the channel recovers. `n = u64::MAX` never
    /// recovers.
    pub fn eio_storm(from: u64, n: u64) -> Self {
        Self { eio_writes: from..from.saturating_add(n), ..Self::default() }
    }

    /// A latency storm: writes `[from, from + n)` complete `add_ns`
    /// later than the device model says (congested channel).
    pub fn latency_storm(from: u64, n: u64, add_ns: u64) -> Self {
        Self { slow_writes: (from..from.saturating_add(n), add_ns), ..Self::default() }
    }
}

/// Mutable injection state, shared with [`FaultHandle`].
struct FaultState {
    plan: FaultPlan,
    rng: DetRng,
    writes_seen: u64,
    cut_fired: bool,
    /// [`FaultPlan::die_at_write`] fired: every operation fails fatally.
    dead: bool,
}

/// A handle for arming, disarming and inspecting a [`FaultyDevice`]
/// after it has been boxed behind the [`BlockDevice`] trait.
#[derive(Clone)]
pub struct FaultHandle(Arc<Mutex<FaultState>>);

impl FaultHandle {
    /// Whether the planned power-cut has fired.
    pub fn cut_fired(&self) -> bool {
        self.0.lock().cut_fired
    }

    /// Writes observed so far (the next write gets this sequence number).
    pub fn writes_seen(&self) -> u64 {
        self.0.lock().writes_seen
    }

    /// Replaces the plan (keeps the sequence counter), re-arming the
    /// injector mid-run. Clears a fired cut only if the new plan has no
    /// cut — a fired cut stays fired while its plan stands. A dead
    /// device likewise stays dead unless the new plan has no
    /// `die_at_write`. The medium keeps whatever was durable; anything
    /// lost in flight stays lost.
    pub fn set_plan(&self, plan: FaultPlan) {
        let mut st = self.0.lock();
        st.rng = DetRng::seed_from_u64(plan.seed);
        if plan.cut_at_write.is_none() {
            st.cut_fired = false;
        }
        if plan.die_at_write.is_none() {
            st.dead = false;
        }
        st.plan = plan;
    }

    /// Disarms every fault and brings a dead device back; subsequent
    /// writes pass through.
    pub fn clear_faults(&self) {
        self.set_plan(FaultPlan::none());
    }
}

/// A [`BlockDevice`] wrapper that injects the faults described by a
/// [`FaultPlan`]. See the module docs for semantics.
pub struct FaultyDevice {
    inner: Box<dyn BlockDevice + Send>,
    state: Arc<Mutex<FaultState>>,
    trace: Trace,
}

impl FaultyDevice {
    /// Wraps `inner` with the given plan.
    pub(crate) fn new(inner: Box<dyn BlockDevice + Send>, plan: FaultPlan) -> Self {
        let state = FaultState {
            rng: DetRng::seed_from_u64(plan.seed),
            plan,
            writes_seen: 0,
            cut_fired: false,
            dead: false,
        };
        Self { inner, state: Arc::new(Mutex::new(state)), trace: Trace::disabled() }
    }

    /// The handle that arms, disarms and inspects this injector from
    /// outside.
    pub(crate) fn handle(&self) -> FaultHandle {
        FaultHandle(self.state.clone())
    }

    /// Emits a `fault.*` instant for a write the injector did not pass
    /// through untouched, so injected failures are visible in exported
    /// traces.
    fn trace_fault(&self, name: &'static str, seq: u64, lba: u64, detail: u64) {
        if self.trace.is_enabled() {
            self.trace.instant("storage", name, &[("seq", seq), ("lba", lba), ("detail", detail)]);
        }
    }

    /// The common write path: decides the outcome of write `seq`, traces
    /// it, and forwards (possibly modified) data to the inner device.
    fn inject_write(&mut self, lba: u64, data: &[u8], after: Option<Completion>) -> Result<Completion> {
        let mut st = self.state.lock();
        let seq = st.writes_seen;
        st.writes_seen += 1;

        if st.dead || st.plan.die_at_write == Some(seq) {
            if !st.dead {
                st.dead = true;
                // Power to the channel is lost: in-flight writes are gone.
                self.inner.crash();
            }
            self.trace_fault("fault.fatal_eio", seq, lba, 0);
            return Err(DeviceError::Io { lba, transient: false });
        }

        if st.cut_fired {
            // Power already lost: the caller keeps issuing writes, the
            // medium never sees them. Completions are fabricated so the
            // workload runs on obliviously — exactly like an OS whose
            // device vanished mid-flight.
            self.trace_fault("fault.dropped_write", seq, lba, 0);
            return Ok(Completion::immediate(self.inner.clock().now()));
        }

        if st.plan.cut_at_write == Some(seq) {
            st.cut_fired = true;
            // Everything still in flight is lost with the power.
            self.inner.crash();
            let tear = st.plan.tear_bytes.map(|t| t.clamp(1, data.len().saturating_sub(1)));
            // An ordered write whose barrier has not completed never
            // started transferring — power loss drops it whole. Tearing
            // it would put bytes on the medium before its predecessor,
            // which the write_after contract rules out.
            let barrier_open = after.is_some_and(|a| a.done_at > self.inner.clock().now());
            let (name, detail) = match tear {
                Some(tb) if data.len() > 1 && !barrier_open => {
                    // The torn prefix reached the platter before the cut:
                    // leading bytes intact, the rest of the torn block is
                    // garbage, later blocks of the write are dropped.
                    let bs = self.inner.block_size();
                    let mut buf = vec![0xA5u8; tb.div_ceil(bs).max(1) * bs];
                    buf[..tb].copy_from_slice(&data[..tb]);
                    self.inner.write(lba, &buf)?;
                    self.inner.flush();
                    ("fault.torn_write", tb as u64)
                }
                _ => ("fault.dropped_write", 0),
            };
            self.trace_fault(name, seq, lba, detail);
            return Ok(Completion::immediate(self.inner.clock().now()));
        }

        if st.plan.eio_writes.contains(&seq) {
            self.trace_fault("fault.transient_eio", seq, lba, 0);
            return Err(DeviceError::Io { lba, transient: true });
        }

        // The write will reach the medium: a successful write remaps any
        // bad sectors it covers, a latency storm delays its completion,
        // and the payload may arrive with one bit flipped.
        let (slow, add_ns) = &st.plan.slow_writes;
        let extra_ns = if slow.contains(&seq) { *add_ns } else { 0 };
        let covered = lba..lba + (data.len() / self.inner.block_size()) as u64;
        st.plan.bad_read_blocks.retain(|b| !covered.contains(b));
        let mut payload = Cow::Borrowed(data);
        let p = st.plan.bitflip_per_write;
        if p > 0.0 && st.rng.gen_bool(p) && !data.is_empty() {
            let bit = st.rng.gen_range(0..data.len() as u64 * 8);
            payload.to_mut()[(bit / 8) as usize] ^= 1 << (bit % 8);
            self.trace_fault("fault.bitflip", seq, lba, bit);
        }
        drop(st);
        let c = match after {
            Some(a) => self.inner.write_after(lba, &payload, a)?,
            None => self.inner.write(lba, &payload)?,
        };
        if extra_ns > 0 && self.trace.is_enabled() {
            self.trace.instant(
                "storage",
                "fault.latency",
                &[("seq", seq), ("lba", lba), ("extra_ns", extra_ns)],
            );
        }
        Ok(Completion { done_at: c.done_at + extra_ns })
    }

    /// The common read path: a dead device fails everything fatally, and
    /// a read covering a bad block fails fatally until a write remaps it.
    fn inject_read(&self, lba: u64, nblocks: u64) -> Result<()> {
        let st = self.state.lock();
        if st.dead {
            return Err(DeviceError::Io { lba, transient: false });
        }
        if let Some(&bad) = st.plan.bad_read_blocks.range(lba..lba + nblocks).next() {
            drop(st);
            if self.trace.is_enabled() {
                self.trace.instant("storage", "fault.read_eio", &[("lba", bad)]);
            }
            return Err(DeviceError::Io { lba: bad, transient: false });
        }
        Ok(())
    }
}

impl BlockDevice for FaultyDevice {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn capacity_blocks(&self) -> u64 {
        self.inner.capacity_blocks()
    }

    fn clock(&self) -> &Clock {
        self.inner.clock()
    }

    fn read(&mut self, lba: u64, nblocks: u64) -> Result<Vec<u8>> {
        self.inject_read(lba, nblocks)?;
        self.inner.read(lba, nblocks)
    }

    fn read_from(&mut self, lba: u64, nblocks: u64, issue_at: u64) -> Result<(Vec<u8>, u64)> {
        self.inject_read(lba, nblocks)?;
        self.inner.read_from(lba, nblocks, issue_at)
    }

    fn write(&mut self, lba: u64, data: &[u8]) -> Result<Completion> {
        self.inject_write(lba, data, None)
    }

    fn write_after(&mut self, lba: u64, data: &[u8], after: Completion) -> Result<Completion> {
        self.inject_write(lba, data, Some(after))
    }

    fn flush(&mut self) -> Completion {
        if self.state.lock().cut_fired {
            // Nothing post-cut ever becomes durable.
            return Completion::immediate(self.inner.clock().now());
        }
        self.inner.flush()
    }

    fn crash(&mut self) {
        self.inner.crash();
    }

    fn discard(&mut self, lba: u64, nblocks: u64) {
        self.inner.discard(lba, nblocks);
    }

    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }

    fn geometry(&self) -> (u64, u64) {
        self.inner.geometry()
    }

    fn set_trace(&mut self, trace: Trace) {
        self.trace = trace.clone();
        self.inner.set_trace(trace);
    }

    fn queue_stats(&self) -> crate::device::QueueStats {
        self.inner.queue_stats()
    }

    fn health_report(&self) -> crate::health::HealthReport {
        self.inner.health_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nvme::{NvmeDevice, NvmeParams, BLOCK_SIZE};

    fn faulty(plan: FaultPlan) -> (FaultyDevice, FaultHandle) {
        let inner = NvmeDevice::new(Clock::new(), NvmeParams::optane_900p(), 1 << 24);
        let d = FaultyDevice::new(Box::new(inner), plan);
        let h = d.handle();
        (d, h)
    }

    /// A device armed with `plan` that records its trace: every write it
    /// did not pass through untouched shows up as a `fault.*` instant.
    fn traced(plan: FaultPlan) -> (FaultyDevice, FaultHandle, Trace) {
        let (mut d, h) = faulty(plan);
        let clk = d.clock().clone();
        let t = Trace::recording(move || clk.now());
        d.set_trace(t.clone());
        (d, h, t)
    }

    /// `(name, seq, detail)` of every injected write outcome, in order.
    fn outcomes(t: &Trace) -> Vec<(String, u64, u64)> {
        t.events()
            .iter()
            .filter(|e| e.name.starts_with("fault.") && e.args[0].0 == "seq")
            .map(|e| (e.name.to_string(), e.args[0].1, e.args[2].1))
            .collect()
    }

    #[test]
    fn cut_drops_the_nth_and_all_later_writes() {
        let (mut d, h, t) = traced(FaultPlan::cut_at(1));
        d.write(0, &vec![1u8; BLOCK_SIZE]).unwrap();
        d.flush();
        d.write(1, &vec![2u8; BLOCK_SIZE]).unwrap(); // cut fires here
        d.write(2, &vec![3u8; BLOCK_SIZE]).unwrap(); // dropped
        d.flush();
        assert!(h.cut_fired());
        assert_eq!(d.read(0, 1).unwrap(), vec![1u8; BLOCK_SIZE]);
        assert_eq!(d.read(1, 1).unwrap(), vec![0u8; BLOCK_SIZE]);
        assert_eq!(d.read(2, 1).unwrap(), vec![0u8; BLOCK_SIZE]);
        // Write 0 applied (no fault instant); 1 and 2 dropped.
        assert_eq!(
            outcomes(&t),
            [("fault.dropped_write".into(), 1, 0), ("fault.dropped_write".into(), 2, 0)]
        );
    }

    #[test]
    fn cut_loses_writes_still_in_flight() {
        let (mut d, h) = faulty(FaultPlan::cut_at(1));
        d.write(0, &vec![1u8; BLOCK_SIZE]).unwrap(); // buffered, not durable
        d.write(1, &vec![2u8; BLOCK_SIZE]).unwrap(); // cut: power lost
        assert!(h.cut_fired());
        assert_eq!(d.read(0, 1).unwrap(), vec![0u8; BLOCK_SIZE], "in-flight write lost");
    }

    #[test]
    fn torn_write_keeps_prefix_only() {
        let (mut d, _h) = faulty(FaultPlan::torn_cut_at(0, 100));
        d.write(0, &vec![7u8; BLOCK_SIZE * 2]).unwrap();
        let got = d.read(0, 2).unwrap();
        assert!(got[..100].iter().all(|&b| b == 7), "prefix survives");
        assert!(got[100..BLOCK_SIZE].iter().all(|&b| b == 0xA5), "torn tail is garbage");
        assert!(got[BLOCK_SIZE..].iter().all(|&b| b == 0), "later blocks dropped");
    }

    #[test]
    fn transient_error_fails_once_then_succeeds() {
        let (mut d, _h) = faulty(FaultPlan::eio_storm(0, 1));
        let err = d.write(0, &vec![5u8; BLOCK_SIZE]).unwrap_err();
        assert!(err.is_transient());
        d.write(0, &vec![5u8; BLOCK_SIZE]).unwrap(); // retry is seq 1
        d.flush();
        assert_eq!(d.read(0, 1).unwrap(), vec![5u8; BLOCK_SIZE]);
    }

    #[test]
    fn persistent_failure_window_clears_with_plan() {
        let (mut d, h) = faulty(FaultPlan::eio_storm(0, u64::MAX));
        assert!(d.write(0, &vec![1u8; BLOCK_SIZE]).is_err());
        assert!(d.write(0, &vec![1u8; BLOCK_SIZE]).is_err());
        h.clear_faults();
        d.write(0, &vec![1u8; BLOCK_SIZE]).unwrap();
    }

    #[test]
    fn bitflips_are_reproducible_by_seed() {
        let run = || {
            let plan = FaultPlan { bitflip_per_write: 1.0, seed: 42, ..FaultPlan::none() };
            let (mut d, _h, t) = traced(plan);
            d.write(0, &vec![0u8; BLOCK_SIZE]).unwrap();
            d.flush();
            (d.read(0, 1).unwrap(), outcomes(&t))
        };
        let (a, ta) = run();
        let (b, tb) = run();
        assert_eq!(a, b, "same seed, same corruption");
        assert_eq!(ta, tb);
        assert_eq!(ta.len(), 1, "one bitflip instant: {ta:?}");
        assert_eq!(ta[0].0, "fault.bitflip");
        assert_eq!(a.iter().map(|&x| x.count_ones()).sum::<u32>(), 1, "exactly one bit flipped");
    }

    #[test]
    fn fault_outcomes_emit_trace_instants() {
        let (mut d, _h) = faulty(FaultPlan::cut_at(1));
        let clk = d.clock().clone();
        d.set_trace(Trace::recording(move || clk.now()));
        d.write(0, &vec![1u8; BLOCK_SIZE]).unwrap(); // applied
        d.write(1, &vec![2u8; BLOCK_SIZE]).unwrap(); // cut: dropped
        d.write(2, &vec![3u8; BLOCK_SIZE]).unwrap(); // dropped
        let evs = d.trace.events();
        let faults: Vec<&str> = evs
            .iter()
            .filter(|e| e.name.starts_with("fault."))
            .map(|e| e.name.as_ref())
            .collect();
        assert_eq!(faults, vec!["fault.dropped_write", "fault.dropped_write"]);
        // The applied write reached the leaf device and traced there.
        assert!(evs.iter().any(|e| e.name == "nvme.write"));
    }

    #[test]
    fn eio_storm_has_a_bounded_width() {
        let (mut d, _h) = faulty(FaultPlan::eio_storm(1, 3));
        d.write(0, &vec![1u8; BLOCK_SIZE]).unwrap(); // seq 0
        for _ in 0..3 {
            let err = d.write(0, &vec![2u8; BLOCK_SIZE]).unwrap_err(); // seq 1..4
            assert!(err.is_transient());
        }
        d.write(0, &vec![3u8; BLOCK_SIZE]).unwrap(); // seq 4: storm over
        d.flush();
        assert_eq!(d.read(0, 1).unwrap(), vec![3u8; BLOCK_SIZE]);
    }

    #[test]
    fn latency_storm_inflates_completions() {
        let base = {
            let (mut d, _h) = faulty(FaultPlan::none());
            d.write(0, &vec![1u8; BLOCK_SIZE]).unwrap().done_at
        };
        let (mut d, _h) = faulty(FaultPlan::latency_storm(0, 1, 1_000_000));
        let slow = d.write(0, &vec![1u8; BLOCK_SIZE]).unwrap().done_at;
        assert_eq!(slow, base + 1_000_000);
        // Outside the window the device is back to nominal.
        let next = d.write(1, &vec![1u8; BLOCK_SIZE]).unwrap();
        assert!(next.done_at < slow + 1_000_000);
    }

    #[test]
    fn bad_read_blocks_fail_fatally_until_rewritten() {
        let plan = FaultPlan { bad_read_blocks: [3].into(), ..FaultPlan::none() };
        let (mut d, _h) = faulty(plan);
        let err = d.read(2, 4).unwrap_err();
        assert!(matches!(err, DeviceError::Io { lba: 3, transient: false }));
        // A write covering the block remaps the bad sector.
        d.write(3, &vec![8u8; BLOCK_SIZE]).unwrap();
        d.flush();
        assert_eq!(d.read(3, 1).unwrap(), vec![8u8; BLOCK_SIZE]);
    }

    #[test]
    fn die_at_write_kills_mid_stream_and_loses_inflight() {
        let plan = FaultPlan { die_at_write: Some(1), ..FaultPlan::none() };
        let (mut d, h, t) = traced(plan);
        d.write(0, &vec![1u8; BLOCK_SIZE]).unwrap(); // buffered, not durable
        let err = d.write(1, &vec![2u8; BLOCK_SIZE]).unwrap_err(); // dies here
        assert!(!err.is_transient());
        assert!(d.read(0, 1).is_err(), "a dead device fails reads too");
        h.clear_faults();
        assert_eq!(d.read(0, 1).unwrap(), vec![0u8; BLOCK_SIZE], "in-flight write lost at death");
        // Write 0 applied (no fault instant); write 1 failed fatally.
        assert_eq!(outcomes(&t), [("fault.fatal_eio".into(), 1, 0)]);
    }
}
