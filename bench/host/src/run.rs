//! Runs one workload once: repeated set-up, the timed section, the
//! end-of-run verification. What the pass measured comes back as a
//! [`Pass`]; `e2e.rs` and `traced.rs` turn passes into metrics.

use crate::alloc;
use crate::harness::Harness;
use crate::layers::LayerCounters;
use crate::spans::{Span, SpanLog};
use crate::workloads::common::DEV_BYTES;
use crate::workloads::Workload;
use aurora_frames::FrameGauges;
use aurora_objstore::StoreGauges;
use std::time::Instant;

/// How much instrumentation a pass carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Nothing on: the only mode end-to-end metrics are taken in.
    Plain,
    /// Harness spans, device spans, layer-counter deltas, counting
    /// allocator.
    Spans,
    /// The program's own recorder (`Trace::recording` + `install_trace`)
    /// on, harness spans off: prices the program's instrument.
    Recorder,
}

/// What one pass measured.
pub struct Pass {
    /// Op timings, series, counters, failed-op accounting.
    pub h: Harness,
    /// Host seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Distinct LBAs ever written, at the end (0 on a bare array).
    pub distinct_lbas: u64,
    /// Application bytes resident at the end.
    pub resident_bytes: u64,
    /// Layer-counter deltas summed over the timed ops (`Spans` only).
    pub layers: LayerCounters,
    /// Largest device queue depth / bytes in flight seen after an op.
    pub queue_depth_max: u64,
    /// See `queue_depth_max`.
    pub inflight_bytes_max: u64,
    /// Store gauges after verification.
    pub store_end: StoreGauges,
    /// Frame gauges after verification.
    pub frames_end: FrameGauges,
    /// Allocations and bytes during the timed section (`Spans` only).
    pub allocs: (u64, u64),
    /// Harness spans, timed ops then verification (`Spans` only).
    pub spans: Vec<Span>,
    /// The program's recorder after the run (`Recorder` only).
    pub trace: Option<aurora_trace::Trace>,
}

/// Runs `W` with `ops` timed ops from `seed`. Set-up is repeated
/// `setups` times (each on a fresh machine, the previous one dropped
/// first so peak RSS stays one machine's); the last one is the run's.
pub fn run_pass<W: Workload>(
    sizes: &W::Sizes,
    ops: usize,
    seed: u64,
    mode: Mode,
    setups: usize,
    wrap: bool,
) -> Result<Pass, String> {
    let spans = SpanLog::new();
    let mut setup_s = Vec::with_capacity(setups);
    let mut built: Option<(W, Harness)> = None;
    for _ in 0..setups.max(1) {
        drop(built.take());
        let mut h = Harness::new(spans.clone());
        h.detail = mode == Mode::Spans;
        let t0 = Instant::now();
        let w = W::setup(sizes, seed, wrap, &mut h)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        built = Some((w, h));
    }
    let (mut w, mut h) = built.expect("at least one set-up ran");

    let trace = (mode == Mode::Recorder).then(|| {
        let m = w.machine();
        let clock = m.clock.clone();
        let trace = aurora_trace::Trace::recording(move || clock.now());
        m.sls.install_trace(trace.clone());
        trace
    });

    let dev0 = w.machine().dev_bytes_written();
    let mut layers = LayerCounters::default();
    let mut before = (mode == Mode::Spans).then(|| LayerCounters::snapshot(w.machine()));
    let (mut queue_depth_max, mut inflight_bytes_max) = (0, 0);
    let allocs0 = alloc::counts();
    if mode == Mode::Spans {
        spans.set_recording(true);
        alloc::set_counting(true);
    }
    for i in 0..ops {
        if let Err(e) = w.op(i, &mut h) {
            // The machine may be half-way through a cycle: stop here.
            h.fail(format!("op {i}: {e}"));
            break;
        }
        if let Some(before) = &mut before {
            // Between ops, so neither clock of the op sees it.
            alloc::set_counting(false);
            spans.set_recording(false);
            let m = w.machine();
            let after = LayerCounters::snapshot(m);
            layers.accumulate(before, &after);
            *before = after;
            let q = m.sls.store().lock().device().lock().queue_stats();
            queue_depth_max = queue_depth_max.max(q.depth);
            inflight_bytes_max = inflight_bytes_max.max(q.bytes_in_flight);
            spans.set_recording(true);
            alloc::set_counting(true);
        }
    }
    alloc::set_counting(false);
    let allocs1 = alloc::counts();
    h.add(DEV_BYTES, w.machine().dev_bytes_written() - dev0);

    // Verification spans are kept (they are the only restore/reboot
    // samples `ckpt_sparse` and `memcached_100hz` have) under op id
    // `ops`, one past the last timed op.
    spans.set_op(ops as u32);
    let resident_bytes = if h.failed == 0 {
        match w.verify(&mut h) {
            Ok(bytes) => bytes,
            Err(e) => {
                h.attempted += 1;
                h.fail(format!("verification: {e}"));
                0
            }
        }
    } else {
        0
    };
    spans.set_recording(false);

    let m = w.machine();
    let store_end = m.sls.store().lock().gauges();
    Ok(Pass {
        setup_s,
        distinct_lbas: m.tap.as_ref().map_or(0, |t| t.snapshot().distinct_lbas),
        resident_bytes,
        layers,
        queue_depth_max,
        inflight_bytes_max,
        store_end,
        frames_end: m.sls.frame_gauges(),
        allocs: (allocs1.0 - allocs0.0, allocs1.1 - allocs0.1),
        spans: spans.take(),
        trace,
        h,
    })
}
