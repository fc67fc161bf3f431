//! The checkpoint scheduler: interleaves many groups' pipeline phases
//! so flush bandwidth stays saturated without a global stop.
//!
//! Admission is event-driven: runs waiting on their per-group
//! backpressure horizon sit in a `ready_at`-ordered min-heap and only
//! surface when the virtual clock reaches them; runnable runs advance
//! one phase per turn from a FIFO queue, so each scheduling step costs
//! O(log groups) instead of the old O(groups) round-robin scan — the
//! difference between thousands of groups and dozens. Flush phases are
//! deferred while the store already has
//! [`MAX_INFLIGHT_FLUSHES`] drafts with writes in
//! flight — staggering the groups against the device queue instead of
//! dumping every flush at once. When no run can make progress at the
//! current virtual time, the clock jumps to the earliest unblocking
//! event (the heap's front or a draft's completion), so group B
//! quiesces and serializes while group A's flush is still in the
//! device queue.

use crate::checkpoint::CheckpointStats;
use crate::pipeline::{GroupRun, Phase};
use crate::{GroupId, Sls, SlsError};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Maximum drafts with in-flight device writes before further Flush
/// phases wait for the queue to drain. Matched to the device stack's
/// useful queue depth (the 4-way RAID 0 testbed).
const MAX_INFLIGHT_FLUSHES: u64 = 4;
/// The flush cap while the device stack reports a `Degraded` (or worse)
/// member: a degraded mirror is resilvering or limping, so the
/// scheduler throttles to one draft at a time instead of saturating a
/// queue the device can no longer drain. Full rate resumes
/// automatically when the health report recovers.
const DEGRADED_MAX_INFLIGHT: u64 = 1;

/// Checkpoints every group in `gids`, overlapping their pipelines.
/// Returns one [`CheckpointStats`] per group, in `gids` order. A lone
/// run takes the same path: the clock jumps to its `ready_at`, and its
/// Flush is admitted at once — its own draft has not written yet, so
/// the cap can only count other groups' in-flight drafts.
pub(crate) fn run(sls: &mut Sls, gids: &[GroupId]) -> Result<Vec<CheckpointStats>, SlsError> {
    let mut runs = Vec::with_capacity(gids.len());
    for &gid in gids {
        runs.push(GroupRun::new(sls, gid)?);
    }
    let clock = sls.kernel.charge.clock().clone();
    let n = runs.len();
    let mut done = 0usize;
    // Stop admission: min-heap on (ready_at, index) — the index keeps
    // ties FIFO in `gids` order.
    let mut waiting: BinaryHeap<Reverse<(u64, usize)>> =
        runs.iter().enumerate().map(|(i, run)| Reverse((run.ready_at(), i))).collect();
    // Runs able to attempt their next phase at the current time.
    let mut runnable: VecDeque<usize> = VecDeque::new();
    // Flush phases held back by the in-flight cap, re-admitted when
    // a draft completes (or the clock otherwise advances).
    let mut deferred: VecDeque<usize> = VecDeque::new();
    while done < n {
        // Surface every waiter whose horizon has passed.
        while let Some(&Reverse((t, i))) = waiting.peek() {
            if t > clock.now() {
                break;
            }
            waiting.pop();
            runnable.push_back(i);
        }
        let Some(i) = runnable.pop_front() else {
            // Nothing runnable now: jump to the earliest unblocking
            // event — the heap's front horizon or an in-flight
            // draft's completion freeing a flush slot.
            let mut wake: Option<u64> = waiting.peek().map(|&Reverse((t, _))| t);
            if !deferred.is_empty() {
                if let Some(t) = sls.store.lock().next_draft_completion(clock.now()) {
                    wake = Some(wake.map_or(t, |w| w.min(t)));
                }
            }
            match wake {
                Some(t) => clock.advance_to(t),
                None => {
                    // The queue is saturated by drafts with no
                    // pending completions (can't happen with a live
                    // device, but never spin): issue one deferred
                    // flush anyway.
                    let i = deferred
                        .pop_front()
                        .expect("undone run neither runnable nor waiting");
                    runs[i].step(sls)?;
                    if runs[i].is_done() {
                        done += 1;
                    } else {
                        runnable.push_back(i);
                    }
                }
            }
            // The clock moved (or a slot freed): deferred flushes
            // get a fresh cap check.
            runnable.extend(deferred.drain(..));
            continue;
        };
        match runs[i].phase() {
            Phase::Done => continue,
            // Only the heap makes a Stop run runnable, so its group's
            // previous checkpoint is durable (per-group backpressure).
            Phase::Stop | Phase::Seal | Phase::Commit => runs[i].step(sls)?,
            Phase::Flush => {
                // Device-health feedback: shrink the flush window
                // while a mirror is degraded, restore it on
                // recovery. Re-read each turn — health changes
                // mid-schedule (a storm mid-checkpoint) take effect
                // on the very next flush admission.
                let cap =
                    if sls.device_degraded() { DEGRADED_MAX_INFLIGHT } else { MAX_INFLIGHT_FLUSHES };
                let inflight = sls.store.lock().inflight_drafts(clock.now());
                if inflight >= cap {
                    deferred.push_back(i);
                    continue;
                }
                runs[i].step(sls)?;
            }
        }
        if runs[i].is_done() {
            done += 1;
        } else {
            runnable.push_back(i);
        }
    }
    Ok(runs.into_iter().map(|r| r.take_stats()).collect())
}
