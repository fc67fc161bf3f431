//! Per-device health tracking for degraded-mode storage.
//!
//! A `DeviceHealth` tracker sits in each member of a redundant array
//! and classifies it on a four-state ladder:
//!
//! ```text
//! Healthy → Suspect → Degraded → Failed
//! ```
//!
//! Transitions are driven by the error stream (transient EIOs climb the
//! ladder gradually, fatal medium errors jump it) and by queue-depth
//! observations (a member whose queue grows far beyond its siblings' is
//! lagging — latency is an early failure signal, §"fail-slow" faults).
//! `Suspect` heals itself after a run of clean I/O; `Degraded` and
//! `Failed` only recover through an explicit scrub/rebuild because their
//! on-medium contents can no longer be trusted. The thresholds are
//! constants: the ladder has one calibration.
//!
//! The tracker is pure bookkeeping: it never touches the device. The
//! array ([`crate::raid1::Raid1`]) feeds it outcomes and consults its
//! state to steer reads away from sick members; the
//! checkpoint scheduler reads the aggregated [`HealthReport`] to shrink
//! its flush window while the array runs degraded.

use aurora_trace::Trace;

/// Where a device sits on the health ladder.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// Serving normally.
    #[default]
    Healthy,
    /// Recent transient errors or lagging queue; still trusted for
    /// reads, heals itself after a clean streak.
    Suspect,
    /// Error rate crossed the degraded threshold or a fatal error hit:
    /// avoided for reads, still written (so it does not fall behind),
    /// returns to `Healthy` only via scrub/rebuild.
    Degraded,
    /// Administratively pulled, dead, or past the fatal-error budget:
    /// not read, not written; its missed writes accumulate for a
    /// resilver.
    Failed,
}

impl HealthState {
    /// Stable numeric code for gauges (0 = healthy … 3 = failed).
    pub fn code(self) -> u64 {
        match self {
            HealthState::Healthy => 0,
            HealthState::Suspect => 1,
            HealthState::Degraded => 2,
            HealthState::Failed => 3,
        }
    }
}

/// Consecutive transient errors promoting `Healthy` to `Suspect`.
const SUSPECT_ERRORS: u32 = 1;
/// Consecutive transient errors promoting to `Degraded`.
const DEGRADED_ERRORS: u32 = 3;
/// Fatal (non-transient) errors tolerated before `Failed`; each fatal
/// error lands the member in at least `Degraded` immediately.
const FAILED_ERRORS: u32 = 2;
/// Consecutive clean operations that heal `Suspect` back to `Healthy`.
const RECOVER_OKS: u32 = 16;
/// Queue depth at which a member counts as lagging (latency signal): a
/// `Healthy` member at or past this depth becomes `Suspect`.
const QUEUE_SUSPECT_DEPTH: u64 = 1 << 16;

/// The per-device health state machine. See the module docs.
#[derive(Clone, Debug)]
pub(crate) struct DeviceHealth {
    member: u64,
    state: HealthState,
    consecutive_transient: u32,
    fatal_errors: u32,
    ok_streak: u32,
    trace: Trace,
}

impl DeviceHealth {
    /// A healthy tracker for array member `member`.
    pub(crate) fn new(member: u64) -> Self {
        Self {
            member,
            state: HealthState::Healthy,
            consecutive_transient: 0,
            fatal_errors: 0,
            ok_streak: 0,
            trace: Trace::disabled(),
        }
    }

    /// Installs a trace recorder; transitions emit
    /// `device.health.transition` instants.
    pub(crate) fn set_trace(&mut self, trace: Trace) {
        self.trace = trace;
    }

    /// Current state.
    pub(crate) fn state(&self) -> HealthState {
        self.state
    }

    fn transition(&mut self, to: HealthState) {
        if to == self.state {
            return;
        }
        if self.trace.is_enabled() {
            self.trace.instant(
                "storage",
                "device.health.transition",
                &[("member", self.member), ("from", self.state.code()), ("to", to.code())],
            );
        }
        self.state = to;
    }

    /// Promotes only (never heals): the ladder is climbed by errors and
    /// descended only by [`record_ok`](Self::record_ok) /
    /// [`mark_rebuilt`](Self::mark_rebuilt).
    fn promote(&mut self, to: HealthState) {
        if to > self.state {
            self.transition(to);
        }
    }

    /// Feeds one failed operation. `transient` distinguishes a queue
    /// glitch (climbs the ladder gradually) from a medium failure
    /// (jumps to `Degraded`, then `Failed` past the fatal budget).
    pub(crate) fn record_error(&mut self, transient: bool) {
        self.ok_streak = 0;
        if transient {
            self.consecutive_transient += 1;
            if self.consecutive_transient >= DEGRADED_ERRORS {
                self.promote(HealthState::Degraded);
            } else if self.consecutive_transient >= SUSPECT_ERRORS {
                self.promote(HealthState::Suspect);
            }
        } else {
            self.fatal_errors += 1;
            if self.fatal_errors >= FAILED_ERRORS {
                self.promote(HealthState::Failed);
            } else {
                self.promote(HealthState::Degraded);
            }
        }
    }

    /// Feeds one successful operation. A clean streak heals `Suspect`;
    /// `Degraded`/`Failed` stay until rebuilt.
    pub(crate) fn record_ok(&mut self) {
        self.consecutive_transient = 0;
        self.ok_streak = self.ok_streak.saturating_add(1);
        if self.state == HealthState::Suspect && self.ok_streak >= RECOVER_OKS {
            self.transition(HealthState::Healthy);
        }
    }

    /// Feeds a queue-depth observation (the latency signal from
    /// [`QueueStats`](crate::device::QueueStats)).
    pub(crate) fn observe_queue(&mut self, depth: u64) {
        if depth >= QUEUE_SUSPECT_DEPTH && self.state == HealthState::Healthy {
            self.promote(HealthState::Suspect);
        }
    }

    /// Administratively fails the member (pulled drive, dead channel).
    pub(crate) fn force_fail(&mut self) {
        self.transition(HealthState::Failed);
    }

    /// A replaced drive: its error record starts clean, and a `Failed`
    /// member is present again but stale — `Degraded` until a rebuild
    /// resilvers it.
    pub(crate) fn revive(&mut self) {
        self.consecutive_transient = 0;
        self.fatal_errors = 0;
        self.ok_streak = 0;
        if self.state == HealthState::Failed {
            self.transition(HealthState::Degraded);
        }
    }

    /// A completed scrub/rebuild verified the member's contents:
    /// back to `Healthy` with counters cleared. Never called on a
    /// `Failed` member, which gets no I/O to verify.
    pub(crate) fn mark_rebuilt(&mut self) {
        self.revive();
        self.transition(HealthState::Healthy);
    }
}

/// Aggregated health of a device stack, surfaced through
/// [`BlockDevice::health_report`](crate::device::BlockDevice::health_report)
/// so the checkpoint scheduler and the gauges can see it without knowing
/// the array layout. Plain (non-redundant) devices return the default:
/// no members, nothing degraded.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HealthReport {
    /// Per-member states, array order. Empty for plain devices.
    pub member_states: Vec<HealthState>,
    /// Reads served by a non-preferred mirror after the preferred one
    /// failed.
    pub read_fallbacks: u64,
    /// Bad blocks remapped (rewritten in place from a healthy copy).
    pub bad_blocks_remapped: u64,
    /// Blocks still awaiting resilver across all members.
    pub rebuild_pending_blocks: u64,
    /// Blocks copied by rebuild/scrub since creation.
    pub rebuild_copied_blocks: u64,
    /// Rebuilds that ran to completion.
    pub rebuilds_completed: u64,
}

impl HealthReport {
    /// Members not `Healthy`.
    pub fn degraded_members(&self) -> u64 {
        self.member_states.iter().filter(|s| **s != HealthState::Healthy).count() as u64
    }

    /// The worst member state's code (0 when empty/healthy).
    pub fn worst_code(&self) -> u64 {
        self.member_states.iter().map(|s| s.code()).max().unwrap_or(0)
    }

    /// True when any member is `Degraded` or `Failed` — the signal the
    /// checkpoint scheduler throttles on. `Suspect` alone does not
    /// trigger degraded mode.
    pub fn is_degraded(&self) -> bool {
        self.member_states.iter().any(|s| *s >= HealthState::Degraded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_errors_climb_the_ladder() {
        let mut h = DeviceHealth::new(0);
        assert_eq!(h.state(), HealthState::Healthy);
        h.record_error(true);
        assert_eq!(h.state(), HealthState::Suspect);
        h.record_error(true);
        h.record_error(true);
        assert_eq!(h.state(), HealthState::Degraded);
    }

    #[test]
    fn clean_streak_heals_suspect_but_not_degraded() {
        let mut h = DeviceHealth::new(0);
        h.record_error(true);
        assert_eq!(h.state(), HealthState::Suspect);
        for _ in 0..RECOVER_OKS {
            h.record_ok();
        }
        assert_eq!(h.state(), HealthState::Healthy);

        for _ in 0..DEGRADED_ERRORS {
            h.record_error(true);
        }
        assert_eq!(h.state(), HealthState::Degraded);
        for _ in 0..100 {
            h.record_ok();
        }
        assert_eq!(h.state(), HealthState::Degraded, "degraded needs a rebuild");
        h.mark_rebuilt();
        assert_eq!(h.state(), HealthState::Healthy);
    }

    #[test]
    fn fatal_errors_jump_to_degraded_then_failed() {
        let mut h = DeviceHealth::new(0);
        h.record_error(false);
        assert_eq!(h.state(), HealthState::Degraded);
        h.record_error(false);
        assert_eq!(h.state(), HealthState::Failed);
    }

    #[test]
    fn queue_depth_is_a_latency_signal() {
        let mut h = DeviceHealth::new(0);
        h.observe_queue(QUEUE_SUSPECT_DEPTH - 1);
        assert_eq!(h.state(), HealthState::Healthy);
        h.observe_queue(QUEUE_SUSPECT_DEPTH);
        assert_eq!(h.state(), HealthState::Suspect);
    }

    #[test]
    fn revive_lands_in_degraded_not_healthy() {
        let mut h = DeviceHealth::new(0);
        h.force_fail();
        assert_eq!(h.state(), HealthState::Failed);
        h.revive();
        assert_eq!(h.state(), HealthState::Degraded, "revived member is stale");
    }

    #[test]
    fn transitions_emit_trace_instants() {
        let t = Trace::recording(|| 0);
        let mut h = DeviceHealth::new(2);
        h.set_trace(t.clone());
        h.record_error(true);
        h.force_fail();
        let names: Vec<_> = t
            .events()
            .iter()
            .filter(|e| e.name == "device.health.transition")
            .map(|e| (e.args[1].1, e.args[2].1))
            .collect();
        assert_eq!(names, vec![(0, 1), (1, 3)], "healthy→suspect, suspect→failed");
    }

    #[test]
    fn report_aggregates() {
        let r = HealthReport {
            member_states: vec![HealthState::Healthy, HealthState::Degraded],
            ..HealthReport::default()
        };
        assert_eq!(r.degraded_members(), 1);
        assert_eq!(r.worst_code(), 2);
        assert!(r.is_degraded());
        assert!(!HealthReport::default().is_degraded());
    }
}
