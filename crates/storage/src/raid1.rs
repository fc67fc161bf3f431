//! RAID-1 mirroring with health-aware failover and online resilver.
//!
//! [`Raid1`] keeps a full copy of the logical block space on every
//! member. A member is one record: its device, behind its own
//! [`FaultyDevice`] so any mirror can be stormed; its health ladder; and
//! its *stale set*, the blocks whose on-medium copy missed a write and
//! must be resilvered before it can be trusted again. Writes go to all
//! members that are not [`Failed`]; a member that misses a write —
//! because it is failed or errored — has the blocks added to its stale
//! set. Reads prefer the healthiest member whose copy of the range is not
//! stale and fall back across mirrors on error; a fatal read error on
//! one mirror triggers read-repair: the block is rewritten in place from
//! the healthy copy (modelling the device's internal bad-block remap)
//! and counted in the `raid.*` gauges.
//!
//! The [`MirrorHandle`] controls the array from outside the
//! [`BlockDevice`] box and shares its one lock: a member's announced
//! failure ([`fail_mirror`](MirrorHandle::fail_mirror)) and replacement
//! ([`revive_mirror`](MirrorHandle::revive_mirror)) are one call each,
//! incremental [`rebuild_step`](MirrorHandle::rebuild_step) resilvers
//! under virtual time, a verifying [`scrub`](MirrorHandle::scrub)
//! repairs, and the aggregated [`HealthReport`] is what the checkpoint
//! scheduler throttles on. An unannounced death is a fault plan
//! ([`FaultPlan::die_at_write`](crate::faulty::FaultPlan::die_at_write)):
//! the ladder learns of it from the errors.
//!
//! [`Failed`]: HealthState::Failed

use crate::device::{BlockDevice, Completion, DeviceError, QueueStats, Result};
use crate::faulty::{FaultHandle, FaultPlan, FaultyDevice};
use crate::health::{DeviceHealth, HealthReport, HealthState};
use aurora_sim::sync::Mutex;
use aurora_sim::Clock;
use aurora_trace::Trace;
use std::collections::BTreeSet;
use std::sync::Arc;

/// One mirror: its device, its health, and what it must resilver.
struct Member {
    dev: FaultyDevice,
    health: DeviceHealth,
    /// Blocks whose on-medium copy is stale (missed or failed writes)
    /// and must be resilvered before the member's copy can be trusted
    /// again.
    stale: BTreeSet<u64>,
}

impl Member {
    fn failed(&self) -> bool {
        self.health.state() == HealthState::Failed
    }
}

/// The array's state, shared by [`Raid1`] and its [`MirrorHandle`].
struct MirrorState {
    members: Vec<Member>,
    /// Every live logical block written through the array — the bound
    /// for a revived member's resilver, scrub and mirror-identity checks.
    /// [`BlockDevice::discard`] takes freed blocks back out.
    written: BTreeSet<u64>,
    read_fallbacks: u64,
    bad_blocks_remapped: u64,
    rebuild_copied: u64,
    rebuilds_completed: u64,
    trace: Trace,
}

impl MirrorState {
    fn report(&self) -> HealthReport {
        HealthReport {
            member_states: self.members.iter().map(|m| m.health.state()).collect(),
            read_fallbacks: self.read_fallbacks,
            bad_blocks_remapped: self.bad_blocks_remapped,
            rebuild_pending_blocks: self.members.iter().map(|m| m.stale.len() as u64).sum(),
            rebuild_copied_blocks: self.rebuild_copied,
            rebuilds_completed: self.rebuilds_completed,
        }
    }

    /// Member indices to try for a read of `[lba, lba+n)`: members that
    /// are not `Failed` and whose copy of the range is not stale,
    /// healthiest first (ties broken by index for determinism).
    fn read_candidates(&self, lba: u64, nblocks: u64) -> Vec<usize> {
        let mut cands: Vec<usize> = (0..self.members.len())
            .filter(|&i| !self.members[i].failed())
            .filter(|&i| self.members[i].stale.range(lba..lba + nblocks).next().is_none())
            .collect();
        cands.sort_by_key(|&i| (self.members[i].health.state().code(), i));
        cands
    }

    /// Picks the member (other than `exclude`) to copy `lba` from: a live
    /// member with a clean copy when one exists, else the best available
    /// live copy — degraded redundancy, not data loss, since a revived
    /// member's conservative full-resilver set can overlap a survivor's
    /// storm-era stale blocks. The caller marks the chosen copy canonical
    /// for the block.
    fn source_for(&self, lba: u64, exclude: usize) -> Result<usize> {
        let live = |j: &usize| *j != exclude && !self.members[*j].failed();
        let n = self.members.len();
        (0..n)
            .filter(live)
            .find(|&j| !self.members[j].stale.contains(&lba))
            .or_else(|| (0..n).filter(live).min_by_key(|&j| (self.members[j].health.state().code(), j)))
            .ok_or(DeviceError::NoHealthyMirror { lba })
    }

    /// Marks a member rebuilt if its stale set drained, emitting the
    /// completion instant.
    fn finish_rebuild_if_clean(&mut self, member: usize) {
        let m = &mut self.members[member];
        if !m.stale.is_empty() || matches!(m.health.state(), HealthState::Healthy | HealthState::Failed)
        {
            return;
        }
        m.health.mark_rebuilt();
        self.rebuilds_completed += 1;
        if self.trace.is_enabled() {
            self.trace.instant("storage", "raid.rebuild.complete", &[("member", member as u64)]);
        }
    }

    /// Waits out every queued write on the members that get I/O.
    fn flush(&mut self, now: u64) -> Completion {
        let live = self.members.iter_mut().filter(|m| !m.failed());
        live.fold(Completion::immediate(now), |c, m| c.join(m.dev.flush()))
    }
}

/// What a verifying scrub pass found and fixed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Blocks read and compared across mirrors.
    pub checked_blocks: u64,
    /// Blocks rewritten from a healthy copy (stale, unreadable, or
    /// mismatched).
    pub repaired_blocks: u64,
    /// Blocks whose contents disagreed between readable mirrors (silent
    /// divergence — the serious kind).
    pub mismatched_blocks: u64,
}

/// A RAID-1 (mirroring) array over homogeneous members with per-member
/// health tracking. See the module docs.
pub struct Raid1 {
    state: Arc<Mutex<MirrorState>>,
    block_size: usize,
    capacity_blocks: u64,
    clock: Clock,
}

impl Raid1 {
    /// Creates a mirror set over `members` (each gets a copy of the
    /// whole logical space, behind its own fault injector). Returns the
    /// array plus the external control handle.
    ///
    /// Returns [`DeviceError::BadConfig`] for fewer than two members or
    /// heterogeneous geometry.
    pub(crate) fn new(members: Vec<impl BlockDevice + Send + 'static>) -> Result<(Self, MirrorHandle)> {
        if members.len() < 2 {
            return Err(DeviceError::BadConfig { reason: "raid1 needs at least two mirrors" });
        }
        let block_size = members[0].block_size();
        let capacity_blocks = members[0].capacity_blocks();
        let clock = members[0].clock().clone();
        for m in &members {
            if m.block_size() != block_size {
                return Err(DeviceError::BadConfig { reason: "heterogeneous block sizes" });
            }
            if m.capacity_blocks() != capacity_blocks {
                return Err(DeviceError::BadConfig { reason: "heterogeneous capacities" });
            }
        }
        let members = members.into_iter().enumerate().map(|(i, dev)| Member {
            dev: FaultyDevice::new(Box::new(dev), FaultPlan::none()),
            health: DeviceHealth::new(i as u64),
            stale: BTreeSet::new(),
        });
        let state = Arc::new(Mutex::new(MirrorState {
            members: members.collect(),
            written: BTreeSet::new(),
            read_fallbacks: 0,
            bad_blocks_remapped: 0,
            rebuild_copied: 0,
            rebuilds_completed: 0,
            trace: Trace::disabled(),
        }));
        let handle = MirrorHandle { state: state.clone(), clock: clock.clone() };
        Ok((Self { state, block_size, capacity_blocks, clock }, handle))
    }

    fn check_range(&self, lba: u64, nblocks: u64) -> Result<()> {
        if lba + nblocks > self.capacity_blocks {
            return Err(DeviceError::OutOfRange { lba, nblocks, capacity: self.capacity_blocks });
        }
        Ok(())
    }

    fn check_aligned(&self, data: &[u8]) -> Result<u64> {
        if data.is_empty() || !data.len().is_multiple_of(self.block_size) {
            return Err(DeviceError::Misaligned { len: data.len(), block_size: self.block_size });
        }
        Ok((data.len() / self.block_size) as u64)
    }
}

impl BlockDevice for Raid1 {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn capacity_blocks(&self) -> u64 {
        self.capacity_blocks
    }

    fn clock(&self) -> &Clock {
        &self.clock
    }

    fn read(&mut self, lba: u64, nblocks: u64) -> Result<Vec<u8>> {
        let now = self.clock.now();
        let (data, done) = self.read_from(lba, nblocks, now)?;
        self.clock.advance_to(done);
        Ok(data)
    }

    fn read_from(&mut self, lba: u64, nblocks: u64, issue_at: u64) -> Result<(Vec<u8>, u64)> {
        self.check_range(lba, nblocks)?;
        let mut guard = self.state.lock();
        let st = &mut *guard;
        let cands = st.read_candidates(lba, nblocks);
        if cands.is_empty() {
            return Err(DeviceError::NoHealthyMirror { lba });
        }
        // Members that returned a fatal error, for read-repair once a
        // good copy is found.
        let mut fatal_failures: Vec<usize> = Vec::new();
        let mut last_err = DeviceError::NoHealthyMirror { lba };
        for (rank, &i) in cands.iter().enumerate() {
            match st.members[i].dev.read_from(lba, nblocks, issue_at) {
                Ok((data, done)) => {
                    st.members[i].health.record_ok();
                    if rank > 0 {
                        st.read_fallbacks += 1;
                        if st.trace.is_enabled() {
                            st.trace.instant(
                                "storage",
                                "raid.read_fallback",
                                &[("lba", lba), ("member", i as u64)],
                            );
                        }
                    }
                    // Read-repair: rewrite the block range in place on
                    // every mirror whose medium failed it — the device
                    // remaps the bad sectors on write, and the mirror's
                    // copy is fresh again.
                    for &bad in &fatal_failures {
                        let m = &mut st.members[bad];
                        if m.failed() || m.dev.write(lba, &data).is_err() {
                            m.stale.extend(lba..lba + nblocks);
                            continue;
                        }
                        st.bad_blocks_remapped += nblocks;
                        if st.trace.is_enabled() {
                            st.trace.instant(
                                "storage",
                                "raid.remap",
                                &[("lba", lba), ("member", bad as u64), ("blocks", nblocks)],
                            );
                        }
                    }
                    return Ok((data, done));
                }
                Err(e) => {
                    let transient = e.is_transient();
                    st.members[i].health.record_error(transient);
                    if !transient {
                        fatal_failures.push(i);
                    }
                    last_err = e;
                }
            }
        }
        // Every candidate failed. Transient-only failure windows stay
        // transient (the caller's retry may land on a recovered queue);
        // fatal failures on every mirror mean redundancy is exhausted.
        if last_err.is_transient() {
            Err(last_err)
        } else {
            Err(DeviceError::NoHealthyMirror { lba })
        }
    }

    fn write(&mut self, lba: u64, data: &[u8]) -> Result<Completion> {
        self.mirrored_write(lba, data, None)
    }

    fn write_after(&mut self, lba: u64, data: &[u8], after: Completion) -> Result<Completion> {
        self.mirrored_write(lba, data, Some(after))
    }

    fn flush(&mut self) -> Completion {
        let completion = self.state.lock().flush(self.clock.now());
        self.clock.advance_to(completion.done_at);
        completion
    }

    fn crash(&mut self) {
        for m in &mut self.state.lock().members {
            m.dev.crash();
        }
    }

    fn bytes_written(&self) -> u64 {
        self.state.lock().members.iter().map(|m| m.dev.bytes_written()).sum()
    }

    /// Freed blocks leave the resilver, scrub and identity bound and
    /// every member's stale set: nobody reads them before the next write,
    /// which goes to every live member.
    fn discard(&mut self, lba: u64, nblocks: u64) {
        let mut st = self.state.lock();
        for b in lba..lba + nblocks {
            st.written.remove(&b);
            for m in &mut st.members {
                m.stale.remove(&b);
            }
        }
    }

    fn geometry(&self) -> (u64, u64) {
        self.state.lock().members[0].dev.geometry()
    }

    fn set_trace(&mut self, trace: Trace) {
        let mut st = self.state.lock();
        st.trace = trace.clone();
        for m in &mut st.members {
            m.health.set_trace(trace.clone());
            m.dev.set_trace(trace.clone());
        }
    }

    fn queue_stats(&self) -> QueueStats {
        let st = self.state.lock();
        let live = st.members.iter().filter(|m| !m.failed());
        live.fold(QueueStats::default(), |acc, m| acc.merge(m.dev.queue_stats()))
    }

    fn health_report(&self) -> HealthReport {
        self.state.lock().report()
    }
}

impl Raid1 {
    /// The common write path: every non-failed member gets the write;
    /// members that miss it (failed, or erroring now) add the blocks to
    /// their stale set for a later resilver. The write succeeds as long
    /// as one mirror carries it — that is the point of mirroring — and
    /// its durability is the join of the successful copies.
    fn mirrored_write(&mut self, lba: u64, data: &[u8], after: Option<Completion>) -> Result<Completion> {
        let nblocks = self.check_aligned(data)?;
        self.check_range(lba, nblocks)?;
        let mut st = self.state.lock();
        let mut completion: Option<Completion> = None;
        let mut last_err: Option<DeviceError> = None;
        for m in &mut st.members {
            if m.failed() {
                m.stale.extend(lba..lba + nblocks);
                continue;
            }
            let res = match after {
                Some(a) => m.dev.write_after(lba, data, a),
                None => m.dev.write(lba, data),
            };
            match res {
                Ok(c) => {
                    m.health.record_ok();
                    m.health.observe_queue(m.dev.queue_stats().depth);
                    // A fresh write supersedes any staleness of these
                    // blocks on this member.
                    for b in lba..lba + nblocks {
                        m.stale.remove(&b);
                    }
                    completion = Some(completion.map_or(c, |have| have.join(c)));
                }
                Err(e) => {
                    m.health.record_error(e.is_transient());
                    m.stale.extend(lba..lba + nblocks);
                    last_err = Some(e);
                }
            }
        }
        match completion {
            Some(c) => {
                st.written.extend(lba..lba + nblocks);
                Ok(c)
            }
            None => {
                // No mirror carried the write. Preserve transience so
                // the checkpoint pipeline's bounded retry still applies
                // to a correlated-but-transient storm.
                let e = last_err.unwrap_or(DeviceError::NoHealthyMirror { lba });
                if e.is_transient() {
                    Err(e)
                } else {
                    Err(DeviceError::NoHealthyMirror { lba })
                }
            }
        }
    }
}

/// External control of a [`Raid1`] after it is boxed behind the
/// [`BlockDevice`] trait: announced failure and replacement, incremental
/// rebuild, verifying scrub, fault injection per member, and health
/// inspection. Cloneable; all clones share the array's state.
#[derive(Clone)]
pub struct MirrorHandle {
    state: Arc<Mutex<MirrorState>>,
    clock: Clock,
}

impl MirrorHandle {
    /// The aggregated health report (same as the device's
    /// [`BlockDevice::health_report`]).
    pub fn health_report(&self) -> HealthReport {
        self.state.lock().report()
    }

    /// Number of mirrors.
    pub fn members(&self) -> usize {
        self.state.lock().members.len()
    }

    /// The fault injector in front of `member`, for storms and
    /// unannounced deaths ([`FaultPlan::die_at_write`]).
    pub fn faults(&self, member: usize) -> FaultHandle {
        self.state.lock().members[member].dev.handle()
    }

    /// The one announced failure (pulled drive / dead channel): the
    /// member goes `Failed` at once, gets no further I/O, and its missed
    /// writes accumulate in its stale set.
    pub fn fail_mirror(&self, member: usize) {
        self.state.lock().members[member].health.force_fail();
    }

    /// The whole replace-the-drive event: the member's injector is
    /// cleared, its error record starts clean, a `Failed` member comes
    /// back `Degraded`, and a full resilver is scheduled.
    ///
    /// A replacement drive is untrusted: every live block written through
    /// the array is scheduled for resilver, not just the writes the array
    /// knew it missed — writes lost *in flight* when the member died never
    /// made it into the stale set, and only a full resilver (or a
    /// verifying [`scrub`](MirrorHandle::scrub)) catches them.
    pub fn revive_mirror(&self, member: usize) {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        let m = &mut st.members[member];
        m.dev.handle().clear_faults();
        m.health.revive();
        m.stale.extend(st.written.iter().copied());
    }

    /// Blocks still awaiting resilver on `member`.
    pub fn rebuild_pending(&self, member: usize) -> u64 {
        self.state.lock().members[member].stale.len() as u64
    }

    /// Copies up to `max_blocks` stale blocks onto `member` from the
    /// healthiest clean mirror, advancing the virtual clock by the
    /// copy's read latency — an incremental background resilver step a
    /// driver interleaves with live traffic. Completing the last block
    /// returns the member to `Healthy`. Returns blocks copied.
    pub fn rebuild_step(&self, member: usize, max_blocks: u64) -> Result<u64> {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        let mut copied = 0u64;
        while copied < max_blocks {
            let Some(&lba) = st.members[member].stale.first() else { break };
            let source = st.source_for(lba, member)?;
            let (data, done) = st.members[source].dev.read_from(lba, 1, self.clock.now())?;
            self.clock.advance_to(done);
            st.members[member].dev.write(lba, &data)?;
            st.members[member].stale.remove(&lba);
            // The copy we resilvered from is canonical for this block now.
            st.members[source].stale.remove(&lba);
            st.rebuild_copied += 1;
            copied += 1;
        }
        st.finish_rebuild_if_clean(member);
        Ok(copied)
    }

    /// A full verifying scrub: every live block is read from every
    /// non-failed mirror and compared; stale, unreadable, or divergent
    /// copies are repaired from a clean reference. Members whose stale
    /// set drains (and any `Suspect`/`Degraded` member that verified
    /// clean) return to `Healthy`.
    pub fn scrub(&self) -> Result<ScrubReport> {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        let mut report = ScrubReport::default();
        for &lba in &st.written {
            let reference = st.source_for(lba, st.members.len())?;
            let (ref_data, done) = st.members[reference].dev.read_from(lba, 1, self.clock.now())?;
            self.clock.advance_to(done);
            // The reference copy is canonical for this block now (it may
            // have been a best-available fallback carrying a stale mark).
            st.members[reference].stale.remove(&lba);
            report.checked_blocks += 1;
            for (i, m) in st.members.iter_mut().enumerate() {
                if i == reference || m.failed() {
                    continue;
                }
                let needs_repair = m.stale.contains(&lba)
                    || match m.dev.read_from(lba, 1, self.clock.now()) {
                        Ok((data, done)) => {
                            self.clock.advance_to(done);
                            let differs = data != ref_data;
                            report.mismatched_blocks += differs as u64;
                            differs
                        }
                        Err(_) => true,
                    };
                if needs_repair {
                    m.dev.write(lba, &ref_data)?;
                    m.stale.remove(&lba);
                    st.bad_blocks_remapped += 1;
                    report.repaired_blocks += 1;
                }
            }
        }
        // Everything written has been verified or repaired on every
        // non-failed member: the survivors are trustworthy again.
        for i in 0..st.members.len() {
            st.finish_rebuild_if_clean(i);
        }
        Ok(report)
    }

    /// Reads every live block from every non-failed mirror and compares,
    /// repairing nothing: the byte-identity check the degraded-mode
    /// acceptance test asserts after a rebuild.
    pub fn mirrors_identical(&self) -> Result<bool> {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        for &lba in &st.written {
            let mut reference: Option<Vec<u8>> = None;
            for m in st.members.iter_mut().filter(|m| !m.failed()) {
                let (data, done) = m.dev.read_from(lba, 1, self.clock.now())?;
                self.clock.advance_to(done);
                match &reference {
                    None => reference = Some(data),
                    Some(r) if *r != data => return Ok(false),
                    Some(_) => {}
                }
            }
        }
        Ok(true)
    }

    /// Waits out all queued writes on every non-failed member (test
    /// helper mirroring [`BlockDevice::flush`]).
    pub fn flush_members(&self) {
        self.state.lock().flush(self.clock.now());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nvme::{NvmeDevice, NvmeParams, BLOCK_SIZE};

    fn plain_member(clock: &Clock) -> NvmeDevice {
        NvmeDevice::new(clock.clone(), NvmeParams::optane_900p(), 1 << 24)
    }

    fn mirror() -> (Raid1, MirrorHandle) {
        let clock = Clock::new();
        Raid1::new(vec![plain_member(&clock), plain_member(&clock)]).unwrap()
    }

    /// Arms `member` to die at its next write: the unannounced death.
    fn die_at_next_write(h: &MirrorHandle, member: usize) {
        let faults = h.faults(member);
        faults.set_plan(FaultPlan { die_at_write: Some(faults.writes_seen()), ..FaultPlan::none() });
    }

    #[test]
    fn constructor_rejects_bad_configs() {
        let clock = Clock::new();
        let err = Raid1::new(vec![plain_member(&clock)]).err().expect("one mirror is not a mirror");
        assert!(matches!(err, DeviceError::BadConfig { .. }));

        let a = plain_member(&clock);
        let b = NvmeDevice::new(clock.clone(), NvmeParams::optane_900p(), 1 << 25);
        let err = Raid1::new(vec![a, b]).err().expect("mixed capacities must fail");
        assert!(matches!(err, DeviceError::BadConfig { .. }));
    }

    #[test]
    fn mirrored_roundtrip_and_identity() {
        let (mut r, h) = mirror();
        let data: Vec<u8> = (0..8 * BLOCK_SIZE).map(|i| (i % 249) as u8).collect();
        r.write(3, &data).unwrap();
        r.flush();
        assert_eq!(r.read(3, 8).unwrap(), data);
        assert!(h.mirrors_identical().unwrap());
        assert_eq!(h.health_report().degraded_members(), 0);
    }

    #[test]
    fn write_survives_one_dead_mirror_and_rebuild_resilvers() {
        let (mut r, h) = mirror();
        r.write(0, &vec![1u8; BLOCK_SIZE]).unwrap();
        r.flush();

        // Mirror 0 is pulled: writes keep succeeding on the survivor.
        h.fail_mirror(0);
        for i in 1..5u64 {
            r.write(i, &vec![i as u8; BLOCK_SIZE]).unwrap();
        }
        r.flush();
        let report = r.health_report();
        assert_eq!(report.member_states[0], HealthState::Failed);
        assert!(report.rebuild_pending_blocks >= 4, "missed writes accumulate");
        assert_eq!(r.read(3, 1).unwrap(), vec![3u8; BLOCK_SIZE], "survivor serves reads");

        // Replace the mirror and resilver it incrementally.
        h.revive_mirror(0);
        assert_eq!(h.health_report().member_states[0], HealthState::Degraded);
        while h.rebuild_pending(0) > 0 {
            assert!(h.rebuild_step(0, 2).unwrap() > 0);
        }
        h.flush_members();
        assert_eq!(h.health_report().member_states[0], HealthState::Healthy);
        assert!(h.mirrors_identical().unwrap(), "resilver restored byte identity");
        assert!(h.health_report().rebuilds_completed >= 1);
    }

    #[test]
    fn read_falls_back_and_remaps_bad_blocks() {
        let (mut r, h) = mirror();
        r.write(7, &vec![9u8; BLOCK_SIZE]).unwrap();
        r.flush();

        // Mirror 0 grows a bad block at lba 7: the read falls back to
        // mirror 1 and repairs mirror 0 in place.
        h.faults(0).set_plan(FaultPlan { bad_read_blocks: [7].into(), ..FaultPlan::none() });
        assert_eq!(r.read(7, 1).unwrap(), vec![9u8; BLOCK_SIZE]);
        let report = r.health_report();
        assert_eq!(report.read_fallbacks, 1);
        assert!(report.bad_blocks_remapped >= 1);
        // The repair write healed the bad block: mirror 0 serves again.
        assert_eq!(r.read(7, 1).unwrap(), vec![9u8; BLOCK_SIZE]);
        assert_eq!(r.health_report().read_fallbacks, 1, "no second fallback");
    }

    #[test]
    fn stale_member_is_never_read() {
        let (mut r, h) = mirror();
        r.write(0, &vec![1u8; BLOCK_SIZE]).unwrap();
        r.flush();
        h.fail_mirror(0);
        r.write(0, &vec![2u8; BLOCK_SIZE]).unwrap();
        r.flush();
        h.revive_mirror(0);
        // Mirror 0 is back but stale at lba 0: reads must come from 1.
        assert_eq!(r.read(0, 1).unwrap(), vec![2u8; BLOCK_SIZE]);
    }

    #[test]
    fn all_mirrors_failed_is_a_structured_error() {
        let (mut r, h) = mirror();
        r.write(0, &vec![1u8; BLOCK_SIZE]).unwrap();
        r.flush();
        die_at_next_write(&h, 0);
        die_at_next_write(&h, 1);
        // Two fatal write errors push both members to Failed.
        for _ in 0..2 {
            let _ = r.write(1, &vec![1u8; BLOCK_SIZE]);
        }
        let err = r.write(2, &vec![1u8; BLOCK_SIZE]).unwrap_err();
        assert!(matches!(err, DeviceError::NoHealthyMirror { .. }), "{err}");
        assert!(!err.is_transient());
        let err = r.read(0, 1).unwrap_err();
        assert!(matches!(err, DeviceError::NoHealthyMirror { .. }), "{err}");
    }

    #[test]
    fn scrub_detects_and_repairs_divergence() {
        let (mut r, h) = mirror();
        r.write(4, &vec![6u8; BLOCK_SIZE]).unwrap();
        r.flush();
        // Corrupt mirror 1 behind the array's back.
        h.state.lock().members[1].dev.write(4, &vec![0xEEu8; BLOCK_SIZE]).unwrap();
        h.flush_members();
        assert!(!h.mirrors_identical().unwrap());
        let rep = h.scrub().unwrap();
        assert_eq!(rep.mismatched_blocks, 1);
        assert_eq!(rep.repaired_blocks, 1);
        h.flush_members();
        assert!(h.mirrors_identical().unwrap());
        let rep2 = h.scrub().unwrap();
        assert_eq!(rep2.repaired_blocks, 0, "second scrub finds nothing");
    }

    #[test]
    fn health_report_flows_through_the_trait() {
        let (r, h) = mirror();
        let boxed: Box<dyn BlockDevice + Send> = Box::new(r);
        assert_eq!(boxed.health_report(), h.health_report());
        assert_eq!(boxed.health_report().member_states.len(), 2);
    }

    /// A replaced drive starts with a clean error record: its first fatal
    /// error after the revive is its first, not the dead drive's third.
    #[test]
    fn revived_member_starts_with_a_clean_error_record() {
        let (mut r, h) = mirror();
        die_at_next_write(&h, 0);
        for b in 0..2 {
            r.write(b, &vec![1u8; BLOCK_SIZE]).unwrap();
        }
        assert_eq!(h.health_report().member_states[0], HealthState::Failed, "two fatal errors");
        h.revive_mirror(0);
        assert_eq!(h.health_report().member_states[0], HealthState::Degraded);
        die_at_next_write(&h, 0);
        r.write(2, &vec![1u8; BLOCK_SIZE]).unwrap();
        assert_eq!(
            h.health_report().member_states[0],
            HealthState::Degraded,
            "one fatal error on the replacement degrades it; it does not fail it"
        );
    }

    /// An unannounced death needs no second handle to undo: one
    /// `revive_mirror` clears the injector, and the rebuild runs to
    /// `Healthy` with identical mirrors.
    #[test]
    fn one_call_revives_a_member_killed_by_die_at_write() {
        let (mut r, h) = mirror();
        r.write(0, &vec![1u8; BLOCK_SIZE]).unwrap();
        r.flush();
        die_at_next_write(&h, 0);
        for b in 1..6u64 {
            r.write(b, &vec![b as u8; BLOCK_SIZE]).unwrap();
        }
        r.flush();
        assert_eq!(h.health_report().member_states[0], HealthState::Failed);
        h.revive_mirror(0);
        while h.rebuild_pending(0) > 0 {
            assert!(h.rebuild_step(0, 4).unwrap() > 0);
        }
        h.flush_members();
        assert_eq!(h.health_report().member_states[0], HealthState::Healthy);
        assert!(h.mirrors_identical().unwrap());
    }

    /// A discarded range leaves the resilver bound and every stale set;
    /// the next write brings it back.
    #[test]
    fn discard_forgets_freed_blocks() {
        let (mut r, h) = mirror();
        r.write(0, &vec![1u8; 8 * BLOCK_SIZE]).unwrap();
        h.fail_mirror(0);
        r.write(2, &vec![2u8; 4 * BLOCK_SIZE]).unwrap();
        assert_eq!(h.rebuild_pending(0), 4, "missed while failed");
        r.discard(3, 4);
        assert_eq!(h.rebuild_pending(0), 1, "only block 2 is still live and missed");
        h.revive_mirror(0);
        assert_eq!(h.rebuild_pending(0), 4, "blocks 0-2 and 7 are live");
        r.write(4, &vec![3u8; BLOCK_SIZE]).unwrap();
        assert_eq!(h.state.lock().written.len(), 5, "a rewrite makes a block live again");
    }
}
