//! The benchmark's `BlockDevice` wrapper: the one instrument that sits
//! *under* the program.
//!
//! In every run it keeps an LBA bitmap (for `dev_footprint_ratio`) and
//! plain I/O counters — integer adds, no clock reads. In the traced run
//! it also opens a `storage.*` span around each I/O, so the enclosing
//! `core.*` span's self time excludes the device model.
//!
//! It forwards *every* trait method, the defaulted ones included: a
//! wrapper that swallowed `geometry` would change where journals place
//! data, and one that swallowed `queue_stats`/`health_report` would
//! change what the checkpoint scheduler sees. The transparency test
//! (`tests/harness.rs`) pins this.

use crate::spans::SpanLog;
use aurora_sim::Clock;
use aurora_storage::{BlockDevice, Completion, HealthReport, QueueStats, SharedDevice};
use std::sync::{Arc, Mutex};

/// What the wrapper has seen since creation.
#[derive(Clone, Debug, Default)]
pub struct DevCounters {
    /// One bit per LBA ever written.
    bitmap: Vec<u64>,
    /// Distinct LBAs ever written.
    pub distinct_lbas: u64,
    /// `write` + `write_after` calls.
    pub writes: u64,
    /// Bytes those calls carried.
    pub write_bytes: u64,
    /// `read` + `read_from` calls.
    pub reads: u64,
    /// Bytes those calls returned.
    pub read_bytes: u64,
    /// `flush` calls.
    pub flushes: u64,
}

impl DevCounters {
    fn note_write(&mut self, lba: u64, bytes: usize, block: usize) {
        self.writes += 1;
        self.write_bytes += bytes as u64;
        for b in lba..lba + (bytes / block) as u64 {
            let (word, bit) = ((b / 64) as usize, b % 64);
            if word >= self.bitmap.len() {
                self.bitmap.resize(word + 1, 0);
            }
            if self.bitmap[word] & (1 << bit) == 0 {
                self.bitmap[word] |= 1 << bit;
                self.distinct_lbas += 1;
            }
        }
    }
}

/// The harness's handle on the wrapper's counters.
#[derive(Clone, Default)]
pub struct DevTap(Arc<Mutex<DevCounters>>);

impl DevTap {
    fn lock(&self) -> std::sync::MutexGuard<'_, DevCounters> {
        self.0
            .lock()
            .expect("device tap is only used by the one benchmark thread")
    }

    /// A copy of the counters without the bitmap.
    pub fn snapshot(&self) -> DevCounters {
        let c = self.lock();
        DevCounters {
            bitmap: Vec::new(),
            ..*c
        }
    }
}

impl std::ops::Sub for &DevCounters {
    type Output = DevCounters;

    /// Counter deltas (`distinct_lbas` included: LBAs first written in
    /// the interval).
    fn sub(self, rhs: &DevCounters) -> DevCounters {
        DevCounters {
            bitmap: Vec::new(),
            distinct_lbas: self.distinct_lbas - rhs.distinct_lbas,
            writes: self.writes - rhs.writes,
            write_bytes: self.write_bytes - rhs.write_bytes,
            reads: self.reads - rhs.reads,
            read_bytes: self.read_bytes - rhs.read_bytes,
            flushes: self.flushes - rhs.flushes,
        }
    }
}

/// A transparent wrapper around a shared device.
pub struct TapDevice {
    inner: SharedDevice,
    clock: Clock,
    block: usize,
    tap: DevTap,
    spans: SpanLog,
}

impl TapDevice {
    /// Wraps `inner`; spans go to `spans` while it is recording.
    pub fn new(inner: SharedDevice, spans: SpanLog) -> (Self, DevTap) {
        let (clock, block) = {
            let d = inner.lock();
            (d.clock().clone(), d.block_size())
        };
        let tap = DevTap::default();
        (
            Self {
                inner,
                clock,
                block,
                tap: tap.clone(),
                spans,
            },
            tap,
        )
    }
}

impl BlockDevice for TapDevice {
    fn block_size(&self) -> usize {
        self.block
    }

    fn capacity_blocks(&self) -> u64 {
        self.inner.lock().capacity_blocks()
    }

    fn clock(&self) -> &Clock {
        &self.clock
    }

    fn read(&mut self, lba: u64, nblocks: u64) -> aurora_storage::device::Result<Vec<u8>> {
        let id = self.spans.enter("storage.read");
        let r = self.inner.lock().read(lba, nblocks);
        let bytes = nblocks * self.block as u64;
        self.spans.exit(id, bytes);
        let mut c = self.tap.lock();
        c.reads += 1;
        c.read_bytes += bytes;
        r
    }

    fn read_from(
        &mut self,
        lba: u64,
        nblocks: u64,
        issue_at: u64,
    ) -> aurora_storage::device::Result<(Vec<u8>, u64)> {
        let id = self.spans.enter("storage.read_from");
        let r = self.inner.lock().read_from(lba, nblocks, issue_at);
        let bytes = nblocks * self.block as u64;
        self.spans.exit(id, bytes);
        let mut c = self.tap.lock();
        c.reads += 1;
        c.read_bytes += bytes;
        r
    }

    fn write(&mut self, lba: u64, data: &[u8]) -> aurora_storage::device::Result<Completion> {
        let id = self.spans.enter("storage.write");
        let r = self.inner.lock().write(lba, data);
        self.spans.exit(id, data.len() as u64);
        if r.is_ok() {
            self.tap.lock().note_write(lba, data.len(), self.block);
        }
        r
    }

    fn write_after(
        &mut self,
        lba: u64,
        data: &[u8],
        after: Completion,
    ) -> aurora_storage::device::Result<Completion> {
        let id = self.spans.enter("storage.write_after");
        let r = self.inner.lock().write_after(lba, data, after);
        self.spans.exit(id, data.len() as u64);
        if r.is_ok() {
            self.tap.lock().note_write(lba, data.len(), self.block);
        }
        r
    }

    fn flush(&mut self) -> Completion {
        let id = self.spans.enter("storage.flush");
        let r = self.inner.lock().flush();
        self.spans.exit(id, 0);
        self.tap.lock().flushes += 1;
        r
    }

    fn crash(&mut self) {
        self.inner.lock().crash();
    }

    fn bytes_written(&self) -> u64 {
        self.inner.lock().bytes_written()
    }

    fn geometry(&self) -> (u64, u64) {
        self.inner.lock().geometry()
    }

    fn set_trace(&mut self, trace: aurora_trace::Trace) {
        self.inner.lock().set_trace(trace);
    }

    fn queue_stats(&self) -> QueueStats {
        self.inner.lock().queue_stats()
    }

    fn health_report(&self) -> HealthReport {
        self.inner.lock().health_report()
    }
}
