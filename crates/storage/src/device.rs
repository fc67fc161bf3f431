//! The block device interface.

use aurora_sim::Clock;
use aurora_sim::sync::Mutex;
use std::fmt;
use std::sync::Arc;

/// Errors returned by block devices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeviceError {
    /// An access touched blocks past the end of the device.
    OutOfRange {
        /// First block of the access.
        lba: u64,
        /// Blocks in the access.
        nblocks: u64,
        /// Device capacity in blocks.
        capacity: u64,
    },
    /// A buffer length was not a multiple of the block size.
    Misaligned {
        /// Length supplied.
        len: usize,
        /// Device block size.
        block_size: usize,
    },
    /// The device reported an I/O failure (EIO).
    Io {
        /// First block of the failed access.
        lba: u64,
        /// Whether a retry may succeed (queue/bus glitch) or the medium
        /// itself failed.
        transient: bool,
    },
    /// An array was constructed from an invalid configuration (no
    /// members, zero stripe, heterogeneous geometry).
    BadConfig {
        /// What was wrong.
        reason: &'static str,
    },
    /// Every mirror of a redundant array failed the access — the
    /// structured signal that redundancy is exhausted, distinct from a
    /// single member's EIO.
    NoHealthyMirror {
        /// First block of the failed access.
        lba: u64,
    },
}

impl DeviceError {
    /// True when a bounded retry is a sensible response.
    pub fn is_transient(&self) -> bool {
        matches!(self, DeviceError::Io { transient: true, .. })
    }
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::OutOfRange { lba, nblocks, capacity } => {
                write!(f, "access [{lba}, {}) beyond capacity {capacity}", lba + nblocks)
            }
            DeviceError::Misaligned { len, block_size } => {
                write!(f, "buffer length {len} not a multiple of block size {block_size}")
            }
            DeviceError::Io { lba, transient } => {
                let kind = if *transient { "transient" } else { "fatal" };
                write!(f, "{kind} i/o error at block {lba}")
            }
            DeviceError::BadConfig { reason } => {
                write!(f, "invalid array configuration: {reason}")
            }
            DeviceError::NoHealthyMirror { lba } => {
                write!(f, "no healthy mirror for block {lba}")
            }
        }
    }
}

impl std::error::Error for DeviceError {}

/// Result alias for device operations.
pub type Result<T> = std::result::Result<T, DeviceError>;

/// The completion handle of an asynchronous write.
///
/// The write's data is visible to subsequent reads immediately (the device
/// buffers it), but it only becomes *durable* at `done_at`; a crash before
/// then loses it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Completion {
    /// Virtual time at which the write is durable.
    pub done_at: u64,
}

impl Completion {
    /// A completion that is already durable.
    pub fn immediate(now: u64) -> Self {
        Self { done_at: now }
    }

    /// Merges two completions: durable when both are.
    pub fn join(self, other: Completion) -> Completion {
        Completion { done_at: self.done_at.max(other.done_at) }
    }
}

/// A simulated block device sharing a virtual [`Clock`].
pub trait BlockDevice {
    /// Block size in bytes (4096 throughout the reproduction).
    fn block_size(&self) -> usize;

    /// Capacity in blocks.
    fn capacity_blocks(&self) -> u64;

    /// The device's clock.
    fn clock(&self) -> &Clock;

    /// Synchronously reads `nblocks` starting at `lba`, advancing the
    /// clock by the device's read latency + transfer time.
    fn read(&mut self, lba: u64, nblocks: u64) -> Result<Vec<u8>>;

    /// Reads without advancing the clock: the command is issued at
    /// `issue_at` and the returned completion says when the data is
    /// available. Lets a striping layer issue member reads in parallel
    /// and wait for the slowest.
    fn read_from(&mut self, lba: u64, nblocks: u64, issue_at: u64) -> Result<(Vec<u8>, u64)>;

    /// Queues a write of `data` (must be block-aligned) at `lba`. Returns
    /// when the data will be durable. Does not advance the clock: the
    /// caller keeps executing while the device works (continuous
    /// checkpointing, §6).
    fn write(&mut self, lba: u64, data: &[u8]) -> Result<Completion>;

    /// Like [`write`](BlockDevice::write), but the write is ordered after
    /// `after`: it cannot become durable before that completion. This is
    /// the barrier primitive commit records use — a checkpoint's commit
    /// record must never outrun its data blocks.
    fn write_after(&mut self, lba: u64, data: &[u8], after: Completion) -> Result<Completion>;

    /// Waits for all queued writes to become durable, advancing the clock
    /// to the last completion.
    fn flush(&mut self) -> Completion;

    /// Simulates power loss: every write not yet durable at the current
    /// virtual time is discarded.
    fn crash(&mut self);

    /// Total bytes written since creation (for bandwidth accounting).
    fn bytes_written(&self) -> u64;

    /// Tells the device that nobody will read `[lba, lba + nblocks)`
    /// before it is written again: the store calls it as blocks become
    /// reusable. Bookkeeping only — it touches no clock, trace or byte.
    /// The default is a no-op; a mirror stops resilvering and scrubbing
    /// the range.
    fn discard(&mut self, lba: u64, nblocks: u64) {
        let _ = (lba, nblocks);
    }

    /// Striping geometry: `(member devices, stripe unit in blocks)`.
    /// `(1, 1)` for plain devices. Consumers that need strict write
    /// ordering (journals) use this to place data within one member.
    fn geometry(&self) -> (u64, u64) {
        (1, 1)
    }

    /// Installs a trace recorder. Leaf devices emit per-I/O events;
    /// wrapping layers (striping, fault injection) forward the handle to
    /// their members. The default is a no-op so simple test doubles need
    /// not care.
    fn set_trace(&mut self, trace: aurora_trace::Trace) {
        let _ = trace;
    }

    /// Observability snapshot of the device queue at the current virtual
    /// time. Wrapping layers aggregate their members; the default claims
    /// an empty queue so simple test doubles need not care.
    fn queue_stats(&self) -> QueueStats {
        QueueStats::default()
    }

    /// Aggregated member health for redundant arrays
    /// ([`Raid1`](crate::raid1::Raid1)): per-member states plus failover
    /// and rebuild counters. Wrapping layers forward to their inner
    /// device; plain devices report the default (no members, healthy),
    /// so non-mirrored stacks never appear degraded.
    fn health_report(&self) -> crate::health::HealthReport {
        crate::health::HealthReport::default()
    }
}

/// A point-in-time view of a device's write queue (writes buffered but
/// not yet durable), for the metrics sampler and `sls stat`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Writes queued and not yet durable.
    pub depth: u64,
    /// Bytes those writes cover.
    pub bytes_in_flight: u64,
}

impl QueueStats {
    /// Sums two snapshots (striping aggregation).
    pub(crate) fn merge(self, other: QueueStats) -> QueueStats {
        QueueStats {
            depth: self.depth + other.depth,
            bytes_in_flight: self.bytes_in_flight + other.bytes_in_flight,
        }
    }
}

/// A shareable, lockable device handle.
pub type SharedDevice = Arc<Mutex<dyn BlockDevice + Send>>;

/// Wraps a device in a [`SharedDevice`].
pub fn share(dev: impl BlockDevice + Send + 'static) -> SharedDevice {
    Arc::new(Mutex::new(dev))
}
