//! The store's public vocabulary: identifiers, errors, and the plain
//! data types its API takes and returns.

use aurora_frames::PageRef;
use aurora_sim::codec::CodecError;
use aurora_storage::device::DeviceError;
use std::fmt;

/// Page size: equal to the device block size.
pub const PAGE: usize = 4096;

/// A 64-bit on-disk object identifier (§5.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Oid(pub u64);

/// What an on-disk object represents. Memory objects and files are
/// deliberately represented identically (§7); the kind tags exist for the
/// restore code and debugging tools.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObjectKind {
    /// A serialized POSIX object (process, fd, socket, …); subtype is the
    /// serializer's record tag.
    Posix(u16),
    /// A VM/memory object (pages).
    Memory,
    /// A file-system object.
    File,
    /// A non-COW journal.
    Journal,
}

impl ObjectKind {
    /// Raw on-disk kind tag (public for checkpoint streaming).
    pub fn to_raw(self) -> u16 {
        match self {
            ObjectKind::Posix(t) => 0x1000 | t,
            ObjectKind::Memory => 1,
            ObjectKind::File => 2,
            ObjectKind::Journal => 3,
        }
    }

    /// Decodes a raw kind tag.
    pub fn from_raw(v: u16) -> Result<Self> {
        Ok(match v {
            1 => ObjectKind::Memory,
            2 => ObjectKind::File,
            3 => ObjectKind::Journal,
            t if t & 0x1000 != 0 => ObjectKind::Posix(t & 0xFFF),
            _ => return Err(StoreError::Corrupt("object kind")),
        })
    }
}

/// Store errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// Unknown object.
    NoSuchObject(Oid),
    /// Unknown checkpoint epoch.
    NoSuchEpoch(u64),
    /// The page has no version at or before the requested epoch.
    NoSuchPage(Oid, u64),
    /// The object is not (or is) a journal.
    WrongKind(Oid),
    /// The device is full.
    Full,
    /// The journal region is full.
    JournalFull(Oid),
    /// On-disk corruption detected.
    Corrupt(&'static str),
    /// Codec failure while decoding metadata.
    Codec(CodecError),
    /// Device-layer failure, with the store operation it interrupted.
    Device {
        /// The store operation that touched the device.
        op: &'static str,
        /// Object involved, if the operation had one.
        oid: Option<Oid>,
        /// The epoch in progress (or being read) when the device failed.
        epoch: u64,
        /// Consistency group whose draft the operation was staged under
        /// (0 for reads, recovery, and ungrouped callers). Multi-group
        /// abort paths use this to report which group's epoch rolled back.
        group: u64,
        /// The underlying device error.
        source: DeviceError,
    },
}

impl StoreError {
    /// True when retrying the failed operation may succeed — the
    /// type-driven retry policy used by the checkpoint pipeline.
    pub fn is_transient(&self) -> bool {
        matches!(self, StoreError::Device { source, .. } if source.is_transient())
    }

    /// Builds the closure `map_err` wants for a device-touching op.
    pub(crate) fn dev(
        op: &'static str,
        oid: Option<Oid>,
        epoch: u64,
        group: u64,
    ) -> impl FnOnce(DeviceError) -> Self {
        move |source| StoreError::Device { op, oid, epoch, group, source }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NoSuchObject(o) => write!(f, "no such object {o:?}"),
            StoreError::NoSuchEpoch(e) => write!(f, "no such checkpoint epoch {e}"),
            StoreError::NoSuchPage(o, p) => write!(f, "no page {p} in {o:?}"),
            StoreError::WrongKind(o) => write!(f, "wrong object kind for {o:?}"),
            StoreError::Full => write!(f, "store is full"),
            StoreError::JournalFull(o) => write!(f, "journal {o:?} is full"),
            StoreError::Corrupt(w) => write!(f, "corruption: {w}"),
            StoreError::Codec(e) => write!(f, "metadata decode: {e}"),
            StoreError::Device { op, oid, epoch, group, source } => {
                let g = if *group > 0 { format!(", group {group}") } else { String::new() };
                match oid {
                    Some(o) => {
                        write!(f, "device failure during {op} ({o:?}, epoch {epoch}{g}): {source}")
                    }
                    None => write!(f, "device failure during {op} (epoch {epoch}{g}): {source}"),
                }
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, StoreError>;

/// What a commit produced.
///
/// Dropping this silently discards `durable_at`, and with it the only
/// way to wait for the checkpoint (`barrier`) — exactly the external-
/// synchrony bug the paper warns about — hence `#[must_use]`.
#[must_use = "dropping CommitInfo loses durable_at; call barrier() or record it"]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommitInfo {
    /// The committed epoch number.
    pub epoch: u64,
    /// Virtual time at which the checkpoint is durable.
    pub durable_at: u64,
    /// Metadata bytes appended.
    pub meta_bytes: u64,
}

/// One page write handed to [`ObjectStore::append_redo`](crate::ObjectStore::append_redo). `page` is the
/// fully materialized new content (cached and checksummed); `delta`
/// carries the sub-page payload actually logged, or `None` for a
/// full-image record.
#[derive(Clone, Debug)]
pub struct RedoWrite {
    /// Page index within the object.
    pub pindex: u64,
    /// The materialized new page.
    pub page: PageRef,
    /// `(byte offset, payload)` of the changed span; `None` logs a full
    /// image. Deltas require a prior version to chain on — the store
    /// promotes chain-less deltas to full images.
    pub delta: Option<(u32, Vec<u8>)>,
    /// Checksum of the base content the delta was diffed against (ignored
    /// for full images). The store demotes the record to a full image
    /// when this doesn't match the version it would chain on: a stale
    /// diff base must never enter a chain, or replay would materialize
    /// the wrong page.
    pub base_csum: u64,
}

/// A decoded redo record, as handed to replication streams: enough to
/// replay the page change on another node.
#[derive(Clone, Debug)]
pub struct RedoRecordOut {
    /// Log sequence number on the source node.
    pub lsn: u64,
    /// Full-image record (payload is the whole page).
    pub full: bool,
    /// Byte offset of `payload` within the page.
    pub offset: u32,
    /// The changed bytes.
    pub payload: Vec<u8>,
    /// Checksum of the page after applying this record.
    pub page_csum: u64,
}

/// A point-in-time observability snapshot of the store, for the metrics
/// sampler and `sls stat`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreGauges {
    /// Blocks with a cached resident frame.
    pub cache_pages: u64,
    /// Page-cache hits since the store was created/opened.
    pub cache_hits: u64,
    /// Page-cache misses (device reads) since creation.
    pub cache_misses: u64,
    /// Committed epochs retained (history depth).
    pub epochs: u64,
    /// The in-progress epoch number.
    pub current_epoch: u64,
    /// Lowest retained epoch (history floor).
    pub floor: u64,
    /// Live (not deleted) objects.
    pub objects: u64,
    /// Concurrently open drafts (groups with staged, uncommitted state).
    pub open_drafts: u64,
    /// Redo records appended (delta + full) since open.
    pub redo_appended: u64,
    /// Pages materialized by chain replay since open.
    pub redo_materializations: u64,
    /// Device bytes saved by packing sub-page records vs full pages.
    pub redo_bytes_saved: u64,
    /// p95 of the materialization chain length (0 until one happens).
    pub redo_chain_len_p95: u64,
    /// Volume Complete LSN: every record at or below it is on the device.
    pub redo_vcl: u64,
    /// Volume Durable LSN: highest committed consistency point whose
    /// commit record is durable. Never exceeds `redo_vcl`.
    pub redo_vdl: u64,
    /// Blocks of the metadata log holding commit records.
    pub log_blocks: u64,
    /// Data blocks in use: allocated and not yet back on the free list
    /// (reclaimed history still fenced behind its floor commit counts).
    pub data_blocks: u64,
}
