//! The Aurora object store (§7): a copy-on-write store holding every
//! checkpointed POSIX object, memory object, and file as a first-class
//! on-disk object addressed by a 64-bit OID.
//!
//! Design, mirroring the paper:
//!
//! * **Copy-on-write data**: page writes always go to freshly allocated
//!   blocks; nothing is modified in place, so a crash can never corrupt a
//!   committed checkpoint.
//! * **Low-latency checkpoints**: a commit appends one compact metadata
//!   record (the changed objects' page→block mappings and metadata blobs)
//!   and becomes durable only after all its data blocks are — the commit
//!   record's device write is ordered behind the data completions.
//! * **Execution history**: every committed epoch remains readable until
//!   explicitly reclaimed ([`ObjectStore::drop_oldest_checkpoint`]); the
//!   reclaim walks superseded block versions, so there is no
//!   log-structured garbage collector to stall checkpoints.
//! * **Non-COW journals** (§7, "Non-COW Objects for the Aurora API"):
//!   preallocated regions updated in place with synchronous writes — the
//!   28 µs 4-KiB append behind `sls_journal`.
//!
//! Recovery ([`ObjectStore::open`]) scans the metadata log for the last
//! valid commit record and exposes exactly the checkpoints up to it; the
//! simulated device drops writes that were still in flight, so the crash
//! tests exercise the real window.

pub mod explore;
pub mod journal;
pub mod store;

pub use aurora_frames::{FrameArena, FrameGauges, PageRef};
pub use explore::{Explorer, OpKind, ScheduleReport, WorkloadOp};
pub use journal::JournalStats;
pub use store::{
    CommitInfo, ObjectKind, ObjectStore, Oid, RedoRecordOut, RedoWrite, StoreError, StoreGauges,
    View, PAGE,
};
