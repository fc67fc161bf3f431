//! The Aurora file system's data path: files are store objects; the
//! 10 ms checkpoint cadence provides durability; `fsync` is a no-op.

use crate::{FsError, Result, SimFs};
use aurora_objstore::{ObjectKind, ObjectStore, Oid};
use aurora_sim::cost::Charge;
use aurora_sim::units::MS;
use aurora_sim::{Clock, CostModel};
use aurora_storage::testbed_array;
use std::collections::HashMap;

const PAGE: u64 = 4096;

/// The Aurora FS benchmark harness: a thin namespace over the real
/// [`ObjectStore`].
pub struct AuroraFs {
    store: ObjectStore,
    files: HashMap<u64, Oid>,
    /// Checkpoint period (default 10 ms, §3).
    period_ns: u64,
    last_commit_ns: u64,
    commits: u64,
    /// When the newest periodic checkpoint becomes durable. `finish`
    /// waits for this: dropping it would silently skip the barrier and
    /// report results for checkpoints that never reached the device.
    pending_durable_ns: u64,
    /// File creation grabs a global lock in the current implementation
    /// (§9.1: "File creation in Aurora is unoptimized").
    create_lock_ns: u64,
}

impl AuroraFs {
    /// Builds an Aurora FS over a fresh testbed array (`bytes` per
    /// device).
    pub fn testbed(bytes: u64) -> Result<Self> {
        let clock = Clock::new();
        let dev = testbed_array(&clock, bytes);
        let charge = Charge::new(clock, CostModel::default());
        let store = ObjectStore::format(dev, charge, 32 * 1024)
            .map_err(|e| FsError::Backend(e.to_string()))?;
        Ok(Self::over(store))
    }

    /// Builds an Aurora FS over an existing store.
    pub(crate) fn over(store: ObjectStore) -> Self {
        Self {
            store,
            files: HashMap::new(),
            period_ns: 10 * MS,
            last_commit_ns: 0,
            commits: 0,
            pending_durable_ns: 0,
            create_lock_ns: 6_000,
        }
    }

    /// Number of checkpoints committed so far.
    pub fn committed_epochs(&self) -> u64 {
        self.commits
    }

    fn maybe_checkpoint(&mut self) -> Result<()> {
        let now = self.store.charge().clock().now();
        if now.saturating_sub(self.last_commit_ns) >= self.period_ns {
            let info = self.store.commit().map_err(|e| FsError::Backend(e.to_string()))?;
            self.pending_durable_ns = self.pending_durable_ns.max(info.durable_at);
            self.last_commit_ns = now;
            self.commits += 1;
            let trace = self.store.charge().trace();
            if trace.is_enabled() {
                trace.instant(
                    "fs",
                    "fs.checkpoint",
                    &[("epoch", info.epoch), ("durable_at", info.durable_at)],
                );
            }
        }
        Ok(())
    }
}

impl SimFs for AuroraFs {
    fn label(&self) -> String {
        "Aurora".to_string()
    }

    fn create(&mut self, name: u64) -> Result<()> {
        if self.files.contains_key(&name) {
            return Err(FsError::Exists(name));
        }
        // Global creation lock (unoptimized path, §9.1).
        self.store.charge().raw(self.create_lock_ns);
        let oid = self.store.alloc_oid();
        self.store
            .create_object(oid, ObjectKind::File)
            .map_err(|e| FsError::Backend(e.to_string()))?;
        self.files.insert(name, oid);
        self.maybe_checkpoint()
    }

    fn write(&mut self, name: u64, offset: u64, len: u64) -> Result<()> {
        let oid = *self.files.get(&name).ok_or(FsError::NoSuchFile(name))?;
        let first = offset / PAGE;
        let last = (offset + len).div_ceil(PAGE);
        let zero = aurora_objstore::PageRef::zero();
        for pi in first..last {
            self.store
                .write_pages(oid, &[(pi, zero.clone())])
                .map_err(|e| FsError::Backend(e.to_string()))?;
        }
        self.maybe_checkpoint()
    }

    fn read(&mut self, name: u64, _offset: u64, len: u64) -> Result<()> {
        // A single level store holds file data in memory: reads are page
        // cache hits (a memcpy), exactly like the ARC/buffer-cache hits
        // the ZFS and FFS models charge.
        self.files.get(&name).ok_or(FsError::NoSuchFile(name))?;
        self.store.charge().memcpy(len);
        Ok(())
    }

    fn fsync(&mut self, name: u64) -> Result<()> {
        // Checkpoint consistency makes fsync a no-op (§5.2); only the
        // syscall boundary is paid.
        self.files.get(&name).ok_or(FsError::NoSuchFile(name))?;
        self.store.charge().raw(self.store.charge().model().syscall_ns);
        Ok(())
    }

    fn delete(&mut self, name: u64) -> Result<()> {
        let oid = self.files.remove(&name).ok_or(FsError::NoSuchFile(name))?;
        self.store.delete_object(oid).map_err(|e| FsError::Backend(e.to_string()))?;
        self.maybe_checkpoint()
    }

    fn finish(&mut self) -> Result<()> {
        let info = self.store.commit().map_err(|e| FsError::Backend(e.to_string()))?;
        self.commits += 1;
        // Wait for the final commit *and* every periodic one before it.
        self.store.barrier(info);
        self.store.charge().clock().advance_to(self.pending_durable_ns);
        Ok(())
    }

    fn clock(&self) -> Clock {
        self.store.charge().clock().clone()
    }
}
