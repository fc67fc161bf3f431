//! A ZFS-like cost model: COW allocation, per-block checksums, indirect
//! block metadata, and a ZIL for synchronous semantics.
//!
//! Calibration notes: ZFS pays checksum CPU on every block (Fletcher4 at
//! roughly 4 GB/s single-threaded; SHA-class when dedup-grade checksums
//! are on), indirect-block updates (one 4 KiB metadata block per 128 KiB
//! of data at 64 KiB recordsize plus spacemap churn), and its `fsync`
//! lands in the intent log with the data, "generating complex changes to
//! file system state" (§9.1).

use crate::{FsError, Result, SimFs};
use aurora_sim::cost::Charge;
use aurora_sim::{Clock, CostModel};
use aurora_storage::device::SharedDevice;
use aurora_storage::testbed_array;
use std::collections::HashMap;

const BLOCK: u64 = 4096;

struct FileState {
    /// Dirty byte ranges not yet on the intent log or in a txg.
    dirty_bytes: u64,
}

/// The ZFS-like baseline.
pub struct ZfsModel {
    dev: SharedDevice,
    charge: Charge,
    /// Data checksum enabled (the "+CSUM" variant of Fig. 3).
    csum: bool,
    files: HashMap<u64, FileState>,
    alloc_cursor: u64,
    capacity: u64,
    /// Bytes written since the last indirect-block metadata write.
    since_meta: u64,
    /// Checksum throughput, bytes/sec.
    csum_bw: u64,
    /// CPU cost of COW allocation + block pointer update per block.
    alloc_ns: u64,
}

impl ZfsModel {
    /// Builds the model over a fresh testbed array.
    pub fn testbed(bytes: u64, csum: bool) -> Self {
        let clock = Clock::new();
        let dev = testbed_array(&clock, bytes);
        Self::over(dev, Charge::new(clock, CostModel::default()), csum)
    }

    /// Builds the model over an existing device.
    pub(crate) fn over(dev: SharedDevice, charge: Charge, csum: bool) -> Self {
        let capacity = dev.lock().capacity_blocks();
        Self {
            dev,
            charge,
            csum,
            files: HashMap::new(),
            alloc_cursor: 1,
            capacity,
            since_meta: 0,
            csum_bw: 3_000_000_000,
            alloc_ns: 900,
        }
    }

    fn alloc(&mut self, blocks: u64) -> u64 {
        let at = self.alloc_cursor;
        self.alloc_cursor += blocks;
        if self.alloc_cursor >= self.capacity {
            self.alloc_cursor = 1; // benchmark wrap; content is irrelevant
            return 1;
        }
        at
    }

    fn write_blocks(&mut self, len: u64, sync: bool) -> Result<()> {
        let blocks = len.div_ceil(BLOCK).max(1);
        // Checksum + allocation CPU.
        if self.csum {
            self.charge.raw(len * 1_000_000_000 / self.csum_bw);
        }
        self.charge.raw(blocks * self.alloc_ns);
        let at = self.alloc(blocks);
        let data = vec![0u8; (blocks * BLOCK) as usize];
        let c = {
            let mut dev = self.dev.lock();
            dev.write(at, &data).map_err(|e| FsError::Backend(e.to_string()))?
        };
        // Indirect-block amplification: one metadata block per 128 KiB.
        self.since_meta += len;
        if self.since_meta >= 128 * 1024 {
            self.since_meta = 0;
            let meta_at = self.alloc(1);
            let meta = vec![0u8; BLOCK as usize];
            let mut dev = self.dev.lock();
            dev.write(meta_at, &meta).map_err(|e| FsError::Backend(e.to_string()))?;
        }
        if sync {
            self.charge.clock().advance_to(c.done_at);
        }
        Ok(())
    }
}

impl SimFs for ZfsModel {
    fn label(&self) -> String {
        if self.csum { "ZFS+CSUM".to_string() } else { "ZFS".to_string() }
    }

    fn create(&mut self, name: u64) -> Result<()> {
        if self.files.contains_key(&name) {
            return Err(FsError::Exists(name));
        }
        // Dnode + directory ZAP update, buffered in the open txg.
        self.charge.raw(2_500);
        self.files.insert(name, FileState { dirty_bytes: 0 });
        Ok(())
    }

    fn write(&mut self, name: u64, _offset: u64, len: u64) -> Result<()> {
        self.charge.memcpy(len); // copy into the ARC
        self.files.get_mut(&name).ok_or(FsError::NoSuchFile(name))?.dirty_bytes += len;
        // Model steady-state txg pressure: data leaves the ARC at write
        // rate once dirty limits are hit — charge the COW write now.
        self.write_blocks(len, false)
    }

    fn read(&mut self, name: u64, _offset: u64, len: u64) -> Result<()> {
        self.files.get(&name).ok_or(FsError::NoSuchFile(name))?;
        if self.csum {
            self.charge.raw(len * 1_000_000_000 / self.csum_bw);
        }
        self.charge.memcpy(len);
        Ok(())
    }

    fn fsync(&mut self, name: u64) -> Result<()> {
        let dirty = {
            let f = self.files.get_mut(&name).ok_or(FsError::NoSuchFile(name))?;
            std::mem::take(&mut f.dirty_bytes)
        };
        // ZIL: log record headers + the dirty data, written synchronously.
        let zil_bytes = dirty + BLOCK; // record + commit block
        self.charge.raw(4_000); // itx assembly, zil header chains
        self.write_blocks(zil_bytes, true)
    }

    fn delete(&mut self, name: u64) -> Result<()> {
        self.files.remove(&name).ok_or(FsError::NoSuchFile(name))?;
        self.charge.raw(2_500);
        Ok(())
    }

    fn finish(&mut self) -> Result<()> {
        // Close the txg.
        let c = self.dev.lock().flush();
        self.charge.clock().advance_to(c.done_at);
        Ok(())
    }

    fn clock(&self) -> Clock {
        self.charge.clock().clone()
    }
}
