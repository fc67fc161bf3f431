//! An FFS-like cost model with soft-updates journaling (SU+J).
//!
//! FFS writes data in place (no COW allocation work), keeps metadata
//! consistent with soft updates, and journals them (SU+J) so recovery
//! needs no full fsck. Small writes benefit from fragments: sub-block
//! allocations avoid write amplification, and delayed allocation promotes
//! fragments to full blocks before the IO issues (§9.1).

use crate::{FsError, Result, SimFs};
use aurora_sim::cost::Charge;
use aurora_sim::{Clock, CostModel};
use aurora_storage::device::SharedDevice;
use aurora_storage::testbed_array;
use std::collections::HashMap;

const BLOCK: u64 = 4096;

struct FileState {
    dirty_bytes: u64,
    base_block: u64,
}

/// The FFS (SU+J) baseline.
pub struct FfsModel {
    dev: SharedDevice,
    charge: Charge,
    files: HashMap<u64, FileState>,
    alloc_cursor: u64,
    capacity: u64,
    /// Buffered SU+J journal entries awaiting a flush.
    pending_journal: u64,
}

impl FfsModel {
    /// Builds the model over a fresh testbed array.
    pub fn testbed(bytes: u64) -> Self {
        let clock = Clock::new();
        let dev = testbed_array(&clock, bytes);
        Self::over(dev, Charge::new(clock, CostModel::default()))
    }

    /// Builds the model over an existing device.
    pub(crate) fn over(dev: SharedDevice, charge: Charge) -> Self {
        let capacity = dev.lock().capacity_blocks();
        Self { dev, charge, files: HashMap::new(), alloc_cursor: 1, capacity, pending_journal: 0 }
    }

    fn alloc(&mut self, blocks: u64) -> u64 {
        let at = self.alloc_cursor;
        self.alloc_cursor += blocks;
        if self.alloc_cursor >= self.capacity {
            self.alloc_cursor = 1;
            return 1;
        }
        at
    }

    fn journal_flush(&mut self, sync: bool) -> Result<()> {
        if self.pending_journal == 0 {
            return Ok(());
        }
        self.pending_journal = 0;
        let at = self.alloc(1);
        let block = vec![0u8; BLOCK as usize];
        let c = {
            let mut dev = self.dev.lock();
            dev.write(at, &block).map_err(|e| FsError::Backend(e.to_string()))?
        };
        if sync {
            self.charge.clock().advance_to(c.done_at);
        }
        Ok(())
    }
}

impl SimFs for FfsModel {
    fn label(&self) -> String {
        "FFS".to_string()
    }

    fn create(&mut self, name: u64) -> Result<()> {
        if self.files.contains_key(&name) {
            return Err(FsError::Exists(name));
        }
        // Inode init + directory update, ordered by soft updates
        // (buffered); one journal entry.
        self.charge.raw(1_500);
        self.pending_journal += 1;
        if self.pending_journal >= 32 {
            self.journal_flush(false)?;
        }
        let base = self.alloc(256); // contiguous layout reservation
        self.files.insert(name, FileState { dirty_bytes: 0, base_block: base });
        Ok(())
    }

    fn write(&mut self, name: u64, offset: u64, len: u64) -> Result<()> {
        self.charge.memcpy(len); // buffer cache copy
        let (base, blocks) = {
            let f = self.files.get_mut(&name).ok_or(FsError::NoSuchFile(name))?;
            f.dirty_bytes += len;
            // Fragments + delayed allocation: sub-block writes coalesce,
            // so the issued IO is just the data, rounded to fragments
            // (1 KiB), not whole blocks.
            let frag = 1024;
            let bytes = len.div_ceil(frag) * frag;
            (f.base_block, bytes.div_ceil(BLOCK).max(1))
        };
        // In-place write: no allocation CPU beyond the block map walk.
        self.charge.raw(250);
        let at = (base + offset / BLOCK) % self.capacity.max(1);
        let data = vec![0u8; (blocks * BLOCK) as usize];
        let mut dev = self.dev.lock();
        let end = if at + blocks >= self.capacity { 1 } else { at };
        dev.write(end, &data).map_err(|e| FsError::Backend(e.to_string()))?;
        Ok(())
    }

    fn read(&mut self, name: u64, _offset: u64, len: u64) -> Result<()> {
        self.files.get(&name).ok_or(FsError::NoSuchFile(name))?;
        self.charge.memcpy(len);
        Ok(())
    }

    fn fsync(&mut self, name: u64) -> Result<()> {
        let dirty = {
            let f = self.files.get_mut(&name).ok_or(FsError::NoSuchFile(name))?;
            std::mem::take(&mut f.dirty_bytes)
        };
        // Rewrite the file's dirty data synchronously + flush the journal.
        if dirty > 0 {
            let blocks = dirty.div_ceil(BLOCK);
            let at = self.alloc(blocks);
            let data = vec![0u8; (blocks * BLOCK) as usize];
            let c = {
                let mut dev = self.dev.lock();
                dev.write(at, &data).map_err(|e| FsError::Backend(e.to_string()))?
            };
            self.charge.clock().advance_to(c.done_at);
        }
        self.journal_flush(true)
    }

    fn delete(&mut self, name: u64) -> Result<()> {
        self.files.remove(&name).ok_or(FsError::NoSuchFile(name))?;
        self.charge.raw(1_500);
        self.pending_journal += 1;
        Ok(())
    }

    fn finish(&mut self) -> Result<()> {
        self.journal_flush(false)?;
        let c = self.dev.lock().flush();
        self.charge.clock().advance_to(c.done_at);
        Ok(())
    }

    fn clock(&self) -> Clock {
        self.charge.clock().clone()
    }
}
