//! Applications for the evaluation, running on the simulated kernel:
//!
//! * [`memcached`] — an in-memory key-value server (Figures 4–5): a hash
//!   index over a kernel-memory arena, so every SET dirties real pages
//!   and pays real COW faults under continuous checkpointing.
//! * [`rocksdb`] — a RocksDB-like store (Figure 6) with four persistence
//!   configurations: ephemeral, its own WAL, Aurora transparent (10 ms),
//!   and the Aurora-API custom build (§9.6) that deletes the LSM + WAL
//!   and persists the memtable via `sls_journal` + checkpoints.
//! * [`redis`] — a dictionary server with the fork-based RDB save
//!   (Tables 1 and 7).

pub mod memcached;
pub mod redis;
pub mod rocksdb;

use aurora_posix::{KError, Kernel, Pid};
use aurora_vm::{Prot, PAGE_SIZE};

/// Socket/file types the application modules use, re-exported in one
/// place.
pub(crate) mod aurora_posix_reexports {
    pub use aurora_posix::file::OpenFlags;
    pub use aurora_posix::socket::{Domain, InetAddr, SockType};
}

/// A bump-allocated arena in a process's address space. Values written
/// here dirty real simulated pages — the substrate both KV stores build
/// on.
#[derive(Debug)]
pub struct Arena {
    /// Owning process.
    pub pid: Pid,
    /// Base address.
    pub addr: u64,
    /// Size in bytes.
    pub size: u64,
    bump: u64,
}

impl Arena {
    /// Maps a fresh arena of `pages` pages into `pid`.
    pub(crate) fn map(k: &mut Kernel, pid: Pid, pages: u64) -> Result<Self, KError> {
        let addr = k.mmap_anon(pid, pages, Prot::RW)?;
        Ok(Self { pid, addr, size: pages * PAGE_SIZE as u64, bump: 0 })
    }

    /// Maps an arena as `chunks` separate (but contiguous) mappings — a
    /// realistic allocator footprint: real servers have on the order of
    /// a hundred VM map entries (malloc arenas, libraries, stacks), and
    /// checkpointers pay per entry.
    pub(crate) fn map_chunked(
        k: &mut Kernel,
        pid: Pid,
        pages: u64,
        chunks: u64,
    ) -> Result<Self, KError> {
        assert!(chunks >= 1);
        let per = (pages / chunks).max(1);
        let base = k.mmap_anon(pid, per, Prot::RW)?;
        let mut end = base + per * PAGE_SIZE as u64;
        let mut mapped = per;
        while mapped < pages {
            let n = per.min(pages - mapped);
            let a = k.mmap_anon(pid, n, Prot::RW)?;
            assert_eq!(a, end, "chunked arena must stay contiguous");
            end += n * PAGE_SIZE as u64;
            mapped += n;
        }
        Ok(Self { pid, addr: base, size: mapped * PAGE_SIZE as u64, bump: 0 })
    }

    /// Appends `data`, returning its address. Wraps (clobbering old
    /// content) when full — callers invalidate their indexes on wrap.
    pub(crate) fn append(&mut self, k: &mut Kernel, data: &[u8]) -> Result<(u64, bool), KError> {
        let mut wrapped = false;
        if self.bump + data.len() as u64 > self.size {
            self.bump = 0;
            wrapped = true;
        }
        let at = self.addr + self.bump;
        k.mem_write(self.pid, at, data)?;
        self.bump += data.len() as u64;
        Ok((at, wrapped))
    }

    /// Reads `len` bytes at `addr`.
    pub(crate) fn read(&self, k: &mut Kernel, addr: u64, len: usize) -> Result<Vec<u8>, KError> {
        let mut buf = vec![0u8; len];
        k.mem_read(self.pid, addr, &mut buf)?;
        Ok(buf)
    }

    /// Rebinds this arena's host-side handle to a restored process —
    /// possibly on another kernel. A restored image keeps its virtual
    /// addresses, so the base/size/bump carry over unchanged; only the
    /// owning pid differs (live migration failover).
    pub(crate) fn rebind(&self, pid: Pid) -> Self {
        Self { pid, addr: self.addr, size: self.size, bump: self.bump }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_roundtrip_and_wrap() {
        let mut k = Kernel::boot();
        let pid = k.spawn("app");
        let mut a = Arena::map(&mut k, pid, 2).unwrap();
        let (at, wrapped) = a.append(&mut k, b"hello").unwrap();
        assert!(!wrapped);
        assert_eq!(a.read(&mut k, at, 5).unwrap(), b"hello");
        // Fill past the end: wraps.
        let big = vec![7u8; 8000];
        let (_, w1) = a.append(&mut k, &big).unwrap();
        let (_, w2) = a.append(&mut k, &big).unwrap();
        assert!(w1 || w2, "one of the large appends must wrap");
    }
}
