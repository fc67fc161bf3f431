//! A Redis-like dictionary server with the fork-based RDB save
//! (Tables 1 and 7).
//!
//! `BGSAVE` forks the process and writes the key-value pairs from the
//! child: the parent stalls only for the fork (page-table COW setup),
//! then the child serializes — the paper measures both phases.

use crate::Arena;
use aurora_posix::{KError, Kernel, Pid};
use aurora_sim::clock::Stopwatch;
use aurora_storage::device::SharedDevice;
use std::collections::HashMap;

/// Per-command CPU cost.
pub const SERVICE_NS: u64 = 2_000;
/// RDB serialization throughput, bytes/s (Table 7: writing 500 MB takes
/// ~300 ms "because of serialization overheads").
pub const RDB_SERIALIZE_BW: u64 = 1_670_000_000;

/// What a BGSAVE cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RdbStats {
    /// Parent stall: the fork itself (page-table COW setup).
    pub fork_stop_ns: u64,
    /// Child time to serialize + write the dataset.
    pub save_ns: u64,
    /// Bytes written.
    pub bytes: u64,
    /// Keys saved.
    pub keys: u64,
}

/// The server.
pub struct Redis {
    /// Server process.
    pub pid: Pid,
    arena: Arena,
    dict: HashMap<Vec<u8>, (u64, u32)>,
    bytes: u64,
}

impl Redis {
    /// Launches a server with an `arena_pages`-page data arena, spread
    /// over ~128 mappings like a real jemalloc heap, plus the descriptor
    /// footprint of a running Redis (listening socket, log, config).
    pub fn launch(k: &mut Kernel, arena_pages: u64) -> Result<Self, KError> {
        let pid = k.spawn("redis");
        let chunks = (arena_pages / 1024).clamp(1, 128);
        let arena = Arena::map_chunked(k, pid, arena_pages, chunks)?;
        use crate::aurora_posix_reexports::*;
        let lfd = k.socket(pid, Domain::Inet, SockType::Stream)?;
        k.bind_inet(pid, lfd, InetAddr { ip: 0x7f00_0001, port: 6379 })?;
        k.listen(pid, lfd)?;
        let log = k.open(pid, "/redis.log", OpenFlags::WRONLY, true)?;
        k.write(pid, log, b"redis started")?;
        k.open(pid, "/redis.conf", OpenFlags::RDONLY, true)?;
        Ok(Self { pid, arena, dict: HashMap::new(), bytes: 0 })
    }

    /// SET.
    pub fn set(&mut self, k: &mut Kernel, key: &[u8], value: &[u8]) -> Result<(), KError> {
        k.charge.raw(SERVICE_NS);
        let (addr, wrapped) = self.arena.append(k, value)?;
        if wrapped {
            self.dict.clear();
            self.bytes = 0;
        }
        if self
            .dict
            .insert(key.to_vec(), (addr, value.len() as u32))
            .is_none()
        {
            self.bytes += (key.len() + value.len()) as u64;
        }
        Ok(())
    }

    /// GET.
    pub fn get(&mut self, k: &mut Kernel, key: &[u8]) -> Result<Option<Vec<u8>>, KError> {
        k.charge.raw(SERVICE_NS);
        match self.dict.get(key) {
            Some(&(addr, len)) => Ok(Some(self.arena.read(k, addr, len as usize)?)),
            None => Ok(None),
        }
    }

    /// Populates the server to roughly `target_bytes` of data (setup for
    /// the Table 1/7 runs).
    pub fn populate(&mut self, k: &mut Kernel, target_bytes: u64) -> Result<(), KError> {
        let value = vec![0xAB; 4096 - 64];
        let mut i = 0u64;
        while self.bytes < target_bytes {
            self.set(k, format!("key:{i:012}").as_bytes(), &value)?;
            i += 1;
        }
        Ok(())
    }

    /// BGSAVE: fork, then serialize from the child. The parent's stall is
    /// the fork; the child's serialization + device write happens while
    /// the parent keeps running.
    pub fn bgsave(&mut self, k: &mut Kernel, dev: &SharedDevice) -> Result<RdbStats, KError> {
        let clock = k.charge.clock().clone();

        // Parent stall: fork (the page-table copy dominates).
        let sw_fork = Stopwatch::start(&clock);
        let child = k.fork(self.pid)?;
        let fork_stop_ns = sw_fork.elapsed_ns();

        // Child: walk the dict, serialize each pair, write out. The
        // serialization bandwidth limits the write (Table 7).
        let sw_save = Stopwatch::start(&clock);
        let bytes = self.bytes;
        k.charge.raw(bytes.saturating_mul(1_000_000_000) / RDB_SERIALIZE_BW);
        // One sequential device write of the serialized image.
        {
            let mut d = dev.lock();
            let block = vec![0u8; 1 << 20];
            let blocks = bytes.div_ceil(1 << 20);
            let capacity = d.capacity_blocks();
            for i in 0..blocks {
                let lba = (i * 256) % capacity.saturating_sub(256).max(1);
                d.write(lba, &block).map_err(|_| KError::Inval)?;
            }
            let c = d.flush();
            clock.advance_to(c.done_at);
        }
        let save_ns = sw_save.elapsed_ns();

        k.exit(child)?;
        Ok(RdbStats { fork_stop_ns, save_ns, bytes, keys: self.dict.len() as u64 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aurora_sim::Clock;
    use aurora_storage::testbed_array;

    #[test]
    fn set_get_roundtrip() {
        let mut k = Kernel::boot();
        let mut r = Redis::launch(&mut k, 1024).unwrap();
        r.set(&mut k, b"a", b"1").unwrap();
        assert_eq!(r.get(&mut k, b"a").unwrap().unwrap(), b"1");
    }

    #[test]
    fn bgsave_fork_stall_scales_with_dataset() {
        let mut stalls = Vec::new();
        for mib in [8u64, 64] {
            let mut k = Kernel::boot();
            let dev = testbed_array(k.charge.clock(), 1 << 30);
            let mut r = Redis::launch(&mut k, mib * 256 + 1024).unwrap();
            r.populate(&mut k, mib << 20).unwrap();
            let stats = r.bgsave(&mut k, &dev).unwrap();
            assert!(stats.save_ns > stats.fork_stop_ns, "save happens off the stall");
            stalls.push(stats.fork_stop_ns);
        }
        assert!(stalls[1] > stalls[0] * 3, "fork stall must scale: {stalls:?}");
        let _ = Clock::new();
    }
}
