//! A RocksDB-like store with four persistence configurations (Figure 6,
//! §9.6).
//!
//! The real RocksDB has three persistence structures: the memtable, the
//! LSM tree of SST files, and the WAL. The paper's customized build
//! replaces 81 k SLOC of LSM + WAL with 109 lines of Aurora API calls:
//! the memtable *is* the database (sized to hold it all), `sls_journal`
//! replaces the WAL, and a full checkpoint clears the journal when it
//! fills.
//!
//! [`Persistence`] selects the configuration; [`aurora_glue`] is this
//! reproduction's literal counterpart of the 109-line patch.

use crate::Arena;
use aurora_core::{AuroraApi, GroupId, Sls, SlsError};
use aurora_objstore::Oid;
use aurora_posix::Pid;
use aurora_sim::codec::Encoder;
use std::collections::BTreeMap;

/// Aggregate per-operation CPU cost of the 8-thread server (skiplist
/// walk + comparator), calibrated so the ephemeral configuration peaks
/// in the paper's multi-million-ops/s range.
pub const SERVICE_NS: u64 = 350;
/// Extra CPU for a WAL record build (checksums, framing).
pub const WAL_RECORD_NS: u64 = 600;
/// The file system work RocksDB's own WAL pays on every fsync beyond the
/// raw device write (inode update + FFS journal ordering) — the paper's
/// unmodified-WAL configuration goes through a conventional FS, the
/// custom build through a bare non-COW journal.
pub const WAL_FS_SYNC_NS: u64 = 24_000;
/// Skiplist index pages: every PUT writes tower nodes scattered across
/// the index (the dirty-page source that makes transparent
/// checkpointing expensive).
pub const INDEX_PAGES: u64 = 16384;
/// Tower levels written per PUT.
pub const TOWER_WRITES: u64 = 6;

/// Persistence configuration (the four bars of Figure 6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Persistence {
    /// No persistence at all ("RocksDB, No Sync" baseline).
    Ephemeral,
    /// RocksDB's own write-ahead log; `sync` selects fsync-per-write.
    Wal {
        /// fsync every write (the "Sync" configuration).
        sync: bool,
    },
    /// Unmodified binary under Aurora's transparent 10 ms checkpoints.
    AuroraTransparent,
    /// The §9.6 custom build: `sls_journal` WAL + checkpoint-on-full.
    AuroraWal {
        /// fsync every write (always true in the paper's Sync runs).
        sync: bool,
    },
}

/// SST file metadata (exercised by tests; the Figure 6 runs keep the
/// whole database in the memtable, §9.6).
#[derive(Clone, Debug)]
pub struct SsTable {
    /// Smallest key.
    pub min_key: Vec<u8>,
    /// Largest key.
    pub max_key: Vec<u8>,
    /// Entries.
    pub entries: u64,
    /// Bytes written.
    pub bytes: u64,
}

/// The store.
pub struct RocksDb {
    /// Server process.
    pub pid: Pid,
    mode: Persistence,
    arena: Arena,
    /// Skiplist index region (tower nodes), written on every PUT.
    index_addr: u64,
    memtable: BTreeMap<Vec<u8>, (u64, u32)>,
    memtable_bytes: u64,
    /// Own-WAL state: bytes since last SST flush.
    wal_bytes: u64,
    /// WAL size limit before a flush/checkpoint is triggered.
    pub wal_limit: u64,
    /// The store journal used by both WAL flavours.
    journal: Option<Oid>,
    /// Aurora group (Aurora modes only).
    group: Option<GroupId>,
    /// Flushed SSTs (own-WAL mode only).
    pub ssts: Vec<SsTable>,
    /// Operations served.
    pub ops: u64,
    /// Checkpoints triggered by WAL-full (AuroraWal mode).
    pub checkpoints_triggered: u64,
}

impl RocksDb {
    /// Opens a database inside `sls` with an `arena_pages`-page memtable
    /// arena.
    pub fn open(
        sls: &mut Sls,
        arena_pages: u64,
        mode: Persistence,
        group: Option<GroupId>,
    ) -> Result<Self, SlsError> {
        let pid = sls.kernel.spawn("rocksdb");
        for _ in 1..8 {
            sls.kernel.add_thread(pid)?;
        }
        let arena = Arena::map(&mut sls.kernel, pid, arena_pages)?;
        let index_addr = sls.kernel.mmap_anon(pid, INDEX_PAGES, aurora_vm::Prot::RW)?;
        let journal = match mode {
            Persistence::Wal { .. } | Persistence::AuroraWal { .. } => {
                Some(sls.sls_journal_create(16 * 1024)?) // 64 MiB WAL
            }
            _ => None,
        };
        Ok(Self {
            pid,
            mode,
            arena,
            index_addr,
            memtable: BTreeMap::new(),
            memtable_bytes: 0,
            wal_bytes: 0,
            wal_limit: 8 << 20,
            journal,
            group,
            ssts: Vec::new(),
            ops: 0,
            checkpoints_triggered: 0,
        })
    }

    fn touch_index(&mut self, sls: &mut Sls, key: &[u8]) -> Result<(), SlsError> {
        // Skiplist towers: a handful of node writes scattered across the
        // index region (level chosen by the key hash, like a real tower).
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in key {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        for level in 0..TOWER_WRITES {
            let slot = (h.rotate_left(13 * level as u32)) % (INDEX_PAGES * 4096 / 64);
            let addr = self.index_addr + slot * 64;
            sls.kernel.mem_write(self.pid, addr, &h.to_le_bytes())?;
        }
        Ok(())
    }

    /// PUT: insert/overwrite a key.
    pub fn put(&mut self, sls: &mut Sls, key: &[u8], value: &[u8]) -> Result<(), SlsError> {
        sls.kernel.charge.raw(SERVICE_NS);
        self.touch_index(sls, key)?;
        self.ops += 1;
        // 1. The WAL, first (write-ahead).
        match self.mode {
            Persistence::Wal { sync } => {
                sls.kernel.charge.raw(WAL_RECORD_NS);
                let rec = wal_record(key, value);
                if sync {
                    // fsync-per-write through the FS: the journal append
                    // plus the file system's inode/journal ordering work.
                    sls.sls_journal(self.journal.expect("wal mode"), &rec)?;
                    sls.kernel.charge.raw(WAL_FS_SYNC_NS);
                } else {
                    // Buffered WAL: CPU only; data lost on crash.
                    sls.kernel.charge.memcpy(rec.len() as u64);
                }
                self.wal_bytes += rec.len() as u64;
                if self.wal_bytes >= self.wal_limit {
                    self.flush_sst(sls)?;
                }
            }
            Persistence::AuroraWal { sync } => {
                aurora_glue::log_put(self, sls, key, value, sync)?;
            }
            Persistence::Ephemeral | Persistence::AuroraTransparent => {}
        }
        // 2. The memtable.
        let (addr, wrapped) = self.arena.append(&mut sls.kernel, value)?;
        if wrapped {
            self.memtable.clear();
            self.memtable_bytes = 0;
        }
        self.memtable.insert(key.to_vec(), (addr, value.len() as u32));
        self.memtable_bytes += (key.len() + value.len()) as u64;
        Ok(())
    }

    /// GET: point lookup (memtable-resident by construction, §9.6).
    pub fn get(&mut self, sls: &mut Sls, key: &[u8]) -> Result<Option<Vec<u8>>, SlsError> {
        sls.kernel.charge.raw(SERVICE_NS);
        self.ops += 1;
        match self.memtable.get(key) {
            Some(&(addr, len)) => Ok(Some(self.arena.read(&mut sls.kernel, addr, len as usize)?)),
            None => Ok(None),
        }
    }

    /// SEEK: short range scan from `key`.
    pub fn seek(&mut self, sls: &mut Sls, key: &[u8], entries: usize) -> Result<u64, SlsError> {
        sls.kernel.charge.raw(SERVICE_NS + entries as u64 * 300);
        self.ops += 1;
        let mut n = 0;
        for (_, &(addr, len)) in self.memtable.range(key.to_vec()..).take(entries) {
            self.arena.read(&mut sls.kernel, addr, len as usize)?;
            n += 1;
        }
        Ok(n)
    }

    /// Flushes the memtable to an SST and truncates the WAL (own-WAL
    /// mode's compaction entry point).
    pub(crate) fn flush_sst(&mut self, sls: &mut Sls) -> Result<(), SlsError> {
        if self.memtable.is_empty() {
            self.wal_bytes = 0;
            return Ok(());
        }
        let entries = self.memtable.len() as u64;
        let bytes = self.memtable_bytes;
        // Serialize + write the SST (asynchronously via the store's COW
        // path: an approximation of the FS file write).
        sls.kernel.charge.encode(bytes);
        {
            let mut store = sls.store().lock();
            let oid = store.alloc_oid();
            store.create_object(oid, aurora_objstore::ObjectKind::File)?;
            let pages = bytes.div_ceil(4096);
            let zero = aurora_objstore::PageRef::zero();
            for pi in 0..pages {
                store.write_pages(oid, &[(pi, zero.clone())])?;
            }
            let info = store.commit()?;
            let _ = info;
        }
        self.ssts.push(SsTable {
            min_key: self.memtable.keys().next().cloned().unwrap_or_default(),
            max_key: self.memtable.keys().last().cloned().unwrap_or_default(),
            entries,
            bytes,
        });
        if let Some(j) = self.journal {
            sls.sls_journal_truncate(j)?;
        }
        self.wal_bytes = 0;
        Ok(())
    }

    /// The WAL journal OID (tests).
    pub fn journal(&self) -> Option<Oid> {
        self.journal
    }

    /// Late-binds the consistency group (the database process must exist
    /// before it can be attached).
    pub fn set_group(&mut self, gid: GroupId) {
        self.group = Some(gid);
    }
}

fn wal_record(key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut e = Encoder::with_capacity(key.len() + value.len() + 16);
    e.bytes(key);
    e.u32(value.len() as u32);
    // The WAL stores the value bytes; content is synthesized (zeroes) to
    // keep the stream compact while sizes stay exact.
    e.raw(&vec![0u8; value.len()]);
    e.finish_vec()
}

/// The reproduction's counterpart of the paper's 109-line RocksDB patch
/// (§9.6): everything the custom build needs from Aurora, in one small
/// module. `tools/count_glue_loc` in the benches reports its size
/// against the LSM+WAL code it replaces.
pub mod aurora_glue {
    use super::*;

    /// Write-path hook: journal the mutation, and when the journal
    /// fills, take a full checkpoint and clear it (§9.6: "When the WAL
    /// is full, RocksDB triggers an Aurora checkpoint and clears the
    /// WAL").
    pub(crate) fn log_put(
        db: &mut RocksDb,
        sls: &mut Sls,
        key: &[u8],
        value: &[u8],
        sync: bool,
    ) -> Result<(), SlsError> {
        let journal = db.journal.expect("aurora-wal mode has a journal");
        let rec = super::wal_record(key, value);
        if sync {
            sls.sls_journal(journal, &rec)?;
        } else {
            sls.kernel.charge.memcpy(rec.len() as u64);
        }
        db.wal_bytes += rec.len() as u64;
        if db.wal_bytes >= db.wal_limit {
            let gid = db.group.expect("aurora-wal mode is attached");
            sls.sls_checkpoint(gid)?;
            sls.sls_journal_truncate(journal)?;
            db.wal_bytes = 0;
            db.checkpoints_triggered += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aurora_core::world::World;
    use aurora_core::SlsOptions;

    #[test]
    fn put_get_roundtrip_all_modes() {
        for mode in [
            Persistence::Ephemeral,
            Persistence::Wal { sync: true },
            Persistence::AuroraTransparent,
        ] {
            let mut w = World::quickstart();
            let mut db = RocksDb::open(&mut w.sls, 4096, mode, None).unwrap();
            db.put(&mut w.sls, b"k1", b"v1").unwrap();
            db.put(&mut w.sls, b"k2", b"v2").unwrap();
            assert_eq!(db.get(&mut w.sls, b"k1").unwrap().unwrap(), b"v1");
            assert_eq!(db.get(&mut w.sls, b"missing").unwrap(), None);
        }
    }

    #[test]
    fn seek_scans_in_order() {
        let mut w = World::quickstart();
        let mut db = RocksDb::open(&mut w.sls, 4096, Persistence::Ephemeral, None).unwrap();
        for i in 0..20u32 {
            db.put(&mut w.sls, format!("key{i:04}").as_bytes(), b"v").unwrap();
        }
        assert_eq!(db.seek(&mut w.sls, b"key0005", 8).unwrap(), 8);
        assert_eq!(db.seek(&mut w.sls, b"key0018", 8).unwrap(), 2);
    }

    #[test]
    fn wal_full_triggers_sst_flush() {
        let mut w = World::quickstart();
        let mut db =
            RocksDb::open(&mut w.sls, 65_536, Persistence::Wal { sync: false }, None).unwrap();
        db.wal_limit = 64 * 1024;
        for i in 0..40u32 {
            db.put(&mut w.sls, format!("k{i}").as_bytes(), &vec![0u8; 2048]).unwrap();
        }
        assert!(!db.ssts.is_empty(), "WAL limit must force an SST flush");
    }

    #[test]
    fn aurora_wal_triggers_checkpoint_on_full() {
        let mut w = World::quickstart();
        let pid_holder = w.sls.kernel.spawn("holder");
        let gid = w.sls.attach(pid_holder, SlsOptions::default()).unwrap();
        let mut db = RocksDb::open(
            &mut w.sls,
            65_536,
            Persistence::AuroraWal { sync: true },
            Some(gid),
        )
        .unwrap();
        db.wal_limit = 32 * 1024;
        for i in 0..30u32 {
            db.put(&mut w.sls, format!("k{i}").as_bytes(), &vec![0u8; 2048]).unwrap();
        }
        assert!(db.checkpoints_triggered >= 1, "journal-full must checkpoint");
        assert!(db.ssts.is_empty(), "the custom build has no LSM");
    }

    #[test]
    fn sync_wal_is_slower_than_ephemeral() {
        let ops = 200u32;
        let mut times = Vec::new();
        for mode in [Persistence::Ephemeral, Persistence::Wal { sync: true }] {
            let mut w = World::quickstart();
            let mut db = RocksDb::open(&mut w.sls, 65_536, mode, None).unwrap();
            let t0 = w.clock.now();
            for i in 0..ops {
                db.put(&mut w.sls, format!("k{i}").as_bytes(), &vec![0u8; 256]).unwrap();
            }
            times.push(w.clock.now() - t0);
        }
        assert!(times[1] > times[0] * 3, "sync WAL {} vs ephemeral {}", times[1], times[0]);
    }
}
