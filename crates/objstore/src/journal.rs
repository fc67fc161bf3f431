//! Non-COW journal objects (§7).
//!
//! `sls_journal` needs synchronous, low-latency appends — a database WAL
//! replacement. COW would pay an allocation and a metadata update per
//! append, so journals use **preallocated blocks updated in place**: an
//! append writes its records with one device write and returns when the
//! data is durable (28 µs for 4 KiB on the testbed).
//!
//! Records are self-describing (`magic, seq, len, checksum`), so recovery
//! scans the journal region and stops at the first invalid or stale
//! record — no commit record needed.

use crate::store::{
    content_hash as checksum, contiguous_runs, ObjectKind, ObjectStore, Oid, Result, StoreError,
    PAGE,
};
use aurora_sim::codec::{Decoder, Encoder};

const JMAGIC: u32 = 0x4a52_4e4c; // "JRNL"
/// Per-record header: magic, seq, len, checksum.
const HEADER: usize = 4 + 8 + 4 + 8;

/// In-memory journal state.
#[derive(Clone, Debug, Default)]
pub(crate) struct Journal {
    /// Preallocated device blocks.
    pub(crate) blocks: Vec<u64>,
    /// Byte offset of the next append.
    pub(crate) head: usize,
    /// Next record sequence number.
    pub(crate) seq: u64,
    /// Sequence number of the first live record (post-truncate).
    pub(crate) base_seq: u64,
}

impl Journal {
    /// Rebuilds a journal handle from its block list (recovery).
    pub(crate) fn adopt(blocks: Vec<u64>) -> Self {
        Self { blocks, head: 0, seq: 0, base_seq: 0 }
    }

    /// Capacity in bytes.
    fn capacity(&self) -> usize {
        self.blocks.len() * PAGE
    }
}

/// Aggregate journal statistics (used by the RocksDB experiments).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records currently live.
    pub records: u64,
    /// Bytes used.
    pub used: u64,
    /// Capacity in bytes.
    pub capacity: u64,
}

impl ObjectStore {
    /// Creates a journal object with `blocks` preallocated blocks.
    ///
    /// Journal blocks are placed **within a single stripe member**: a
    /// journal is a strictly ordered log, and keeping it on one device
    /// makes appends naturally ordered by the device's write pipeline —
    /// no cross-device barriers, at the cost of running at single-device
    /// bandwidth (the slope of Table 5's journaled column).
    pub fn create_journal(&mut self, oid: Oid, blocks: u64) -> Result<()> {
        self.create_object(oid, ObjectKind::Journal)?;
        let (members, stripe) = self.device().lock().geometry();
        let mut allocated = Vec::with_capacity(blocks as usize);
        if members <= 1 {
            for _ in 0..blocks {
                allocated.push(self.alloc_block()?);
            }
        } else {
            // Take whole stripes; keep those on member 0, return the
            // rest to the allocator for ordinary COW data. Rejects are
            // returned only after the loop — otherwise the allocator
            // would hand the same non-member-0 blocks straight back.
            let mut rejects = Vec::new();
            while (allocated.len() as u64) < blocks {
                let mut span = Vec::with_capacity((stripe * members) as usize);
                for _ in 0..stripe * members {
                    span.push(self.alloc_block()?);
                }
                for lba in span {
                    let member = (lba / stripe) % members;
                    if member == 0 && (allocated.len() as u64) < blocks {
                        allocated.push(lba);
                    } else {
                        rejects.push(lba);
                    }
                }
            }
            self.free_blocks(rejects);
        }
        self.install_journal(oid, Journal { blocks: allocated, head: 0, seq: 0, base_seq: 0 })
    }

    /// Appends a record and waits for it to be durable (synchronous —
    /// this is the `sls_journal` latency path). Returns the record's
    /// sequence number.
    pub fn journal_append(&mut self, oid: Oid, data: &[u8]) -> Result<u64> {
        let j = self.obj_journal(oid)?;
        let (head, seq) = (j.head, j.seq);
        // Frame the record.
        let mut e = Encoder::with_capacity(HEADER + data.len());
        e.u32(JMAGIC);
        e.u64(seq);
        e.u32(data.len() as u32);
        e.u64(checksum(data));
        e.raw(data);
        let record = e.finish_vec();
        let end = head + record.len();
        if end > j.capacity() {
            return Err(StoreError::JournalFull(oid));
        }
        // In-place write of the affected whole blocks. A real
        // implementation does a read-modify-write of the first partial
        // block from its in-memory tail; we reconstruct the same bytes.
        let first = head / PAGE;
        let blocks = j.blocks[first..=(end - 1) / PAGE].to_vec();
        let mut buf = vec![0u8; blocks.len() * PAGE];
        // Fill the prefix of the first block from the device so the
        // already-written records survive the in-place update.
        if head % PAGE != 0 {
            let existing = self.device().lock().read(blocks[0], 1);
            let existing = existing.map_err(StoreError::dev("journal-rmw", Some(oid), 0, 0))?;
            buf[..PAGE].copy_from_slice(&existing);
        }
        let off = head - first * PAGE;
        buf[off..off + record.len()].copy_from_slice(&record);
        // All journal blocks sit on one stripe member (see
        // `create_journal`), so issuing the runs in order pipelines them
        // through that device's queue: ordering holds, and the append
        // runs at single-device bandwidth.
        let completion = {
            let mut dev = self.device().lock();
            let mut last = aurora_storage::Completion::immediate(0);
            for run in contiguous_runs(&blocks) {
                let c = dev
                    .write(blocks[run.start], &buf[run.start * PAGE..run.end * PAGE])
                    .map_err(StoreError::dev("journal-append", Some(oid), 0, 0))?;
                last = last.join(c);
            }
            last
        };
        // Synchronous: the caller waits for durability.
        self.charge().clock().advance_to(completion.done_at);
        let j = self.obj_journal_mut(oid)?;
        j.head = end;
        j.seq = seq + 1;
        Ok(seq)
    }

    /// Truncates the journal: subsequent appends restart at the region's
    /// beginning and older records become stale (their sequence numbers
    /// fall below the new base). Metadata-only, no IO.
    pub fn journal_truncate(&mut self, oid: Oid) -> Result<()> {
        let j = self.obj_journal_mut(oid)?;
        j.head = 0;
        j.base_seq = j.seq;
        Ok(())
    }

    /// Journal usage statistics.
    pub fn journal_stats(&self, oid: Oid) -> Result<JournalStats> {
        let j = self.obj_journal(oid)?;
        Ok(JournalStats {
            records: j.seq - j.base_seq,
            used: j.head as u64,
            capacity: j.capacity() as u64,
        })
    }

    /// Recovers the journal's live records from the device: scans from
    /// the start, accepting records with ascending sequence numbers ≥ the
    /// first record's, stopping at the first invalid frame.
    pub fn journal_records(&mut self, oid: Oid) -> Result<Vec<Vec<u8>>> {
        let blocks = self.obj_journal(oid)?.blocks.clone();
        if blocks.is_empty() {
            return Ok(Vec::new());
        }
        let mut raw = Vec::with_capacity(blocks.len() * PAGE);
        {
            let mut dev = self.device().lock();
            for &b in &blocks {
                raw.extend_from_slice(
                    &dev.read(b, 1).map_err(StoreError::dev("journal-scan", Some(oid), 0, 0))?,
                );
            }
        }
        let mut out = Vec::new();
        let mut off = 0usize;
        let mut expect_seq: Option<u64> = None;
        while off + HEADER <= raw.len() {
            let mut d = Decoder::new(&raw[off..]);
            let Ok(magic) = d.u32() else { break };
            if magic != JMAGIC {
                break;
            }
            let Ok(seq) = d.u64() else { break };
            let Ok(len) = d.u32() else { break };
            let Ok(csum) = d.u64() else { break };
            if off + HEADER + len as usize > raw.len() {
                break;
            }
            let body = &raw[off + HEADER..off + HEADER + len as usize];
            if checksum(body) != csum {
                break;
            }
            match expect_seq {
                Some(e) if seq != e => break, // stale record from before a truncate
                _ => {}
            }
            expect_seq = Some(seq + 1);
            out.push(body.to_vec());
            off += HEADER + len as usize;
        }
        // Adopt the scan results so appends continue after recovery.
        let (head, next_seq, base) = (off, expect_seq.unwrap_or(0), out.len() as u64);
        let j = self.obj_journal_mut(oid)?;
        if j.seq == 0 && j.head == 0 {
            j.head = head;
            j.seq = next_seq;
            j.base_seq = next_seq - base;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aurora_sim::cost::Charge;
    use aurora_sim::{Clock, CostModel};
    use aurora_storage::testbed_array;

    fn fresh() -> ObjectStore {
        let clock = Clock::new();
        let dev = testbed_array(&clock, 1 << 26);
        ObjectStore::format(dev, Charge::new(clock, CostModel::default()), 1024).unwrap()
    }

    #[test]
    fn append_is_synchronous_and_ordered() {
        let mut s = fresh();
        let oid = s.alloc_oid();
        s.create_journal(oid, 64).unwrap();
        let t0 = s.charge().clock().now();
        let s0 = s.journal_append(oid, b"record one").unwrap();
        let s1 = s.journal_append(oid, b"record two").unwrap();
        assert_eq!((s0, s1), (0, 1));
        assert!(s.charge().clock().now() > t0, "appends are synchronous");
    }

    #[test]
    fn records_survive_crash() {
        let mut s = fresh();
        let oid = s.alloc_oid();
        s.create_journal(oid, 64).unwrap();
        let c = s.commit().unwrap(); // journal object metadata committed
        s.barrier(c);
        s.journal_append(oid, b"alpha").unwrap();
        s.journal_append(oid, b"beta").unwrap();
        let mut s = s.crash_and_recover().unwrap();
        let recs = s.journal_records(oid).unwrap();
        assert_eq!(recs, vec![b"alpha".to_vec(), b"beta".to_vec()]);
        // Appends continue after the recovered tail.
        s.journal_append(oid, b"gamma").unwrap();
        let recs = s.journal_records(oid).unwrap();
        assert_eq!(recs.len(), 3);
    }

    #[test]
    fn truncate_resets_and_stales_old_records() {
        let mut s = fresh();
        let oid = s.alloc_oid();
        s.create_journal(oid, 64).unwrap();
        s.journal_append(oid, b"old-1").unwrap();
        s.journal_append(oid, b"old-22").unwrap();
        s.journal_truncate(oid).unwrap();
        s.journal_append(oid, b"new").unwrap();
        let recs = s.journal_records(oid).unwrap();
        assert_eq!(recs, vec![b"new".to_vec()], "stale tail must not be replayed");
        let stats = s.journal_stats(oid).unwrap();
        assert_eq!(stats.records, 1);
    }

    #[test]
    fn full_journal_errors() {
        let mut s = fresh();
        let oid = s.alloc_oid();
        s.create_journal(oid, 1).unwrap();
        let big = vec![0u8; 3000];
        s.journal_append(oid, &big).unwrap();
        assert_eq!(s.journal_append(oid, &big), Err(StoreError::JournalFull(oid)));
        // Truncate frees the space.
        s.journal_truncate(oid).unwrap();
        s.journal_append(oid, &big).unwrap();
    }

    #[test]
    fn append_4k_costs_tens_of_microseconds() {
        // Table 5's journaled column: a 4 KiB append lands around 28 µs.
        let mut s = fresh();
        let oid = s.alloc_oid();
        s.create_journal(oid, 256).unwrap();
        let t0 = s.charge().clock().now();
        s.journal_append(oid, &vec![7u8; 4096 - HEADER]).unwrap();
        let dt = s.charge().clock().now() - t0;
        assert!((8_000..60_000).contains(&dt), "4 KiB append took {dt} ns");
    }
}
