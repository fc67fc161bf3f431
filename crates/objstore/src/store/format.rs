//! The on-disk format: superblock, commit record (header block +
//! payload) and packed redo record — each encoded and decoded in exactly
//! one place, here. Pure byte ↔ struct functions; the engine does the I/O.
//!
//! Record format 6 is the only one. No image outlives a process in this
//! system, so a header with any other version is simply "not a record",
//! like garbage. Format 6 is format 5 with every stored digest computed
//! by the 4-lane word-wise [`content_hash`] instead of byte-wise FNV-1a:
//! same layout, same lengths — the version is what refuses an older
//! image before any of its checksums is compared.

use super::index::PageVersion;
use super::{content_hash, Result, StoreError, PAGE};
use aurora_sim::codec::{Decoder, Encoder};

const MAGIC: u64 = 0x4155_524f_5241_5354; // "AURORAST"
const SUPERBLOCK_TAG: u16 = 0x5350;
const SUPERBLOCK_VERSION: u16 = 1;
const COMMIT_TAG: u16 = 0x434b;
const RECORD_VERSION: u16 = 6;

/// `(meta_start, data_start)`: the metadata log occupies
/// `[meta_start, data_start)`, data blocks everything above.
pub(crate) fn encode_superblock(meta_start: u64, data_start: u64) -> Vec<u8> {
    let mut e = Encoder::new();
    e.record(SUPERBLOCK_TAG, SUPERBLOCK_VERSION, |e| {
        e.u64(MAGIC);
        e.u64(meta_start);
        e.u64(data_start);
    });
    padded(e.finish_vec(), 1)
}

pub(crate) fn decode_superblock(block: &[u8]) -> Result<(u64, u64)> {
    let (_v, mut body) = Decoder::new(block).record(SUPERBLOCK_TAG, SUPERBLOCK_VERSION)?;
    if body.u64()? != MAGIC {
        return Err(StoreError::Corrupt("superblock magic"));
    }
    Ok((body.u64()?, body.u64()?))
}

fn padded(mut bytes: Vec<u8>, nblocks: u64) -> Vec<u8> {
    bytes.resize(nblocks as usize * PAGE, 0);
    bytes
}

/// A commit record's header block — the commit point. The payload
/// (`nblocks` blocks, `len` meaningful bytes, their `checksum`) sits in
/// the blocks right after it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct CommitHeader {
    pub epoch: u64,
    /// The consistency group whose pipeline committed the epoch.
    pub group: u64,
    /// The epoch's consistency-point LSN, so watermarks and
    /// point-in-time restore survive recovery.
    pub cpl: u64,
    /// Lowest retained epoch when the record was written; this is what
    /// makes history reclamation crash-safe.
    pub floor: u64,
    pub nblocks: u64,
    pub len: u64,
    pub checksum: u64,
}

impl CommitHeader {
    /// The header for `payload` (from [`encode_payload`]), and the
    /// payload padded to the whole blocks it is written as.
    pub(crate) fn seal(
        epoch: u64,
        group: u64,
        cpl: u64,
        floor: u64,
        payload: Vec<u8>,
    ) -> (Self, Vec<u8>) {
        let (len, checksum) = (payload.len() as u64, content_hash(&payload));
        let nblocks = len.max(1).div_ceil(PAGE as u64);
        (Self { epoch, group, cpl, floor, nblocks, len, checksum }, padded(payload, nblocks))
    }

    /// One device block.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.record(COMMIT_TAG, RECORD_VERSION, |e| {
            e.u64(MAGIC);
            for f in [
                self.epoch,
                self.group,
                self.cpl,
                self.floor,
                self.nblocks,
                self.len,
                self.checksum,
            ] {
                e.u64(f);
            }
        });
        padded(e.finish_vec(), 1)
    }

    /// `None` when the block does not hold a format-6 commit header — a
    /// commit that raced the crash, another format, or plain garbage.
    pub(crate) fn decode(block: &[u8]) -> Option<Self> {
        let (v, mut body) = Decoder::new(block).record(COMMIT_TAG, RECORD_VERSION).ok()?;
        if v != RECORD_VERSION || body.u64().ok()? != MAGIC {
            return None;
        }
        let mut f = [0u64; 7];
        for slot in &mut f {
            *slot = body.u64().ok()?;
        }
        let [epoch, group, cpl, floor, nblocks, len, checksum] = f;
        Some(Self { epoch, group, cpl, floor, nblocks, len, checksum })
    }

    /// The payload bytes this header vouches for, or `None` when `blocks`
    /// (the `nblocks` blocks after the header) is short or fails the
    /// checksum — the commit's data raced the crash.
    pub(crate) fn payload<'a>(&self, blocks: &'a [u8]) -> Option<&'a [u8]> {
        let payload = blocks.get(..usize::try_from(self.len).ok()?)?;
        (content_hash(payload) == self.checksum).then_some(payload)
    }
}

/// One object's entry in a commit payload: what the epoch changed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct ObjRecord<'a> {
    pub oid: u64,
    pub kind_raw: u16,
    pub size: u64,
    /// Deleted as of this epoch.
    pub deleted: bool,
    /// New serialized metadata, if it changed.
    pub meta: Option<&'a [u8]>,
    /// Every page record the epoch committed, ordered `(page, lsn)`. A
    /// page may carry several chained records; losing an interior one
    /// would orphan the deltas above it.
    pub pages: Vec<(u64, PageVersion)>,
    /// The block list of a journal created in this epoch.
    pub journal: Option<Vec<u64>>,
}

pub(crate) fn encode_payload(objects: &[ObjRecord<'_>]) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u32(objects.len() as u32);
    for o in objects {
        e.u64(o.oid);
        e.u16(o.kind_raw);
        e.u64(o.size);
        e.bool(o.deleted);
        e.bool(o.meta.is_some());
        if let Some(m) = o.meta {
            e.bytes(m);
        }
        e.u32(o.pages.len() as u32);
        for (pi, v) in &o.pages {
            e.u64(*pi);
            e.u64(v.lsn);
            e.u64(v.prev_lsn);
            e.u64(v.block);
            e.u32(v.byte_off);
            e.u32(v.rec_len);
            e.u8(v.full as u8 | (v.redo as u8) << 1);
            e.u64(v.csum);
        }
        e.bool(o.journal.is_some());
        if let Some(blocks) = &o.journal {
            e.u32(blocks.len() as u32);
            blocks.iter().for_each(|&b| e.u64(b));
        }
    }
    e.finish_vec()
}

/// Decodes a checksum-verified payload; its page versions are tagged
/// with `epoch`, the committing header's.
pub(crate) fn decode_payload(payload: &[u8], epoch: u64) -> Result<Vec<ObjRecord<'_>>> {
    let mut d = Decoder::new(payload);
    let count = d.u32()?;
    let mut objects = Vec::new();
    for _ in 0..count {
        let (oid, kind_raw, size, deleted) = (d.u64()?, d.u16()?, d.u64()?, d.bool()?);
        let meta = if d.bool()? { Some(d.bytes()?) } else { None };
        let mut pages = Vec::new();
        for _ in 0..d.u32()? {
            let pindex = d.u64()?;
            let (lsn, prev_lsn, block) = (d.u64()?, d.u64()?, d.u64()?);
            let (byte_off, rec_len, flags, csum) = (d.u32()?, d.u32()?, d.u8()?, d.u64()?);
            let (full, redo) = (flags & 1 != 0, flags & 2 != 0);
            pages.push((
                pindex,
                PageVersion { epoch, lsn, block, byte_off, rec_len, prev_lsn, full, redo, csum },
            ));
        }
        let journal = if d.bool()? {
            Some((0..d.u32()?).map(|_| d.u64()).collect::<std::result::Result<Vec<u64>, _>>()?)
        } else {
            None
        };
        objects.push(ObjRecord { oid, kind_raw, size, deleted, meta, pages, journal });
    }
    Ok(objects)
}

/// One packed redo record: a sub-page change to one page, self-checked
/// by a trailing checksum over the encoded body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct RedoRecord<'a> {
    pub lsn: u64,
    pub pindex: u64,
    pub prev_lsn: u64,
    /// Full-image record (the payload is the whole page).
    pub full: bool,
    /// Byte offset of `payload` within the page.
    pub offset: u32,
    pub payload: &'a [u8],
    /// Checksum of the page after applying this record.
    pub page_csum: u64,
}

/// The error [`RedoRecord::decode`] reports when the record's own bytes
/// fail their checksum; the engine turns it into a fatal device error.
pub(crate) const RECORD_CHECKSUM: StoreError = StoreError::Corrupt("redo record checksum");

impl<'a> RedoRecord<'a> {
    /// Appends the encoded record to `buf`; returns its length.
    pub(crate) fn encode_into(&self, buf: &mut Vec<u8>) -> u32 {
        let mut e = Encoder::new();
        e.u64(self.lsn);
        e.u64(self.pindex);
        e.u64(self.prev_lsn);
        e.bool(self.full);
        e.u32(self.offset);
        e.bytes(self.payload);
        e.u64(self.page_csum);
        let body = e.finish_vec();
        buf.extend_from_slice(&body);
        buf.extend_from_slice(&content_hash(&body).to_le_bytes());
        body.len() as u32 + 8
    }

    /// Decodes the record the index placed at `rec`, which must be the
    /// one logged as `lsn` for page `pindex`: a record spliced in from
    /// elsewhere — even a checksum-valid one from the same extent — is
    /// corruption, not data.
    pub(crate) fn decode(rec: &'a [u8], lsn: u64, pindex: u64) -> Result<Self> {
        let Some((body, csum)) = rec.split_last_chunk::<8>() else {
            return Err(StoreError::Corrupt("redo record out of bounds"));
        };
        if content_hash(body) != u64::from_le_bytes(*csum) {
            return Err(RECORD_CHECKSUM);
        }
        let mut d = Decoder::new(body);
        let r = Self {
            lsn: d.u64()?,
            pindex: d.u64()?,
            prev_lsn: d.u64()?,
            full: d.bool()?,
            offset: d.u32()?,
            payload: d.bytes()?,
            page_csum: d.u64()?,
        };
        if r.lsn != lsn || r.pindex != pindex || r.offset as usize + r.payload.len() > PAGE {
            return Err(StoreError::Corrupt("redo record identity mismatch"));
        }
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_objects<'a>(meta: &'a [u8]) -> Vec<ObjRecord<'a>> {
        let delta = PageVersion::packed(9, 12, 5000 * PAGE + 1234, 77, 8, 0xC0FFEE);
        vec![
            ObjRecord {
                oid: 3,
                kind_raw: 1,
                size: 8 * PAGE as u64,
                deleted: false,
                meta: Some(meta),
                pages: vec![(0, PageVersion::raw(9, 11, 4100, 0xABCD)), (0, delta), (7, delta)],
                journal: None,
            },
            ObjRecord {
                oid: 4,
                kind_raw: 3,
                size: 0,
                deleted: true,
                meta: None,
                pages: vec![],
                journal: Some(vec![40, 41, 48]),
            },
        ]
    }

    #[test]
    fn superblock_round_trips_and_rejects_a_foreign_magic() {
        let block = encode_superblock(1, 4097);
        assert_eq!(block.len(), PAGE);
        assert_eq!(decode_superblock(&block), Ok((1, 4097)));
        let mut bad = block.clone();
        bad[8] ^= 1; // first magic byte, after the 8-byte record frame
        assert_eq!(decode_superblock(&bad), Err(StoreError::Corrupt("superblock magic")));
        assert!(decode_superblock(&[0u8; PAGE]).is_err());
    }

    #[test]
    fn commit_record_round_trips() {
        let objects = sample_objects(b"meta bytes");
        let payload = encode_payload(&objects);
        let (header, on_disk) = CommitHeader::seal(9, 2, 12, 4, payload.clone());
        assert_eq!((header.nblocks, header.len), (1, payload.len() as u64));
        let block = header.encode();
        assert_eq!(block.len(), PAGE);
        assert_eq!(CommitHeader::decode(&block), Some(header));
        assert_eq!(on_disk.len(), PAGE);
        let read_back = header.payload(&on_disk).expect("checksum holds");
        assert_eq!(decode_payload(read_back, 9).unwrap(), objects);
        // A multi-block payload pads to whole blocks.
        let (big, on_disk) = CommitHeader::seal(9, 2, 12, 4, vec![7u8; PAGE + 1]);
        assert_eq!((big.nblocks, on_disk.len()), (2, 2 * PAGE));
        // An empty payload still occupies one block.
        assert_eq!(CommitHeader::seal(1, 0, 0, 0, vec![]).0.nblocks, 1);
    }

    #[test]
    fn other_versions_truncations_and_garbage_are_not_records() {
        let payload = encode_payload(&sample_objects(b"m"));
        let (header, on_disk) = CommitHeader::seal(9, 2, 12, 4, payload.clone());
        let block = header.encode();
        // The version field sits in bytes 2..4 of the record frame.
        // 5 had this exact layout with byte-wise FNV-1a digests: refused
        // by version, before any checksum is looked at.
        for v in [0u16, 4, 5, 7] {
            assert_ne!(v, RECORD_VERSION);
            let mut other = block.clone();
            other[2..4].copy_from_slice(&v.to_le_bytes());
            assert_eq!(CommitHeader::decode(&other), None, "version {v} is not a record");
        }
        assert_eq!(CommitHeader::decode(&[0u8; PAGE]), None);
        assert_eq!(CommitHeader::decode(&block[..40]), None, "truncated header");
        let mut bad_magic = block.clone();
        bad_magic[8] ^= 0x80;
        assert_eq!(CommitHeader::decode(&bad_magic), None);
        // A payload cut short, or with a flipped bit, fails its header.
        assert!(header.payload(&on_disk[..payload.len() - 1]).is_none());
        let mut flipped = on_disk.clone();
        flipped[payload.len() / 2] ^= 1;
        assert!(header.payload(&flipped).is_none());
        // Decoding a (hypothetically checksum-valid) truncated payload is
        // an error, never a panic.
        assert!(decode_payload(&payload[..payload.len() - 3], 9).is_err());
    }

    #[test]
    fn redo_record_round_trips() {
        let rec = RedoRecord {
            lsn: 77,
            pindex: 5,
            prev_lsn: 70,
            full: false,
            offset: 4000,
            payload: &[9u8; 96],
            page_csum: 0xFEED,
        };
        let mut buf = vec![0xEE; 13]; // records pack end to end at any offset
        let len = rec.encode_into(&mut buf) as usize;
        assert_eq!(buf.len(), 13 + len);
        assert_eq!(RedoRecord::decode(&buf[13..], 77, 5), Ok(rec));
        // Zero-length payloads (dirty-but-unchanged pages) are records too.
        let empty = RedoRecord { payload: &[], ..rec };
        let mut buf = Vec::new();
        empty.encode_into(&mut buf);
        assert_eq!(RedoRecord::decode(&buf, 77, 5), Ok(empty));
    }

    #[test]
    fn redo_record_spliced_from_another_page_is_an_identity_mismatch() {
        // Two records of one extent, for pages 5 and 6.
        let a = RedoRecord {
            lsn: 77,
            pindex: 5,
            prev_lsn: 70,
            full: false,
            offset: 0,
            payload: &[1; 32],
            page_csum: 1,
        };
        let b = RedoRecord { lsn: 78, pindex: 6, ..a };
        let mut extent = Vec::new();
        let a_len = a.encode_into(&mut extent) as usize;
        b.encode_into(&mut extent);
        let mismatch = Err(StoreError::Corrupt("redo record identity mismatch"));
        // Page 5's index entry pointed at page 6's (checksum-valid) bytes.
        assert_eq!(RedoRecord::decode(&extent[a_len..], 77, 5), mismatch);
        // Right LSN, wrong page: the discarded-`pindex` hole this closes.
        assert_eq!(RedoRecord::decode(&extent[a_len..], 78, 5), mismatch);
        assert_eq!(RedoRecord::decode(&extent[..a_len], 78, 5), mismatch, "right page, wrong LSN");
        assert_eq!(RedoRecord::decode(&extent[a_len..], 78, 6), Ok(b));
        // A payload that would overrun the page is rejected the same way.
        let long = RedoRecord { offset: PAGE as u32 - 8, ..a };
        let mut buf = Vec::new();
        long.encode_into(&mut buf);
        assert_eq!(RedoRecord::decode(&buf, 77, 5), mismatch);
    }

    #[test]
    fn damaged_redo_record_bytes_fail_the_record_checksum() {
        let rec = RedoRecord {
            lsn: 1,
            pindex: 0,
            prev_lsn: 0,
            full: false,
            offset: 8,
            payload: &[3; 16],
            page_csum: 2,
        };
        let mut buf = Vec::new();
        rec.encode_into(&mut buf);
        buf[20] ^= 4;
        assert_eq!(RedoRecord::decode(&buf, 1, 0), Err(RECORD_CHECKSUM));
        assert_eq!(
            RedoRecord::decode(&buf[..5], 1, 0),
            Err(StoreError::Corrupt("redo record out of bounds"))
        );
    }
}
