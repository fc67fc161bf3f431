//! The read side of the engine: committed-state queries, page reads
//! (cache hit, raw block, or chain materialization), access by LSN,
//! record export for replication, and the scrubber.

use super::alloc::contiguous_runs;
use super::cache::PageCache;
use super::format::{self, RedoRecord};
use super::index::{PageVersion, View, PROV_BASE};
use super::{content_hash, ObjectKind, ObjectStore, Oid, RedoRecordOut, Result, StoreError, PAGE};
use aurora_frames::PageRef;
use aurora_storage::device::DeviceError;

impl ObjectStore {
    /// Latest committed epoch, if any.
    pub fn last_epoch(&self) -> Option<u64> {
        self.epochs.last().copied()
    }

    /// All committed epochs, ascending.
    pub fn epochs(&self) -> &[u64] {
        &self.epochs
    }

    /// The next (in-progress) epoch number — the epoch a restore's
    /// branch resumes from.
    pub fn current_epoch(&self) -> u64 {
        self.cur_epoch
    }

    fn check_epoch(&self, epoch: u64) -> Result<()> {
        self.epochs.binary_search(&epoch).map(drop).map_err(|_| StoreError::NoSuchEpoch(epoch))
    }

    /// Objects live at `epoch` (created, not yet deleted).
    pub fn objects_at(&self, epoch: u64) -> Result<Vec<Oid>> {
        self.check_epoch(epoch)?;
        let mut v: Vec<Oid> =
            self.index.iter().filter(|(_, o)| o.live_at(epoch)).map(|(oid, _)| oid).collect();
        v.sort();
        Ok(v)
    }

    /// An object's kind.
    pub fn kind(&self, oid: Oid) -> Result<ObjectKind> {
        ObjectKind::from_raw(self.index.obj(oid)?.kind_raw)
    }

    /// An object's size in bytes (latest committed view).
    pub fn size(&self, oid: Oid) -> Result<u64> {
        Ok(self.index.obj(oid)?.size)
    }

    /// The object's metadata as of `epoch`.
    pub fn meta_at(&self, oid: Oid, epoch: u64) -> Result<&[u8]> {
        self.check_epoch(epoch)?;
        let (_, meta) =
            self.index.obj(oid)?.meta_at(epoch).ok_or(StoreError::NoSuchPage(oid, 0))?;
        Ok(meta)
    }

    /// The commit epoch of the newest metadata version at or before
    /// `epoch`.
    pub fn meta_version_epoch(&self, oid: Oid, epoch: u64) -> Result<u64> {
        let (e, _) = self.index.obj(oid)?.meta_at(epoch).ok_or(StoreError::NoSuchPage(oid, 0))?;
        Ok(e)
    }

    /// Page indices present at `epoch`.
    pub fn pages_at(&self, oid: Oid, epoch: u64) -> Result<Vec<u64>> {
        self.check_epoch(epoch)?;
        let mut v: Vec<u64> = self.index.obj(oid)?.pages_in(View::Epoch(epoch)).collect();
        v.sort();
        Ok(v)
    }

    fn locate(&self, oid: Oid, pindex: u64, view: View) -> Result<PageVersion> {
        let v = self.index.obj(oid)?.visible(pindex, view);
        v.copied().ok_or(StoreError::NoSuchPage(oid, pindex))
    }

    /// The commit epoch of the newest version of a page at or before
    /// `epoch` (incremental-stream change detection).
    pub fn page_version_epoch(&self, oid: Oid, pindex: u64, epoch: u64) -> Result<u64> {
        Ok(self.locate(oid, pindex, View::Epoch(epoch))?.epoch)
    }

    /// Reads one page as of `epoch`. A page-cache hit returns a shared
    /// ref to the resident frame (no device read, no re-checksum); a miss
    /// reads the device — materializing delta versions by chain replay —
    /// verifies, and leaves the frame cached.
    pub fn read_page(&mut self, oid: Oid, pindex: u64, epoch: u64) -> Result<PageRef> {
        self.check_epoch(epoch)?;
        let v = self.locate(oid, pindex, View::Epoch(epoch))?;
        self.read_version(oid, pindex, epoch, v)
    }

    /// Reads the newest committed version of a page *visible on a
    /// branch*: versions with epoch ≤ `floor` (history up to the restore
    /// point) or ≥ `resume` (epochs this branch created after its
    /// restore). A live, never-restored object uses
    /// `floor = u64::MAX, resume = 0` (everything visible).
    ///
    /// This is what makes time travel sound: an instance restored at an
    /// old epoch must not fault in pages written by the abandoned future
    /// it rewound away from.
    pub fn read_page_pinned(
        &mut self,
        oid: Oid,
        pindex: u64,
        floor: u64,
        resume: u64,
    ) -> Result<PageRef> {
        let last = self.last_epoch().ok_or(StoreError::NoSuchEpoch(0))?;
        let v = self.locate(oid, pindex, View::Branch { floor, resume, upto: last })?;
        self.read_version(oid, pindex, last, v)
    }

    /// The page's content as of `lsn`: its newest committed record at or
    /// below the target, materialized. `Ok(None)` when the page had no
    /// committed record yet at that point in time.
    pub fn read_page_at_lsn(&mut self, oid: Oid, pindex: u64, lsn: u64) -> Result<Option<PageRef>> {
        match self.index.obj(oid)?.visible(pindex, View::Lsn(lsn)).copied() {
            None => Ok(None),
            Some(v) => self.read_version(oid, pindex, v.epoch, v).map(Some),
        }
    }

    /// Serves one located version: cache hit, raw block read, or chain
    /// materialization.
    fn read_version(
        &mut self,
        oid: Oid,
        pindex: u64,
        epoch: u64,
        v: PageVersion,
    ) -> Result<PageRef> {
        if let Some(p) = self.cache.get(PageCache::key(&v)) {
            return Ok(p);
        }
        if v.redo {
            return self.materialize(oid, pindex, epoch, v, true);
        }
        let data = self.dev.lock().read(v.block, 1);
        let data = data.map_err(StoreError::dev("read-page", Some(oid), epoch, 0))?;
        self.verify("verify-page", oid, epoch, &v, &data)?;
        let page = self.arena.alloc(data.as_slice().try_into().expect("one block"));
        self.cache.frames.insert(v.block, page.clone());
        Ok(page)
    }

    /// Verifies `page` (read back or materialized from the device) against
    /// `v`'s write-time checksum.
    fn verify(
        &self,
        op: &'static str,
        oid: Oid,
        epoch: u64,
        v: &PageVersion,
        page: &[u8],
    ) -> Result<()> {
        if content_hash(page) == v.csum {
            Ok(())
        } else {
            Err(self.checksum_mismatch(op, oid, epoch, v.block))
        }
    }

    /// A checksum mismatch is silent medium corruption — fatal, never
    /// retried (the block itself is wrong, not the bus).
    fn checksum_mismatch(&self, op: &'static str, oid: Oid, epoch: u64, block: u64) -> StoreError {
        let trace = self.charge.trace();
        if trace.is_enabled() {
            trace.instant(
                "objstore",
                "checksum.mismatch",
                &[("oid", oid.0), ("epoch", epoch), ("block", block)],
            );
        }
        let source = DeviceError::Io { lba: block, transient: false };
        StoreError::Device { op, oid: Some(oid), epoch, group: 0, source }
    }

    /// Materializes a delta version by walking its `prev_lsn` chain back
    /// to a full-image record and replaying the records onto the base
    /// frame. The result is verified against the version's materialized-
    /// page checksum and (when `cache` is set) left in the page cache
    /// under the record's LSN.
    fn materialize(
        &mut self,
        oid: Oid,
        pindex: u64,
        epoch: u64,
        v: PageVersion,
        cache: bool,
    ) -> Result<PageRef> {
        let chain = match self.index.obj(oid)?.chain(pindex, v) {
            Ok(chain) => chain,
            Err(walked) => {
                self.trace_materialize(oid, walked, false);
                return Err(StoreError::Corrupt("redo chain has no full-image base"));
            }
        };
        // Base: a raw full-image block, or zeroes under a packed full
        // record (replayed below like any other record).
        let base = *chain.last().expect("nonempty");
        let mut buf: [u8; PAGE] = if base.redo {
            [0u8; PAGE]
        } else {
            let data = self.dev.lock().read(base.block, 1);
            let data = data.map_err(StoreError::dev("materialize-base", Some(oid), epoch, 0))?;
            data.as_slice().try_into().expect("one block")
        };
        // Replay records oldest→newest on top of the base.
        for link in chain.iter().rev().filter(|l| l.redo) {
            let rec = self.decode_record(oid, pindex, epoch, *link)?;
            let off = rec.offset as usize;
            buf[off..off + rec.payload.len()].copy_from_slice(&rec.payload);
        }
        // The checksum covers the materialized page, validated after
        // replay — a torn record or stale base surfaces here.
        self.verify("verify-materialized", oid, epoch, &v, &buf)?;
        self.redo.materializations += 1;
        self.redo.chain_len.record(chain.len() as u64);
        self.trace_materialize(oid, chain.len(), true);
        let page = self.arena.alloc(buf);
        if cache {
            self.cache.frames.insert(PageCache::key(&v), page.clone());
        }
        Ok(page)
    }

    /// The `redo.materialize` instant: online invariant 5 (every chain
    /// terminates at a full image) watches `full_base`.
    fn trace_materialize(&self, oid: Oid, chain_len: usize, full_base: bool) {
        let trace = self.charge.trace();
        if trace.is_enabled() {
            trace.instant(
                "objstore",
                "redo.materialize",
                &[("oid", oid.0), ("chain_len", chain_len as u64), ("full_base", full_base as u64)],
            );
        }
    }

    /// Reads and decodes the packed redo record `v` points at — which
    /// must be the one logged as `v.lsn` for page `pindex`.
    fn decode_record(
        &mut self,
        oid: Oid,
        pindex: u64,
        epoch: u64,
        v: PageVersion,
    ) -> Result<RedoRecordOut> {
        debug_assert!(v.redo);
        let blocks = v.covering_blocks();
        let raw = self.dev.lock().read(blocks.start, blocks.end - blocks.start);
        let raw = raw.map_err(StoreError::dev("read-record", Some(oid), epoch, 0))?;
        let start = v.byte_off as usize;
        let rec = raw
            .get(start..start + v.rec_len as usize)
            .ok_or(StoreError::Corrupt("redo record out of bounds"))?;
        match RedoRecord::decode(rec, v.lsn, pindex) {
            Ok(r) => Ok(RedoRecordOut {
                lsn: r.lsn,
                full: r.full,
                offset: r.offset,
                payload: r.payload.to_vec(),
                page_csum: r.page_csum,
            }),
            // The record bytes themselves are wrong: medium corruption.
            Err(e) if e == format::RECORD_CHECKSUM => {
                Err(self.checksum_mismatch("verify-record", oid, epoch, v.block))
            }
            Err(e) => Err(e),
        }
    }

    /// Bulk-reads many pages as of `epoch`, coalescing physically
    /// contiguous blocks into single device commands — the restore path's
    /// sequential-read optimization (checkpoint flushes allocate blocks
    /// in order, so whole objects read back as a few large extents).
    /// Pages come back in request order, whatever order the device
    /// served them in.
    pub fn read_pages_bulk(
        &mut self,
        oid: Oid,
        epoch: u64,
        pindices: &[u64],
    ) -> Result<Vec<(u64, PageRef)>> {
        self.check_epoch(epoch)?;
        let o = self.index.obj(oid)?;
        // (request slot, version), in block order for the read plan.
        let mut located: Vec<(usize, PageVersion)> = Vec::with_capacity(pindices.len());
        for (slot, &pi) in pindices.iter().enumerate() {
            let v = o.visible(pi, View::Epoch(epoch)).ok_or(StoreError::NoSuchPage(oid, pi))?;
            located.push((slot, *v));
        }
        located.sort_by_key(|&(_, v)| v.block);
        let mut out: Vec<Option<PageRef>> = vec![None; pindices.len()];
        // Cached frames are served as shared refs without touching the
        // device; delta versions materialize individually; only raw
        // full-image misses form the coalesced read plan.
        let mut misses: Vec<(usize, PageVersion)> = Vec::with_capacity(located.len());
        let mut redo_misses: Vec<(usize, PageVersion)> = Vec::new();
        for &(slot, v) in &located {
            match self.cache.get(PageCache::key(&v)) {
                Some(p) => out[slot] = Some(p),
                None if v.redo => redo_misses.push((slot, v)),
                None => misses.push((slot, v)),
            }
        }
        for (slot, v) in redo_misses {
            out[slot] = Some(self.materialize(oid, pindices[slot], epoch, v, true)?);
        }
        // A restore issues its whole read plan at once (deep NVMe
        // queues); it completes when the slowest extent does.
        let issue_at = self.charge.clock().now();
        let mut done = issue_at;
        let blocks: Vec<u64> = misses.iter().map(|(_, v)| v.block).collect();
        for run in contiguous_runs(&blocks) {
            let run = &misses[run];
            let (data, d) = self
                .dev
                .lock()
                .read_from(run[0].1.block, run.len() as u64, issue_at)
                .map_err(StoreError::dev("read-pages-bulk", Some(oid), epoch, 0))?;
            done = done.max(d);
            for (&(slot, v), bytes) in run.iter().zip(data.chunks_exact(PAGE)) {
                self.verify("verify-page", oid, epoch, &v, bytes)?;
                let page = self.arena.alloc(bytes.try_into().expect("exact page"));
                self.cache.frames.insert(v.block, page.clone());
                out[slot] = Some(page);
            }
        }
        self.charge.clock().advance_to(done);
        Ok(pindices
            .iter()
            .zip(out)
            .map(|(&pi, page)| (pi, page.expect("every requested page was a hit or a miss")))
            .collect())
    }

    /// Consistency-point LSN recorded in `epoch`'s commit header.
    pub fn epoch_cpl(&self, epoch: u64) -> Option<u64> {
        self.epoch_cpls.get(&epoch).copied()
    }

    /// The base epoch for a point-in-time restore at `lsn`: the newest
    /// committed epoch whose prefix — it plus every epoch committed
    /// before it — contains only records with LSN ≤ `lsn`. Restoring
    /// this epoch's image and overlaying later records at or below the
    /// target yields exactly the state as of `lsn`. Uses a running-max
    /// walk over per-epoch CPLs so interleaved cross-group commits stay
    /// prefix-closed. `None` when `lsn` predates the history floor.
    pub fn epoch_for_lsn(&self, lsn: u64) -> Option<u64> {
        let mut base = None;
        let mut running = 0u64;
        for &e in &self.epochs {
            running = running.max(self.epoch_cpls.get(&e).copied().unwrap_or(0));
            if running <= lsn {
                base = Some(e);
            } else {
                break;
            }
        }
        base
    }

    /// Every committed page-record LSN, ascending — the valid
    /// `restore_at` targets (each is a record boundary).
    pub fn record_lsns(&self) -> Vec<u64> {
        let mut out: Vec<u64> =
            self.index.versions().filter(|v| v.epoch < PROV_BASE).map(|v| v.lsn).collect();
        out.sort_unstable();
        out
    }

    /// Pages of live objects carrying a committed version in an epoch
    /// newer than `epoch` — the overlay set a point-in-time restore must
    /// re-read at its target LSN. Deterministically ordered.
    pub fn modified_since(&self, epoch: u64) -> Vec<(Oid, u64)> {
        let mut out = Vec::new();
        for (oid, o) in self.index.iter().filter(|(_, o)| o.deleted_epoch.is_none()) {
            for (pi, vs) in o.pages() {
                if vs.iter().any(|v| v.epoch < PROV_BASE && v.epoch > epoch) {
                    out.push((oid, pi));
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Decodes the committed records a page accumulated in epochs
    /// `(from, to]`, oldest→newest, trimmed to start at the newest
    /// full-image record in range (everything older in range is
    /// superseded by it). The cluster layer streams these as the epoch
    /// delta instead of full page images: a follower in sync through
    /// `from` can replay them onto its own copy of the page.
    pub fn page_records_in(
        &mut self,
        oid: Oid,
        pindex: u64,
        from: u64,
        to: u64,
    ) -> Result<Vec<RedoRecordOut>> {
        let in_range = |v: &&PageVersion| v.epoch < PROV_BASE && v.epoch > from && v.epoch <= to;
        let vs: Vec<PageVersion> =
            self.index.obj(oid)?.chain_of(pindex).iter().filter(in_range).copied().collect();
        let start = vs.iter().rposition(|v| v.full).unwrap_or(0);
        let mut out = Vec::with_capacity(vs.len() - start);
        for v in &vs[start..] {
            let rec = if v.redo {
                self.decode_record(oid, pindex, v.epoch, *v)?
            } else {
                let p = self.read_version(oid, pindex, v.epoch, *v)?;
                RedoRecordOut {
                    lsn: v.lsn,
                    full: true,
                    offset: 0,
                    payload: p.bytes().to_vec(),
                    page_csum: v.csum,
                }
            };
            out.push(rec);
        }
        Ok(out)
    }

    /// Verifies the data checksum of every committed page version in the
    /// store, returning the number of pages scanned. Journal blocks are
    /// excluded: journals update in place (non-COW), so they carry no
    /// per-block write-time checksum.
    ///
    /// Crash-schedule recovery runs this after every reopen, turning
    /// silent corruption anywhere in history into a hard
    /// [`StoreError::Device`] instead of a latent wrong read.
    pub fn scrub(&mut self) -> Result<u64> {
        let mut plan: Vec<(Oid, u64, PageVersion)> = Vec::new(); // (oid, pindex, version)
        for (oid, o) in self.index.iter() {
            for (pi, vs) in o.pages() {
                plan.extend(vs.iter().map(|v| (oid, pi, *v)));
            }
        }
        // Scan in block order: one sequential pass over the raw images,
        // then one over the packed extents.
        plan.sort_by_key(|&(_, _, v)| (v.redo, v.block, v.byte_off));
        for &(oid, pi, v) in &plan {
            if v.redo {
                // Re-materialize from the device (cache bypassed): record
                // checksums and the materialized-page checksum both
                // verify, so a torn record anywhere in a chain surfaces.
                let epoch = if v.epoch < PROV_BASE { v.epoch } else { self.cur_epoch };
                self.materialize(oid, pi, epoch, v, false)?;
            } else {
                let data = self.dev.lock().read(v.block, 1);
                let data = data.map_err(StoreError::dev("scrub", Some(oid), v.epoch, 0))?;
                self.verify("scrub", oid, v.epoch, &v, &data)?;
            }
        }
        let trace = self.charge.trace();
        if trace.is_enabled() {
            trace.instant("objstore", "scrub.done", &[("pages", plan.len() as u64)]);
        }
        Ok(plan.len() as u64)
    }
}
