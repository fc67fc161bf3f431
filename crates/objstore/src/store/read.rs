//! The read side of the engine: committed-state queries, the read plan
//! every page read goes through (cache hits, raw blocks and chain
//! materialization, all device reads issued together), access by LSN,
//! record export for replication, and the scrubber.

use super::alloc::contiguous_runs;
use super::cache::PageCache;
use super::format::{self, RedoRecord};
use super::index::{PageVersion, View, PROV_BASE};
use super::{content_hash, ObjectKind, ObjectStore, Oid, RedoRecordOut, Result, StoreError, PAGE};
use aurora_frames::PageRef;
use aurora_storage::device::DeviceError;
use std::ops::Range;

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

    /// The checksum of a page's content as of `epoch`: two versions —
    /// of one store object or of two — with different checksums hold
    /// different bytes.
    pub fn page_csum(&self, oid: Oid, pindex: u64, epoch: u64) -> Result<u64> {
        Ok(self.locate(oid, pindex, View::Epoch(epoch))?.csum)
    }

    /// Reads one page as of `epoch`: a one-page [read plan](Self::read_pages).
    pub fn read_page(&mut self, oid: Oid, pindex: u64, epoch: u64) -> Result<PageRef> {
        self.check_epoch(epoch)?;
        let v = self.locate(oid, pindex, View::Epoch(epoch))?;
        self.read_one(Want { oid, pindex, v })
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
        self.read_one(Want { oid, pindex, v })
    }

    /// The page's content as of `lsn`: its newest committed record at or
    /// below the target, materialized. `Ok(None)` when the page had no
    /// committed record yet at that point in time.
    pub fn read_page_at_lsn(&mut self, oid: Oid, pindex: u64, lsn: u64) -> Result<Option<PageRef>> {
        match self.index.obj(oid)?.visible(pindex, View::Lsn(lsn)).copied() {
            None => Ok(None),
            Some(v) => self.read_one(Want { oid, pindex, v }).map(Some),
        }
    }

    /// Bulk-reads many pages of one object as of `epoch` in one read
    /// plan. Pages come back in request order, whatever order the device
    /// served them in.
    pub fn read_pages_bulk(
        &mut self,
        oid: Oid,
        epoch: u64,
        pindices: &[u64],
    ) -> Result<Vec<(u64, PageRef)>> {
        self.check_epoch(epoch)?;
        let locate = |&pindex: &u64| {
            Ok(Want { oid, pindex, v: self.locate(oid, pindex, View::Epoch(epoch))? })
        };
        let wants = pindices.iter().map(locate).collect::<Result<Vec<_>>>()?;
        Ok(pindices.iter().copied().zip(self.plan(&wants, false)?).collect())
    }

    /// Reads many pages of many objects under one view as one read plan —
    /// how a restore brings a whole image back. Entry `i` is `pages[i]`'s
    /// content, or `None` when the view admits no version of that page.
    pub fn read_pages(&mut self, view: View, pages: &[(Oid, u64)]) -> Result<Vec<Option<PageRef>>> {
        let mut wants = Vec::with_capacity(pages.len());
        let mut found = Vec::with_capacity(pages.len());
        for &(oid, pindex) in pages {
            let v = self.index.obj(oid)?.visible(pindex, view);
            found.push(v.is_some());
            wants.extend(v.map(|&v| Want { oid, pindex, v }));
        }
        let mut got = self.plan(&wants, false)?.into_iter();
        Ok(found.into_iter().map(|f| if f { got.next() } else { None }).collect())
    }

    fn read_one(&mut self, want: Want) -> Result<PageRef> {
        Ok(self.plan(&[want], false)?.pop().expect("one page planned, one served"))
    }

    /// The one read path. Serves `wants` in order, in three phases:
    ///
    /// 1. page-cache hits come back as shared refs; every miss's chain
    ///    is walked in the index, without I/O;
    /// 2. the raw blocks and record extents all the misses need are
    ///    deduplicated, sorted and issued as contiguous runs at one
    ///    `issue_at` (deep NVMe queues: the plan completes when its
    ///    slowest run does, and the clock advances to that);
    /// 3. each page is rebuilt from memory — its base, with its records
    ///    replayed — verified, and left in the cache.
    ///
    /// Runs holding record bytes are read first and kept, since any
    /// replay may need them. The rest hold only raw bases, and each
    /// such run's pages are rebuilt as soon as it is read, and its
    /// buffer dropped: the order commands are issued in changes no
    /// completion time, and the plan never holds a second copy of the
    /// image beside the frames it builds.
    ///
    /// `scrub` bypasses the cache both ways and reports raw-page failures
    /// under `"scrub"`.
    fn plan(&mut self, wants: &[Want], scrub: bool) -> Result<Vec<PageRef>> {
        let mut out: Vec<Option<PageRef>> = Vec::with_capacity(wants.len());
        // (slot, chain newest → oldest): a raw image is its own chain.
        let mut misses: Vec<(usize, Vec<PageVersion>)> = Vec::new();
        let mut need: Vec<(u64, Oid, u64)> = Vec::new(); // (block, oid, epoch)
        let mut record_blocks: Vec<u64> = Vec::new();
        for (slot, w) in wants.iter().enumerate() {
            let hit = if scrub { None } else { self.cache.get(PageCache::key(&w.v)) };
            if hit.is_some() {
                out.push(hit);
                continue;
            }
            out.push(None);
            let chain = if w.v.redo {
                self.index.obj(w.oid)?.chain(w.pindex, w.v).map_err(|walked| {
                    self.trace_materialize(w.oid, walked, false);
                    StoreError::Corrupt("redo chain has no full-image base")
                })?
            } else {
                vec![w.v]
            };
            let epoch = self.report_epoch(&w.v);
            for link in &chain {
                need.extend(link.covering_blocks().map(|b| (b, w.oid, epoch)));
                if link.redo {
                    record_blocks.extend(link.covering_blocks());
                }
            }
            misses.push((slot, chain));
        }
        record_blocks.sort_unstable();
        record_blocks.dedup();
        // Misses whose chain starts from a raw block, by that block.
        let mut by_base: Vec<(u64, usize)> = misses
            .iter()
            .enumerate()
            .filter_map(|(m, (_, chain))| chain.last().filter(|b| !b.redo).map(|b| (b.block, m)))
            .collect();
        by_base.sort_unstable();

        let op = if scrub { "scrub" } else { "read-page" };
        let mut reads = Reads::new(self, need, op);
        let is_record = |b: &u64| record_blocks.binary_search(b).is_ok();
        let (held, streamed): (Vec<_>, Vec<_>) = reads
            .runs(is_record)
            .into_iter()
            .partition(|r| reads.blocks[r.clone()].iter().any(is_record));
        let records = reads.keep(self, held)?;
        for run in streamed {
            let data = reads.read(self, run.clone())?;
            let (first, last) = (reads.blocks[run.start], reads.blocks[run.end - 1]);
            let lo = by_base.partition_point(|&(b, _)| b < first);
            let hi = by_base.partition_point(|&(b, _)| b <= last);
            for &(b, m) in &by_base[lo..hi] {
                let (slot, chain) = &misses[m];
                let base = &data[(b - first) as usize * PAGE..][..PAGE];
                out[*slot] = Some(self.rebuild(&records, Some(base), &wants[*slot], chain, scrub)?);
            }
        }
        // The rest start from zeroes (a packed full record) or from a
        // raw block that shares a run with records.
        for (slot, chain) in &misses {
            if out[*slot].is_none() {
                let base = chain.last().filter(|b| !b.redo);
                let base = base.map(|b| records.bytes(b.block, 0, PAGE).expect("fetched"));
                out[*slot] = Some(self.rebuild(&records, base, &wants[*slot], chain, scrub)?);
            }
        }
        reads.finish(self);
        Ok(out.into_iter().map(|p| p.expect("every page was a hit or a miss")).collect())
    }

    /// Rebuilds one missed page: its chain's `base` (zeroes under a
    /// packed full record) with every record replayed oldest → newest on
    /// top, verified against the version's write-time checksum and
    /// cached under its key.
    fn rebuild(
        &mut self,
        records: &Extents,
        base: Option<&[u8]>,
        w: &Want,
        chain: &[PageVersion],
        scrub: bool,
    ) -> Result<PageRef> {
        let epoch = self.report_epoch(&w.v);
        let mut buf = [0u8; PAGE];
        if let Some(base) = base {
            buf.copy_from_slice(base);
        }
        for link in chain.iter().rev().filter(|l| l.redo) {
            let rec = self.decode_record(records, w.oid, w.pindex, epoch, link)?;
            let off = rec.offset as usize;
            buf[off..off + rec.payload.len()].copy_from_slice(rec.payload);
        }
        if w.v.redo {
            // The checksum covers the materialized page, validated after
            // replay — a torn record or stale base surfaces here.
            self.verify("verify-materialized", w.oid, epoch, &w.v, &buf)?;
            self.redo.materializations += 1;
            self.redo.chain_len.record(chain.len() as u64);
            self.trace_materialize(w.oid, chain.len(), true);
        } else {
            self.verify(if scrub { "scrub" } else { "verify-page" }, w.oid, epoch, &w.v, &buf)?;
        }
        let page = self.arena.alloc(buf);
        if !scrub {
            self.cache.frames.insert(PageCache::key(&w.v), page.clone());
        }
        Ok(page)
    }

    /// The epoch a read failure is reported under: the version's commit
    /// epoch, or the in-progress one for a staged version.
    fn report_epoch(&self, v: &PageVersion) -> u64 {
        if v.epoch < PROV_BASE {
            v.epoch
        } else {
            self.cur_epoch
        }
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

    /// Decodes the packed redo record `v` points at — which must be the
    /// one logged as `v.lsn` for page `pindex` — from fetched extents.
    fn decode_record<'e>(
        &self,
        extents: &'e Extents,
        oid: Oid,
        pindex: u64,
        epoch: u64,
        v: &PageVersion,
    ) -> Result<RedoRecord<'e>> {
        debug_assert!(v.redo);
        let rec = extents
            .bytes(v.block, v.byte_off as usize, v.rec_len as usize)
            .ok_or(StoreError::Corrupt("redo record out of bounds"))?;
        RedoRecord::decode(rec, v.lsn, pindex).map_err(|e| {
            // The record bytes themselves are wrong: medium corruption.
            if e == format::RECORD_CHECKSUM {
                self.checksum_mismatch("verify-record", oid, epoch, v.block)
            } else {
                e
            }
        })
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
        let vs = &vs[vs.iter().rposition(|v| v.full).unwrap_or(0)..];
        // Raw images are pages (one plan, cache hits free); packed
        // records are read as extents and decoded, not replayed.
        let raw = vs.iter().filter(|v| !v.redo).map(|&v| Want { oid, pindex, v });
        let raw: Vec<Want> = raw.collect();
        let mut raw = self.plan(&raw, false)?.into_iter();
        let need = vs.iter().filter(|v| v.redo);
        let need = need.flat_map(|v| v.covering_blocks().map(move |b| (b, oid, v.epoch))).collect();
        let mut reads = Reads::new(self, need, "read-record");
        let extents = reads.keep(self, reads.runs(|_| true))?;
        reads.finish(self);
        vs.iter()
            .map(|v| {
                if !v.redo {
                    let payload = raw.next().expect("one page per raw version").bytes().to_vec();
                    let (lsn, page_csum) = (v.lsn, v.csum);
                    return Ok(RedoRecordOut { lsn, full: true, offset: 0, payload, page_csum });
                }
                let r = self.decode_record(&extents, oid, pindex, v.epoch, v)?;
                Ok(RedoRecordOut {
                    lsn: r.lsn,
                    full: r.full,
                    offset: r.offset,
                    payload: r.payload.to_vec(),
                    page_csum: r.page_csum,
                })
            })
            .collect()
    }

    /// Verifies the data checksum of every committed page version in the
    /// store, returning the number of pages scanned. Journal blocks are
    /// excluded: journals update in place (non-COW), so they carry no
    /// per-block write-time checksum.
    ///
    /// Crash-schedule recovery runs this after every reopen, turning
    /// silent corruption anywhere in history into a hard
    /// [`StoreError::Device`] instead of a latent wrong read. It is one
    /// read plan with the cache bypassed: every raw image is read back
    /// and every packed version re-materialized from the device, so
    /// record checksums and the materialized-page checksum both verify
    /// and a torn record anywhere in a chain surfaces.
    pub fn scrub(&mut self) -> Result<u64> {
        let mut wants: Vec<Want> = Vec::new();
        for (oid, o) in self.index.iter() {
            for (pindex, vs) in o.pages() {
                wants.extend(vs.iter().map(|&v| Want { oid, pindex, v }));
            }
        }
        // Raw images first, then packed extents, each in block order.
        wants.sort_by_key(|w| (w.v.redo, w.v.block, w.v.byte_off));
        self.plan(&wants, true)?;
        let trace = self.charge.trace();
        if trace.is_enabled() {
            trace.instant("objstore", "scrub.done", &[("pages", wants.len() as u64)]);
        }
        Ok(wants.len() as u64)
    }
}

/// One page a read plan serves: the page, and the version of it the
/// reader's view sees.
#[derive(Clone, Copy)]
struct Want {
    oid: Oid,
    pindex: u64,
    v: PageVersion,
}

/// The device side of one read plan: the blocks it needs, sorted and
/// unique, each with the `(oid, epoch)` a failure is reported for, all
/// read at one `issue_at`.
struct Reads {
    blocks: Vec<u64>,
    owners: Vec<(Oid, u64)>,
    op: &'static str,
    /// Blocks per stripe unit of the device.
    unit: u64,
    issue_at: u64,
    done: u64,
}

impl Reads {
    fn new(store: &ObjectStore, mut need: Vec<(u64, Oid, u64)>, op: &'static str) -> Self {
        need.sort_unstable_by_key(|&(b, ..)| b);
        need.dedup_by_key(|&mut (b, ..)| b);
        let issue_at = store.charge.clock().now();
        Self {
            blocks: need.iter().map(|&(b, ..)| b).collect(),
            owners: need.iter().map(|&(_, oid, epoch)| (oid, epoch)).collect(),
            op,
            unit: store.dev.lock().geometry().1,
            issue_at,
            done: issue_at,
        }
    }

    /// The contiguous runs of `blocks`, cut wherever one would cross a
    /// stripe unit: the array splits a command there anyway, so the cut
    /// costs no device time and bounds what one read holds in memory.
    /// Never between two record blocks, so no record straddles a cut.
    fn runs(&self, is_record: impl Fn(&u64) -> bool) -> Vec<Range<usize>> {
        let mut out = Vec::new();
        for run in contiguous_runs(&self.blocks) {
            let mut start = run.start;
            for i in run.start + 1..run.end {
                let (prev, b) = (&self.blocks[i - 1], &self.blocks[i]);
                if b % self.unit == 0 && !(is_record(prev) && is_record(b)) {
                    out.push(start..i);
                    start = i;
                }
            }
            out.push(start..run.end);
        }
        out
    }

    /// Reads one run, issued at the plan's `issue_at`.
    fn read(&mut self, store: &ObjectStore, run: Range<usize>) -> Result<Vec<u8>> {
        let (oid, epoch) = self.owners[run.start];
        let (data, done) = store
            .dev
            .lock()
            .read_from(self.blocks[run.start], run.len() as u64, self.issue_at)
            .map_err(StoreError::dev(self.op, Some(oid), epoch, 0))?;
        self.done = self.done.max(done);
        Ok(data)
    }

    /// Reads `runs` (in block order) and keeps them all.
    fn keep(&mut self, store: &ObjectStore, runs: Vec<Range<usize>>) -> Result<Extents> {
        let mut kept = Extents::default();
        for run in runs {
            let data = self.read(store, run.clone())?;
            kept.runs.push((kept.blocks.len(), data));
            kept.blocks.extend_from_slice(&self.blocks[run]);
        }
        Ok(kept)
    }

    /// The plan completes when its slowest run does.
    fn finish(self, store: &ObjectStore) {
        store.charge.clock().advance_to(self.done);
    }
}

/// Runs a plan read and kept: `blocks` sorted and unique, each run
/// `(index of its first block, bytes)`.
#[derive(Default)]
struct Extents {
    blocks: Vec<u64>,
    runs: Vec<(usize, Vec<u8>)>,
}

impl Extents {
    /// `len` bytes starting `off` bytes into `block`. A record's covering
    /// blocks are consecutive and never cut apart, so they sit in one run.
    fn bytes(&self, block: u64, off: usize, len: usize) -> Option<&[u8]> {
        let i = self.blocks.binary_search(&block).ok()?;
        let (first, data) = &self.runs[self.runs.partition_point(|&(first, _)| first <= i) - 1];
        let at = (i - first) * PAGE + off;
        data.get(at..at + len)
    }
}
