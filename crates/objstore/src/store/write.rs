//! The write side of the engine: staging mutations into a group's draft
//! and committing drafts as epochs. Page bytes reach the device on two
//! paths — a raw block per full image (`write_pages`) and packed sub-page
//! records (`append_redo`, which routes its full images through the
//! former) — and both index what they wrote through `ObjMeta::stage`.

use super::alloc::contiguous_runs;
use super::cache::PageCache;
use super::format::{self, CommitHeader, ObjRecord, RedoRecord};
use super::index::{prov_tag, PageVersion, View};
use super::{
    content_hash, CommitInfo, ObjectKind, ObjectStore, Oid, RedoWrite, Result, StoreError, PAGE,
};
use aurora_frames::PageRef;
use aurora_storage::device::Completion;
use std::collections::HashMap;

impl ObjectStore {
    /// Creates an object with a caller-chosen OID, staged in the current
    /// group's draft.
    pub fn create_object(&mut self, oid: Oid, kind: ObjectKind) -> Result<()> {
        self.next_oid = self.next_oid.max(oid.0 + 1);
        self.index.obj_or_create(oid.0, kind.to_raw(), prov_tag(self.staging));
        self.draft_mut().objects.insert(oid.0);
        Ok(())
    }

    /// Marks an object deleted as of the current group's in-flight epoch;
    /// earlier checkpoints still expose it.
    pub fn delete_object(&mut self, oid: Oid) -> Result<()> {
        self.index.obj_mut(oid)?.deleted_epoch = Some(prov_tag(self.staging));
        self.draft_mut().objects.insert(oid.0);
        Ok(())
    }

    /// Replaces an object's serialized metadata for the current epoch.
    ///
    /// Identical metadata is deduplicated: re-serializing an unchanged
    /// object creates no new version, keeping commit records and
    /// incremental streams proportional to what actually changed.
    pub fn set_meta(&mut self, oid: Oid, meta: &[u8]) -> Result<()> {
        self.charge.encode(meta.len() as u64);
        self.stage_meta(oid, meta)
    }

    /// Replaces the serialized metadata of many objects for the current
    /// epoch, charging the serialization cost once for the whole batch.
    ///
    /// Per-object semantics match [`set_meta`] (same-epoch replacement,
    /// identical-content deduplication). On error, entries preceding the
    /// failing one have already been applied.
    ///
    /// [`set_meta`]: ObjectStore::set_meta
    pub fn set_meta_batch(&mut self, items: &[(Oid, Vec<u8>)]) -> Result<()> {
        if items.is_empty() {
            return Ok(());
        }
        self.charge.encode(items.iter().map(|(_, m)| m.len() as u64).sum());
        items.iter().try_for_each(|(oid, meta)| self.stage_meta(*oid, meta))
    }

    fn stage_meta(&mut self, oid: Oid, meta: &[u8]) -> Result<()> {
        if self.index.obj_mut(oid)?.set_meta(prov_tag(self.staging), meta) {
            self.draft_mut().objects.insert(oid.0);
        }
        Ok(())
    }

    /// Writes a batch of full page images to one object as a single
    /// charged bulk I/O. Each frame is shared into the page cache (no
    /// copy) and its bytes go to a fresh COW block asynchronously —
    /// physically-contiguous destination blocks (which the bump
    /// allocator produces whenever the free list is empty) as single
    /// device writes. Durability is established by [`commit`].
    ///
    /// [`commit`]: ObjectStore::commit
    pub fn write_pages(&mut self, oid: Oid, pages: &[(u64, PageRef)]) -> Result<()> {
        if pages.is_empty() {
            return Ok(());
        }
        self.index.obj(oid)?;
        // Place every page first so physically-adjacent blocks coalesce.
        let mut placed: Vec<u64> = Vec::with_capacity(pages.len());
        for _ in pages {
            placed.push(self.alloc_block()?);
        }
        let mut max_done = self.drafts.get(&self.staging).map_or(0, |d| d.max_completion);
        let write_res = {
            let mut dev = self.dev.lock();
            contiguous_runs(&placed).try_for_each(|run| {
                let mut buf = Vec::with_capacity(run.len() * PAGE);
                pages[run.clone()].iter().for_each(|(_, data)| buf.extend_from_slice(data.bytes()));
                dev.write(placed[run.start], &buf).map(|c| max_done = max_done.max(c.done_at))
            })
        };
        self.draft_mut().max_completion = max_done;
        if let Err(e) = write_res {
            // None of the batch is indexed yet; return every placed block.
            // (Blocks written before the failure hold unreferenced data —
            // harmless to recycle, they were never committed.)
            self.free_blocks(placed);
            return Err(StoreError::dev("write-pages", Some(oid), self.cur_epoch, self.staging)(e));
        }
        self.charge.encode((pages.len() * PAGE) as u64);
        let prov = prov_tag(self.staging);
        let o = self.index.obj_mut(oid)?;
        let mut superseded = Vec::new();
        for (&block, (pindex, data)) in placed.iter().zip(pages) {
            // Checksum the clean page as handed to the device; anything
            // the medium flips afterwards is caught at read time.
            // Computed once per frame write — cache hits never re-verify.
            let entry = PageVersion::raw(prov, self.next_lsn, block, content_hash(data.bytes()));
            self.next_lsn += 1;
            self.marks.wrote(entry.lsn, max_done);
            superseded.extend(o.stage(*pindex, entry));
            self.cache.frames.insert(block, data.clone());
        }
        let freed = self.release(&superseded);
        self.free_blocks(freed);
        self.draft_mut().objects.insert(oid.0);
        Ok(())
    }

    /// Appends redo records for a batch of dirty pages — the delta
    /// checkpoint write path ("the log is the database"). Sub-page delta
    /// records are packed many to a block and written as one contiguous
    /// extent; full-image writes (and deltas with no prior version to
    /// chain on) take the raw-block path of [`write_pages`]. Each record
    /// gets an LSN, chains on the page's previous version via
    /// `prev_lsn`, and carries the checksum of the *materialized* page,
    /// so reads validate after chain replay exactly as they would a full
    /// image.
    ///
    /// [`write_pages`]: ObjectStore::write_pages
    pub fn append_redo(&mut self, oid: Oid, writes: &[RedoWrite]) -> Result<()> {
        self.append_redo_pinned(oid, writes, u64::MAX, 0)
    }

    /// [`append_redo`](Self::append_redo) for an object living on a
    /// restored branch: deltas chain on the newest *branch-visible*
    /// version (epoch ≤ `floor` or ≥ `resume`) — the version the caller
    /// diffed against — never on a version from the abandoned future the
    /// branch rewound away from.
    pub fn append_redo_pinned(
        &mut self,
        oid: Oid,
        writes: &[RedoWrite],
        floor: u64,
        resume: u64,
    ) -> Result<()> {
        if writes.is_empty() {
            return Ok(());
        }
        // The write view admits staged versions: deltas chain on them.
        let view = View::Branch { floor, resume, upto: u64::MAX };
        let o = self.index.obj(oid)?;
        // Deltas need a version to chain on; everything else goes to the
        // raw full-image path (a packed 4 KiB payload would span two
        // blocks — strictly worse than one raw block).
        let mut fulls: Vec<(u64, PageRef)> = Vec::new();
        let mut deltas: Vec<(&RedoWrite, u32, &[u8])> = Vec::new();
        for w in writes {
            // Chain only when the newest visible version is byte-identical
            // to the caller's diff base (checksum match): replay applies
            // the payload on top of that version.
            let chained = o.visible(w.pindex, view).is_some_and(|v| v.csum == w.base_csum);
            match &w.delta {
                Some((offset, payload)) if chained => deltas.push((w, *offset, payload)),
                _ => fulls.push((w.pindex, w.page.clone())),
            }
        }
        self.write_pages(oid, &fulls)?;
        if deltas.is_empty() {
            return Ok(());
        }
        // Encode every record into one buffer; records pack end to end
        // and may straddle block boundaries within the extent.
        let prov = prov_tag(self.staging);
        let o = self.index.obj(oid)?;
        let mut buf = Vec::new();
        let mut entries: Vec<(u64, PageVersion)> = Vec::with_capacity(deltas.len());
        // A later delta to the same page in this batch chains on the
        // earlier one, which is not in the index yet.
        let mut batch_newest: HashMap<u64, u64> = HashMap::new();
        for &(w, offset, payload) in &deltas {
            let lsn = self.next_lsn;
            self.next_lsn += 1;
            let prev_lsn = match batch_newest.insert(w.pindex, lsn) {
                Some(earlier) => earlier,
                None => o.visible(w.pindex, view).map_or(0, |v| v.lsn),
            };
            let page_csum = content_hash(w.page.bytes());
            let (pindex, at) = (w.pindex, buf.len());
            let rec = RedoRecord { lsn, pindex, prev_lsn, full: false, offset, payload, page_csum };
            let rec_len = rec.encode_into(&mut buf);
            // Extent-relative until the extent is placed.
            entries
                .push((pindex, PageVersion::packed(prov, lsn, at, rec_len, prev_lsn, page_csum)));
        }
        let bytes = buf.len() as u64;
        let nblocks = bytes.div_ceil(PAGE as u64);
        self.reclaim_matured();
        let extent = self.alloc.alloc_extent(nblocks)?;
        buf.resize(nblocks as usize * PAGE, 0);
        let res = self.dev.lock().write(extent, &buf);
        let completion = res.map_err(|e| {
            // Nothing is indexed yet; the extent goes straight back.
            self.free_blocks((extent..extent + nblocks).collect());
            StoreError::dev("append-redo", Some(oid), self.cur_epoch, self.staging)(e)
        })?;
        self.charge.encode(bytes);
        // The records are on their way: index them, count block
        // references, and cache each materialized page under its LSN.
        let o = self.index.obj_mut(oid)?;
        for ((pindex, mut entry), (w, ..)) in entries.into_iter().zip(&deltas) {
            entry.block += extent;
            o.stage(pindex, entry);
            self.alloc.retain(&entry);
            self.cache.frames.insert(PageCache::key(&entry), w.page.clone());
            self.marks.wrote(entry.lsn, completion.done_at);
        }
        let draft = self.draft_mut();
        draft.max_completion = draft.max_completion.max(completion.done_at);
        draft.objects.insert(oid.0);
        let records = deltas.len() as u64;
        let saved = (records * PAGE as u64).saturating_sub(nblocks * PAGE as u64);
        self.redo.appended += records;
        self.redo.bytes_saved += saved;
        let trace = self.charge.trace();
        if trace.is_enabled() {
            trace.instant(
                "objstore",
                "redo.append",
                &[("oid", oid.0), ("records", records), ("bytes", bytes), ("saved", saved)],
            );
        }
        Ok(())
    }

    /// Commits the staging group's draft (see
    /// [`commit_for`](Self::commit_for)).
    pub fn commit(&mut self) -> Result<CommitInfo> {
        self.commit_for(self.staging)
    }

    /// Commits `group`'s in-flight epoch: appends the metadata record
    /// (ordered after that draft's data writes — and only that draft's,
    /// so one group's commit never serializes behind another's flush) and
    /// retags the draft's staged state with the epoch number, assigned
    /// here so commit order equals log order across groups.
    ///
    /// Does not advance the caller's clock — checkpoint flushing is
    /// concurrent with execution (§6); `durable_at` reports when the
    /// checkpoint is safe.
    pub fn commit_for(&mut self, group: u64) -> Result<CommitInfo> {
        let epoch = self.cur_epoch;
        let prov = prov_tag(group);
        let draft = self.drafts.get(&group).cloned().unwrap_or_default();
        // The draft's dirty set: per object, what was staged under this
        // group's provenance tag.
        let records: Vec<ObjRecord<'_>> = draft
            .objects
            .iter()
            .map(|&oid| {
                let o = self.index.obj(Oid(oid)).expect("draft object exists");
                ObjRecord {
                    oid,
                    kind_raw: o.kind_raw,
                    size: o.size,
                    deleted: o.deleted_epoch == Some(prov),
                    meta: o.staged_meta(prov),
                    pages: o.staged(prov),
                    journal: o
                        .journal
                        .as_ref()
                        .filter(|_| o.created_epoch == prov)
                        .map(|j| j.blocks.clone()),
                }
            })
            .collect();
        // The epoch's consistency-point LSN: the highest LSN it commits,
        // carrying the previous point forward when the epoch wrote no
        // pages.
        let cpl = records
            .iter()
            .flat_map(|r| &r.pages)
            .map(|(_, v)| v.lsn)
            .max()
            .unwrap_or_else(|| self.epoch_cpls.values().copied().max().unwrap_or(0));
        let payload = format::encode_payload(&records);
        drop(records);
        let (header, payload) = CommitHeader::seal(epoch, group, cpl, self.floor, payload);
        if self.meta_head + 1 + header.nblocks > self.data_start {
            return Err(StoreError::Full);
        }
        let meta_bytes = (1 + header.nblocks) * PAGE as u64;
        self.charge.encode(header.len);
        // The barrier covers this draft's data writes plus the group's
        // previous commit record: a group's records become durable in
        // commit order, so recovery always sees a prefix of each group's
        // epochs. Other groups' in-flight epochs do not gate this group's
        // durability horizon — their records may land out of log order,
        // which the hole-tolerant replay handles.
        let chain = self.durable_floor(group);
        let barrier = Completion { done_at: draft.max_completion.max(chain) };
        let durable = {
            let mut dev = self.dev.lock();
            // Payload first, then the header — the header is the commit
            // point. Both are ordered after the epoch's data writes.
            // Nothing below advances meta_head or epoch state until both
            // writes are accepted, so a failed commit can simply be
            // retried: it rewrites the same log region.
            let c1 = dev
                .write_after(self.meta_head + 1, &payload, barrier)
                .map_err(StoreError::dev("commit-payload", None, epoch, group))?;
            dev.write_after(self.meta_head, &header.encode(), c1).map_err(StoreError::dev(
                "commit-header",
                None,
                epoch,
                group,
            ))?
        };
        let trace = self.charge.trace();
        if trace.is_enabled() {
            trace.instant(
                "objstore",
                "epoch.commit",
                &[
                    ("epoch", epoch),
                    ("group", group),
                    ("durable_at", durable.done_at),
                    ("objects", draft.objects.len() as u64),
                    ("meta_bytes", meta_bytes),
                ],
            );
            trace.instant("objstore", "epoch.open", &[("epoch", epoch + 1)]);
        }
        self.meta_head += 1 + header.nblocks;
        self.epochs.push(epoch);
        self.epoch_groups.insert(epoch, group);
        self.last_durable.insert(group, durable.done_at);
        self.cur_epoch = epoch + 1;
        for &oid in &draft.objects {
            self.index.obj_mut(Oid(oid)).expect("draft object exists").retag(prov, epoch);
        }
        self.drafts.remove(&group);
        // Blocks reclaimed by drop_oldest become reusable only once this
        // commit record (which carries the new floor) is durable.
        self.alloc.fence(durable.done_at);
        self.epoch_cpls.insert(epoch, cpl);
        self.marks.committed(cpl, durable.done_at);
        self.note_watermarks();
        Ok(CommitInfo { epoch, durable_at: durable.done_at, meta_bytes })
    }

    /// Waits until `info`'s checkpoint is durable (the `sls_barrier`
    /// primitive): advances the clock to the commit's completion.
    pub fn barrier(&self, info: CommitInfo) {
        self.charge.clock().advance_to(info.durable_at);
    }
}
