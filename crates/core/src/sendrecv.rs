//! `sls send` / `sls recv` (Table 2): serialize a checkpoint to a byte
//! stream and import it on another machine — the building block for
//! migration and high availability (§10).

use crate::restore::{RestoreMode, RestoreReport};
use crate::{Sls, SlsError};
use aurora_objstore::{ObjectKind, Oid, RedoWrite, PAGE};
use aurora_sim::codec::{Decoder, Encoder};
use aurora_sim::content_hash;

const STREAM_TAG: u16 = 0x5354;

/// Stream format version — the only one senders produce and receivers
/// accept; anything else is a structured [`SlsError::BadImage`]. Pages
/// travel as redo records (offset/payload/page-checksum): a full image
/// is one full record per page, and a sealed epoch's delta is exactly
/// the records the leader logged — delta compression on the wire.
///
/// The header carries a **provenance context** — the origin node id and
/// the virtual send time — so a receiver can attribute the frame to its
/// origin hop in the cross-node causal graph.
///
/// Version 3 is version 2's framing with the page checksums computed by
/// the word-wise [`content_hash`] (record format 6): a version-2 stream
/// is refused here, by version, not at its first checksum.
const STREAM_VERSION: u16 = 3;

/// What a delta stream carried — the replication/migration layers size
/// rounds and convergence checks on these.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeltaStats {
    /// Source epoch the stream describes (the `to` side).
    pub epoch: u64,
    /// Objects with any change in the window.
    pub objects: u64,
    /// Pages carried.
    pub pages: u64,
    /// Encoded stream length.
    pub bytes: u64,
}

/// What applying a received stream produced.
#[derive(Clone, Debug)]
pub struct ApplyReport {
    /// Manifest objects seen in the stream (restore entry points).
    pub manifests: Vec<Oid>,
    /// The source-side epoch stamped in the stream header.
    pub src_epoch: u64,
    /// Origin node id from the header's provenance context.
    pub src_node: u64,
    /// Virtual time the origin encoded the stream.
    pub sent_at: u64,
    /// The local epoch the apply committed as.
    pub local_epoch: u64,
    /// Virtual time at which the local commit is durable — the floor a
    /// replication follower acks at.
    pub durable_at: u64,
    /// Pages written.
    pub pages: u64,
}

/// One page record on the wire.
fn put_record(e: &mut Encoder, full: bool, offset: u32, payload: &[u8], page_csum: u64) {
    e.bool(full);
    e.u32(offset);
    e.bytes(payload);
    e.u64(page_csum);
}

impl Sls {
    /// The stream header: what it describes, stamped with the
    /// provenance context — who encoded this stream, and when.
    fn put_header(&self, e: &mut Encoder, epoch: u64, objects: u32) {
        let (origin, sent_at) = (self.node_id, self.kernel.charge.clock().now());
        e.record(STREAM_TAG, STREAM_VERSION, |e| {
            e.u64(epoch);
            e.u32(objects);
            e.u64(origin);
            e.u64(sent_at);
        });
    }

    /// Serializes the full image at `epoch` into a self-contained stream:
    /// every object's kind, metadata, and pages.
    pub fn send_stream(&self, epoch: u64) -> Result<Vec<u8>, SlsError> {
        let mut store = self.store.lock();
        let oids = store.objects_at(epoch)?;
        let mut e = Encoder::new();
        self.put_header(&mut e, epoch, oids.len() as u32);
        for oid in oids {
            let kind = store.kind(oid)?;
            let meta = store.meta_at(oid, epoch).map(|m| m.to_vec()).unwrap_or_default();
            let pages = store.pages_at(oid, epoch)?;
            let mut body = Encoder::new();
            body.u64(oid.0);
            body.u16(kind.to_raw());
            body.bytes(&meta);
            body.u32(pages.len() as u32);
            for pi in pages {
                let data = store.read_page(oid, pi, epoch)?;
                body.u64(pi);
                body.u32(1);
                put_record(&mut body, true, 0, data.bytes(), content_hash(data.bytes()));
            }
            let bytes = body.finish_vec();
            e.u32(bytes.len() as u32);
            e.raw(&bytes);
        }
        let out = e.finish_vec();
        let trace = self.kernel.charge.trace();
        if trace.is_enabled() {
            trace.instant(
                "core",
                "sendrecv.send",
                &[("epoch", epoch), ("bytes", out.len() as u64)],
            );
        }
        Ok(out)
    }

    /// Imports a stream produced by [`send_stream`](Sls::send_stream)
    /// into this machine's store (same OIDs) and commits it. Returns the
    /// manifests found, ready for [`Sls::restore_image`].
    pub fn recv_stream(&mut self, stream: &[u8]) -> Result<Vec<Oid>, SlsError> {
        Ok(self.recv_apply(stream, 0)?.manifests)
    }

    /// Imports a full or delta stream, committing it under `group`'s
    /// draft so the commit record chains on that group's durable floor —
    /// a replication follower applying a leader's sealed epoch commits a
    /// record attributed to the same consistency group. Returns what was
    /// applied, including the local commit's `durable_at` (the follower's
    /// ack floor).
    pub fn recv_apply(&mut self, stream: &[u8], group: u64) -> Result<ApplyReport, SlsError> {
        let mut manifests = Vec::new();
        let mut pages = 0u64;
        let mut d = Decoder::new(stream);
        let (v, mut hdr) = d.record(STREAM_TAG, STREAM_VERSION)?;
        if v != STREAM_VERSION {
            return Err(SlsError::BadImage("unsupported stream version"));
        }
        let src_epoch = hdr.u64()?;
        let count = hdr.u32()?;
        let src_node = hdr.u64()?;
        let sent_at = hdr.u64()?;
        let mut store = self.store.lock();
        let prev_staging = store.staging();
        store.stage_for(group);
        for _ in 0..count {
            let len = d.u32()? as usize;
            let mut body = Decoder::new(d.raw(len)?);
            let oid = Oid(body.u64()?);
            let kind = ObjectKind::from_raw(body.u16()?)?;
            let meta = body.bytes()?.to_vec();
            store.create_object(oid, kind)?;
            if !meta.is_empty() {
                store.set_meta(oid, &meta)?;
            }
            let npages = body.u32()?;
            // Per-page redo records. Replay them onto the local copy of
            // the page (a follower in sync through the stream's `from`
            // epoch holds the same base the sender chained on), verifying
            // the materialized-page checksum at every record, then log
            // the result locally as one combined redo write.
            let mut batch: Vec<RedoWrite> = Vec::with_capacity(npages as usize);
            for _ in 0..npages {
                let pi = body.u64()?;
                let nrecs = body.u32()?;
                let mut buf = [0u8; PAGE];
                let mut base_csum = 0u64;
                let mut span: Option<(usize, usize)> = None; // (off, end)
                let mut any_full = false;
                for r in 0..nrecs {
                    let full = body.bool()?;
                    let offset = body.u32()? as usize;
                    let payload = body.bytes()?;
                    let page_csum = body.u64()?;
                    if full {
                        if payload.len() != PAGE {
                            return Err(SlsError::BadImage("short full record in stream"));
                        }
                        buf.copy_from_slice(payload);
                        any_full = true;
                    } else {
                        if r == 0 {
                            // Deltas only: seed with the local copy.
                            let base = store
                                .last_epoch()
                                .and_then(|e| store.read_page(oid, pi, e).ok());
                            if let Some(p) = &base {
                                buf.copy_from_slice(p.bytes());
                            }
                            base_csum = content_hash(&buf);
                        }
                        let end = offset + payload.len();
                        if end > PAGE {
                            return Err(SlsError::BadImage("record overruns page"));
                        }
                        buf[offset..end].copy_from_slice(payload);
                        span = Some(match span {
                            None => (offset, end),
                            Some((o, e)) => (o.min(offset), e.max(end)),
                        });
                    }
                    if content_hash(&buf) != page_csum {
                        return Err(SlsError::BadImage("delta stream page checksum"));
                    }
                }
                if nrecs == 0 {
                    continue;
                }
                let page = store.arena().alloc(buf);
                let delta = match (any_full, span) {
                    // The stream began at a full image: log a full
                    // image locally too (nothing older to chain on).
                    (true, _) => None,
                    (false, Some((o, e))) => Some((o as u32, buf[o..e].to_vec())),
                    (false, None) => None,
                };
                batch.push(RedoWrite { pindex: pi, page, delta, base_csum });
            }
            pages += batch.len() as u64;
            if !batch.is_empty() {
                store.append_redo(oid, &batch)?;
            }
            if kind == ObjectKind::Posix(crate::oidmap::MANIFEST) {
                manifests.push(oid);
            }
        }
        let info = store.commit_for(group)?;
        store.barrier(info);
        store.stage_for(prev_staging);
        drop(store);
        let trace = self.kernel.charge.trace();
        if trace.is_enabled() {
            trace.instant(
                "core",
                "sendrecv.recv",
                &[
                    ("epoch", info.epoch),
                    ("src_epoch", src_epoch),
                    ("src_node", src_node),
                    ("sent_at", sent_at),
                    ("group", group),
                    ("objects", count as u64),
                    ("bytes", stream.len() as u64),
                    ("durable_at", info.durable_at),
                ],
            );
        }
        Ok(ApplyReport {
            manifests,
            src_epoch,
            src_node,
            sent_at,
            local_epoch: info.epoch,
            durable_at: info.durable_at,
            pages,
        })
    }

    /// Serializes only the changes between two epochs: the incremental
    /// stream `sls send` feeds a standby for live migration or high
    /// availability (Table 2, §10). Objects/pages unchanged since
    /// `from_epoch` are skipped.
    pub fn send_delta(&self, from_epoch: u64, to_epoch: u64) -> Result<Vec<u8>, SlsError> {
        Ok(self.send_delta_stats(from_epoch, to_epoch)?.0)
    }

    /// [`send_delta`](Sls::send_delta) plus what the stream carried —
    /// the replication and migration layers size rounds on the stats.
    pub fn send_delta_stats(
        &self,
        from_epoch: u64,
        to_epoch: u64,
    ) -> Result<(Vec<u8>, DeltaStats), SlsError> {
        let mut store = self.store.lock();
        let oids = store.objects_at(to_epoch)?;
        let mut emitted = 0u32;
        let mut total_pages = 0u64;
        let mut bodies = Encoder::new();
        for oid in oids {
            let kind = store.kind(oid)?;
            // Pages that changed in (from, to]: new since `from`, or
            // their newest version ≤ to is > from. (`pages_at` is
            // sorted; an object absent at `from` had no pages.)
            let old = store.pages_at(oid, from_epoch).unwrap_or_default();
            let pages: Vec<u64> = store
                .pages_at(oid, to_epoch)?
                .into_iter()
                .filter(|pi| {
                    old.binary_search(pi).is_err()
                        || store.page_version_epoch(oid, *pi, to_epoch).unwrap_or(0) > from_epoch
                })
                .collect();
            let meta_changed = store.meta_version_epoch(oid, to_epoch).unwrap_or(0) > from_epoch;
            if pages.is_empty() && !meta_changed {
                continue;
            }
            let meta =
                store.meta_at(oid, to_epoch).map(|m| m.to_vec()).unwrap_or_default();
            let mut body = Encoder::new();
            body.u64(oid.0);
            body.u16(kind.to_raw());
            body.bytes(&meta);
            body.u32(pages.len() as u32);
            total_pages += pages.len() as u64;
            for pi in pages {
                // The page's redo records in (from, to] — exactly the
                // delta the leader logged, replayed by the receiver onto
                // its own copy of the page.
                let recs = store.page_records_in(oid, pi, from_epoch, to_epoch)?;
                body.u64(pi);
                body.u32(recs.len() as u32);
                for r in &recs {
                    put_record(&mut body, r.full, r.offset, &r.payload, r.page_csum);
                }
            }
            let bytes = body.finish_vec();
            bodies.u32(bytes.len() as u32);
            bodies.raw(&bytes);
            emitted += 1;
        }
        // The header goes first but needs the emitted count.
        let mut out = Encoder::new();
        self.put_header(&mut out, to_epoch, emitted);
        out.raw(&bodies.finish_vec());
        let stream = out.finish_vec();
        let stats = DeltaStats {
            epoch: to_epoch,
            objects: emitted as u64,
            pages: total_pages,
            bytes: stream.len() as u64,
        };
        Ok((stream, stats))
    }

    /// Convenience: migrate the image at `epoch` into `target`, restoring
    /// it there (`sls send | sls recv` + restore).
    pub fn migrate_to(
        &self,
        target: &mut Sls,
        epoch: u64,
        mode: RestoreMode,
    ) -> Result<RestoreReport, SlsError> {
        let stream = self.send_stream(epoch)?;
        let manifests = target.recv_stream(&stream)?;
        let manifest = *manifests.first().ok_or(SlsError::BadImage("no manifest in stream"))?;
        let epoch = target
            .store
            .lock()
            .last_epoch()
            .ok_or(SlsError::BadImage("empty target store"))?;
        target.restore_image(manifest, epoch, mode)
    }
}
