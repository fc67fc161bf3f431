//! Pins the on-disk format: a fixed seeded workload over two
//! consistency groups — full images, packed redo records, metadata,
//! interleaved per-group commits — must leave exactly the bytes on the
//! device, and report exactly the commit times, that the store produced
//! before it was split into modules. A refactor that moves a block,
//! reorders an LSN or changes one encoded byte fails here.
//!
//! Three pins, hashed by a byte-wise FNV-1a local to this test so they
//! do not move when the store's own content hash does. Record format 6
//! (the word-wise content hash) changed the digests *inside* blocks and
//! nothing else: `DEVICE_HASH` was re-pinned for it, while
//! `COMMITS_HASH` (LSNs, placement, timing) and `WRITTEN_LBAS_HASH`
//! (which blocks exist) are the format-5 constants, untouched.
//!
//! The workload avoids history reclamation and aborts: those return
//! blocks to the allocator, whose free order was `HashMap`-dependent
//! before the split and is deliberately ascending-LBA since.

use aurora_objstore::store::RedoWrite;
use aurora_objstore::{ObjectKind, ObjectStore, Oid, PAGE};
use aurora_sim::cost::Charge;
use aurora_sim::rng::{DetRng, Rng};
use aurora_sim::{content_hash, Clock, CostModel};
use aurora_storage::testbed_array;
use std::collections::BTreeMap;

/// FNV-1a over every device block after the workload.
const DEVICE_HASH: u64 = 0x6c0f_166d_aaf5_7ebb;
/// FNV-1a over every commit's `(epoch, durable_at, meta_bytes)`.
const COMMITS_HASH: u64 = 0x0bde_03d2_f041_118d;
/// FNV-1a over the LBA of every block holding a non-zero byte.
const WRITTEN_LBAS_HASH: u64 = 0x6b40_af8d_68e3_bdb5;

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Byte-wise FNV-1a (with the multiplier the tree's hash had through
/// record format 5), folding `data` into `h`.
fn fnv(h: u64, data: &[u8]) -> u64 {
    data.iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x1000_0000_01b3))
}

const GROUPS: [u64; 2] = [1, 2];
const PAGES: u64 = 24;

#[test]
fn device_image_and_commit_times_match_the_pinned_format() {
    let clock = Clock::new();
    let dev = testbed_array(&clock, 1 << 24);
    let charge = Charge::new(clock, CostModel::default());
    let mut store = ObjectStore::format(dev.clone(), charge, 1024).unwrap();
    let mut rng = DetRng::seed_from_u64(0x0F02_A47E);

    // Two memory objects per group, created under the group's draft.
    let mut oids: Vec<Vec<Oid>> = Vec::new();
    for &g in &GROUPS {
        store.stage_for(g);
        oids.push(
            (0..2)
                .map(|_| {
                    let o = store.alloc_oid();
                    store.create_object(o, ObjectKind::Memory).unwrap();
                    o
                })
                .collect(),
        );
    }
    // The model: current content of every page, for delta bases.
    let mut model: BTreeMap<(Oid, u64), [u8; PAGE]> = BTreeMap::new();
    let mut commits = FNV_BASIS;

    for round in 0..16u64 {
        for (gi, &g) in GROUPS.iter().enumerate() {
            store.stage_for(g);
            for &oid in &oids[gi] {
                // A few full images through the raw-block path...
                let mut fulls = Vec::new();
                for _ in 0..rng.gen_range(1..5) {
                    let pi = rng.gen_range(0..PAGES);
                    if fulls.iter().any(|&(p, _)| p == pi) {
                        continue;
                    }
                    let mut bytes = [0u8; PAGE];
                    bytes.iter_mut().for_each(|b| *b = rng.next_u64() as u8);
                    model.insert((oid, pi), bytes);
                    fulls.push((pi, store.arena().alloc(bytes)));
                }
                fulls.sort_by_key(|&(p, _)| p);
                store.write_pages(oid, &fulls).unwrap();
                // ...then sub-page deltas on whatever pages exist, plus
                // one delta against a page with no version (promoted to
                // a full image by the store).
                let mut writes = Vec::new();
                for pi in 0..PAGES {
                    let exists = model.contains_key(&(oid, pi));
                    if !(rng.gen_range(0..3) == 0 && (exists || pi == round % PAGES)) {
                        continue;
                    }
                    let base = model.get(&(oid, pi)).copied().unwrap_or([0u8; PAGE]);
                    let off = rng.gen_range(0..PAGE as u64 - 300) as usize;
                    let len = rng.gen_range(0..300) as usize;
                    let mut new = base;
                    new[off..off + len].iter_mut().for_each(|b| *b = rng.next_u64() as u8);
                    model.insert((oid, pi), new);
                    writes.push(RedoWrite {
                        pindex: pi,
                        page: store.arena().alloc(new),
                        delta: Some((off as u32, new[off..off + len].to_vec())),
                        base_csum: content_hash(&base),
                    });
                }
                store.append_redo(oid, &writes).unwrap();
                // Occasionally rewrite a page within the open draft: the
                // superseded staged version is released on the spot.
                if rng.gen_range(0..4) == 0 {
                    let pi = rng.gen_range(0..PAGES);
                    let bytes = [rng.next_u64() as u8; PAGE];
                    model.insert((oid, pi), bytes);
                    store.write_pages(oid, &[(pi, store.arena().alloc(bytes))]).unwrap();
                }
            }
            let metas: Vec<(Oid, Vec<u8>)> = oids[gi]
                .iter()
                .map(|&o| (o, vec![(round / 3) as u8 ^ o.0 as u8; 40 + gi * 5000]))
                .collect();
            store.set_meta_batch(&metas).unwrap();
        }
        // Both drafts are open here; commit them in alternating order,
        // waiting only sometimes so commit records chain on in-flight
        // predecessors too.
        for k in 0..2 {
            let g = GROUPS[(round as usize + k) % 2];
            let info = store.commit_for(g).unwrap();
            for x in [info.epoch, info.durable_at, info.meta_bytes] {
                commits = fnv(commits, &x.to_le_bytes());
            }
            if rng.gen_range(0..3) == 0 {
                store.barrier(info);
            }
        }
    }
    let g = store.gauges();
    assert!(g.redo_appended > 100 && g.epochs == 32, "workload degenerated: {g:?}");
    // Let every in-flight write land, then hash the whole device.
    let settle = GROUPS.iter().map(|&g| store.durable_floor(g)).max().unwrap();
    store.charge().clock().advance_to(settle);
    let (mut image, mut written) = (FNV_BASIS, FNV_BASIS);
    let mut d = dev.lock();
    for lba in 0..d.capacity_blocks() {
        let block = d.read(lba, 1).unwrap();
        image = fnv(image, &block);
        if block.iter().any(|&b| b != 0) {
            written = fnv(written, &lba.to_le_bytes());
        }
    }
    assert_eq!(
        (image, commits, written),
        (DEVICE_HASH, COMMITS_HASH, WRITTEN_LBAS_HASH),
        "device image, commit timing or block placement changed: \
         (device, commits, written LBAs) = ({image:#x}, {commits:#x}, {written:#x})"
    );
}
