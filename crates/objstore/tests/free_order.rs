//! Block placement is a function of the operation sequence alone.
//!
//! History reclamation and draft aborts walk `HashMap`s in the page
//! index; the allocator sorts every batch of freed blocks, so the order
//! blocks return to the free list — and therefore where later writes
//! land, which stripe member they queue on, and when they are durable —
//! cannot differ between two stores (two `HashMap` instances with
//! different hash seeds) driven identically.

use aurora_objstore::store::RedoWrite;
use aurora_objstore::{CommitInfo, ObjectKind, ObjectStore, PageRef, PAGE};
use aurora_sim::cost::Charge;
use aurora_sim::{content_hash, Clock, CostModel};
use aurora_storage::testbed_array;

const PAGES: u64 = 96;

fn content(pi: u64, gen: u8) -> [u8; PAGE] {
    let mut p = [gen; PAGE];
    p[..8].copy_from_slice(&pi.to_le_bytes());
    p
}

/// Writes, reclaims and rewrites; returns every commit and a hash of
/// the final device image.
fn drive() -> (Vec<CommitInfo>, u64) {
    let clock = Clock::new();
    let dev = testbed_array(&clock, 1 << 24);
    let mut s = ObjectStore::format(dev.clone(), Charge::new(clock, CostModel::default()), 512)
        .unwrap();
    let oid = s.alloc_oid();
    s.create_object(oid, ObjectKind::Memory).unwrap();
    let images = |s: &ObjectStore, pages: std::ops::Range<u64>, gen: u8| -> Vec<(u64, PageRef)> {
        pages.map(|pi| (pi, s.arena().alloc(content(pi, gen)))).collect()
    };
    let mut commits = Vec::new();
    let mut commit = |s: &mut ObjectStore| {
        let info = s.commit().unwrap();
        s.barrier(info);
        commits.push(info);
    };

    // Three epochs of full images over the whole object, then a sub-page
    // delta on every page (packed extents, refcounted blocks).
    for gen in 1..=3 {
        s.write_pages(oid, &images(&s, 0..PAGES, gen)).unwrap();
        commit(&mut s);
    }
    let deltas: Vec<RedoWrite> = (0..PAGES)
        .map(|pi| {
            let base = content(pi, 3);
            let mut new = base;
            new[100..164].fill(0xD0);
            RedoWrite {
                pindex: pi,
                page: s.arena().alloc(new),
                delta: Some((100, new[100..164].to_vec())),
                base_csum: content_hash(&base),
            }
        })
        .collect();
    s.append_redo(oid, &deltas).unwrap();
    commit(&mut s);
    // Reclaim the two oldest epochs: ~2 × 96 superseded blocks return
    // through the index walk. The next commit fences them; once it is
    // durable they are reusable.
    s.drop_oldest_checkpoint().unwrap();
    s.drop_oldest_checkpoint().unwrap();
    s.write_pages(oid, &images(&s, 0..8, 4)).unwrap();
    commit(&mut s);
    // An aborted draft returns its blocks through the other index walk.
    s.write_pages(oid, &images(&s, 0..PAGES, 5)).unwrap();
    s.abort_epoch_for(0);
    // Rewrites now draw from the free list: placement follows free order.
    for gen in 6..=7 {
        s.write_pages(oid, &images(&s, 0..PAGES, gen)).unwrap();
        commit(&mut s);
    }

    let mut d = dev.lock();
    let blocks = d.capacity_blocks();
    let image = d.read(0, blocks).unwrap();
    (commits, content_hash(&image))
}

#[test]
fn identical_histories_place_blocks_identically() {
    let (commits_a, image_a) = drive();
    let (commits_b, image_b) = drive();
    assert_eq!(commits_a, commits_b, "same ops, different durable_at: free order leaked in");
    assert_eq!(image_a, image_b, "same ops, different block placement");
}
