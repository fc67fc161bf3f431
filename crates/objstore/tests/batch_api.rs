//! The batched store APIs the checkpoint pipeline's Flush stage uses:
//! one N-item `write_pages`/`set_meta_batch`/`read_pages_bulk` call must
//! be semantically identical to N one-item calls, while issuing fewer,
//! larger device operations.

use aurora_objstore::{ObjectKind, ObjectStore, Oid, PageRef, PAGE};
use aurora_sim::cost::Charge;
use aurora_sim::{Clock, CostModel};
use aurora_storage::testbed_array;

fn fresh() -> ObjectStore {
    let clock = Clock::new();
    let dev = testbed_array(&clock, 1 << 26);
    ObjectStore::format(dev, Charge::new(clock, CostModel::default()), 2048).unwrap()
}

fn page(fill: u8) -> PageRef {
    PageRef::detached([fill; PAGE])
}

fn mem_obj(store: &mut ObjectStore) -> Oid {
    let oid = store.alloc_oid();
    store.create_object(oid, ObjectKind::Memory).unwrap();
    oid
}

#[test]
fn one_batch_matches_one_page_batches() {
    let writes: Vec<(u64, PageRef)> =
        (0..12u64).map(|pi| (pi * 3 % 12, page(pi as u8 + 1))).collect();

    let mut a = fresh();
    let oa = mem_obj(&mut a);
    for w in &writes {
        a.write_pages(oa, std::slice::from_ref(w)).unwrap();
    }
    let ea = a.commit().unwrap();

    let mut b = fresh();
    let ob = mem_obj(&mut b);
    b.write_pages(ob, &writes).unwrap();
    let eb = b.commit().unwrap();

    assert_eq!(ea.epoch, eb.epoch);
    let pages_a = a.pages_at(oa, ea.epoch).unwrap();
    assert_eq!(pages_a, b.pages_at(ob, eb.epoch).unwrap());
    assert_eq!(a.record_lsns(), b.record_lsns(), "one LSN per page either way");
    for &pi in &pages_a {
        assert_eq!(
            a.read_page(oa, pi, ea.epoch).unwrap(),
            b.read_page(ob, pi, eb.epoch).unwrap(),
            "page {pi} differs between one-page and N-page batches"
        );
    }
    // Coalesced device writes complete no later than per-page ones.
    assert!(eb.durable_at <= ea.durable_at);
}

#[test]
fn write_pages_recycles_same_epoch_rewrites() {
    let mut s = fresh();
    let oid = mem_obj(&mut s);
    s.write_pages(oid, &[(0, page(1)), (1, page(2))]).unwrap();
    // Rewriting within the same uncommitted epoch keeps one version.
    s.write_pages(oid, &[(0, page(9))]).unwrap();
    let info = s.commit().unwrap();
    assert_eq!(s.read_page(oid, 0, info.epoch).unwrap(), page(9));
    assert_eq!(s.read_page(oid, 1, info.epoch).unwrap(), page(2));
    assert_eq!(
        s.page_version_epoch(oid, 0, info.epoch).unwrap(),
        info.epoch,
        "one version for the epoch, holding the newest write"
    );
}

#[test]
fn set_meta_batch_matches_set_meta_and_dedups() {
    let mut s = fresh();
    let a = mem_obj(&mut s);
    let b = mem_obj(&mut s);
    s.set_meta_batch(&[(a, vec![1, 2, 3]), (b, vec![4, 5])]).unwrap();
    let e1 = s.commit().unwrap();
    assert_eq!(s.meta_at(a, e1.epoch).unwrap(), &[1, 2, 3]);
    assert_eq!(s.meta_at(b, e1.epoch).unwrap(), &[4, 5]);

    // Unchanged content: no new metadata version next epoch.
    s.set_meta_batch(&[(a, vec![1, 2, 3]), (b, vec![6])]).unwrap();
    let e2 = s.commit().unwrap();
    assert_eq!(
        s.meta_version_epoch(a, e2.epoch).unwrap(),
        e1.epoch,
        "identical metadata deduplicates across epochs"
    );
    assert_eq!(s.meta_version_epoch(b, e2.epoch).unwrap(), e2.epoch);
    assert_eq!(s.meta_at(b, e2.epoch).unwrap(), &[6]);
}

#[test]
fn read_pages_bulk_matches_read_page() {
    let mut s = fresh();
    let oid = mem_obj(&mut s);
    s.write_pages(oid, &(0..8u64).map(|pi| (pi, page(pi as u8))).collect::<Vec<_>>()).unwrap();
    let e1 = s.commit().unwrap();
    // A second epoch overwrites half the pages: bulk reads must respect
    // per-page version visibility.
    s.write_pages(oid, &(0..4u64).map(|pi| (pi, page(0x80 + pi as u8))).collect::<Vec<_>>())
        .unwrap();
    let e2 = s.commit().unwrap();

    for epoch in [e1.epoch, e2.epoch] {
        let pis: Vec<u64> = (0..8).collect();
        let bulk = s.read_pages_bulk(oid, epoch, &pis).unwrap();
        assert_eq!(bulk.len(), pis.len());
        for (pi, data) in bulk {
            assert_eq!(data, s.read_page(oid, pi, epoch).unwrap(), "page {pi} at epoch {epoch}");
        }
    }
}

#[test]
fn read_pages_bulk_returns_request_order_with_a_half_warm_cache() {
    let mut s = fresh();
    let oid = mem_obj(&mut s);
    s.write_pages(oid, &(0..8u64).map(|pi| (pi, page(pi as u8))).collect::<Vec<_>>()).unwrap();
    let e = s.commit().unwrap().epoch;
    // Half the pages cached, half served by the coalesced device read.
    s.drop_page_cache();
    for pi in [1, 3, 5, 7] {
        s.read_page(oid, pi, e).unwrap();
    }
    let request = [6u64, 1, 4, 3, 0, 5, 7, 2];
    let bulk = s.read_pages_bulk(oid, e, &request).unwrap();
    let order: Vec<u64> = bulk.iter().map(|&(pi, _)| pi).collect();
    assert_eq!(order, request, "pages come back in request order");
    for (pi, data) in bulk {
        assert_eq!(data, page(pi as u8), "page {pi}");
    }
}
