//! The read planner: a batch of pages under one view comes back through
//! one plan — cache hits served, every miss's chain walked in the index,
//! each device block read at most once, all issued together — and byte
//! for byte what the one-page reads return.

use std::collections::HashMap;
use std::sync::Arc;

use aurora_objstore::{ObjectKind, ObjectStore, Oid, PageRef, RedoWrite, StoreError, View, PAGE};
use aurora_sim::cost::Charge;
use aurora_sim::sync::Mutex;
use aurora_sim::{content_hash, Clock, CostModel, DetRng, Rng};
use aurora_storage::device::{self, BlockDevice, Completion, SharedDevice};
use aurora_storage::{share, testbed_array};
use aurora_trace::Trace;

/// Per-block read counts and every write, shared with the test.
#[derive(Default)]
struct Tap {
    reads: HashMap<u64, u32>,
    writes: Vec<(u64, u64)>,
}

/// A pass-through device that counts what the store asks of it.
struct Counting {
    inner: SharedDevice,
    clock: Clock,
    tap: Arc<Mutex<Tap>>,
}

impl Counting {
    fn note_read(&self, lba: u64, n: u64) {
        let mut tap = self.tap.lock();
        for b in lba..lba + n {
            *tap.reads.entry(b).or_default() += 1;
        }
    }
}

impl BlockDevice for Counting {
    fn block_size(&self) -> usize {
        self.inner.lock().block_size()
    }
    fn capacity_blocks(&self) -> u64 {
        self.inner.lock().capacity_blocks()
    }
    fn clock(&self) -> &Clock {
        &self.clock
    }
    fn read(&mut self, lba: u64, n: u64) -> device::Result<Vec<u8>> {
        self.note_read(lba, n);
        self.inner.lock().read(lba, n)
    }
    fn read_from(&mut self, lba: u64, n: u64, at: u64) -> device::Result<(Vec<u8>, u64)> {
        self.note_read(lba, n);
        self.inner.lock().read_from(lba, n, at)
    }
    fn write(&mut self, lba: u64, data: &[u8]) -> device::Result<Completion> {
        self.tap.lock().writes.push((lba, (data.len() / PAGE) as u64));
        self.inner.lock().write(lba, data)
    }
    fn write_after(
        &mut self,
        lba: u64,
        data: &[u8],
        after: Completion,
    ) -> device::Result<Completion> {
        self.tap.lock().writes.push((lba, (data.len() / PAGE) as u64));
        self.inner.lock().write_after(lba, data, after)
    }
    fn flush(&mut self) -> Completion {
        self.inner.lock().flush()
    }
    fn crash(&mut self) {
        self.inner.lock().crash();
    }
    fn bytes_written(&self) -> u64 {
        self.inner.lock().bytes_written()
    }
    fn geometry(&self) -> (u64, u64) {
        self.inner.lock().geometry()
    }
}

/// Pages per object.
const PAGES: u64 = 24;
/// Delta epochs on top of the full checkpoint.
const EPOCHS: usize = 14;

/// A store with two objects, a full checkpoint and `EPOCHS` epochs of
/// 48-byte deltas: pages 0–3 change every epoch (chains of 15 links),
/// the rest now and then, so each epoch's packed extent carries records
/// of many pages.
struct Built {
    store: ObjectStore,
    tap: Arc<Mutex<Tap>>,
    trace: Trace,
    oids: [Oid; 2],
    /// `images[k]` = every page's content after commit `k` (0 = full).
    images: Vec<HashMap<(Oid, u64), [u8; PAGE]>>,
    epochs: Vec<u64>,
    /// Per delta epoch, the device writes its append issued.
    extent_writes: Vec<Vec<(u64, u64)>>,
}

fn build() -> Built {
    let clock = Clock::new();
    let tap = Arc::new(Mutex::new(Tap::default()));
    let inner = testbed_array(&clock, 1 << 26);
    let dev = share(Counting { inner, clock: clock.clone(), tap: tap.clone() });
    let trace = {
        let c = clock.clone();
        Trace::recording(move || c.now())
    };
    let mut charge = Charge::new(clock, CostModel::default());
    charge.set_trace(trace.clone());
    let mut store = ObjectStore::format(dev, charge, 1024).unwrap();
    let mut rng = DetRng::seed_from_u64(0x9EAD);
    let oids = [store.alloc_oid(), store.alloc_oid()];
    let mut cur: HashMap<(Oid, u64), [u8; PAGE]> = HashMap::new();
    for &oid in &oids {
        store.create_object(oid, ObjectKind::Memory).unwrap();
        let mut batch = Vec::new();
        for pi in 0..PAGES {
            let mut page = [0u8; PAGE];
            page.iter_mut().for_each(|b| *b = rng.next_u64() as u8);
            cur.insert((oid, pi), page);
            batch.push((pi, PageRef::detached(page)));
        }
        store.write_pages(oid, &batch).unwrap();
    }
    let c = store.commit().unwrap();
    store.barrier(c);
    let (mut images, mut epochs) = (vec![cur.clone()], vec![c.epoch]);
    let mut extent_writes = Vec::new();
    for _ in 0..EPOCHS {
        let writes_before = tap.lock().writes.len();
        for &oid in &oids {
            let mut batch = Vec::new();
            for pi in 0..PAGES {
                if pi >= 4 && rng.gen_range(0..3) != 0 {
                    continue;
                }
                let base = cur[&(oid, pi)];
                let mut new = base;
                let off = rng.gen_range(0..(PAGE - 48) as u64) as usize;
                new[off..off + 48].iter_mut().for_each(|b| *b = rng.next_u64() as u8);
                batch.push(RedoWrite {
                    pindex: pi,
                    page: store.arena().alloc(new),
                    delta: Some((off as u32, new[off..off + 48].to_vec())),
                    base_csum: content_hash(&base),
                });
                cur.insert((oid, pi), new);
            }
            store.append_redo(oid, &batch).unwrap();
        }
        extent_writes.push(tap.lock().writes[writes_before..].to_vec());
        let c = store.commit().unwrap();
        store.barrier(c);
        images.push(cur.clone());
        epochs.push(c.epoch);
    }
    Built { store, tap, trace, oids, images, epochs, extent_writes }
}

fn all_pages(oids: &[Oid; 2]) -> Vec<(Oid, u64)> {
    oids.iter().flat_map(|&oid| (0..PAGES).map(move |pi| (oid, pi))).collect()
}

/// Every epoch's whole image, as one plan and as one-page reads (each
/// from a cold cache), against the host-side model; then every record
/// boundary's image under `View::Lsn` against `read_page_at_lsn`.
fn check_against_oracle(b: &mut Built) {
    let pages = all_pages(&b.oids);
    for (k, &epoch) in b.epochs.clone().iter().enumerate() {
        b.store.drop_page_cache();
        let planned = b.store.read_pages(View::Epoch(epoch), &pages).unwrap();
        b.store.drop_page_cache();
        for (&(oid, pi), got) in pages.iter().zip(planned) {
            let got = got.expect("every page exists at every epoch");
            let want = b.images[k][&(oid, pi)];
            assert_eq!(got.bytes(), &want[..], "plan: epoch {epoch}, page {oid:?}/{pi}");
            let one = b.store.read_page(oid, pi, epoch).unwrap();
            assert_eq!(one.bytes(), &want[..], "read_page: epoch {epoch}, page {oid:?}/{pi}");
        }
    }
    for lsn in b.store.record_lsns().into_iter().step_by(7) {
        b.store.drop_page_cache();
        let planned = b.store.read_pages(View::Lsn(lsn), &pages).unwrap();
        b.store.drop_page_cache();
        for (&(oid, pi), got) in pages.iter().zip(planned) {
            let one = b.store.read_page_at_lsn(oid, pi, lsn).unwrap();
            assert_eq!(
                got.map(|p| p.bytes().to_vec()),
                one.map(|p| p.bytes().to_vec()),
                "lsn {lsn}, page {oid:?}/{pi}"
            );
        }
    }
}

#[test]
fn image_plans_match_the_one_page_oracle_before_and_after_recovery() {
    let mut b = build();
    check_against_oracle(&mut b);
    assert!(b.store.gauges().redo_chain_len_p95 >= 8, "chains of at least 8 links were replayed");
    b.store = b.store.crash_and_recover().unwrap();
    check_against_oracle(&mut b);
}

#[test]
fn a_cold_plan_reads_each_block_once() {
    let mut b = build();
    let pages = all_pages(&b.oids);
    let last = *b.epochs.last().unwrap();
    b.store.drop_page_cache();
    b.tap.lock().reads.clear();
    let t0 = b.store.charge().clock().now();
    b.store.read_pages(View::Epoch(last), &pages).unwrap();
    let tap = b.tap.lock();
    let twice: Vec<(&u64, &u32)> = tap.reads.iter().filter(|&(_, &n)| n > 1).collect();
    assert!(twice.is_empty(), "blocks read more than once: {twice:?}");
    // Every base block, and every extent holding a record of a chain.
    assert!(tap.reads.len() as u64 > 2 * PAGES);
    drop(tap);
    assert!(b.store.charge().clock().now() > t0, "the plan waited for the device");
    // A second plan is served from the cache: no device read at all.
    b.tap.lock().reads.clear();
    b.store.read_pages(View::Epoch(last), &pages).unwrap();
    assert!(b.tap.lock().reads.is_empty());
    // The scrub is one plan over every version: still once per block.
    b.store.scrub().unwrap();
    assert!(b.tap.lock().reads.values().all(|&n| n == 1));
}

#[test]
fn a_corrupted_record_fails_the_whole_plan() {
    let mut b = build();
    // Flip a byte of the first record in the extent a mid-history epoch
    // wrote: every record since the full checkpoint is in some chain.
    let (victim, _) = *b.extent_writes[EPOCHS / 2].iter().max_by_key(|w| w.1).unwrap();
    {
        let dev = b.store.device().clone();
        let mut dev = dev.lock();
        let mut block = dev.read(victim, 1).unwrap();
        block[20] ^= 0x40;
        dev.write(victim, &block).unwrap();
        dev.flush();
    }
    b.store.drop_page_cache();
    let pages = all_pages(&b.oids);
    let err = b.store.read_pages(View::Epoch(*b.epochs.last().unwrap()), &pages).unwrap_err();
    assert!(
        matches!(
            err,
            StoreError::Device { op: "verify-record" | "verify-materialized", .. }
        ),
        "expected a record or materialized-page checksum failure, got {err}"
    );
    assert!(!err.is_transient());
}

#[test]
fn every_materialization_emits_one_full_base_instant() {
    let mut b = build();
    let pages = all_pages(&b.oids);
    b.store.drop_page_cache();
    b.trace.clear();
    let before = b.store.gauges().redo_materializations;
    for &epoch in &b.epochs[1..] {
        b.store.read_pages(View::Epoch(epoch), &pages).unwrap();
    }
    b.store.scrub().unwrap();
    let delta = b.store.gauges().redo_materializations - before;
    let instants: Vec<_> =
        b.trace.events().into_iter().filter(|e| e.name == "redo.materialize").collect();
    assert!(delta > 0);
    assert_eq!(instants.len() as u64, delta, "one instant per materialized page");
    for e in &instants {
        assert!(e.args.contains(&("full_base", 1)), "chain without a full base: {:?}", e.args);
    }
}
