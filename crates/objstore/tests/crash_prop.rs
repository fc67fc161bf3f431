//! Randomized tests: the object store's crash consistency.
//!
//! For any sequence of writes/commits and a crash at any point, recovery
//! must expose exactly a committed prefix — never a torn checkpoint,
//! never a lost durable one. Cases come from the in-tree deterministic
//! PRNG so failures reproduce by seed.

use aurora_objstore::{ObjectKind, ObjectStore, Oid};
use aurora_sim::cost::Charge;
use aurora_sim::rng::{DetRng, Rng};
use aurora_sim::{Clock, CostModel};
use aurora_storage::testbed_array;

fn fresh() -> ObjectStore {
    let clock = Clock::new();
    let dev = testbed_array(&clock, 1 << 26);
    ObjectStore::format(dev, Charge::new(clock, CostModel::default()), 2048).unwrap()
}

/// Page contents of one object: pindex -> fill byte.
type PageMap = std::collections::HashMap<u64, u8>;

#[derive(Clone, Debug)]
enum Op {
    Write { obj: usize, pindex: u64, fill: u8 },
    Commit { wait: bool },
}

fn gen_op(rng: &mut DetRng) -> Op {
    if rng.gen_range(0..6) < 4 {
        Op::Write {
            obj: rng.gen_range(0..4) as usize,
            pindex: rng.gen_range(0..16),
            fill: rng.next_u64() as u8,
        }
    } else {
        Op::Commit { wait: rng.gen_bool(0.5) }
    }
}

#[test]
fn recovery_exposes_a_committed_prefix() {
    let mut rng = DetRng::seed_from_u64(0xc4a5);
    for _case in 0..48 {
        let ops: Vec<Op> = (0..rng.gen_range(1..30)).map(|_| gen_op(&mut rng)).collect();
        let crash_after = rng.gen_range(0..30) as usize;

        let mut store = fresh();
        let oids: Vec<Oid> = (0..4)
            .map(|_| {
                let o = store.alloc_oid();
                store.create_object(o, ObjectKind::Memory).unwrap();
                o
            })
            .collect();
        // Reference model: page contents per committed epoch.
        let mut cur: Vec<PageMap> = vec![Default::default(); 4];
        let mut committed: Vec<(u64, Vec<PageMap>, bool)> = Vec::new();

        for (i, op) in ops.iter().enumerate() {
            if i == crash_after {
                break;
            }
            match op {
                Op::Write { obj, pindex, fill } => {
                    let p = aurora_objstore::PageRef::detached([*fill; 4096]);
                    store.write_pages(oids[*obj], &[(*pindex, p)]).unwrap();
                    cur[*obj].insert(*pindex, *fill);
                }
                Op::Commit { wait } => {
                    let info = store.commit().unwrap();
                    if *wait {
                        store.barrier(info);
                    }
                    committed.push((info.epoch, cur.clone(), *wait));
                }
            }
        }

        let mut recovered = store.crash_and_recover().unwrap();

        // Everything the caller waited for must have survived; whatever
        // survived must be a prefix and bit-exact.
        let last = recovered.last_epoch().unwrap_or(0);
        let waited_max =
            committed.iter().filter(|(_, _, w)| *w).map(|(e, _, _)| *e).max().unwrap_or(0);
        assert!(last >= waited_max, "durable checkpoint {waited_max} lost (have {last})");
        for (epoch, model, _) in &committed {
            if *epoch > last {
                continue; // legitimately lost: never durable
            }
            for (obj, pages) in model.iter().enumerate() {
                for (&pindex, &fill) in pages {
                    let page = recovered.read_page(oids[obj], pindex, *epoch).unwrap();
                    assert!(
                        page.iter().all(|&b| b == fill),
                        "epoch {epoch} object {obj} page {pindex} corrupt"
                    );
                }
            }
        }
    }
}

#[test]
fn journal_crash_preserves_synchronous_prefix() {
    let mut store = fresh();
    let j = store.alloc_oid();
    store.create_journal(j, 64).unwrap();
    let c = store.commit().unwrap();
    store.barrier(c);
    for i in 0..20u8 {
        store.journal_append(j, &[i; 100]).unwrap();
    }
    let mut recovered = store.crash_and_recover().unwrap();
    let records = recovered.journal_records(j).unwrap();
    assert_eq!(records.len(), 20, "synchronous appends survive any crash");
    for (i, r) in records.iter().enumerate() {
        assert!(r.iter().all(|&b| b == i as u8));
    }
}
