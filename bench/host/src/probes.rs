//! Layer probes: the lower layers a workload reaches only through
//! `core` are driven directly, through their own public API, at the
//! workload's own sizes. Each probe builds what it needs, times one
//! batch with `std::time::Instant`, and repeats on fresh state; the
//! median is reported. (This supersedes the rotten
//! `crates/bench/benches/microbench.rs`.)

use crate::gen;
use crate::stats::Samples;
use aurora_frames::{FrameArena, PageRef, PAGE_SIZE};
use aurora_objstore::store::RedoWrite;
use aurora_objstore::{ObjectKind, ObjectStore, Oid};
use aurora_sim::cost::Charge;
use aurora_sim::{fnv1a, Clock, CostModel, Decoder, DetRng, Encoder, Rng};
use aurora_storage::testbed_array;
use aurora_vm::{CollapseMode, ObjKind, Prot, Vm};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// How big the probed structures are: the shape of the workload the
/// probes accompany.
#[derive(Clone, Copy, Debug)]
pub struct ProbeSizes {
    /// Pages in the image.
    pub pages: u64,
    /// Pages dirtied per checkpoint.
    pub batch: usize,
    /// Delta epochs stacked on the base image for the read probes.
    pub epochs: usize,
}

/// Repetitions per probe (median reported).
const REPS: usize = 5;

fn med(v: Vec<f64>) -> f64 {
    Samples::from_vec(v).median()
}

fn median_of(mut f: impl FnMut() -> f64) -> f64 {
    med((0..REPS).map(|_| f()).collect())
}

fn ns(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64
}

fn page(rng: &mut DetRng) -> [u8; PAGE_SIZE] {
    let mut p = [0u8; PAGE_SIZE];
    gen::fill(rng, &mut p);
    p
}

// ---------------------------------------------------------------- sim

fn sim(out: &mut BTreeMap<&'static str, f64>, rng: &mut DetRng) {
    // A record shaped like the serializers': a few scalars, a string, a
    // byte payload; ~1 KiB encoded.
    let payload = page(rng)[..960].to_vec();
    let encode = |payload: &[u8]| {
        let mut e = Encoder::with_capacity(1100);
        e.record(0x10, 1, |e| {
            e.u64(42);
            e.u32(7);
            e.bool(true);
            e.opt_u64(Some(9));
            e.str("/app_image-0-0");
            e.bytes(payload);
        });
        e.finish_vec()
    };
    let bytes = encode(&payload);
    let kib = bytes.len() as f64 / 1024.0;
    const N: usize = 4000;
    out.insert(
        "sim.encode_ns_per_kib",
        median_of(|| {
            let t0 = Instant::now();
            for _ in 0..N {
                black_box(encode(black_box(&payload)));
            }
            ns(t0) / N as f64 / kib
        }),
    );
    out.insert(
        "sim.decode_ns_per_kib",
        median_of(|| {
            let t0 = Instant::now();
            for _ in 0..N {
                let mut d = Decoder::new(black_box(&bytes));
                let (_v, mut body) = d.record(0x10, 1).expect("just encoded");
                black_box((
                    body.u64().expect("field"),
                    body.u32().expect("field"),
                    body.bool().expect("field"),
                    body.opt_u64().expect("field"),
                    body.str().expect("field").len(),
                    body.bytes().expect("field").len(),
                ));
            }
            ns(t0) / N as f64 / kib
        }),
    );
    let pages: Vec<[u8; PAGE_SIZE]> = (0..256).map(|_| page(rng)).collect();
    out.insert(
        "sim.fnv_ns_per_page",
        median_of(|| {
            let t0 = Instant::now();
            for p in &pages {
                black_box(fnv1a(black_box(p)));
            }
            ns(t0) / pages.len() as f64
        }),
    );
}

// ------------------------------------------------------------- frames

fn frames(out: &mut BTreeMap<&'static str, f64>, s: &ProbeSizes, rng: &mut DetRng) {
    let n = s.batch.max(64);
    let template = page(rng);
    out.insert(
        "frames.alloc_ns_per_page",
        median_of(|| {
            let arena = FrameArena::new();
            let mut held = Vec::with_capacity(n);
            let t0 = Instant::now();
            for _ in 0..n {
                held.push(arena.alloc(black_box(template)));
            }
            let t = ns(t0) / n as f64;
            drop(held);
            t
        }),
    );
    out.insert(
        "frames.make_mut_ns_per_page",
        median_of(|| {
            let arena = FrameArena::new();
            let frozen: Vec<PageRef> = (0..n).map(|_| arena.alloc(template)).collect();
            let mut live: Vec<PageRef> = frozen.clone();
            let t0 = Instant::now();
            for p in &mut live {
                arena.make_mut(p)[0] ^= 1; // shared frame: the COW copy
            }
            ns(t0) / n as f64
        }),
    );
}

// ----------------------------------------------------------------- vm

/// A space with one `pages`-page mapping, every page resident.
fn touched_space(pages: u64) -> (Vm, aurora_vm::SpaceId, u64) {
    let mut vm = Vm::new();
    let space = vm.create_space();
    let addr = vm
        .mmap_anon(space, pages, Prot::RW)
        .expect("fresh space has room");
    vm.touch(space, addr, pages * PAGE_SIZE as u64)
        .expect("mapped above");
    (vm, space, addr)
}

fn vm(out: &mut BTreeMap<&'static str, f64>, s: &ProbeSizes, rng: &mut DetRng) {
    let pages = s.pages.min(8192);
    let batch = (s.batch as u64).clamp(16, pages);
    let dirty: Vec<u64> = (0..batch).map(|_| rng.gen_range(0..pages)).collect();
    let (mut shadow_ns, mut cow_ns, mut hit_ns, mut collapse_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        let (mut vm, space, addr) = touched_space(pages);
        // First shadow: every page is resident and writable.
        let t0 = Instant::now();
        vm.system_shadow(&[space]).expect("shadow");
        shadow_ns.push(ns(t0) / pages as f64);
        // First write to a frozen page: fault + COW break.
        let before = vm.stats.cow_breaks;
        let t0 = Instant::now();
        for &pi in &dirty {
            vm.write(space, addr + pi * PAGE_SIZE as u64, &[1; 8])
                .expect("cow write");
        }
        cow_ns.push(ns(t0) / (vm.stats.cow_breaks - before).max(1) as f64);
        // Second write to the same pages: no fault.
        let t0 = Instant::now();
        for &pi in &dirty {
            vm.write(space, addr + pi * PAGE_SIZE as u64 + 64, &[2; 8])
                .expect("hit write");
        }
        hit_ns.push(ns(t0) / dirty.len() as f64);
        // Retire that shadow and fold it into the base, as the next
        // checkpoint's collapse stage does.
        vm.system_shadow(&[space]).expect("second shadow");
        let top = vm
            .space(space)
            .expect("space")
            .entry_at(addr)
            .expect("entry")
            .object;
        let t0 = Instant::now();
        let report = vm
            .collapse_under(top, CollapseMode::Reversed)
            .expect("collapse")
            .expect("chain of three");
        collapse_ns.push(ns(t0) / report.pages_moved.max(1) as f64);
    }
    out.insert("vm.system_shadow_ns_per_page", med(shadow_ns));
    out.insert("vm.cow_break_ns", med(cow_ns));
    out.insert("vm.write_hit_ns", med(hit_ns));
    out.insert("vm.collapse_ns_per_page", med(collapse_ns));

    let frames: Vec<PageRef> = (0..pages.min(2048))
        .map(|_| PageRef::detached(page(rng)))
        .collect();
    out.insert(
        "vm.install_page_ns",
        median_of(|| {
            let mut vm = Vm::new();
            let obj = vm.create_object(ObjKind::Anonymous, frames.len() as u64);
            let t0 = Instant::now();
            for (pi, f) in frames.iter().enumerate() {
                vm.install_page(obj, pi as u64, f.clone(), false)
                    .expect("in range");
            }
            ns(t0) / frames.len() as f64
        }),
    );
}

// ----------------------------------------------------------- objstore

struct ProbeStore {
    store: ObjectStore,
    oid: Oid,
    /// What each page currently holds.
    content: Vec<[u8; PAGE_SIZE]>,
}

impl ProbeStore {
    /// A store on a bare testbed array holding one memory object whose
    /// `pages` pages are committed as full images.
    fn with_base(pages: u64, rng: &mut DetRng) -> ProbeStore {
        let clock = Clock::new();
        let dev = testbed_array(&clock, 1 << 30);
        let mut store = ObjectStore::format(dev, Charge::new(clock, CostModel::default()), 4096)
            .expect("fresh device formats");
        let oid = store.alloc_oid();
        store
            .create_object(oid, ObjectKind::Memory)
            .expect("fresh oid");
        let content: Vec<[u8; PAGE_SIZE]> = (0..pages).map(|_| page(rng)).collect();
        let batch: Vec<(u64, PageRef)> = content
            .iter()
            .enumerate()
            .map(|(pi, p)| (pi as u64, store.arena().alloc(*p)))
            .collect();
        store.write_pages(oid, &batch).expect("base image");
        let info = store.commit().expect("base commit");
        store.barrier(info);
        ProbeStore {
            store,
            oid,
            content,
        }
    }

    /// `batch` sub-page deltas against the current content (distinct
    /// pages, 128 bytes each) — what core's flush hands the store.
    fn deltas(&mut self, batch: usize, rng: &mut DetRng) -> Vec<RedoWrite> {
        let pages = self.content.len() as u64;
        let mut picked = BTreeMap::new();
        while picked.len() < batch.min(pages as usize) {
            picked.insert(rng.gen_range(0..pages), ());
        }
        picked
            .into_keys()
            .map(|pi| {
                let base_csum = fnv1a(&self.content[pi as usize]);
                let off = rng.gen_range(0..(PAGE_SIZE - 128) as u64) as usize;
                gen::fill(rng, &mut self.content[pi as usize][off..off + 128]);
                let new = self.content[pi as usize];
                RedoWrite {
                    pindex: pi,
                    page: self.store.arena().alloc(new),
                    delta: Some((off as u32, new[off..off + 128].to_vec())),
                    base_csum,
                }
            })
            .collect()
    }

    /// Appends `epochs` committed delta epochs of `batch` pages each.
    fn stack(&mut self, epochs: usize, batch: usize, rng: &mut DetRng) {
        for _ in 0..epochs {
            let writes = self.deltas(batch, rng);
            self.store.append_redo(self.oid, &writes).expect("append");
            let info = self.store.commit().expect("commit");
            self.store.barrier(info);
        }
    }
}

fn objstore(out: &mut BTreeMap<&'static str, f64>, s: &ProbeSizes, rng: &mut DetRng) {
    let pages = s.pages.min(4096);
    let batch = s.batch.clamp(16, pages as usize);

    // Write side: one checkpoint's worth of deltas, of full images, and
    // the commit that seals each.
    let (mut append, mut commit, mut write_pages) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        let mut ps = ProbeStore::with_base(pages, rng);
        let writes = ps.deltas(batch, rng);
        let t0 = Instant::now();
        ps.store.append_redo(ps.oid, &writes).expect("append");
        append.push(ns(t0) / writes.len() as f64);
        let t0 = Instant::now();
        let info = ps.store.commit().expect("commit");
        commit.push(ns(t0));
        ps.store.barrier(info);

        let fulls: Vec<(u64, PageRef)> = writes
            .iter()
            .map(|w| (w.pindex, ps.store.arena().alloc(page(rng))))
            .collect();
        let t0 = Instant::now();
        ps.store.write_pages(ps.oid, &fulls).expect("write_pages");
        write_pages.push(ns(t0) / fulls.len() as f64);
    }
    out.insert("objstore.append_redo_ns_per_rec", med(append));
    out.insert("objstore.commit_ns", med(commit));
    out.insert("objstore.write_pages_ns_per_page", med(write_pages));

    // History GC: drop the oldest of a stack of delta epochs.
    out.insert(
        "objstore.gc_ns_per_epoch",
        median_of(|| {
            let mut ps = ProbeStore::with_base(pages, rng);
            ps.stack(s.epochs, batch, rng);
            let drops = s.epochs.min(8);
            let t0 = Instant::now();
            for _ in 0..drops {
                ps.store
                    .drop_oldest_checkpoint()
                    .expect("history is deeper than the drops");
            }
            ns(t0) / drops as f64
        }),
    );

    // Read side, on one image with chains: reopen after a crash, then
    // cold reads (chain replay off the device), warm reads (cached),
    // point-in-time reads, and a verifying scrub.
    let (mut reopen, mut cold, mut warm, mut at_lsn, mut scrub) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS.min(3) {
        let mut ps = ProbeStore::with_base(pages, rng);
        ps.stack(s.epochs, batch, rng);
        let epoch = ps.store.last_epoch().expect("committed above");
        let lsns = ps.store.record_lsns();
        let mid_lsn = lsns[lsns.len() / 2];
        let oid = ps.oid;
        let t0 = Instant::now();
        let mut store = ps.store.crash_and_recover().expect("recover");
        reopen.push(ns(t0) / 1e6);
        for bucket in [&mut cold, &mut warm] {
            let t0 = Instant::now();
            for pi in 0..pages {
                black_box(store.read_page(oid, pi, epoch).expect("committed page"));
            }
            bucket.push(ns(t0) / pages as f64);
        }
        let t0 = Instant::now();
        for pi in 0..pages {
            black_box(
                store
                    .read_page_at_lsn(oid, pi, mid_lsn)
                    .expect("committed page"),
            );
        }
        at_lsn.push(ns(t0) / pages as f64);
        let t0 = Instant::now();
        let verified = store.scrub().expect("clean image");
        scrub.push(ns(t0) / verified.max(1) as f64);
    }
    out.insert("objstore.reopen_ms", med(reopen));
    out.insert("objstore.read_cold_ns_per_page", med(cold));
    out.insert("objstore.read_warm_ns_per_page", med(warm));
    out.insert("objstore.read_at_lsn_ns_per_page", med(at_lsn));
    out.insert("objstore.scrub_ns_per_page", med(scrub));
}

/// Runs every probe; returns `metric name → host cost`.
pub fn run_all(sizes: &ProbeSizes, seed: u64) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    let mut rng = gen::lane(seed, 7);
    sim(&mut out, &mut rng);
    frames(&mut out, sizes, &mut rng);
    vm(&mut out, sizes, &mut rng);
    objstore(&mut out, sizes, &mut rng);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_reports_a_positive_cost() {
        let got = run_all(
            &ProbeSizes {
                pages: 64,
                batch: 16,
                epochs: 4,
            },
            1,
        );
        let probed: Vec<&str> = crate::metrics::PER_LAYER
            .iter()
            .map(|m| m.name)
            .filter(|n| got.contains_key(n))
            .collect();
        assert_eq!(
            probed.len(),
            got.len(),
            "a probe reports a metric that is not in the table"
        );
        assert_eq!(got.len(), 19);
        for (name, v) in &got {
            assert!(*v > 0.0 && v.is_finite(), "{name} = {v}");
        }
    }
}
