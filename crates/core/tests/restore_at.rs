//! Point-in-time restore property (§15): restoring at any committed
//! record boundary byte-matches a shadow copy of the region the test
//! maintains on the side — including after a crash and reboot.
//!
//! The test drives a single-region app through rounds of small random
//! writes + checkpoints, mirroring every write into a host-side shadow.
//! Because the flush path emits one redo record per dirty page in page
//! order, the LSN→page mapping inside each epoch is a pure function of
//! the dirty set — so the test predicts the exact region image at
//! *every* record boundary, not just at epoch boundaries, and checks
//! `restore_at` against it byte for byte.

use std::collections::BTreeSet;

use aurora_core::world::World;
use aurora_core::{AuroraApi, RestoreMode, SlsError, SlsOptions};
use aurora_objstore::{ObjectKind, Oid, StoreError};
use aurora_sim::{DetRng, Rng};
use aurora_trace::InvariantChecker;
use aurora_vm::PAGE_SIZE;

/// Pages of the counter app's region the test exercises.
const PAGES: usize = 6;

/// What the test knows about history: one entry per committed round.
struct Model {
    /// `states[k]` = full region image committed by round `k`'s epoch.
    states: Vec<Vec<u8>>,
    /// `cpls[k]` = that epoch's commit point LSN (its highest record).
    cpls: Vec<u64>,
    /// `recs[k]` = page index of each record of round `k`, in LSN order
    /// (the flush emits dirty pages sorted, one record each).
    recs: Vec<Vec<u64>>,
}

impl Model {
    /// The expected region image at record boundary `lsn`.
    ///
    /// Only defined for `lsn > cpls[0]` (round 0 is the warm-up
    /// checkpoint whose epoch also carries foreign objects' pages).
    fn expect_at(&self, lsn: u64) -> Vec<u8> {
        let k = self.cpls.iter().position(|&c| lsn <= c).expect("lsn within history");
        assert!(k > 0, "expect_at only models rounds after the warm-up");
        // Records of round k with LSN ≤ target are applied; the rest of
        // the region is as of round k-1.
        let applied = (lsn - self.cpls[k - 1]) as usize;
        let mut img = self.states[k - 1].clone();
        for &pi in &self.recs[k][..applied] {
            let (a, b) = (pi as usize * PAGE_SIZE, (pi as usize + 1) * PAGE_SIZE);
            img[a..b].copy_from_slice(&self.states[k][a..b]);
        }
        img
    }
}

/// Reads the first `PAGES` pages of `pid`'s first mapping.
fn read_region(w: &mut World, pid: aurora_posix::Pid) -> Vec<u8> {
    let space = w.sls.kernel.proc(pid).unwrap().space;
    let addr = w.sls.kernel.vm.entries(space).unwrap()[0].start;
    let mut out = vec![0u8; PAGES * PAGE_SIZE];
    w.sls.kernel.mem_read(pid, addr, &mut out).unwrap();
    out
}

/// One round: a few random sub-page writes, mirrored into `mirror`,
/// then a checkpoint. Extends the model with the round's state, CPL,
/// and record order — and cross-checks the record count against the
/// store's LSN advance (a foreign record would break the mapping).
fn round(
    w: &mut World,
    pid: aurora_posix::Pid,
    gid: aurora_core::GroupId,
    rng: &mut DetRng,
    mirror: &mut [u8],
    model: &mut Model,
) {
    let space = w.sls.kernel.proc(pid).unwrap().space;
    let addr = w.sls.kernel.vm.entries(space).unwrap()[0].start;
    let mut written = BTreeSet::new();
    for _ in 0..rng.gen_range(1..4) {
        let pi = rng.gen_range(0..PAGES as u64);
        let off = rng.gen_range(0..(PAGE_SIZE as u64 - 64)) as usize;
        let len = rng.gen_range(1..64) as usize;
        let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let base = pi as usize * PAGE_SIZE + off;
        mirror[base..base + len].copy_from_slice(&data);
        w.sls.kernel.mem_write(pid, addr + pi * PAGE_SIZE as u64 + off as u64, &data).unwrap();
        written.insert(pi);
    }
    w.sls.sls_checkpoint(gid).unwrap();
    let epoch = *w.sls.history(gid).unwrap().last().unwrap();
    let cpl = w.sls.store().lock().epoch_cpl(epoch).unwrap();
    let prev = *model.cpls.last().unwrap();
    assert_eq!(
        cpl,
        prev + written.len() as u64,
        "each dirty page logs exactly one record and nothing else does"
    );
    model.states.push(mirror.to_vec());
    model.cpls.push(cpl);
    model.recs.push(written.into_iter().collect());
}

/// Verifies `restore_at` against the model at `n` random record
/// boundaries (plus both history endpoints on the first call).
fn verify_random(
    w: &mut World,
    gid: aurora_core::GroupId,
    rng: &mut DetRng,
    model: &Model,
    n: usize,
) {
    let lo = model.cpls[0];
    let hi = *model.cpls.last().unwrap();
    let mut targets: Vec<u64> = (0..n).map(|_| rng.gen_range(lo + 1..hi + 1)).collect();
    targets.push(lo + 1);
    targets.push(hi);
    for lsn in targets {
        let r = w.sls.sls_restore_at(gid, lsn, RestoreMode::Full).unwrap();
        let got = read_region(w, r.pids[0]);
        assert_eq!(got, model.expect_at(lsn), "restore_at({lsn}) image mismatch");
    }
}

#[test]
fn restore_at_matches_shadow_at_every_record_boundary() {
    let mut w = World::quickstart();
    let trace = w.enable_tracing();
    let checker = InvariantChecker::arm(&trace);
    let mut rng = DetRng::seed_from_u64(0xA17E57);

    let pid = w.spawn_counter_app();
    let space = w.sls.kernel.proc(pid).unwrap().space;
    let addr = w.sls.kernel.vm.entries(space).unwrap()[0].start;

    // Give every page known initial content so the whole region is
    // resident and committed by the warm-up checkpoint.
    let mut mirror = vec![0u8; PAGES * PAGE_SIZE];
    for pi in 0..PAGES {
        let stamp = [pi as u8; 32];
        mirror[pi * PAGE_SIZE..pi * PAGE_SIZE + 32].copy_from_slice(&stamp);
        w.sls.kernel.mem_write(pid, addr + (pi * PAGE_SIZE) as u64, &stamp).unwrap();
    }
    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
    w.sls.sls_checkpoint(gid).unwrap();
    let epoch0 = *w.sls.history(gid).unwrap().last().unwrap();
    let cpl0 = w.sls.store().lock().epoch_cpl(epoch0).unwrap();
    let mut model =
        Model { states: vec![mirror.clone()], cpls: vec![cpl0], recs: vec![Vec::new()] };

    for _ in 0..8 {
        round(&mut w, pid, gid, &mut rng, &mut mirror, &mut model);
    }
    verify_random(&mut w, gid, &mut rng, &model, 10);

    // More rounds after the restores: the live branch keeps committing
    // and earlier boundaries must still reconstruct exactly.
    for _ in 0..4 {
        round(&mut w, pid, gid, &mut rng, &mut mirror, &mut model);
    }
    verify_random(&mut w, gid, &mut rng, &model, 8);

    // Make everything durable, crash, and reboot: every record survives
    // and point-in-time restore still matches the shadow.
    w.sls.sls_barrier(gid).unwrap();
    let last = *model.cpls.last().unwrap();
    let manifest = {
        let e = w.sls.store().lock().last_epoch().unwrap();
        w.sls.manifests_at(e).unwrap()[0]
    };
    w.sls.crash_and_reboot().unwrap();
    for _ in 0..6 {
        let lsn = rng.gen_range(model.cpls[0] + 1..last + 1);
        let r = w.sls.restore_at(manifest, lsn, RestoreMode::Full).unwrap();
        let got = read_region(&mut w, r.pids[0]);
        assert_eq!(got, model.expect_at(lsn), "post-crash restore_at({lsn}) mismatch");
    }

    assert_eq!(checker.violations(), Vec::<String>::new());
}

mod medium;

/// The store object holding `pages` pages of memory at `epoch` — the
/// region the tests below map.
fn region_oid(w: &World, epoch: u64, pages: u64) -> Oid {
    let store = w.sls.store().lock();
    let mem = |o: &Oid| store.kind(*o) == Ok(ObjectKind::Memory);
    let mut oids = store.objects_at(epoch).unwrap().into_iter().filter(mem);
    oids.find(|&o| store.pages_at(o, epoch).unwrap().len() as u64 == pages).unwrap()
}

/// `read_page` of every page, each from a cold cache — the oracle.
fn oracle_at_epoch(w: &World, oid: Oid, epoch: u64, pages: u64) -> Vec<u8> {
    let mut store = w.sls.store().lock();
    let mut out = Vec::new();
    for pi in 0..pages {
        store.drop_page_cache();
        out.extend_from_slice(store.read_page(oid, pi, epoch).unwrap().bytes());
    }
    store.drop_page_cache();
    out
}

/// `read_page_at_lsn` of every page (the base epoch's content where the
/// page had no record yet), each from a cold cache.
fn oracle_at_lsn(w: &World, oid: Oid, lsn: u64, pages: u64) -> Vec<u8> {
    let base = w.sls.store().lock().epoch_for_lsn(lsn).unwrap();
    let mut out = oracle_at_epoch(w, oid, base, pages);
    let mut store = w.sls.store().lock();
    for pi in 0..pages {
        store.drop_page_cache();
        if let Some(p) = store.read_page_at_lsn(oid, pi, lsn).unwrap() {
            out[pi as usize * PAGE_SIZE..][..PAGE_SIZE].copy_from_slice(p.bytes());
        }
    }
    store.drop_page_cache();
    out
}

fn region(w: &mut World, pid: aurora_posix::Pid, addr: u64, pages: u64) -> Vec<u8> {
    let mut out = vec![0u8; pages as usize * PAGE_SIZE];
    w.sls.kernel.mem_read(pid, addr, &mut out).unwrap();
    out
}

/// Full restores and `restore_at` of an image whose pages sit at the
/// end of 11-link chains, every epoch's records packed into one shared
/// extent, read back by one plan each: byte for byte the one-page
/// reads, with a cold cache, before and after a crash.
#[test]
fn image_plans_match_the_one_page_oracle_before_and_after_a_crash() {
    const PAGES: u64 = 12;
    let (mut w, log) = medium::logged_world();
    let (pid, addr, gid, _) = medium::image_with_a_packed_extent(&mut w, &log, PAGES);
    let mut rng = DetRng::seed_from_u64(0xC4A1);
    for _ in 0..9 {
        for pi in 0..PAGES {
            let data: Vec<u8> = (0..48).map(|_| rng.next_u64() as u8).collect();
            let off = rng.gen_range(0..(PAGE_SIZE as u64 - 48));
            w.sls.kernel.mem_write(pid, addr + pi * PAGE_SIZE as u64 + off, &data).unwrap();
        }
        w.sls.sls_checkpoint(gid).unwrap();
        w.sls.sls_barrier(gid).unwrap();
    }
    let live = region(&mut w, pid, addr, PAGES);
    for crashed in [false, true] {
        if crashed {
            w.sls.crash_and_reboot().unwrap();
        }
        let epoch = w.sls.store().lock().last_epoch().unwrap();
        let manifest = w.sls.manifests_at(epoch).unwrap()[0];
        let oid = region_oid(&w, epoch, PAGES);
        let want = oracle_at_epoch(&w, oid, epoch, PAGES);
        assert_eq!(want, live, "the oracle reads the last checkpoint (crashed: {crashed})");
        let r = w.sls.restore_image(manifest, epoch, RestoreMode::Full).unwrap();
        let got = region(&mut w, r.pids[0], addr, PAGES);
        assert_eq!(got, want, "full restore (crashed: {crashed})");
        let lsns = w.sls.store().lock().record_lsns();
        for &lsn in lsns.iter().rev().step_by(17).take(6) {
            let want = oracle_at_lsn(&w, oid, lsn, PAGES);
            let r = w.sls.restore_at(manifest, lsn, RestoreMode::Full).unwrap();
            let got = region(&mut w, r.pids[0], addr, PAGES);
            assert_eq!(got, want, "restore_at({lsn}) (crashed: {crashed})");
        }
        let p95 = w.sls.store().lock().gauges().redo_chain_len_p95;
        assert!(p95 >= 8, "chains of 8+ links replayed, p95 {p95}");
    }
}

/// One corrupt record in a shared extent fails the whole restore with
/// the store's checksum error, and no group is registered for it.
#[test]
fn a_corrupt_record_fails_the_whole_restore_and_registers_no_group() {
    let (mut w, log) = medium::logged_world();
    let (_, _, _, extent) = medium::image_with_a_packed_extent(&mut w, &log, 8);
    medium::corrupt_first_record(&w, extent);
    w.sls.crash_and_reboot().unwrap();
    let epoch = w.sls.store().lock().last_epoch().unwrap();
    let manifest = w.sls.manifests_at(epoch).unwrap()[0];
    let lsn = *w.sls.store().lock().record_lsns().last().unwrap();
    for err in [
        w.sls.restore_image(manifest, epoch, RestoreMode::Full).unwrap_err(),
        w.sls.restore_at(manifest, lsn, RestoreMode::Full).unwrap_err(),
    ] {
        assert!(
            matches!(
                err,
                SlsError::Store(StoreError::Device {
                    op: "verify-record" | "verify-materialized",
                    ..
                })
            ),
            "expected a checksum failure, got {err}"
        );
        assert!(w.sls.groups().is_empty(), "a failed restore registers no group");
    }
}

/// `restore_at` rolls file content forward like memory: a file page and
/// two memory pages change in one epoch; restoring at the LSN after the
/// file's record and before the last memory record brings the file's
/// new content and only the first memory page's.
#[test]
fn restore_at_rolls_file_pages_forward_too() {
    let mut w = World::quickstart();
    let pid = w.spawn_counter_app();
    let addr = {
        let space = w.sls.kernel.proc(pid).unwrap().space;
        w.sls.kernel.vm.entries(space).unwrap()[0].start
    };
    let k = &mut w.sls.kernel;
    let fd = k.open(pid, "/log", aurora_posix::file::OpenFlags::RDWR, true).unwrap();
    k.write(pid, fd, b"old file").unwrap();
    k.mem_write(pid, addr + PAGE_SIZE as u64, b"old page 1").unwrap();
    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
    w.sls.sls_checkpoint(gid).unwrap();

    // Epoch N+1: the file record comes first (vnodes flush before
    // memory), then one record per memory page in page order.
    let k = &mut w.sls.kernel;
    k.lseek(pid, fd, 0).unwrap();
    k.write(pid, fd, b"new file").unwrap();
    k.mem_write(pid, addr, b"new page 0").unwrap();
    k.mem_write(pid, addr + PAGE_SIZE as u64, b"new page 1").unwrap();
    let cp = w.sls.sls_checkpoint(gid).unwrap();
    w.sls.sls_barrier(gid).unwrap();
    let lsn = w.sls.store().lock().epoch_cpl(cp.epoch).unwrap() - 1;

    let r = w.sls.sls_restore_at(gid, lsn, RestoreMode::Full).unwrap();
    let (k, p) = (&mut w.sls.kernel, r.pids[0]);
    k.lseek(p, fd, 0).unwrap();
    assert_eq!(k.read(p, fd, 8).unwrap(), b"new file", "the file rolled forward");
    let mut page = [0u8; 10];
    k.mem_read(p, addr, &mut page).unwrap();
    assert_eq!(&page, b"new page 0");
    k.mem_read(p, addr + PAGE_SIZE as u64, &mut page).unwrap();
    assert_eq!(&page, b"old page 1", "the target LSN is inside the epoch");
}
