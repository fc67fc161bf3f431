//! `restore_chain` — the read side of the redo log `ckpt_sparse`
//! writes: crash, recover, and restore an image whose pages sit at the
//! end of redo chains.
//!
//! *Why:* objstore read/materialize/cache, the recovery scan and vm page
//! install dominate and the write path is idle, so a write-side change
//! that lengthens chains or fattens the index (cheaper on `ckpt_sparse`)
//! shows its cost here. The store's page cache is unbounded, so "larger
//! than the cache" is modelled by the cold Full restore right after the
//! reboot and "fits" by the warm Lazy restore after it.

use super::common::{self, APP_BYTES, APP_LAT_NS, APP_OPS, DEV_BYTES, RESTORE_NS};
use super::Workload;
use crate::gen;
use crate::harness::Harness;
use crate::machine::Machine;
use aurora_core::RestoreMode;
use aurora_core::SlsOptions;
use aurora_posix::Pid;
use aurora_sim::{DetRng, Rng};
use aurora_vm::{Prot, PAGE_SIZE};
use std::collections::BTreeMap;

/// Sizes of the workload.
#[derive(Clone, Debug)]
pub struct Sizes {
    /// Pages in the region.
    pub region_pages: u64,
    /// Delta epochs built on top of the full checkpoint in set-up.
    pub chain_epochs: usize,
    /// Distinct pages written per delta epoch, one sub-page write each:
    /// a seeded count in `writes_min ..= writes_max`, so stop time
    /// varies from epoch to epoch and from seed to seed. The counts are
    /// then nudged so they add up to the same total for every seed:
    /// every seed builds a log of the same length.
    pub writes_min: usize,
    /// See `writes_min`.
    pub writes_max: usize,
    /// Bytes per write.
    pub delta_bytes: usize,
    /// Pages faulted in through `mem_read` after the Lazy restore.
    pub fault_pages: usize,
    /// Random pages byte-checked after each Full / point-in-time restore
    /// (the Lazy restore checks every page it faults in).
    pub verify_pages: usize,
}

/// What the benchmark knows the region held at every record boundary:
/// content hashes only, so 240 epochs of history cost ~2 MB, not 4 GiB.
struct History {
    /// Hash of every page after the full checkpoint.
    base: Vec<u64>,
    /// Per delta epoch: its commit-point LSN and the `(page, hash)` of
    /// each page it rewrote, in LSN order (the flush emits one record
    /// per dirty page, pages ascending).
    epochs: Vec<(u64, Vec<(u64, u64)>)>,
    /// Commit-point LSN of the full checkpoint.
    base_cpl: u64,
}

impl History {
    /// Expected page hashes at record boundary `lsn`.
    fn at(&self, lsn: u64) -> Vec<u64> {
        let mut img = self.base.clone();
        let mut prev = self.base_cpl;
        for (cpl, recs) in &self.epochs {
            let applied = (lsn.saturating_sub(prev) as usize).min(recs.len());
            for &(page, hash) in &recs[..applied] {
                img[page as usize] = hash;
            }
            if lsn <= *cpl {
                break;
            }
            prev = *cpl;
        }
        img
    }

    fn last_lsn(&self) -> u64 {
        self.epochs.last().map_or(self.base_cpl, |e| e.0)
    }
}

/// The running workload.
pub struct RestoreChain {
    m: Machine,
    addr: u64,
    sizes: Sizes,
    rng: DetRng,
    /// Seeded phase of the low-discrepancy sequence the point-in-time
    /// targets are drawn from.
    lsn_phase: f64,
    history: History,
    latest: Vec<u64>,
}

impl RestoreChain {
    /// Reads `pages` of `pid`'s region and counts hash mismatches
    /// against `want`.
    fn mismatches(&mut self, pid: Pid, pages: &[u64], want: &[u64]) -> Result<u64, String> {
        let mut buf = vec![0u8; PAGE_SIZE];
        let mut bad = 0;
        for &pi in pages {
            self.m
                .sls
                .kernel
                .mem_read(pid, self.addr + pi * PAGE_SIZE as u64, &mut buf)
                .map_err(|e| format!("verify read of page {pi}: {e}"))?;
            bad += (gen::content_hash(&buf) != want[pi as usize]) as u64;
        }
        Ok(bad)
    }

    fn sample_pages(&mut self, n: usize) -> Vec<u64> {
        (0..n)
            .map(|_| self.rng.gen_range(0..self.sizes.region_pages))
            .collect()
    }
}

impl Workload for RestoreChain {
    const NAME: &'static str = "restore_chain";
    const OPS_PER_SECOND: f64 = 28.0;
    type Sizes = Sizes;

    fn nominal() -> Sizes {
        Sizes {
            region_pages: 2048,
            chain_epochs: 240,
            writes_min: 8,
            writes_max: 44,
            delta_bytes: 128,
            fault_pages: 512,
            verify_pages: 128,
        }
    }

    fn setup(sizes: &Sizes, seed: u64, wrap: bool, h: &mut Harness) -> Result<Self, String> {
        let mut m = Machine::boot(&h.spans, h.clock(), wrap);
        let mut rng = gen::lane(seed, 0);
        let pid = m.sls.kernel.spawn("restore_chain");
        let addr = m
            .sls
            .kernel
            .mmap_anon(pid, sizes.region_pages, Prot::RW)
            .map_err(|e| format!("mmap: {e}"))?;
        let mut shadow = vec![0u8; sizes.region_pages as usize * PAGE_SIZE];
        gen::fill(&mut rng, &mut shadow);
        for (pi, page) in shadow.chunks_exact(PAGE_SIZE).enumerate() {
            m.sls
                .kernel
                .mem_write(pid, addr + (pi * PAGE_SIZE) as u64, page)
                .map_err(|e| format!("populate: {e}"))?;
        }
        let gid = m
            .sls
            .attach(pid, SlsOptions::default())
            .map_err(|e| format!("attach: {e}"))?;
        h.muted = true;
        let full = common::checkpoint(h, &mut m.sls, gid)?;
        common::barrier(h, &mut m.sls, gid)?;
        h.muted = false;
        let cpl_of = |m: &Machine, epoch: u64| {
            m.sls
                .store()
                .lock()
                .epoch_cpl(epoch)
                .ok_or(format!("epoch {epoch} has no commit point"))
        };
        let base_cpl = cpl_of(&m, full.epoch)?;
        let mut history = History {
            base: shadow
                .chunks_exact(PAGE_SIZE)
                .map(gen::content_hash)
                .collect(),
            epochs: Vec::with_capacity(sizes.chain_epochs),
            base_cpl,
        };

        // The chain: this workload's only checkpoints. Their stop time,
        // time-to-durable and write amplification are what it reports
        // for the write side (its timed section writes nothing).
        let dev0 = m.dev_bytes_written();
        let mut prev_cpl = base_cpl;
        let (lo, hi) = (sizes.writes_min, sizes.writes_max);
        let mut counts: Vec<usize> = (0..sizes.chain_epochs)
            .map(|_| rng.gen_range(lo as u64..hi as u64 + 1) as usize)
            .collect();
        let target = sizes.chain_epochs * (lo + hi) / 2;
        while lo < hi && counts.iter().sum::<usize>() != target {
            let i = rng.gen_range(0..counts.len() as u64) as usize;
            if counts.iter().sum::<usize>() > target {
                counts[i] -= (counts[i] > lo) as usize;
            } else {
                counts[i] += (counts[i] < hi) as usize;
            }
        }
        for writes in counts {
            // Distinct pages, one sub-page write each: every dirty page
            // then logs exactly one *delta* record, and the flush emits
            // deltas in page order — so the LSN → page mapping inside an
            // epoch is a pure function of the dirty set. (Two far-apart
            // writes to one page would log a full image instead, and the
            // store numbers an epoch's full images before its deltas.)
            let mut dirty: BTreeMap<u64, u64> = BTreeMap::new();
            while dirty.len() < writes {
                let page = rng.gen_range(0..sizes.region_pages);
                if dirty.contains_key(&page) {
                    continue;
                }
                let off = rng.gen_range(0..(PAGE_SIZE - sizes.delta_bytes) as u64 + 1) as usize;
                let at = page as usize * PAGE_SIZE + off;
                gen::fill(&mut rng, &mut shadow[at..at + sizes.delta_bytes]);
                h.mix(page << 16 | off as u64);
                m.sls
                    .kernel
                    .mem_write(pid, addr + at as u64, &shadow[at..at + sizes.delta_bytes])
                    .map_err(|e| format!("chain write: {e}"))?;
                dirty.insert(page, 0);
            }
            let stats = common::checkpoint(h, &mut m.sls, gid)?;
            common::barrier(h, &mut m.sls, gid)?;
            let cpl = cpl_of(&m, stats.epoch)?;
            // One record per dirty page and nothing else: the LSN → page
            // mapping the point-in-time check relies on.
            if cpl != prev_cpl + dirty.len() as u64 {
                return Err(format!(
                    "epoch {} logged {} records for {} dirty pages",
                    stats.epoch,
                    cpl - prev_cpl,
                    dirty.len()
                ));
            }
            prev_cpl = cpl;
            for (page, hash) in dirty.iter_mut() {
                let at = *page as usize * PAGE_SIZE;
                *hash = gen::content_hash(&shadow[at..at + PAGE_SIZE]);
            }
            history.epochs.push((cpl, dirty.into_iter().collect()));
            h.add(APP_BYTES, (writes * sizes.delta_bytes) as u64);
        }
        h.add(DEV_BYTES, m.dev_bytes_written() - dev0);
        let latest = history.at(history.last_lsn());
        debug_assert_eq!(
            latest,
            shadow
                .chunks_exact(PAGE_SIZE)
                .map(gen::content_hash)
                .collect::<Vec<_>>()
        );
        let mut rng = gen::lane(seed, 1);
        let lsn_phase = rng.gen_f64();
        Ok(RestoreChain {
            m,
            addr,
            sizes: sizes.clone(),
            rng,
            lsn_phase,
            history,
            latest,
        })
    }

    fn machine(&mut self) -> &mut Machine {
        &mut self.m
    }

    fn op(&mut self, i: usize, h: &mut Harness) -> Result<(), String> {
        // Inputs first: which pages the application touches after the
        // lazy restore, which boundary it travels back to, which pages
        // the benchmark spot-checks.
        let fault = self.sample_pages(self.sizes.fault_pages);
        let check_full = self.sample_pages(self.sizes.verify_pages);
        let mut check_at = self.sample_pages(self.sizes.verify_pages);
        // Point-in-time targets sweep the log evenly (golden-ratio steps
        // from a seeded phase) instead of clustering by chance: restore
        // cost depends strongly on how far back the target is, and the
        // median over a run should not depend on the luck of the draw.
        let span = (self.history.last_lsn() - self.history.base_cpl) as f64;
        let u = (self.lsn_phase + i as f64 * 0.618_033_988_749_894_9).fract();
        let lsn = self.history.base_cpl + 1 + ((u * span) as u64).min(span as u64 - 1);
        h.mix(lsn);
        fault.iter().for_each(|&p| h.mix(p));
        // The pages on either side of the cut are the ones a wrong
        // boundary would get wrong: always check the cut's own epoch.
        if let Some((_, recs)) = self.history.epochs.iter().find(|(cpl, _)| lsn <= *cpl) {
            check_at.extend(recs.iter().map(|&(p, _)| p));
        }
        let want_at = self.history.at(lsn);

        h.op_begin(i);
        let r = (|| -> Result<(), String> {
            let (manifest, epoch) = common::crash_and_find_image(h, &mut self.m.sls)?;
            let mut restored: Vec<Pid> = Vec::new();
            let mut virt = 0u64;

            // Cold: the page cache died with the machine, every page is
            // materialized by chain replay off the device.
            let t0 = h.virt_now();
            let full =
                common::restore_image(h, &mut self.m.sls, manifest, epoch, RestoreMode::Full)?;
            virt += h.virt_now() - t0;
            h.pause();
            let latest = std::mem::take(&mut self.latest);
            let bad = self.mismatches(full.pids[0], &check_full, &latest)?;
            h.check(bad == 0, || {
                format!("op {i}: {bad} pages differ after the full restore")
            });
            h.resume();
            restored.extend(&full.pids);

            // Warm: same image, now cached; the application faults in a
            // quarter of it.
            let t0 = h.virt_now();
            let lazy =
                common::restore_image(h, &mut self.m.sls, manifest, epoch, RestoreMode::Lazy)?;
            let mut buf = vec![0u8; PAGE_SIZE];
            let mut bad = 0u64;
            for &pi in &fault {
                let k = &mut self.m.sls.kernel;
                h.call("posix.mem_read", || {
                    k.mem_read(lazy.pids[0], self.addr + pi * PAGE_SIZE as u64, &mut buf)
                })
                .map_err(|e| format!("fault-in of page {pi}: {e}"))?;
                h.pause();
                bad += (gen::content_hash(&buf) != latest[pi as usize]) as u64;
                h.resume();
            }
            virt += h.virt_now() - t0;
            self.latest = latest;
            h.check(bad == 0, || {
                format!("op {i}: {bad} pages differ after the lazy restore")
            });
            restored.extend(&lazy.pids);

            // Point in time: any record boundary, not just an epoch's.
            let t0 = h.virt_now();
            let at = {
                let sls = &mut self.m.sls;
                h.call("core.restore_at", || {
                    sls.restore_at(manifest, lsn, RestoreMode::Full)
                })
                .map_err(|e| format!("restore_at({lsn}): {e}"))?
            };
            virt += h.virt_now() - t0;
            common::record_restore(h, "restore_at_virt_ns", &at);
            h.pause();
            let bad = self.mismatches(at.pids[0], &check_at, &want_at)?;
            h.check(bad == 0, || {
                format!("op {i}: {bad} pages differ after restore_at({lsn})")
            });
            h.resume();
            restored.extend(&at.pids);

            common::exit_tree(h, &mut self.m.sls, &restored)?;
            // `virt` spans pauses taken inside the lazy step's loop.
            h.rec(RESTORE_NS, virt as f64);
            Ok(())
        })();
        h.op_end();
        r?;
        h.add(APP_OPS, 3);
        let op_virt = *h.op_virt_ns.last().expect("op just ended");
        h.rec(APP_LAT_NS, op_virt);
        Ok(())
    }

    fn verify(&mut self, _h: &mut Harness) -> Result<u64, String> {
        // Every op verified its own three restores.
        Ok(self.sizes.region_pages * PAGE_SIZE as u64)
    }
}
