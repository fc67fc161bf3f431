//! `ckpt_sparse` — the paper's core path (Table 5): continuous
//! incremental checkpoints of one process with a large, sparsely
//! dirtied region.
//!
//! *Why:* vm (COW faults, system shadow, collapse), frames, core's flush
//! (diff + checksum), objstore's write path and storage do nearly all
//! the work; serializers and objstore's read path do almost none.

use super::common::{self, APP_BYTES, APP_LAT_NS, APP_OPS, MEM_WRITES, RESTORE_NS};
use super::Workload;
use crate::gen;
use crate::harness::Harness;
use crate::machine::Machine;
use aurora_core::{GroupId, RestoreMode, SlsOptions};
use aurora_posix::Pid;
use aurora_sim::{DetRng, Rng};
use aurora_vm::{Prot, PAGE_SIZE};

/// Sizes of the workload.
#[derive(Clone, Debug)]
pub struct Sizes {
    /// Pages in the region (32 MiB nominal).
    pub region_pages: u64,
    /// Page writes per epoch (seeded-random pages, repeats allowed).
    pub writes_per_epoch: usize,
    /// One write in this many rewrites the whole page (→ full image);
    /// the rest write `delta_bytes` at a random offset (→ redo delta).
    pub full_one_in: u64,
    /// Bytes of a sub-page write.
    pub delta_bytes: usize,
    /// `retain_last(gid, retain)` every `gc_every`-th epoch.
    pub retain: usize,
    /// See `retain`.
    pub gc_every: usize,
    /// Untimed warm-up epochs after the first full checkpoint (long
    /// enough that history depth and GC have reached steady state).
    pub warmup: usize,
}

struct Write {
    page: u64,
    off: usize,
    data: Vec<u8>,
}

/// The running workload.
pub struct CkptSparse {
    m: Machine,
    pid: Pid,
    gid: GroupId,
    addr: u64,
    sizes: Sizes,
    rng: DetRng,
    /// The benchmark's copy of what the region must contain.
    shadow: Vec<u8>,
    epochs: usize,
}

impl CkptSparse {
    fn gen_epoch(&mut self, h: &mut Harness) -> Vec<Write> {
        let s = &self.sizes;
        let mut out = Vec::with_capacity(s.writes_per_epoch);
        for _ in 0..s.writes_per_epoch {
            let page = self.rng.gen_range(0..s.region_pages);
            let (off, len) = if self.rng.gen_range(0..s.full_one_in) == 0 {
                (0, PAGE_SIZE)
            } else {
                (
                    self.rng
                        .gen_range(0..(PAGE_SIZE - s.delta_bytes) as u64 + 1)
                        as usize,
                    s.delta_bytes,
                )
            };
            let mut data = vec![0u8; len];
            gen::fill(&mut self.rng, &mut data);
            h.mix(page << 16 | off as u64);
            h.mix(gen::content_hash(&data));
            out.push(Write { page, off, data });
        }
        out
    }

    /// One epoch: apply the writes, checkpoint, barrier, maybe GC.
    fn epoch(&mut self, h: &mut Harness, writes: &[Write]) -> Result<(), String> {
        let sls = &mut self.m.sls;
        for w in writes {
            let at = w.page as usize * PAGE_SIZE + w.off;
            self.shadow[at..at + w.data.len()].copy_from_slice(&w.data);
            h.call("posix.mem_write", || {
                sls.kernel
                    .mem_write(self.pid, self.addr + at as u64, &w.data)
            })
            .map_err(|e| format!("mem_write: {e}"))?;
        }
        common::checkpoint(h, sls, self.gid)?;
        common::barrier(h, sls, self.gid)?;
        self.epochs += 1;
        if self.epochs.is_multiple_of(self.sizes.gc_every) {
            common::retain_last(h, sls, self.gid, self.sizes.retain)?;
        }
        Ok(())
    }
}

impl Workload for CkptSparse {
    const NAME: &'static str = "ckpt_sparse";
    const OPS_PER_SECOND: f64 = 80.0;
    type Sizes = Sizes;

    fn nominal() -> Sizes {
        Sizes {
            region_pages: 8 * 1024,
            writes_per_epoch: 512,
            full_one_in: 8,
            delta_bytes: 128,
            retain: 8,
            gc_every: 8,
            warmup: 16,
        }
    }

    fn setup(sizes: &Sizes, seed: u64, wrap: bool, h: &mut Harness) -> Result<Self, String> {
        let mut m = Machine::boot(&h.spans, h.clock(), wrap);
        let mut rng = gen::lane(seed, 0);
        let k = &mut m.sls.kernel;
        let pid = k.spawn("ckpt_sparse");
        let addr = k
            .mmap_anon(pid, sizes.region_pages, Prot::RW)
            .map_err(|e| format!("mmap: {e}"))?;
        let mut shadow = vec![0u8; sizes.region_pages as usize * PAGE_SIZE];
        gen::fill(&mut rng, &mut shadow);
        for (pi, page) in shadow.chunks_exact(PAGE_SIZE).enumerate() {
            k.mem_write(pid, addr + (pi * PAGE_SIZE) as u64, page)
                .map_err(|e| format!("populate: {e}"))?;
        }
        let gid = m
            .sls
            .attach(pid, SlsOptions::default())
            .map_err(|e| format!("attach: {e}"))?;
        let mut w = CkptSparse {
            m,
            pid,
            gid,
            addr,
            sizes: sizes.clone(),
            rng,
            shadow,
            epochs: 0,
        };
        // The first checkpoint is the full one; neither it nor the
        // warm-up epochs belong in the timed series.
        h.muted = true;
        common::checkpoint(h, &mut w.m.sls, gid)?;
        common::barrier(h, &mut w.m.sls, gid)?;
        for _ in 0..sizes.warmup {
            let writes = w.gen_epoch(h);
            w.epoch(h, &writes)?;
        }
        h.muted = false;
        Ok(w)
    }

    fn machine(&mut self) -> &mut Machine {
        &mut self.m
    }

    fn op(&mut self, i: usize, h: &mut Harness) -> Result<(), String> {
        let writes = self.gen_epoch(h);
        h.op_begin(i);
        let r = self.epoch(h, &writes);
        h.op_end();
        r?;
        h.add(MEM_WRITES, writes.len() as u64);
        h.add(APP_OPS, writes.len() as u64);
        h.add(APP_BYTES, writes.iter().map(|w| w.data.len() as u64).sum());
        let virt = *h.op_virt_ns.last().expect("op just ended");
        h.rec(APP_LAT_NS, virt);
        Ok(())
    }

    fn verify(&mut self, h: &mut Harness) -> Result<u64, String> {
        let sls = &mut self.m.sls;
        common::barrier(h, sls, self.gid)?;
        let (manifest, epoch) = common::crash_and_find_image(h, sls)?;
        let t0 = h.virt_now();
        let r = common::restore_image(h, sls, manifest, epoch, RestoreMode::Full)?;
        h.rec(RESTORE_NS, (h.virt_now() - t0) as f64);
        let pid = *r.pids.first().ok_or("restore produced no process")?;
        let mut page = vec![0u8; PAGE_SIZE];
        let mut bad = 0u64;
        for (pi, want) in self.shadow.chunks_exact(PAGE_SIZE).enumerate() {
            sls.kernel
                .mem_read(pid, self.addr + (pi * PAGE_SIZE) as u64, &mut page)
                .map_err(|e| format!("verify read of page {pi}: {e}"))?;
            bad += (page != want) as u64;
        }
        h.check(bad == 0, || {
            format!(
                "{bad} of {} region pages differ after crash + restore",
                self.sizes.region_pages
            )
        });
        Ok(self.sizes.region_pages * PAGE_SIZE as u64)
    }
}
