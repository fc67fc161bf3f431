//! `app_image` — OS-state-heavy, memory-light (Tables 4/6: "stop time
//! tracks OS-state complexity, not RSS"): a four-process tree with
//! hundreds of mappings, descriptors, sockets, pipes and kqueues, of
//! which almost nothing is dirty between checkpoints.
//!
//! *Why:* core's serializers/registry/oidmap, posix and sim's codec do
//! the work; vm/frames/objstore's page paths do little. It is the
//! workload a serializer clean-up or a restore fix must not regress,
//! and the bypass workload for page-path optimisations.

use super::common::{self, APP_BYTES, APP_LAT_NS, APP_OPS, MEM_WRITES, RESTORE_NS};
use super::Workload;
use crate::gen;
use crate::harness::Harness;
use crate::machine::Machine;
use aurora_core::restore::RestoreReport;
use aurora_core::{AuroraApi, GroupId, RestoreMode, SlsOptions};
use aurora_posix::profiles::AppProfile;
use aurora_posix::Pid;
use aurora_sim::units::MIB;
use aurora_sim::{DetRng, Rng};
use std::time::Instant;

/// Byte offset of the marker inside a mapping's first page (past the
/// stamp `AppProfile::build` leaves at offset 0).
const MARKER_OFF: u64 = 64;

/// Sizes of the workload.
#[derive(Clone, Debug)]
pub struct Sizes {
    /// Shape of the process tree.
    pub profile: AppProfile,
    /// Each op dirties one marker page per process plus up to this many
    /// more (seeded), 8 bytes each.
    pub extra_pages: u64,
    /// After the lazy restore the application touches up to this many
    /// pages (a seeded count per op), which the pager faults in.
    pub fault_pages: u64,
    /// `retain_last(gid, retain)` every `gc_every`-th op.
    pub retain: usize,
    /// See `retain`.
    pub gc_every: usize,
    /// Untimed warm-up cycles.
    pub warmup: usize,
}

struct Proc {
    pid: Pid,
    /// Start address of every mapping, in creation order.
    entries: Vec<u64>,
    threads: usize,
    fds: usize,
    /// Last value written to the marker.
    marker: u64,
}

/// The running workload.
pub struct AppImage {
    m: Machine,
    gid: GroupId,
    sizes: Sizes,
    rng: DetRng,
    procs: Vec<Proc>,
    cycles: usize,
}

impl AppImage {
    /// Structure and marker checks of one restored tree.
    fn check_tree(&mut self, h: &mut Harness, what: &str, r: &RestoreReport) -> Result<(), String> {
        let k = &mut self.m.sls.kernel;
        let mut problems = Vec::new();
        if r.pids.len() != self.procs.len() {
            problems.push(format!(
                "{} processes, expected {}",
                r.pids.len(),
                self.procs.len()
            ));
        }
        for (want, &pid) in self.procs.iter().zip(&r.pids) {
            let p = k
                .proc(pid)
                .map_err(|e| format!("{what}: restored pid {pid:?}: {e}"))?;
            if p.threads.len() != want.threads || p.fdtable.len() != want.fds {
                problems.push(format!(
                    "{pid:?}: {} threads / {} fds, expected {} / {}",
                    p.threads.len(),
                    p.fdtable.len(),
                    want.threads,
                    want.fds
                ));
            }
            let mut buf = [0u8; 8];
            k.mem_read(pid, want.entries[0] + MARKER_OFF, &mut buf)
                .map_err(|e| format!("{what}: marker read in {pid:?}: {e}"))?;
            if u64::from_le_bytes(buf) != want.marker {
                problems.push(format!(
                    "{pid:?}: marker {:#x}, expected {:#x}",
                    u64::from_le_bytes(buf),
                    want.marker
                ));
            }
        }
        h.check(problems.is_empty(), || {
            format!("{what}: {}", problems.join("; "))
        });
        Ok(())
    }

    fn cycle(
        &mut self,
        h: &mut Harness,
        writes: &[(usize, u64, u64)],
        faults: &[u64],
    ) -> Result<(), String> {
        for &(p, addr, value) in writes {
            let (k, pid) = (&mut self.m.sls.kernel, self.procs[p].pid);
            h.call("posix.mem_write", || {
                k.mem_write(pid, addr, &value.to_le_bytes())
            })
            .map_err(|e| format!("mem_write: {e}"))?;
        }
        common::checkpoint(h, &mut self.m.sls, self.gid)?;
        common::barrier(h, &mut self.m.sls, self.gid)?;

        let t0 = h.virt_now();
        let paused0 = h.paused_virt();
        let mut restored = Vec::new();
        for mode in [RestoreMode::Full, RestoreMode::Lazy] {
            let (span, series) = common::restore_names(mode);
            let (sls, gid) = (&mut self.m.sls, self.gid);
            let r = h
                .call(span, || sls.sls_restore(gid, None, mode))
                .map_err(|e| format!("sls_restore({mode:?}): {e}"))?;
            common::record_restore(h, series, &r);
            if mode == RestoreMode::Lazy {
                // The restored root touches a few pages: part of what a
                // lazy restore costs its application.
                let (k, mut buf) = (&mut self.m.sls.kernel, [0u8; 8]);
                for &addr in faults {
                    h.call("posix.mem_read", || k.mem_read(r.pids[0], addr, &mut buf))
                        .map_err(|e| format!("fault-in at {addr:#x}: {e}"))?;
                }
            }
            h.pause();
            self.check_tree(h, span, &r)?;
            h.resume();
            restored.extend(r.pids);
        }
        h.rec(
            RESTORE_NS,
            (h.virt_now() - t0 - (h.paused_virt() - paused0)) as f64,
        );

        common::exit_tree(h, &mut self.m.sls, &restored)?;
        self.cycles += 1;
        if self.cycles.is_multiple_of(self.sizes.gc_every) {
            common::retain_last(h, &mut self.m.sls, self.gid, self.sizes.retain)?;
        }
        Ok(())
    }

    /// The op's inputs: `(process, address, value)` per page written,
    /// and the addresses the restored root reads after the lazy restore.
    fn gen_inputs(&mut self, h: &mut Harness) -> (Vec<(usize, u64, u64)>, Vec<u64>) {
        let mut out = Vec::new();
        for (p, proc_) in self.procs.iter_mut().enumerate() {
            proc_.marker = self.rng.next_u64();
            out.push((p, proc_.entries[0] + MARKER_OFF, proc_.marker));
            for _ in 0..self.rng.gen_range(0..self.sizes.extra_pages + 1) {
                let e = 1 + self.rng.gen_range(0..proc_.entries.len() as u64 - 1) as usize;
                out.push((p, proc_.entries[e] + MARKER_OFF, self.rng.next_u64()));
            }
        }
        for &(p, addr, v) in &out {
            h.mix(p as u64 ^ addr);
            h.mix(v);
        }
        let root = &self.procs[0].entries;
        let faults: Vec<u64> = (0..self.rng.gen_range(0..self.sizes.fault_pages + 1))
            .map(|_| root[self.rng.gen_range(0..root.len() as u64) as usize])
            .collect();
        faults.iter().for_each(|&a| h.mix(a));
        (out, faults)
    }
}

impl Workload for AppImage {
    const NAME: &'static str = "app_image";
    const OPS_PER_SECOND: f64 = 25.0;
    type Sizes = Sizes;

    fn nominal() -> Sizes {
        Sizes {
            profile: AppProfile {
                name: "app_image",
                procs: 4,
                threads_per_proc: 8,
                rss_bytes: 8 * MIB,
                vm_entries: 120,
                files: 32,
                sockets: 16,
                pipes: 8,
                kqueues: 2,
                ptys: 1,
            },
            extra_pages: 7,
            fault_pages: 64,
            retain: 4,
            gc_every: 8,
            warmup: 8,
        }
    }

    fn setup(sizes: &Sizes, seed: u64, wrap: bool, h: &mut Harness) -> Result<Self, String> {
        let mut m = Machine::boot(&h.spans, h.clock(), wrap);
        let t0 = Instant::now();
        let pids = sizes
            .profile
            .build(&mut m.sls.kernel)
            .map_err(|e| format!("profile build: {e}"))?;
        h.rec("profile_build_ns", t0.elapsed().as_nanos() as f64);
        let gid = m
            .sls
            .attach(pids[0], SlsOptions::default())
            .map_err(|e| format!("attach: {e}"))?;
        let procs = pids
            .iter()
            .map(|&pid| {
                let k = &m.sls.kernel;
                let p = k.proc(pid).map_err(|e| format!("{pid:?}: {e}"))?;
                let entries = k.vm.entries(p.space).map_err(|e| format!("{pid:?}: {e}"))?;
                Ok(Proc {
                    pid,
                    entries: entries.iter().map(|e| e.start).collect(),
                    threads: p.threads.len(),
                    fds: p.fdtable.len(),
                    marker: 0,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let mut w = AppImage {
            m,
            gid,
            sizes: sizes.clone(),
            rng: gen::lane(seed, 0),
            procs,
            cycles: 0,
        };
        h.muted = true;
        common::checkpoint(h, &mut w.m.sls, gid)?;
        common::barrier(h, &mut w.m.sls, gid)?;
        for _ in 0..sizes.warmup {
            let (writes, faults) = w.gen_inputs(h);
            w.cycle(h, &writes, &faults)?;
        }
        h.muted = false;
        Ok(w)
    }

    fn machine(&mut self) -> &mut Machine {
        &mut self.m
    }

    fn op(&mut self, i: usize, h: &mut Harness) -> Result<(), String> {
        let (writes, faults) = self.gen_inputs(h);
        h.op_begin(i);
        let r = self.cycle(h, &writes, &faults);
        h.op_end();
        r?;
        h.add(MEM_WRITES, writes.len() as u64);
        h.add(APP_OPS, 1);
        h.add(APP_BYTES, 8 * writes.len() as u64);
        let virt = *h.op_virt_ns.last().expect("op just ended");
        h.rec(APP_LAT_NS, virt);
        Ok(())
    }

    fn verify(&mut self, _h: &mut Harness) -> Result<u64, String> {
        // Every cycle verified both of its restores.
        let k = &self.m.sls.kernel;
        let mut pages = 0;
        for p in &self.procs {
            let space = k.proc(p.pid).map_err(|e| e.to_string())?.space;
            pages +=
                k.vm.space_resident_pages(space)
                    .map_err(|e| e.to_string())?;
        }
        Ok(pages * aurora_vm::PAGE_SIZE as u64)
    }
}
