//! Ablations of the design decisions DESIGN.md calls out, on the virtual
//! clock:
//!
//! 1. **Reversed vs forward collapse** (§6) — pages moved and cost as a
//!    function of base residency, at a fixed dirty set.
//! 2. **Inode references vs path lookups** for vnodes at checkpoint time
//!    (§5.2) — name-cache traffic avoided.
//! 3. **POSIX object model vs process-centric traversal** — OS-state
//!    time as processes sharing the same objects scale.
//! 4. **Shadow-chain cap** — fault cost as chains lengthen when collapse
//!    is disabled.
//! 5. **NVMe vs spinning disk** — why SLSes became practical (§2).

use crate::{header, ratio, row, BenchReport};
use aurora_core::world::World;
use aurora_core::{AuroraApi, SlsOptions};
use aurora_criu::{criu_dump, CriuCosts};
use aurora_posix::file::OpenFlags;
use aurora_posix::Kernel;
use aurora_sim::units::{fmt_ns, MIB};
use aurora_sim::Clock;
use aurora_storage::device::BlockDevice;
use aurora_storage::{NvmeDevice, NvmeParams};
use aurora_vm::{CollapseMode, Prot, Vm, PAGE_SIZE};

fn collapse_ablation(report: &mut BenchReport) {
    header(
        "Ablation 1: collapse direction (16 dirty pages, varying base)",
        &["base pages", "reversed moves", "forward moves", "advantage"],
    );
    let bases: &[u64] = if crate::quick() { &[64, 512, 4096] } else { &[64, 512, 4096, 32_768] };
    for &base_pages in bases {
        let mut results = Vec::new();
        for mode in [CollapseMode::Reversed, CollapseMode::Forward] {
            let mut vm = Vm::new();
            let s = vm.create_space();
            let a = vm.mmap_anon(s, base_pages, Prot::RW).unwrap();
            vm.touch(s, a, base_pages * PAGE_SIZE as u64).unwrap();
            vm.system_shadow(&[s]).unwrap();
            for i in 0..16u64 {
                vm.write(s, a + i * PAGE_SIZE as u64, &[1]).unwrap();
            }
            vm.system_shadow(&[s]).unwrap();
            let top = vm.space(s).unwrap().entry_at(a).unwrap().object;
            let r = vm.collapse_under(top, mode).unwrap().unwrap();
            results.push(r.pages_moved);
        }
        row(&[
            base_pages.to_string(),
            results[0].to_string(),
            results[1].to_string(),
            ratio(results[1] as f64, results[0] as f64),
        ]);
        let group = format!("collapse/base={base_pages}");
        report.push(group.clone(), "reversed_moves", results[0] as f64);
        report.push(group, "forward_moves", results[1] as f64);
    }
    println!("(the reversed direction moves the dirty set; forward moves the base)");
}

fn vnode_ref_ablation(report: &mut BenchReport) {
    header(
        "Ablation 2: vnode references at checkpoint (inode vs path)",
        &["files", "inode refs", "path lookups", "advantage"],
    );
    for files in [64u64, 512] {
        let mut w = World::quickstart();
        let pid = w.sls.kernel.spawn("files");
        for i in 0..files {
            w.sls.kernel.open(pid, &format!("/f{i}"), OpenFlags::RDWR, true).unwrap();
        }
        // Inode path: what the serializer does (1 lock + direct ref).
        let t0 = w.clock.now();
        let model = w.sls.kernel.charge.model().clone();
        for _ in 0..files {
            w.sls.kernel.charge.locks(1);
            w.sls.kernel.charge.misses(8);
        }
        let inode_ns = w.clock.now() - t0;
        // Path alternative: namei through the name cache for each file
        // (a miss costs a directory scan; hits still chase pointers).
        let t1 = w.clock.now();
        for i in 0..files {
            w.sls.kernel.vfs.lookup_path(&format!("/f{i}")).unwrap();
            w.sls.kernel.charge.locks(2);
            w.sls.kernel.charge.misses(30); // namei component walks
            w.sls.kernel.charge.raw(model.syscall_ns);
        }
        let path_ns = w.clock.now() - t1;
        row(&[
            files.to_string(),
            fmt_ns(inode_ns),
            fmt_ns(path_ns),
            ratio(path_ns as f64, inode_ns as f64),
        ]);
        let group = format!("vnode_refs/files={files}");
        report.push(group.clone(), "inode_ns", inode_ns as f64);
        report.push(group, "path_ns", path_ns as f64);
    }
}

fn object_model_ablation(report: &mut BenchReport) {
    header(
        "Ablation 3: object model vs process-centric traversal",
        &["processes", "Aurora OS-state", "CRIU-style", "advantage"],
    );
    for procs in [1u32, 4, 16] {
        // Aurora: the exactly-once object scan.
        let mut w = World::quickstart();
        let root = w.sls.kernel.spawn("root");
        let fd = w.sls.kernel.open(root, "/shared", OpenFlags::RDWR, true).unwrap();
        let _ = fd;
        for _ in 1..procs {
            w.sls.kernel.fork(root).unwrap();
        }
        let gid = w.sls.attach(root, SlsOptions::default()).unwrap();
        w.sls.sls_checkpoint(gid).unwrap();
        w.sls.sls_barrier(gid).unwrap();
        let aurora_ns = w.sls.sls_checkpoint(gid).unwrap().os_state_ns;

        // CRIU: per-process scans + sharing inference.
        let mut k = Kernel::boot();
        let root = k.spawn("root");
        k.open(root, "/shared", OpenFlags::RDWR, true).unwrap();
        for _ in 1..procs {
            k.fork(root).unwrap();
        }
        let (stats, _) = criu_dump(&mut k, root, &CriuCosts::default()).unwrap();
        row(&[
            procs.to_string(),
            fmt_ns(aurora_ns),
            fmt_ns(stats.os_state_ns),
            ratio(stats.os_state_ns as f64, aurora_ns as f64),
        ]);
        let group = format!("object_model/procs={procs}");
        report.push(group.clone(), "aurora_os_state_ns", aurora_ns as f64);
        report.push(group, "criu_os_state_ns", stats.os_state_ns as f64);
    }
    println!("(shared objects cost Aurora once; CRIU re-scans them per process)");
}

fn chain_cap_ablation(report: &mut BenchReport) {
    header(
        "Ablation 4: shadow chain length vs read-fault cost",
        &["chain length", "fault cost (virtual)"],
    );
    for chain in [2u64, 4, 8, 16] {
        let mut vm = Vm::new();
        let s = vm.create_space();
        let a = vm.mmap_anon(s, 8, Prot::RW).unwrap();
        vm.write(s, a, &[1]).unwrap();
        // Grow the chain without collapsing.
        for _ in 1..chain {
            vm.system_shadow(&[s]).unwrap();
        }
        // Cost model: a read fault walks the chain; each level is a
        // cache-missing object lookup.
        let model = aurora_sim::CostModel::default();
        let cost = model.page_fault_ns + chain * model.cache_miss_ns + model.pte_install_ns;
        row(&[chain.to_string(), fmt_ns(cost)]);
        report.push(format!("chain_cap/chain={chain}"), "fault_cost_ns", cost as f64);
    }
    println!("(Aurora eagerly collapses to keep chains at 2: flushing + accumulating)");
}

fn disk_era_ablation(report: &mut BenchReport) {
    header(
        "Ablation 5: why now — flushing a 64 MiB checkpoint",
        &["device", "flush time", "max checkpoint Hz"],
    );
    for (name, params) in
        [("Optane NVMe", NvmeParams::optane_900p()), ("spinning disk", NvmeParams::spinning_disk())]
    {
        let clock = Clock::new();
        let mut dev = NvmeDevice::new(clock.clone(), params, 256 * MIB);
        let chunk = vec![0u8; 1 << 20];
        for i in 0..64u64 {
            dev.write(i * 256, &chunk).unwrap();
        }
        let done = dev.flush().done_at;
        row(&[
            name.to_string(),
            fmt_ns(done),
            format!("{:.1}/s", 1e9 / done as f64),
        ]);
        report.push(format!("disk_era/{name}"), "flush_ns", done as f64);
    }
    println!("(EROS-era disks bound checkpoints to tens of seconds; NVMe makes 100 Hz possible)");
}

pub(crate) fn run() -> BenchReport {
    let mut report = BenchReport::new("ablations");
    collapse_ablation(&mut report);
    vnode_ref_ablation(&mut report);
    object_model_ablation(&mut report);
    chain_cap_ablation(&mut report);
    disk_era_ablation(&mut report);
    report
}
