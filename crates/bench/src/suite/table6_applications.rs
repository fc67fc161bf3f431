//! Table 6: checkpoint stop times and restore times for popular
//! applications (firefox, mosh, pillow, tomcat, vim), built from the
//! synthetic profiles in `aurora_posix::profiles`.
//!
//! Rows: checkpoint size; stop time for memory-only, full, and
//! incremental checkpoints; restore time from memory, full from disk,
//! and lazy from disk.
//!
//! "Memory" checkpoints/restores use a RAM-speed store device (the paper
//! measures checkpoints not flushed to disk).

use crate::{header, row, BenchReport};
use aurora_core::{AuroraApi, RestoreMode, Sls, SlsOptions};
use aurora_objstore::ObjectStore;
use aurora_posix::profiles::{AppProfile, TABLE6};
use aurora_posix::Kernel;
use aurora_sim::cost::Charge;
use aurora_sim::units::{fmt_bytes, fmt_ns, MIB};
use aurora_sim::{Clock, CostModel};
use aurora_storage::device::{share, BlockDevice};
use aurora_storage::{testbed_array, NvmeDevice, NvmeParams, Raid0};

struct AppNumbers {
    size: u64,
    ckpt_mem: u64,
    ckpt_full: u64,
    ckpt_incr: u64,
    restore_mem: u64,
    restore_full: u64,
    restore_lazy: u64,
}

fn build_sls(profile: &AppProfile, ramdisk: bool) -> (Sls, aurora_core::GroupId, u64) {
    let clock = Clock::new();
    let model = CostModel::default();
    let mut kernel = Kernel::new(clock.clone(), model.clone());
    let pids = profile.build(&mut kernel).unwrap();
    let dev = if ramdisk {
        let devices: Vec<Box<dyn BlockDevice + Send>> = (0..4)
            .map(|_| {
                Box::new(NvmeDevice::new(clock.clone(), NvmeParams::ramdisk(), 1 << 30))
                    as Box<dyn BlockDevice + Send>
            })
            .collect();
        share(Raid0::new(devices, 64 * 1024).expect("ramdisk raid config is valid"))
    } else {
        testbed_array(&clock, 1 << 30)
    };
    let store = ObjectStore::format(dev, Charge::new(clock, model), 64 * 1024).unwrap();
    let mut sls = Sls::new(kernel, store);
    let gid = sls.attach(pids[0], SlsOptions::default()).unwrap();
    let size: u64 = pids
        .iter()
        .map(|&p| {
            let space = sls.kernel.proc(p).unwrap().space;
            sls.kernel.vm.space_resident_pages(space).unwrap() * 4096
        })
        .sum();
    (sls, gid, size)
}

fn run_profile(profile: &AppProfile) -> AppNumbers {
    // Disk-backed: full, incremental, full restore, lazy restore.
    let (mut sls, gid, size) = build_sls(profile, false);
    let full = sls.sls_checkpoint(gid).unwrap();
    sls.sls_barrier(gid).unwrap();
    // Mostly-idle incremental (the paper's lower bound).
    let incr = sls.sls_checkpoint(gid).unwrap();
    sls.sls_barrier(gid).unwrap();
    // "Full from disk": nothing of the image is in the page cache.
    sls.store().lock().drop_page_cache();
    let r_full = sls.sls_restore(gid, None, RestoreMode::Full).unwrap();
    let r_lazy = sls.sls_restore(gid, None, RestoreMode::Lazy).unwrap();

    // RAM-speed store: memory checkpoint/restore.
    let (mut sls_m, gid_m, _) = build_sls(profile, true);
    let mem = sls_m.sls_checkpoint(gid_m).unwrap();
    sls_m.sls_barrier(gid_m).unwrap();
    sls_m.sls_checkpoint(gid_m).unwrap();
    sls_m.sls_barrier(gid_m).unwrap();
    // A memory restore re-links the still-resident COW objects: no page
    // copying — the lazy path over a RAM-speed store.
    let r_mem = sls_m.sls_restore(gid_m, None, RestoreMode::Lazy).unwrap();

    AppNumbers {
        size,
        ckpt_mem: mem.stop_time_ns,
        ckpt_full: full.stop_time_ns,
        ckpt_incr: incr.stop_time_ns,
        restore_mem: r_mem.elapsed_ns,
        restore_full: r_full.elapsed_ns,
        restore_lazy: r_lazy.elapsed_ns,
    }
}

pub(crate) fn run() -> BenchReport {
    let mut report = BenchReport::new("table6_applications");
    // Paper's Table 6 (ns): per app, (size MiB, mem, full, incr ckpt;
    // mem, full, lazy restore).
    let paper: [(u64, [u64; 6]); 5] = [
        (198, [1_400_000, 1_800_000, 1_900_000, 900_000, 12_400_000, 6_300_000]),
        (24, [400_000, 400_000, 400_000, 200_000, 1_900_000, 900_000]),
        (75, [700_000, 900_000, 600_000, 200_000, 8_200_000, 200_000]),
        (197, [2_700_000, 3_200_000, 2_100_000, 500_000, 33_600_000, 3_100_000]),
        (48, [700_000, 800_000, 700_000, 300_000, 4_100_000, 2_400_000]),
    ];

    header(
        "Table 6: application checkpoint/restore",
        &["app", "size", "ckpt mem", "ckpt full", "ckpt incr", "rst mem", "rst full", "rst lazy"],
    );
    for (i, profile) in TABLE6.iter().enumerate() {
        let n = run_profile(profile);
        row(&[
            profile.name.to_string(),
            fmt_bytes(n.size),
            fmt_ns(n.ckpt_mem),
            fmt_ns(n.ckpt_full),
            fmt_ns(n.ckpt_incr),
            fmt_ns(n.restore_mem),
            fmt_ns(n.restore_full),
            fmt_ns(n.restore_lazy),
        ]);
        let (psize, p) = paper[i];
        row(&[
            "(paper)".into(),
            fmt_bytes(psize * MIB),
            fmt_ns(p[0]),
            fmt_ns(p[1]),
            fmt_ns(p[2]),
            fmt_ns(p[3]),
            fmt_ns(p[4]),
            fmt_ns(p[5]),
        ]);
        report.push(profile.name, "size_bytes", n.size as f64);
        report.push(profile.name, "ckpt_mem_ns", n.ckpt_mem as f64);
        report.push(profile.name, "ckpt_full_ns", n.ckpt_full as f64);
        report.push(profile.name, "ckpt_incr_ns", n.ckpt_incr as f64);
        report.push(profile.name, "restore_mem_ns", n.restore_mem as f64);
        report.push(profile.name, "restore_full_ns", n.restore_full as f64);
        report.push(profile.name, "restore_lazy_ns", n.restore_lazy as f64);
    }
    println!(
        "\nShape checks: stop time tracks OS-state complexity (tomcat, with\n\
         hundreds of entries and 64 threads, is slowest; mosh fastest);\n\
         full restores scale with RSS; lazy restores skip the memory load."
    );
    report
}
