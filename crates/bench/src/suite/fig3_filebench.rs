//! Figure 3: FileBench microbenchmarks comparing the Aurora file system
//! (checkpoint consistency over the COW object store) to ZFS (with and
//! without checksumming) and FFS (SU+J).
//!
//! (a) 64 KiB random/sequential write throughput, (b) 4 KiB ditto,
//! (c) createfiles and write+fsync ops/s, (d) fileserver / varmail /
//! webserver ops/s.

use crate::{header, row, BenchReport};
use aurora_fs::aurora::AuroraFs;
use aurora_fs::ffs_model::FfsModel;
use aurora_fs::zfs_model::ZfsModel;
use aurora_fs::SimFs;
use aurora_sim::units::{KIB, MIB};
use aurora_workloads::filebench;

const DEV_BYTES: u64 = 2 << 30;

const FS_NAMES: [&str; 4] = ["ZFS", "ZFS+CSUM", "FFS", "Aurora"];

fn rebuild(label: &str) -> Box<dyn SimFs> {
    match label {
        "ZFS" => Box::new(ZfsModel::testbed(DEV_BYTES, false)),
        "ZFS+CSUM" => Box::new(ZfsModel::testbed(DEV_BYTES, true)),
        "FFS" => Box::new(FfsModel::testbed(DEV_BYTES)),
        "Aurora" => Box::new(AuroraFs::testbed(DEV_BYTES).unwrap()),
        other => panic!("unknown fs {other}"),
    }
}

pub(crate) fn run() -> BenchReport {
    let mut report = BenchReport::new("fig3_filebench");
    let quick = crate::quick();
    let shrink = if quick { 8 } else { 1 };

    // (a) + (b): write throughput.
    for (block, label, total) in
        [(64 * KIB, "64 KiB", 512 * MIB / shrink), (4 * KIB, "4 KiB", 128 * MIB / shrink)]
    {
        header(
            &format!("Figure 3 ({label} writes): throughput GiB/s"),
            &["fs", "random", "sequential"],
        );
        for name in FS_NAMES {
            let mut fs = rebuild(name);
            let rand = filebench::write_bench(fs.as_mut(), block, total, true, 11).unwrap();
            let mut fs2 = rebuild(name);
            let seq = filebench::write_bench(fs2.as_mut(), block, total, false, 11).unwrap();
            row(&[
                name.to_string(),
                format!("{:.2}", rand.gib_per_sec()),
                format!("{:.2}", seq.gib_per_sec()),
            ]);
            report.push(name, format!("write_{label}_random_gib_s"), rand.gib_per_sec());
            report.push(name, format!("write_{label}_sequential_gib_s"), seq.gib_per_sec());
        }
    }
    println!(
        "(paper 3a, sequential: ZFS ~4.5, ZFS+CSUM ~4, FFS ~6.5, Aurora ~7 GiB/s;\n\
         3b: FFS leads on 4 KiB thanks to fragments, ZFS trails)"
    );

    // (c): metadata operations.
    header(
        "Figure 3(c): file system operations (kops/s)",
        &["fs", "createfiles", "fsync 4 KiB", "fsync 64 KiB"],
    );
    let (create_n, fsync_n) = if quick { (2_000, 500) } else { (20_000, 5_000) };
    for name in FS_NAMES {
        let mut f1 = rebuild(name);
        let create = filebench::createfiles(f1.as_mut(), create_n).unwrap();
        let mut f2 = rebuild(name);
        let fs4 = filebench::fsync_bench(f2.as_mut(), 4 * KIB, fsync_n).unwrap();
        let mut f3 = rebuild(name);
        let fs64 = filebench::fsync_bench(f3.as_mut(), 64 * KIB, fsync_n).unwrap();
        row(&[
            name.to_string(),
            format!("{:.0}k", create.ops_per_sec() / 1e3),
            format!("{:.0}k", fs4.ops_per_sec() / 1e3),
            format!("{:.0}k", fs64.ops_per_sec() / 1e3),
        ]);
        report.push(name, "createfiles_ops_s", create.ops_per_sec());
        report.push(name, "fsync_4k_ops_s", fs4.ops_per_sec());
        report.push(name, "fsync_64k_ops_s", fs64.ops_per_sec());
    }
    println!(
        "(paper: Aurora's createfiles is unoptimized — a global lock — but its\n\
         fsync is a no-op under checkpoint consistency and leads both columns)"
    );

    // (d): simulated applications.
    header(
        "Figure 3(d): simulated applications (kops/s)",
        &["fs", "fileserver", "varmail", "webserver"],
    );
    let (fsrv_n, vm_n, web_n) = if quick { (200, 400, 100) } else { (2_000, 4_000, 1_000) };
    for name in FS_NAMES {
        let mut f1 = rebuild(name);
        let fsrv = filebench::fileserver(f1.as_mut(), 100, fsrv_n, 3).unwrap();
        let mut f2 = rebuild(name);
        let vm = filebench::varmail(f2.as_mut(), 100, vm_n, 3).unwrap();
        let mut f3 = rebuild(name);
        let web = filebench::webserver(f3.as_mut(), 100, web_n, 3).unwrap();
        row(&[
            name.to_string(),
            format!("{:.0}k", fsrv.ops_per_sec() / 1e3),
            format!("{:.0}k", vm.ops_per_sec() / 1e3),
            format!("{:.0}k", web.ops_per_sec() / 1e3),
        ]);
        report.push(name, "fileserver_ops_s", fsrv.ops_per_sec());
        report.push(name, "varmail_ops_s", vm.ops_per_sec());
        report.push(name, "webserver_ops_s", web.ops_per_sec());
    }
    println!(
        "(paper: comparable on fileserver/webserver; Aurora wins varmail\n\
         outright because varmail is fsync-bound and fsync is a no-op)"
    );
    report
}
