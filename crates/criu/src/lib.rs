//! A CRIU-like baseline checkpointer (§2, Tables 1 and 7).
//!
//! CRIU is process-centric: it freezes the tree, then — **from
//! userspace** — walks `/proc` text interfaces per process, *infers*
//! sharing relationships by comparing object identities across processes,
//! and copies all of memory while the application stays stopped. Images
//! are written to disk afterwards without flushing.
//!
//! This baseline implements exactly that architecture over the simulated
//! kernel, with costs calibrated to the paper's measurements of CRIU on
//! Ubuntu 20.04 (Table 1: 49 ms OS state + 413 ms memory copy for a
//! 500 MB Redis): `smaps`-style text parsing per VMA dominates the OS
//! phase, and a ~1.2 GB/s stop-the-world copy dominates the rest.

use aurora_core::oidmap::OidMap;
use aurora_core::{Reach, SlsError, KINDS};
use aurora_objstore::Oid;
use aurora_posix::file::FileKind;
use aurora_posix::{Kernel, Pid};
use aurora_sim::clock::Stopwatch;
use aurora_vm::PAGE_SIZE;
use std::collections::{HashMap, HashSet, VecDeque};

/// Cost calibration for the CRIU-style dump path.
#[derive(Clone, Debug)]
pub struct CriuCosts {
    /// Freezing one process (ptrace seize + stop + wait).
    pub freeze_per_proc_ns: u64,
    /// Parsing one `/proc/<pid>/smaps` VMA entry (open + read + text
    /// parse — the expensive part of CRIU's OS-state phase).
    pub smaps_per_vma_ns: u64,
    /// Collecting one descriptor (readlink + fdinfo + sock_diag).
    pub fdinfo_per_fd_ns: u64,
    /// Comparing one collected object against the dedup tables (sharing
    /// inference).
    pub infer_per_object_ns: u64,
    /// Stop-the-world memory copy bandwidth, bytes/second
    /// (`process_vm_readv`-style).
    pub copy_bytes_per_sec: u64,
    /// Image write bandwidth, bytes/second (page-cache writes, no sync —
    /// Table 1 notes CRIU does not flush).
    pub write_bytes_per_sec: u64,
}

impl Default for CriuCosts {
    fn default() -> Self {
        Self {
            freeze_per_proc_ns: 350_000,
            smaps_per_vma_ns: 300_000,
            fdinfo_per_fd_ns: 60_000,
            infer_per_object_ns: 4_000,
            copy_bytes_per_sec: 1_210_000_000,
            write_bytes_per_sec: 1_430_000_000,
        }
    }
}

/// The phase breakdown the paper reports (Tables 1 and 7).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CriuStats {
    /// OS-state collection time, ns.
    pub os_state_ns: u64,
    /// Memory copy time (inside the stop), ns.
    pub memory_copy_ns: u64,
    /// Total application stop time, ns.
    pub total_stop_ns: u64,
    /// Image write time (after the stop, unsynced), ns.
    pub io_write_ns: u64,
    /// Image size in bytes.
    pub image_bytes: u64,
    /// Processes dumped.
    pub procs: u64,
    /// Objects whose sharing had to be inferred.
    pub inferred_objects: u64,
}

/// A dumped image (enough to validate correctness in tests).
#[derive(Debug, Default)]
pub struct CriuImage {
    /// Per-process memory: pid → (addr, bytes) regions.
    pub memory: HashMap<u32, Vec<(u64, Vec<u8>)>>,
    /// Process tree: (pid, parent pid, name), parents first.
    pub procs: Vec<(u32, Option<u32>, String)>,
    /// Deduplicated descriptor table: inferred-shared description ids.
    pub shared_files: Vec<u64>,
    /// Every reachable kernel object in the checkpoint record format,
    /// produced by the same kind table the SLS serializes through (the
    /// image *format* is shared even though the dump architecture is
    /// not).
    pub os_records: Vec<Vec<u8>>,
    /// Total serialized size (memory regions + OS-state records).
    pub bytes: u64,
}

/// Restore statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CriuRestoreStats {
    /// Total restore time, ns.
    pub total_ns: u64,
    /// Processes recreated.
    pub procs: u64,
    /// Bytes of memory loaded.
    pub bytes: u64,
}

/// Restores a dumped image into `k`: recreates the tree (fork from each
/// parent), maps the regions, and copies the memory back in. Like the
/// real CRIU, the memory load is eager and synchronous — there is no
/// lazy page-in.
pub fn criu_restore(
    k: &mut Kernel,
    image: &CriuImage,
    costs: &CriuCosts,
) -> Result<Vec<Pid>, SlsError> {
    let clock = k.charge.clock().clone();
    let sw = Stopwatch::start(&clock);
    let mut new_pids: Vec<Pid> = Vec::new();
    let mut map: HashMap<u32, Pid> = HashMap::new();
    for (old_pid, parent, name) in &image.procs {
        // CRIU re-executes a restorer binary per process.
        k.charge.raw(costs.freeze_per_proc_ns);
        let pid = match parent.and_then(|p| map.get(&p).copied()) {
            Some(pp) => k.fork(pp)?,
            None => k.spawn(name),
        };
        map.insert(*old_pid, pid);
        new_pids.push(pid);
        if let Some(regions) = image.memory.get(old_pid) {
            for (addr, data) in regions {
                let pages = (data.len() as u64).div_ceil(PAGE_SIZE as u64);
                // Forked children inherit mappings; map only when absent.
                let space = k.proc(pid)?.space;
                if k.vm.space(space)?.entry_at(*addr).is_none() {
                    let obj = k.vm.create_object(
                        aurora_vm::ObjKind::Anonymous,
                        pages,
                    );
                    k.vm.map(
                        space,
                        Some(*addr),
                        pages,
                        aurora_vm::Prot::RW,
                        obj,
                        0,
                        aurora_vm::Inherit::Copy,
                    )?;
                }
                k.mem_write(pid, *addr, data)?;
                k.charge
                    .raw((data.len() as u64).saturating_mul(1_000_000_000) / costs.copy_bytes_per_sec);
            }
        }
    }
    let _stats = CriuRestoreStats {
        total_ns: sw.elapsed_ns(),
        procs: new_pids.len() as u64,
        bytes: image.bytes,
    };
    Ok(new_pids)
}

/// Dumps the tree rooted at `root`, CRIU-style. Returns the stats and the
/// image.
pub fn criu_dump(
    k: &mut Kernel,
    root: Pid,
    costs: &CriuCosts,
) -> Result<(CriuStats, CriuImage), SlsError> {
    let clock = k.charge.clock().clone();
    let mut stats = CriuStats::default();
    let mut image = CriuImage::default();
    let sw_total = Stopwatch::start(&clock);

    // Tree closure (like CRIU's --tree).
    let mut pids = Vec::new();
    let mut queue = VecDeque::from([root]);
    while let Some(pid) = queue.pop_front() {
        let p = k.proc(pid)?;
        pids.push(pid);
        image.procs.push((pid.0, p.ppid.map(|x| x.0), p.name.clone()));
        queue.extend(p.children.iter().copied());
    }

    // Phase 1: freeze every process (the application is stopped from
    // here to the end of the memory copy).
    k.charge.raw(pids.len() as u64 * costs.freeze_per_proc_ns);
    k.quiesce(&pids)?;

    // Phase 2: per-process OS-state collection *with sharing inference*.
    // CRIU cannot see kernel object identity directly; it compares what
    // /proc exposes (inode numbers, socket inodes, map offsets) across
    // every process it has already scanned.
    let sw_os = Stopwatch::start(&clock);
    let mut seen_descriptions: HashSet<u64> = HashSet::new();
    let mut seen_vnodes: HashSet<u64> = HashSet::new();
    for &pid in &pids {
        let p = k.proc(pid)?;
        // smaps walk.
        let vmas = k.vm.entries(p.space)?.len() as u64;
        k.charge.raw(vmas * costs.smaps_per_vma_ns);
        // fd walk + inference.
        let fds: Vec<u64> = p.fdtable.iter().map(|(_, fid)| fid.0).collect();
        k.charge.raw(fds.len() as u64 * costs.fdinfo_per_fd_ns);
        for fid in fds {
            k.charge.raw(costs.infer_per_object_ns);
            stats.inferred_objects += 1;
            if seen_descriptions.insert(fid) {
                image.shared_files.push(fid);
                // Vnode-level inference: does another process have the
                // same file open independently?
                if let Ok(f) = k.files.get(aurora_posix::FileId(fid)) {
                    if let FileKind::Vnode(v) = f.kind {
                        k.charge.raw(costs.infer_per_object_ns);
                        seen_vnodes.insert(v.0);
                    }
                }
            }
        }
    }

    // Phase 2b: serialize every collected object through the same kind
    // table the SLS checkpoint pipeline uses.
    // Two passes: bind a synthetic OID per distinct object key, then
    // encode (records cross-reference each other by OID). The walk and
    // record format are shared with Aurora; only the surrounding
    // architecture (stop-the-world, userspace inference) differs.
    let reach = Reach::collect(k, &pids)?;
    let collected: Vec<Vec<u64>> = KINDS.iter().map(|ops| (ops.collect)(&reach)).collect();
    let mut oids = OidMap::default();
    let mut next_oid = 1u64;
    for (ops, ids) in KINDS.iter().zip(&collected) {
        for &id in ids {
            let key = (ops.key_of)(k, id)?;
            if oids.get(key).is_none() {
                oids.bind(key, Oid(next_oid));
                next_oid += 1;
            }
        }
    }
    for (ops, ids) in KINDS.iter().zip(&collected) {
        for &id in ids {
            let rec = (ops.encode)(k, id, &oids)?;
            image.bytes += rec.len() as u64;
            image.os_records.push(rec);
        }
    }
    stats.os_state_ns = sw_os.elapsed_ns();

    // Phase 3: memory copy, still stopped. CRIU has no COW tracking, so
    // the whole resident set is copied inside the stop window.
    let sw_copy = Stopwatch::start(&clock);
    for &pid in &pids {
        let space = k.proc(pid)?.space;
        let entries: Vec<_> = k.vm.entries(space)?.to_vec();
        let mut regions = Vec::new();
        for e in &entries {
            let pages = (e.end - e.start) / PAGE_SIZE as u64;
            let (data, copied) = k.vm.read_nofault(e.object, e.offset_pages, pages)?;
            let bytes = copied * PAGE_SIZE as u64;
            k.charge.raw(bytes.saturating_mul(1_000_000_000) / costs.copy_bytes_per_sec);
            image.bytes += bytes;
            regions.push((e.start, data));
        }
        image.memory.insert(pid.0, regions);
    }
    stats.memory_copy_ns = sw_copy.elapsed_ns();

    // The application resumes only now.
    k.resume(&pids)?;
    stats.total_stop_ns = sw_total.elapsed_ns();

    // Phase 4: write the images (unsynchronized page-cache writes).
    stats.io_write_ns = image.bytes.saturating_mul(1_000_000_000) / costs.write_bytes_per_sec;
    k.charge.raw(stats.io_write_ns);
    stats.image_bytes = image.bytes;
    stats.procs = pids.len() as u64;
    Ok((stats, image))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aurora_vm::Prot;

    #[test]
    fn dump_restore_roundtrip() {
        let mut k = Kernel::boot();
        let p = k.spawn("app");
        let addr = k.mmap_anon(p, 8, Prot::RW).unwrap();
        k.mem_write(p, addr, b"criu image bytes").unwrap();
        let (_stats, image) = criu_dump(&mut k, p, &CriuCosts::default()).unwrap();

        let mut k2 = Kernel::boot();
        let restored = criu_restore(&mut k2, &image, &CriuCosts::default()).unwrap();
        assert_eq!(restored.len(), 1);
        let mut buf = [0u8; 16];
        k2.mem_read(restored[0], addr, &mut buf).unwrap();
        assert_eq!(&buf, b"criu image bytes");
    }

    #[test]
    fn restore_rebuilds_the_tree() {
        let mut k = Kernel::boot();
        let root = k.spawn("root");
        let child = k.fork(root).unwrap();
        let _grand = k.fork(child).unwrap();
        let (_s, image) = criu_dump(&mut k, root, &CriuCosts::default()).unwrap();

        let mut k2 = Kernel::boot();
        let restored = criu_restore(&mut k2, &image, &CriuCosts::default()).unwrap();
        assert_eq!(restored.len(), 3);
        assert_eq!(k2.proc(restored[1]).unwrap().ppid, Some(restored[0]));
        assert_eq!(k2.proc(restored[2]).unwrap().ppid, Some(restored[1]));
    }

    #[test]
    fn dump_copies_all_memory_during_stop() {
        let mut k = Kernel::boot();
        let p = k.spawn("victim");
        let addr = k.mmap_anon(p, 256, Prot::RW).unwrap();
        k.mem_touch(p, addr, 256 * PAGE_SIZE as u64).unwrap();
        k.mem_write(p, addr, b"criu sees this").unwrap();
        let (stats, image) = criu_dump(&mut k, p, &CriuCosts::default()).unwrap();
        assert_eq!(stats.procs, 1);
        let os_bytes: u64 = image.os_records.iter().map(|r| r.len() as u64).sum();
        assert!(!image.os_records.is_empty(), "OS state serialized via the kind table");
        assert_eq!(stats.image_bytes, 256 * PAGE_SIZE as u64 + os_bytes);
        let regions = &image.memory[&p.0];
        assert_eq!(&regions[0].1[..14], b"criu sees this");
        // Memory copy dominates the stop (the Table 1 shape).
        assert!(stats.memory_copy_ns > stats.os_state_ns / 100);
        assert!(stats.total_stop_ns >= stats.os_state_ns + stats.memory_copy_ns);
    }

    #[test]
    fn stop_time_scales_with_memory_unlike_aurora() {
        let mut times = Vec::new();
        for pages in [64u64, 1024] {
            let mut k = Kernel::boot();
            let p = k.spawn("app");
            let addr = k.mmap_anon(p, pages, Prot::RW).unwrap();
            k.mem_touch(p, addr, pages * PAGE_SIZE as u64).unwrap();
            let (stats, _) = criu_dump(&mut k, p, &CriuCosts::default()).unwrap();
            times.push(stats.total_stop_ns);
        }
        assert!(
            times[1] > times[0] * 4,
            "CRIU stop time must grow with the resident set: {times:?}"
        );
    }

    #[test]
    fn sharing_is_inferred_not_free() {
        let mut k = Kernel::boot();
        let p = k.spawn("parent");
        use aurora_posix::file::OpenFlags;
        let _fd = k.open(p, "/f", OpenFlags::RDWR, true).unwrap();
        let _c = k.fork(p).unwrap();
        let (stats, image) = criu_dump(&mut k, p, &CriuCosts::default()).unwrap();
        // Both processes present the fd; inference dedups to one.
        assert_eq!(stats.inferred_objects, 2, "each process's fd is scanned");
        assert_eq!(image.shared_files.len(), 1, "deduplicated to one description");
    }
}
