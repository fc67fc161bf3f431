//! Checkpoint stats and the shared reachability scan (§4–6). The actual
//! work happens in [`crate::pipeline::GroupRun`], driven by
//! [`Sls::checkpoint_all`]; every per-object-kind operation goes through
//! the [`crate::kinds::KINDS`] table.

use crate::{GroupId, Sls, SlsError};
use aurora_posix::file::FileKind;
use aurora_posix::{Kernel, Pid, Tid};
use aurora_vm::ObjId;
use std::collections::{BTreeSet, VecDeque};

/// Where and why a checkpoint gave up: the failing stage, how many
/// attempts it got (retries included), and the final error. Recorded in
/// [`CheckpointStats::failure`] when a checkpoint aborts after
/// exhausting its retries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageFailure {
    /// The pipeline stage that failed ("flush", "commit").
    pub stage: &'static str,
    /// Consistency group whose draft epoch rolled back — with several
    /// epochs concurrently in flight, the abort report must say whose.
    pub group: u64,
    /// Attempts made before giving up (first try + retries).
    pub attempts: u32,
    /// The error the final attempt returned.
    pub cause: SlsError,
}

/// What one checkpoint did and cost, with the per-stage breakdown of
/// the pipeline. The first six stage timings sum exactly to
/// [`stop_time_ns`](CheckpointStats::stop_time_ns); all nine sum to
/// [`stage_total_ns`](CheckpointStats::stage_total_ns).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Store epoch of this checkpoint.
    pub epoch: u64,
    /// Consistency group this checkpoint covered.
    pub group: u64,
    /// First (full) checkpoint of the group?
    pub full: bool,
    /// Total application stop time (quiesce → resume), ns.
    pub stop_time_ns: u64,
    /// Stage 1 — quiescing every member, ns.
    pub quiesce_ns: u64,
    /// Stage 2 — collapsing the shadows retired by the previous
    /// checkpoint, ns.
    pub collapse_ns: u64,
    /// Stage 3 — draining in-flight asynchronous writes, ns.
    pub aio_ns: u64,
    /// Stage 4 — serializing OS state (scan + OID assignment + encode),
    /// ns.
    pub os_state_ns: u64,
    /// Stage 5 — shadowing memory (PTE COW marking + TLB), ns.
    pub shadow_ns: u64,
    /// Stage 6 — resuming the application, ns.
    pub resume_ns: u64,
    /// Stage 7 — flushing records and pages, concurrent with execution,
    /// ns.
    pub flush_ns: u64,
    /// Stage 8 — sealing outbound messages (external synchrony), ns.
    pub seal_ns: u64,
    /// Stage 9 — committing the store epoch, ns.
    pub commit_ns: u64,
    /// POSIX objects serialized.
    pub objects: u64,
    /// Pages flushed to the store.
    pub pages_flushed: u64,
    /// Data bytes flushed.
    pub bytes_flushed: u64,
    /// Virtual time at which the checkpoint is durable.
    pub durable_at: u64,
    /// Frames shared (refcount ≥ 2) during the checkpoint, sampled right
    /// after the flush stage: the frozen epoch's pages now aliased by the
    /// store's page cache — proof the flush moved them by reference.
    pub shared_frames: u64,
    /// Transient-error retries spent across the device-facing stages.
    pub retries: u32,
    /// Set when the checkpoint aborted after exhausting retries. The
    /// live world was rolled back and stays checkpointable; `epoch` and
    /// `durable_at` are meaningless when this is `Some`.
    pub failure: Option<StageFailure>,
}

impl CheckpointStats {
    /// True when this checkpoint committed an epoch (no failure).
    pub fn committed(&self) -> bool {
        self.failure.is_none()
    }
    /// The nine pipeline stages with their timings, pipeline order.
    pub fn stages(&self) -> [(&'static str, u64); 9] {
        [
            ("quiesce", self.quiesce_ns),
            ("collapse", self.collapse_ns),
            ("aio-drain", self.aio_ns),
            ("serialize", self.os_state_ns),
            ("shadow", self.shadow_ns),
            ("resume", self.resume_ns),
            ("flush", self.flush_ns),
            ("seal", self.seal_ns),
            ("commit", self.commit_ns),
        ]
    }

    /// Total time across all nine stages
    /// (= `stop_time_ns + flush_ns + seal_ns + commit_ns`).
    pub fn stage_total_ns(&self) -> u64 {
        self.stages().iter().map(|(_, ns)| ns).sum()
    }
}

/// Everything reachable from a consistency group — the input to the
/// exactly-once serialization scan (§5.2). Shared by the checkpoint
/// pipeline, the coredump exporter, and the CRIU baseline.
#[derive(Debug, Default)]
pub struct Reach {
    /// Member processes.
    pub procs: Vec<Pid>,
    /// Their threads.
    pub threads: Vec<Tid>,
    /// Reachable open-file descriptions (including in-flight ones).
    pub files: Vec<u64>,
    /// The whole file-system namespace (every descriptor's vnode is in
    /// it).
    pub vnodes: BTreeSet<u64>,
    /// Reachable pipes.
    pub pipes: BTreeSet<u64>,
    /// Reachable sockets.
    pub sockets: BTreeSet<u64>,
    /// Reachable kqueues.
    pub kqueues: BTreeSet<u64>,
    /// Reachable pseudoterminals.
    pub ptys: BTreeSet<u64>,
    /// Reachable POSIX shm objects.
    pub shm_posix: BTreeSet<u64>,
    /// Reachable SysV shm segments.
    pub shm_sysv: BTreeSet<u64>,
    /// Every VM object in every reachable chain, deduplicated,
    /// top-down.
    pub mem_objs: Vec<ObjId>,
}

impl Reach {
    /// Walks the object graph from the group's persistent processes.
    pub fn collect(k: &Kernel, pids: &[Pid]) -> Result<Reach, SlsError> {
        // The whole file-system namespace: the Aurora FS is itself part
        // of the single level store, so every vnode persists (§5.2).
        let vnodes = k.vfs.vnode_ids().into_iter().map(|v| v.0).collect();
        let mut r = Reach { procs: pids.to_vec(), vnodes, ..Reach::default() };
        let mut seen_files: BTreeSet<u64> = BTreeSet::new();
        let mut file_queue: VecDeque<u64> = VecDeque::new();
        let mut seen_mem: BTreeSet<u64> = BTreeSet::new();

        let add_chain = |k: &Kernel, top: ObjId, seen: &mut BTreeSet<u64>, out: &mut Vec<ObjId>|
         -> Result<(), SlsError> {
            out.extend(k.vm.chain_of(top)?.into_iter().filter(|obj| seen.insert(obj.0)));
            Ok(())
        };

        for &pid in pids {
            let p = k.proc(pid)?;
            r.threads.extend(p.threads.iter().copied());
            for (_, fid) in p.fdtable.iter() {
                if seen_files.insert(fid.0) {
                    file_queue.push_back(fid.0);
                }
            }
            for entry in k.vm.entries(p.space)? {
                add_chain(k, entry.object, &mut seen_mem, &mut r.mem_objs)?;
            }
        }

        // Chase files, including descriptors in flight inside socket
        // buffers (SCM_RIGHTS, §5.3) — those can reference further
        // sockets carrying further descriptors.
        while let Some(fid) = file_queue.pop_front() {
            r.files.push(fid);
            let f = k.files.get(aurora_posix::FileId(fid))?;
            match f.kind {
                FileKind::Pipe { pipe, .. } => {
                    r.pipes.insert(pipe);
                }
                FileKind::Socket(s) => {
                    if r.sockets.insert(s) {
                        let sock = k.sockets.get(s)?;
                        for m in sock.recv_buf.iter().chain(sock.send_buf.iter()) {
                            for inflight in &m.fds {
                                if seen_files.insert(inflight.0) {
                                    file_queue.push_back(inflight.0);
                                }
                            }
                        }
                    }
                }
                FileKind::Kqueue(q) => {
                    r.kqueues.insert(q);
                }
                FileKind::Pty { pty, .. } => {
                    r.ptys.insert(pty);
                }
                FileKind::ShmPosix(id) => {
                    r.shm_posix.insert(id);
                    if let Some(shm) = k.shm.posix.get(&id) {
                        add_chain(k, shm.object, &mut seen_mem, &mut r.mem_objs)?;
                    }
                }
                FileKind::Vnode(_) | FileKind::Device(_) => {}
            }
        }

        // SysV segments attached by the group (their objects are already
        // in reachable chains).
        for (id, seg) in &k.shm.sysv {
            if seen_mem.contains(&seg.object.0) {
                r.shm_sysv.insert(*id);
            }
        }
        // POSIX shm reachable purely through a mapping (fd closed after
        // mmap): pick up registry entries whose object we saw.
        for (id, seg) in &k.shm.posix {
            if seen_mem.contains(&seg.object.0) {
                r.shm_posix.insert(*id);
            }
        }
        Ok(r)
    }
}

impl Sls {
    /// Takes a checkpoint of the group right now (`sls checkpoint`). The
    /// first checkpoint is full; later ones are incremental.
    pub fn checkpoint_now(&mut self, gid: GroupId) -> Result<CheckpointStats, SlsError> {
        Ok(self.checkpoint_all(&[gid])?.remove(0))
    }
}
