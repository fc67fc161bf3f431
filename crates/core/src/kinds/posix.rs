//! The POSIX kinds (§5.2–5.3): for each, the record — fields in wire
//! order — and how a live kernel object becomes one and back.
//!
//! `capture` charges the virtual clock with the lock acquisitions,
//! cache-missing pointer chases, and per-element scans the real kernel
//! pays (Table 4's calibration); `install` charges allocation-side
//! costs. In-flight descriptors inside socket buffers are wired up by
//! the post-restore pass once the whole population exists.

use super::vm::flush_pages;
use super::{AssignCtx, FlushCtx, KindDef, Rebuild};
use crate::checkpoint::Reach;
use crate::error::SlsError;
use crate::oidmap::{KObj, Kind, OidMap};
use crate::wire::{record, Wire};
use aurora_objstore::{Oid, PAGE};
use aurora_posix::aio::AioKind;
use aurora_posix::fd::{Fd, FdTable};
use aurora_posix::file::{FileId, FileKind, OpenFile, OpenFlags, PipeEnd, PtySide};
use aurora_posix::kqueue::{Filter, Kevent, Kqueue};
use aurora_posix::pipe::Pipe;
use aurora_posix::process::{sig, Process, Regs, Thread};
use aurora_posix::pty::{Pty, Termios};
use aurora_posix::shm::{PosixShm, SysvShm};
use aurora_posix::socket::{Domain, InetAddr, Message, SockOpts, SockType, Socket, TcpState};
use aurora_posix::vfs::{Vnode, VnodeKind};
use aurora_posix::{Kernel, Pid, Tid, VnodeId};
use aurora_sim::codec::{Decoder, Encoder};
use aurora_vm::{Inherit, ObjId, ObjKind, Prot};
use std::collections::VecDeque;

/// The object a restored reference should have produced.
const DANGLING: SlsError = SlsError::BadImage("dangling object reference");

/// Counts one more fd slot or in-flight message holding `fid`.
fn add_file_ref(k: &mut Kernel, fid: FileId) -> Result<(), SlsError> {
    k.files.get_mut(fid).map_err(|_| DANGLING)?.refs += 1;
    Ok(())
}

record! {
    /// One VM map entry in a process record.
    #[derive(Copy)]
    pub struct EntryRecord {
        /// Start address.
        pub start: u64,
        /// End address.
        pub end: u64,
        /// Protection bits.
        pub prot: u8,
        /// Inheritance across `fork`.
        pub inherit: Inherit,
        /// Offset into the object, pages.
        pub offset_pages: u64,
        /// Memory object OID (top of the entry's chain).
        pub mem: Oid,
        /// Excluded from checkpoints.
        pub sls_exclude: bool,
    }
}

record! {
    /// A process record.
    pub struct ProcRecord = Kind::Proc as u16, v 2 {
        /// The process had ephemeral (non-persistent) children at
        /// checkpoint time; a restore posts SIGCHLD so it can recreate
        /// them (§3).
        pub had_ephemeral_children: bool,
        /// Application-visible pid.
        pub local_pid: u32,
        /// Parent's *local* pid, if the parent is in the group.
        pub parent_local: Option<u32>,
        /// Process group (local).
        pub pgid: u32,
        /// Session (local).
        pub sid: u32,
        /// Command name.
        pub name: String,
        /// Thread records, in creation order.
        pub threads: Vec<Oid>,
        /// Descriptor table: (fd number, file OID).
        pub fds: Vec<(u32, Oid)>,
        /// VM map entries.
        pub entries: Vec<EntryRecord>,
        /// In-flight asynchronous reads, recorded so the restore can
        /// reissue them (§5.3): (file OID, offset, length).
        pub aio_reads: Vec<(Oid, u64, u64)>,
    }
}

impl KindDef for ProcRecord {
    const KIND: Kind = Kind::Proc;

    fn collect(reach: &Reach) -> Vec<u64> {
        reach.procs.iter().map(|p| p.0 as u64).collect()
    }

    /// In-flight asynchronous *reads* are recorded for reissue at
    /// restore; in-flight writes were already folded into the checkpoint
    /// by the quiesce path (§5.3).
    fn capture(k: &Kernel, id: u64, oids: &OidMap) -> Result<Self, SlsError> {
        let pid = Pid(id as u32);
        let p = k.proc(pid)?;
        // Proc lock, fd table lock, map lock; pointer chases across the
        // proc/fdtable/vmspace structures.
        k.charge.locks(3);
        k.charge.misses(12 + p.threads.len() as u64 + p.fdtable.len() as u64);
        let file_oid = |fid: FileId| oids.require(KObj(Kind::File, fid.0));
        Ok(ProcRecord {
            had_ephemeral_children: p
                .children
                .iter()
                .any(|&c| k.proc(c).is_ok_and(|cp| cp.ephemeral)),
            local_pid: p.local_pid.0,
            parent_local: p.ppid.and_then(|pp| k.proc(pp).ok()).map(|pp| pp.local_pid.0),
            pgid: p.pgid.0,
            sid: p.sid.0,
            name: p.name.clone(),
            threads: p
                .threads
                .iter()
                .map(|t| oids.require(KObj(Kind::Thread, t.0 as u64)))
                .collect::<Result<_, _>>()?,
            fds: p
                .fdtable
                .iter()
                .map(|(fd, fid)| Ok((fd.0, file_oid(fid)?)))
                .collect::<Result<_, SlsError>>()?,
            entries: k
                .vm
                .entries(p.space)?
                .iter()
                .map(|en| {
                    let lineage = k.vm.object(en.object)?.lineage;
                    Ok(EntryRecord {
                        start: en.start,
                        end: en.end,
                        prot: en.prot.0,
                        inherit: en.inherit,
                        offset_pages: en.offset_pages,
                        mem: oids.require(KObj(Kind::Mem, lineage.0))?,
                        sls_exclude: en.sls_exclude,
                    })
                })
                .collect::<Result<_, SlsError>>()?,
            aio_reads: k
                .aio
                .ops
                .iter()
                .filter(|op| op.pid == pid.0 && op.kind == AioKind::Read)
                .map(|op| Ok((file_oid(op.file)?, op.offset, op.len)))
                .collect::<Result<_, SlsError>>()?,
        })
    }

    fn install(&self, cx: &mut Rebuild<'_>, _oid: Oid) -> Result<u64, SlsError> {
        // Referenced objects first: the descriptor table's files (each
        // recursing into its target) and the map entries' memory chains.
        let files = cx.restore_all(Kind::File, self.fds.iter().map(|(_, foid)| *foid))?;
        let objs = cx.restore_all(Kind::Mem, self.entries.iter().map(|e| e.mem))?;
        let k = &mut cx.sls.kernel;
        // Global pid: reserve the checkpoint-time value when free; the
        // application sees its local pid either way (§5.3).
        let global = if k.pid_alloc.reserve(self.local_pid).is_ok() {
            Pid(self.local_pid)
        } else {
            Pid(k.pid_alloc.alloc())
        };
        cx.pid_ns.insert(self.local_pid, global.0);
        let space = k.vm.create_space();
        for (e, obj) in self.entries.iter().zip(objs) {
            let obj = ObjId(obj);
            k.vm.ref_object(obj)?;
            let pages = (e.end - e.start) / aurora_vm::PAGE_SIZE as u64;
            k.vm.map(space, Some(e.start), pages, Prot(e.prot), obj, e.offset_pages, e.inherit)?;
            if e.sls_exclude {
                k.vm.set_sls_exclude(space, e.start, true)?;
            }
        }
        // Register state belongs to the process image: threads restore
        // here, under their owner.
        cx.owner = Some(global);
        let threads = cx.restore_all(Kind::Thread, self.threads.iter().copied())?;
        let k = &mut cx.sls.kernel;
        let mut fdtable = FdTable::new();
        for ((fdno, _), fid) in self.fds.iter().zip(files) {
            fdtable.install_at(Fd(*fdno), FileId(fid));
            add_file_ref(k, FileId(fid))?;
        }
        // Parents restore before children (manifest order), so the
        // parent's local pid already resolves.
        let parent_global = self.parent_local.map(|l| Pid(cx.pid_ns.global_of(l)));
        let process = Process::new(global, self.name.clone(), space, fdtable);
        k.procs.insert(
            global,
            Process {
                local_pid: Pid(self.local_pid),
                ppid: parent_global,
                pgid: Pid(self.pgid),
                sid: Pid(self.sid),
                threads: threads.into_iter().map(|t| Tid(t as u32)).collect(),
                ns: cx.kernel_ns,
                // The ephemeral child "exited" from the parent's point
                // of view (§3).
                sigpending: if self.had_ephemeral_children { sig::bit(sig::SIGCHLD) } else { 0 },
                ..process
            },
        );
        if let Some(pp) = parent_global {
            if let Ok(parent) = k.proc_mut(pp) {
                parent.children.push(global);
            }
        }
        // Reissue recorded asynchronous reads (§5.3).
        for (foid, off, len) in &self.aio_reads {
            let fid = FileId(cx.restore(Kind::File, *foid)?);
            cx.sls.kernel.aio.issue(global.0, fid, *off, *len, AioKind::Read);
        }
        cx.sls.kernel.charge.allocs(3);
        cx.sls.kernel.charge.locks(2);
        cx.new_pids.push(global);
        Ok(global.0 as u64)
    }
}

record! {
    /// A thread record.
    pub struct ThreadRecord = Kind::Thread as u16, v 1 {
        /// Application-visible tid.
        pub local_tid: u32,
        /// Signal mask.
        pub sigmask: u64,
        /// Pending signals.
        pub sigpending: u64,
        /// Scheduling priority.
        pub priority: i8,
        /// CPU state.
        pub regs: Regs,
    }
}

impl KindDef for ThreadRecord {
    const KIND: Kind = Kind::Thread;

    fn collect(reach: &Reach) -> Vec<u64> {
        reach.threads.iter().map(|t| t.0 as u64).collect()
    }

    fn capture(k: &Kernel, id: u64, _oids: &OidMap) -> Result<Self, SlsError> {
        let t = k.threads.get(&Tid(id as u32)).ok_or(SlsError::BadImage("no such thread"))?;
        k.charge.locks(1);
        k.charge.misses(6);
        Ok(ThreadRecord {
            local_tid: t.local_tid.0,
            sigmask: t.sigmask,
            sigpending: t.sigpending,
            priority: t.priority,
            regs: t.regs.clone(),
        })
    }

    fn install(&self, cx: &mut Rebuild<'_>, _oid: Oid) -> Result<u64, SlsError> {
        let pid = cx.owner.ok_or(SlsError::BadImage("thread outside a process"))?;
        let k = &mut cx.sls.kernel;
        let tid = if k.tid_alloc.reserve(self.local_tid).is_ok() {
            Tid(self.local_tid)
        } else {
            Tid(k.tid_alloc.alloc())
        };
        k.threads.insert(
            tid,
            Thread {
                local_tid: Tid(self.local_tid),
                sigmask: self.sigmask,
                sigpending: self.sigpending,
                priority: self.priority,
                regs: self.regs.clone(),
                ..Thread::new(tid, pid)
            },
        );
        k.charge.allocs(2);
        Ok(tid.0 as u64)
    }
}

/// What a file record's description points at, by OID.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileTarget {
    /// Regular file/directory.
    Vnode(Oid),
    /// One pipe end.
    Pipe(Oid, bool /* read end */),
    /// Socket.
    Socket(Oid),
    /// Kqueue.
    Kqueue(Oid),
    /// Pty side.
    Pty(Oid, bool /* master */),
    /// POSIX shm object.
    ShmPosix(Oid),
    /// Whitelisted device.
    Device(u64),
}

/// Kind byte, OID (or device number), one auxiliary byte.
impl Wire for FileTarget {
    fn put(&self, e: &mut Encoder) {
        let (kind, oid, aux) = match *self {
            FileTarget::Vnode(o) => (0u8, o.0, false),
            FileTarget::Pipe(o, read) => (1, o.0, read),
            FileTarget::Socket(o) => (2, o.0, false),
            FileTarget::Kqueue(o) => (3, o.0, false),
            FileTarget::Pty(o, master) => (4, o.0, master),
            FileTarget::ShmPosix(o) => (5, o.0, false),
            FileTarget::Device(d) => (6, d, false),
        };
        e.u8(kind);
        e.u64(oid);
        e.bool(aux);
    }

    fn get(d: &mut Decoder<'_>) -> Result<Self, SlsError> {
        let (kind, oid, aux) = (d.u8()?, Oid(d.u64()?), d.bool()?);
        Ok(match kind {
            0 => FileTarget::Vnode(oid),
            1 => FileTarget::Pipe(oid, aux),
            2 => FileTarget::Socket(oid),
            3 => FileTarget::Kqueue(oid),
            4 => FileTarget::Pty(oid, aux),
            5 => FileTarget::ShmPosix(oid),
            6 => FileTarget::Device(oid.0),
            _ => return Err(SlsError::BadImage("file kind")),
        })
    }
}

fn flags_bits(f: OpenFlags) -> u8 {
    (f.read as u8) | (f.write as u8) << 1 | (f.append as u8) << 2 | (f.nonblock as u8) << 3
}

fn flags_from(b: u8) -> OpenFlags {
    OpenFlags { read: b & 1 != 0, write: b & 2 != 0, append: b & 4 != 0, nonblock: b & 8 != 0 }
}

record! {
    /// An open-file description record.
    pub struct FileRecord = Kind::File as u16, v 1 {
        /// What the description points at.
        pub target: FileTarget,
        /// Seek offset.
        pub offset: u64,
        /// read/write/append/nonblock bits.
        pub flags: u8,
        /// External synchrony disabled (`sls_fdctl`).
        pub extsync_disabled: bool,
    }
}

impl KindDef for FileRecord {
    const KIND: Kind = Kind::File;

    fn collect(reach: &Reach) -> Vec<u64> {
        reach.files.clone()
    }

    fn capture(k: &Kernel, id: u64, oids: &OidMap) -> Result<Self, SlsError> {
        let f = k.files.get(FileId(id))?;
        k.charge.locks(1);
        k.charge.misses(5);
        let oid = |kind, id| oids.require(KObj(kind, id));
        let target = match f.kind {
            FileKind::Vnode(v) => FileTarget::Vnode(oid(Kind::Vnode, v.0)?),
            FileKind::Pipe { pipe, end } => {
                FileTarget::Pipe(oid(Kind::Pipe, pipe)?, end == PipeEnd::Read)
            }
            FileKind::Socket(s) => FileTarget::Socket(oid(Kind::Socket, s)?),
            FileKind::Kqueue(q) => FileTarget::Kqueue(oid(Kind::Kqueue, q)?),
            FileKind::Pty { pty, side } => {
                FileTarget::Pty(oid(Kind::Pty, pty)?, side == PtySide::Master)
            }
            FileKind::ShmPosix(s) => FileTarget::ShmPosix(oid(Kind::ShmPosix, s)?),
            // Whitelisted devices are pass-throughs, not persisted objects.
            FileKind::Device(d) => FileTarget::Device(d),
        };
        Ok(FileRecord {
            target,
            offset: f.offset,
            flags: flags_bits(f.flags),
            extsync_disabled: f.extsync_disabled,
        })
    }

    fn install(&self, cx: &mut Rebuild<'_>, _oid: Oid) -> Result<u64, SlsError> {
        // The target first.
        let kind = match self.target {
            FileTarget::Vnode(v) => {
                let ino = VnodeId(cx.restore(Kind::Vnode, v)?);
                cx.sls.kernel.vfs.open_ref(ino)?;
                FileKind::Vnode(ino)
            }
            FileTarget::Pipe(p, read) => FileKind::Pipe {
                pipe: cx.restore(Kind::Pipe, p)?,
                end: if read { PipeEnd::Read } else { PipeEnd::Write },
            },
            FileTarget::Socket(s) => FileKind::Socket(cx.restore(Kind::Socket, s)?),
            FileTarget::Kqueue(q) => FileKind::Kqueue(cx.restore(Kind::Kqueue, q)?),
            FileTarget::Pty(p, master) => {
                let pty = cx.restore(Kind::Pty, p)?;
                cx.sls.kernel.ptys.get_mut(pty)?.open_refs += 1;
                FileKind::Pty { pty, side: if master { PtySide::Master } else { PtySide::Slave } }
            }
            FileTarget::ShmPosix(s) => FileKind::ShmPosix(cx.restore(Kind::ShmPosix, s)?),
            FileTarget::Device(d) => FileKind::Device(d),
        };
        let k = &mut cx.sls.kernel;
        let fid = k.files.insert(OpenFile {
            offset: self.offset,
            refs: 0, // counted as fd slots / in-flight references install
            extsync_disabled: self.extsync_disabled,
            ..OpenFile::new(kind, flags_from(self.flags))
        });
        k.charge.allocs(1);
        Ok(fid.0)
    }
}

record! {
    /// A vnode record. A regular file's content object is stored as the
    /// same store object's pages; this record holds metadata and
    /// directory entries.
    pub struct VnodeRecord = Kind::Vnode as u16, v 1 {
        /// Inode number (the checkpoint references inodes, not paths,
        /// §5.2).
        pub ino: u64,
        /// Directory?
        pub is_dir: bool,
        /// Directory link count.
        pub nlink: u32,
        /// Hidden link count: open references that keep anonymous files
        /// alive across crashes (§5.2).
        pub open_refs: u32,
        /// File size in bytes.
        pub size: u64,
        /// Directory entries (name, child ino).
        pub dirents: Vec<(String, u64)>,
    }
}

impl KindDef for VnodeRecord {
    const KIND: Kind = Kind::Vnode;

    fn collect(reach: &Reach) -> Vec<u64> {
        reach.vnodes.iter().copied().collect()
    }

    /// Checkpointing references the inode number instead of the file
    /// path, skipping the name cache and `namei` (§5.2).
    fn capture(k: &Kernel, ino: u64, _oids: &OidMap) -> Result<Self, SlsError> {
        let v = k.vfs.vnode(VnodeId(ino))?;
        k.charge.locks(1);
        k.charge.misses(8);
        let (size, dirents) = match &v.kind {
            VnodeKind::Regular { size, .. } => (*size, Vec::new()),
            VnodeKind::Directory { entries } => {
                (0, entries.iter().map(|(name, child)| (name.clone(), child.0)).collect())
            }
        };
        Ok(VnodeRecord {
            ino,
            is_dir: matches!(v.kind, VnodeKind::Directory { .. }),
            nlink: v.nlink,
            open_refs: v.open_refs,
            size,
            dirents,
        })
    }

    /// A regular file the group persists for the first time is owed
    /// whole: another group's flush may have cleaned its pages.
    fn assign_oid(ctx: &mut AssignCtx<'_>, ino: u64) -> Result<Oid, SlsError> {
        let key = KObj(Kind::Vnode, ino);
        if let Some(oid) = ctx.oids.get(key) {
            return Ok(oid);
        }
        if let VnodeKind::Regular { obj, .. } = ctx.kernel.vfs.vnode(VnodeId(ino))?.kind {
            ctx.owed.persisted_first(&ctx.kernel.vm, obj)?;
        }
        Ok(ctx.oids.get_or_create(ctx.store, key)?)
    }

    /// Flushes each regular file's dirty content pages, and the ones the
    /// group owes, under the vnode's own OID through the same path as
    /// memory pages.
    fn flush(ctx: &mut FlushCtx<'_>) -> Result<(), SlsError> {
        let (reach, owed) = (ctx.reach, ctx.owed);
        for &v in &reach.vnodes {
            let VnodeKind::Regular { obj, .. } = ctx.kernel.vfs.vnode(VnodeId(v))?.kind else {
                continue;
            };
            let oid = ctx.oids.require(KObj(Kind::Vnode, v))?;
            let dirty = ctx.kernel.vm.dirty_page_indices(obj)?;
            flush_pages(ctx, obj, oid, &dirty, &owed.of(obj))?;
        }
        Ok(())
    }

    fn install(&self, cx: &mut Rebuild<'_>, oid: Oid) -> Result<u64, SlsError> {
        let kind = if self.is_dir {
            VnodeKind::Directory {
                entries: self.dirents.iter().map(|(n, ino)| (n.clone(), VnodeId(*ino))).collect(),
            }
        } else {
            let content = ObjKind::Vnode { vnode: self.ino };
            let obj = cx.install_object(oid, content, self.size.div_ceil(PAGE as u64))?;
            cx.sls.kernel.vm.ref_object(obj)?; // the vnode's reference
            VnodeKind::Regular { obj, size: self.size }
        };
        let k = &mut cx.sls.kernel;
        k.charge.allocs(2);
        k.charge.locks(1);
        k.insert_vnode(Vnode {
            id: VnodeId(self.ino),
            kind,
            nlink: self.nlink,
            open_refs: 0, // re-counted as descriptions reference it
        })?;
        Ok(self.ino)
    }
}

record! {
    /// A pipe record.
    pub struct PipeRecord = Kind::Pipe as u16, v 1 {
        /// Capacity in bytes.
        pub capacity: u64,
        /// Reader end open.
        pub reader_open: bool,
        /// Writer end open.
        pub writer_open: bool,
        /// Buffered bytes.
        pub buffer: Vec<u8>,
    }
}

impl KindDef for PipeRecord {
    const KIND: Kind = Kind::Pipe;

    fn collect(reach: &Reach) -> Vec<u64> {
        reach.pipes.iter().copied().collect()
    }

    fn capture(k: &Kernel, id: u64, _oids: &OidMap) -> Result<Self, SlsError> {
        let p = k.pipes.get(id)?;
        k.charge.locks(2);
        k.charge.misses(14);
        Ok(PipeRecord {
            capacity: p.capacity as u64,
            reader_open: p.reader_open,
            writer_open: p.writer_open,
            buffer: p.buffer.iter().copied().collect(),
        })
    }

    fn install(&self, cx: &mut Rebuild<'_>, _oid: Oid) -> Result<u64, SlsError> {
        let k = &mut cx.sls.kernel;
        k.charge.allocs(2);
        k.charge.locks(1);
        k.charge.misses(10);
        Ok(k.pipes.insert(Pipe {
            buffer: self.buffer.iter().copied().collect(),
            capacity: self.capacity as usize,
            reader_open: self.reader_open,
            writer_open: self.writer_open,
        }))
    }
}

/// Socket-buffer messages on the wire: (payload, in-flight descriptor
/// OIDs).
type Msgs = Vec<(Vec<u8>, Vec<Oid>)>;

record! {
    /// A socket record (§5.3): address/port/options/buffers for UDP and
    /// UNIX; the 5-tuple, sequence numbers, and buffers for established
    /// TCP. The accept queue of listening sockets is deliberately
    /// omitted: clients retransmit.
    pub struct SocketRecord = Kind::Socket as u16, v 1 {
        /// Domain.
        pub domain: Domain,
        /// Type.
        pub stype: SockType,
        /// nodelay, reuseaddr, keepalive.
        pub opts: (bool, bool, bool),
        /// Bound UNIX path.
        pub unix_path: Option<String>,
        /// Local (ip, port).
        pub local: (u32, u16),
        /// Remote (ip, port).
        pub remote: (u32, u16),
        /// TCP state.
        pub tcp_state: TcpState,
        /// Send sequence.
        pub snd_seq: u32,
        /// Receive sequence.
        pub rcv_seq: u32,
        /// Peer socket OID (same-host pairs).
        pub peer: Option<Oid>,
        /// Receive buffer: (payload, control-message file OIDs).
        pub recv_buf: Msgs,
        /// Send buffer (externally-synchronized messages in flight).
        pub send_buf: Msgs,
    }
}

impl KindDef for SocketRecord {
    const KIND: Kind = Kind::Socket;

    fn collect(reach: &Reach) -> Vec<u64> {
        reach.sockets.iter().copied().collect()
    }

    /// Parses the buffers for in-flight control messages (§5.3).
    fn capture(k: &Kernel, id: u64, oids: &OidMap) -> Result<Self, SlsError> {
        let s = k.sockets.get(id)?;
        k.charge.locks(2);
        k.charge.misses(15 + (s.recv_buf.len() + s.send_buf.len()) as u64);
        let msgs = |buf: &VecDeque<Message>| -> Result<Msgs, SlsError> {
            buf.iter()
                .map(|m| {
                    let fds = m.fds.iter().map(|f| oids.require(KObj(Kind::File, f.0)));
                    Ok((m.data.clone(), fds.collect::<Result<_, _>>()?))
                })
                .collect()
        };
        Ok(SocketRecord {
            domain: s.domain,
            stype: s.stype,
            opts: (s.opts.nodelay, s.opts.reuseaddr, s.opts.keepalive),
            unix_path: s.unix_path.clone(),
            local: (s.inet.0.ip, s.inet.0.port),
            remote: (s.inet.1.ip, s.inet.1.port),
            tcp_state: s.tcp_state,
            snd_seq: s.snd_seq,
            rcv_seq: s.rcv_seq,
            // A peer outside the group is not persisted: the connection
            // restores unlinked and the remote end re-establishes it
            // (§5.3).
            peer: s.peer.and_then(|p| oids.get(KObj(Kind::Socket, p))),
            recv_buf: msgs(&s.recv_buf)?,
            send_buf: msgs(&s.send_buf)?,
        })
    }

    fn install(&self, cx: &mut Rebuild<'_>, _oid: Oid) -> Result<u64, SlsError> {
        let k = &mut cx.sls.kernel;
        k.charge.allocs(2);
        k.charge.locks(2);
        k.charge.misses(14);
        // Buffers; in-flight fds are re-linked by the post-restore pass.
        let bare = |msgs: &Msgs| {
            msgs.iter().map(|(data, _)| Message { data: data.clone(), fds: Vec::new() }).collect()
        };
        let (nodelay, reuseaddr, keepalive) = self.opts;
        Ok(k.sockets.insert(Socket {
            opts: SockOpts { nodelay, reuseaddr, keepalive },
            unix_path: self.unix_path.clone(),
            inet: (
                InetAddr { ip: self.local.0, port: self.local.1 },
                InetAddr { ip: self.remote.0, port: self.remote.1 },
            ),
            tcp_state: self.tcp_state,
            snd_seq: self.snd_seq,
            rcv_seq: self.rcv_seq,
            recv_buf: bare(&self.recv_buf),
            send_buf: bare(&self.send_buf),
            sent_count: self.send_buf.len() as u64,
            ..Socket::new(self.domain, self.stype)
        }))
    }

    /// Links the peer if it is part of the image (a peer outside the
    /// group was encoded as None; the remote end re-establishes). Socket
    /// pairs reference each other: this end is already recorded.
    fn link(&self, cx: &mut Rebuild<'_>, _oid: Oid, id: u64) -> Result<(), SlsError> {
        let Some(peer_oid) = self.peer else { return Ok(()) };
        if cx.sls.store.lock().meta_at(peer_oid, cx.epoch).is_err() {
            return Ok(());
        }
        let peer_id = cx.restore(Kind::Socket, peer_oid)?;
        let sockets = &mut cx.sls.kernel.sockets;
        sockets.get_mut(id).map_err(|_| DANGLING)?.peer = Some(peer_id);
        sockets.get_mut(peer_id).map_err(|_| DANGLING)?.peer = Some(id);
        Ok(())
    }

    /// Restores descriptors in flight inside the buffers (SCM_RIGHTS,
    /// §5.3) and links them in — they may reference sockets carrying
    /// further descriptors, which the fixpoint driver then revisits.
    fn post_restore(cx: &mut Rebuild<'_>, oid: Oid, id: u64) -> Result<(), SlsError> {
        let rec: SocketRecord = cx.read(oid)?;
        // One descriptor list per buffered message, receive buffer first.
        let mut inflight: Vec<Vec<FileId>> = Vec::new();
        for (_, fds) in rec.recv_buf.iter().chain(&rec.send_buf) {
            let fids = cx.restore_all(Kind::File, fds.iter().copied())?;
            inflight.push(fids.into_iter().map(FileId).collect());
        }
        let k = &mut cx.sls.kernel;
        for &fid in inflight.iter().flatten() {
            add_file_ref(k, fid)?;
        }
        let sock = k.sockets.get_mut(id).map_err(|_| DANGLING)?;
        for (msg, fids) in sock.recv_buf.iter_mut().chain(&mut sock.send_buf).zip(inflight) {
            msg.fds = fids;
        }
        Ok(())
    }
}

record! {
    /// A kqueue record.
    pub struct KqueueRecord = Kind::Kqueue as u16, v 1 {
        /// Registered events: (ident, filter, enabled, udata).
        pub events: Vec<(u64, Filter, bool, u64)>,
    }
}

impl KindDef for KqueueRecord {
    const KIND: Kind = Kind::Kqueue;

    fn collect(reach: &Reach) -> Vec<u64> {
        reach.kqueues.iter().copied().collect()
    }

    /// Every knote is scanned and locked (the slow checkpoint row of
    /// Table 4).
    fn capture(k: &Kernel, id: u64, _oids: &OidMap) -> Result<Self, SlsError> {
        let q = k.kqueues.get(id)?;
        k.charge.locks(1);
        k.charge.misses(8);
        k.charge.raw(q.events.len() as u64 * k.charge.model().kevent_ns);
        Ok(KqueueRecord {
            events: q.events.iter().map(|ev| (ev.ident, ev.filter, ev.enabled, ev.udata)).collect(),
        })
    }

    fn install(&self, cx: &mut Rebuild<'_>, _oid: Oid) -> Result<u64, SlsError> {
        // Restore is a bulk insert — cheap compared to the per-knote
        // locking at checkpoint time (Table 4's asymmetry).
        let k = &mut cx.sls.kernel;
        k.charge.allocs(1);
        k.charge.locks(1);
        k.charge.misses(8);
        let events = self
            .events
            .iter()
            .map(|&(ident, filter, enabled, udata)| Kevent { ident, filter, enabled, udata })
            .collect();
        Ok(k.kqueues.insert(Kqueue { events }))
    }
}

record! {
    /// A pseudoterminal record.
    pub struct PtyRecord = Kind::Pty as u16, v 1 {
        /// pts number.
        pub pts: u64,
        /// canonical, echo.
        pub term: (bool, bool),
        /// Baud rate.
        pub baud: u32,
        /// Master→slave bytes.
        pub input: Vec<u8>,
        /// Slave→master bytes.
        pub output: Vec<u8>,
        /// Foreground process group (local).
        pub fg_pgid: Option<u32>,
    }
}

impl KindDef for PtyRecord {
    const KIND: Kind = Kind::Pty;

    fn collect(reach: &Reach) -> Vec<u64> {
        reach.ptys.iter().copied().collect()
    }

    fn capture(k: &Kernel, id: u64, _oids: &OidMap) -> Result<Self, SlsError> {
        let p = k.ptys.get(id)?;
        k.charge.locks(2);
        k.charge.misses(28); // termios + queues + tty structure chases
        Ok(PtyRecord {
            pts: id,
            term: (p.termios.canonical, p.termios.echo),
            baud: p.termios.baud,
            input: p.input.iter().copied().collect(),
            output: p.output.iter().copied().collect(),
            fg_pgid: p.fg_pgid,
        })
    }

    fn install(&self, cx: &mut Rebuild<'_>, _oid: Oid) -> Result<u64, SlsError> {
        // Recreating the device node takes the devfs locks — the slow
        // restore row of Table 4.
        let k = &mut cx.sls.kernel;
        k.charge.raw(k.charge.model().devfs_create_ns);
        k.charge.allocs(2);
        Ok(k.ptys.insert(Pty {
            termios: Termios { canonical: self.term.0, echo: self.term.1, baud: self.baud },
            input: self.input.iter().copied().collect(),
            output: self.output.iter().copied().collect(),
            fg_pgid: self.fg_pgid,
            open_refs: 0, // counted as the descriptions install
        }))
    }
}

record! {
    /// A POSIX shm record.
    pub struct ShmPosixRecord = Kind::ShmPosix as u16, v 1 {
        /// `shm_open` name.
        pub name: String,
        /// Size in pages.
        pub pages: u64,
        /// Backing memory object OID.
        pub mem: Oid,
    }
}

impl KindDef for ShmPosixRecord {
    const KIND: Kind = Kind::ShmPosix;

    fn collect(reach: &Reach) -> Vec<u64> {
        reach.shm_posix.iter().copied().collect()
    }

    /// The time spent shadowing the backing object is charged by the
    /// checkpoint pipeline; this is the descriptor bookkeeping.
    fn capture(k: &Kernel, id: u64, oids: &OidMap) -> Result<Self, SlsError> {
        let s = k.shm.posix.get(&id).ok_or(SlsError::BadImage("no such posix shm"))?;
        k.charge.locks(2);
        k.charge.misses(12);
        let lineage = k.vm.object(s.object)?.lineage;
        Ok(ShmPosixRecord {
            name: s.name.clone(),
            pages: s.pages,
            mem: oids.require(KObj(Kind::Mem, lineage.0))?,
        })
    }

    fn install(&self, cx: &mut Rebuild<'_>, _oid: Oid) -> Result<u64, SlsError> {
        let object = ObjId(cx.restore(Kind::Mem, self.mem)?);
        let k = &mut cx.sls.kernel;
        k.charge.allocs(1);
        k.charge.locks(2);
        k.vm.ref_object(object)?; // the segment's own reference
        let id = k.shm.next_id();
        k.shm.posix.insert(id, PosixShm { id, name: self.name.clone(), object, pages: self.pages });
        Ok(id)
    }
}

record! {
    /// A SysV shm record.
    pub struct ShmSysvRecord = Kind::ShmSysv as u16, v 1 {
        /// IPC key.
        pub key: i64,
        /// Size in pages.
        pub pages: u64,
        /// Backing memory object OID.
        pub mem: Oid,
        /// Attach count.
        pub nattch: u32,
    }
}

impl KindDef for ShmSysvRecord {
    const KIND: Kind = Kind::ShmSysv;

    fn collect(reach: &Reach) -> Vec<u64> {
        reach.shm_sysv.iter().copied().collect()
    }

    /// The global namespace scan is what makes this ~10 µs slower than
    /// POSIX shm (Table 4).
    fn capture(k: &Kernel, id: u64, oids: &OidMap) -> Result<Self, SlsError> {
        let s = k.shm.sysv.get(&id).ok_or(SlsError::BadImage("no such sysv shm"))?;
        k.charge.locks(2);
        k.charge.misses(12);
        k.charge.raw(k.shm.sysv.len() as u64 * k.charge.model().sysv_scan_entry_ns);
        let lineage = k.vm.object(s.object)?.lineage;
        Ok(ShmSysvRecord {
            key: s.key,
            pages: s.pages,
            mem: oids.require(KObj(Kind::Mem, lineage.0))?,
            nattch: s.nattch,
        })
    }

    fn install(&self, cx: &mut Rebuild<'_>, _oid: Oid) -> Result<u64, SlsError> {
        // The SysV key namespace is kernel-global: a segment with this
        // key may already exist from an earlier restore — adopt it.
        if let Some(existing) = cx.sls.kernel.shm.sysv_by_key(self.key) {
            return Ok(existing.id);
        }
        let object = ObjId(cx.restore(Kind::Mem, self.mem)?);
        let k = &mut cx.sls.kernel;
        k.charge.allocs(1);
        k.charge.locks(2);
        k.vm.ref_object(object)?; // the segment's own reference
        let id = k.shm.next_id();
        let (key, pages, nattch) = (self.key, self.pages, self.nattch);
        k.shm.sysv.insert(id, SysvShm { id, key, object, pages, nattch });
        Ok(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_roundtrip() {
        for bits in 0..16u8 {
            assert_eq!(flags_bits(flags_from(bits)), bits);
        }
    }
}
