//! POSIX object serializers (§5.2–5.3): one [`Serializer`] per kernel
//! object kind, moved out of the old monolithic checkpoint/restore
//! match blocks. Restores recurse through object references (a file
//! restores its target, a socket its peer), so sharing is re-linked by
//! construction; in-flight descriptors inside socket buffers are wired
//! up by the post-restore pass once the whole population exists.

use crate::checkpoint::Reach;
use crate::error::SlsError;
use crate::oidmap::KObj;
use crate::registry::{FlushCtx, KObjKind, Rebuild, Serializer, SerializerRegistry};
use crate::restore::{decode_inherit, RestoreMode};
use crate::serial::{self, FileTarget};
use crate::Sls;
use aurora_objstore::{Oid, PAGE};
use aurora_posix::fd::{Fd, FdTable};
use aurora_posix::file::{FileId, FileKind, OpenFile, PipeEnd, PtySide};
use aurora_posix::kqueue::Kqueue;
use aurora_posix::pipe::Pipe;
use aurora_posix::process::{sig, Process, Thread, ThreadState};
use aurora_posix::pty::{Pty, Termios};
use aurora_posix::shm::{PosixShm, SysvShm};
use aurora_posix::socket::{Domain, InetAddr, Message, SockType, Socket, TcpState};
use aurora_posix::vfs::{Vnode, VnodeKind};
use aurora_posix::{Kernel, Pid, Tid, VnodeId};
use aurora_vm::{ObjId, Prot};

/// Registers the POSIX subsystem's serializers, in serialization order.
pub fn register(r: &mut SerializerRegistry) {
    r.register(Box::new(ProcSer));
    r.register(Box::new(ThreadSer));
    r.register(Box::new(FileSer));
    r.register(Box::new(VnodeSer));
    r.register(Box::new(PipeSer));
    r.register(Box::new(SockSer));
    r.register(Box::new(KqueueSer));
    r.register(Box::new(PtySer));
    r.register(Box::new(ShmPosixSer));
    r.register(Box::new(ShmSysvSer));
}

/// Reads an object's record bytes as of `epoch`.
pub(crate) fn meta(sls: &Sls, oid: Oid, epoch: u64) -> Result<Vec<u8>, SlsError> {
    let store = sls.store.lock();
    Ok(store.meta_at(oid, epoch)?.to_vec())
}

pub(crate) use aurora_sim::content_hash as fnv;

struct ProcSer;

impl Serializer for ProcSer {
    fn kind(&self) -> KObjKind {
        KObjKind::Proc
    }

    fn collect(&self, _k: &Kernel, reach: &Reach) -> Result<Vec<u64>, SlsError> {
        Ok(reach.procs.iter().map(|p| p.0 as u64).collect())
    }

    fn encode(&self, k: &Kernel, id: u64, oids: &crate::oidmap::OidMap) -> Result<Vec<u8>, SlsError> {
        serial::encode_proc(k, Pid(id as u32), oids)
    }

    fn restore(
        &self,
        sls: &mut Sls,
        reg: &SerializerRegistry,
        oid: Oid,
        epoch: u64,
        mode: RestoreMode,
        rb: &mut Rebuild,
    ) -> Result<(), SlsError> {
        if rb.get(KObjKind::Proc, oid).is_some() {
            return Ok(());
        }
        let rec = serial::decode_proc(&meta(sls, oid, epoch)?)?;
        // Referenced objects first: the descriptor table's files (each
        // recursing into its target) and the map entries' memory chains.
        for (_, foid) in &rec.fds {
            reg.restore_one(KObjKind::File, sls, *foid, epoch, mode, rb)?;
        }
        for e in &rec.entries {
            reg.restore_one(KObjKind::Mem, sls, e.mem, epoch, mode, rb)?;
        }
        // Global pid: reserve the checkpoint-time value when free; the
        // application sees its local pid either way (§5.3).
        let global = if sls.kernel.pid_alloc.reserve(rec.local_pid).is_ok() {
            Pid(rec.local_pid)
        } else {
            Pid(sls.kernel.pid_alloc.alloc())
        };
        rb.pid_ns.insert(rec.local_pid, global.0);
        let space = sls.kernel.vm.create_space();
        for e in &rec.entries {
            let obj = ObjId(rb.require(KObjKind::Mem, e.mem)?);
            sls.kernel.vm.ref_object(obj)?;
            let pages = (e.end - e.start) / aurora_vm::PAGE_SIZE as u64;
            sls.kernel.vm.map(
                space,
                Some(e.start),
                pages,
                Prot(e.prot),
                obj,
                e.offset_pages,
                decode_inherit(e.inherit)?,
            )?;
            if e.sls_exclude {
                sls.kernel.vm.set_sls_exclude(space, e.start, true)?;
            }
        }
        // Threads restore inline: register state belongs to the process
        // image (ThreadSer::restore is deliberately a no-op).
        let mut tids = Vec::with_capacity(rec.threads.len());
        for toid in &rec.threads {
            let trec = serial::decode_thread(&meta(sls, *toid, epoch)?)?;
            let gtid = if sls.kernel.tid_alloc.reserve(trec.local_tid).is_ok() {
                Tid(trec.local_tid)
            } else {
                Tid(sls.kernel.tid_alloc.alloc())
            };
            sls.kernel.threads.insert(
                gtid,
                Thread {
                    tid: gtid,
                    local_tid: Tid(trec.local_tid),
                    pid: global,
                    state: ThreadState::User,
                    sigmask: trec.sigmask,
                    sigpending: trec.sigpending,
                    priority: trec.priority,
                    regs: trec.regs,
                    restarts: 0,
                },
            );
            sls.kernel.charge.allocs(2);
            rb.insert(KObjKind::Thread, *toid, gtid.0 as u64);
            tids.push(gtid);
        }
        let mut fdtable = FdTable::new();
        for (fdno, foid) in &rec.fds {
            let fid = FileId(rb.require(KObjKind::File, *foid)?);
            fdtable.install_at(Fd(*fdno), fid);
            sls.kernel.files.get_mut(&fid).expect("restored").refs += 1;
        }
        // Parents restore before children (manifest order), so the
        // parent's local pid already resolves.
        let parent_global = rec.parent_local.map(|l| Pid(rb.pid_ns.global_of(l)));
        sls.kernel.procs.insert(
            global,
            Process {
                pid: global,
                local_pid: Pid(rec.local_pid),
                ppid: parent_global,
                pgid: Pid(rec.pgid),
                sid: Pid(rec.sid),
                name: rec.name.clone(),
                space,
                fdtable,
                threads: tids,
                children: Vec::new(),
                ns: rb.kernel_ns,
                sigpending: if rec.had_ephemeral_children {
                    // The ephemeral child "exited" from the parent's
                    // point of view (§3).
                    sig::bit(sig::SIGCHLD)
                } else {
                    0
                },
                ephemeral: false,
                dead: false,
            },
        );
        if let Some(pp) = parent_global {
            if let Ok(parent) = sls.kernel.proc_mut(pp) {
                parent.children.push(global);
            }
        }
        // Reissue recorded asynchronous reads (§5.3).
        for (foid, off, len) in &rec.aio_reads {
            let fid = FileId(rb.require(KObjKind::File, *foid)?);
            sls.kernel.aio.issue(global.0, fid, *off, *len, aurora_posix::aio::AioKind::Read);
        }
        sls.kernel.charge.allocs(3);
        sls.kernel.charge.locks(2);
        rb.new_pids.push(global);
        rb.insert(KObjKind::Proc, oid, global.0 as u64);
        Ok(())
    }
}

struct ThreadSer;

impl Serializer for ThreadSer {
    fn kind(&self) -> KObjKind {
        KObjKind::Thread
    }

    fn collect(&self, _k: &Kernel, reach: &Reach) -> Result<Vec<u64>, SlsError> {
        Ok(reach.threads.iter().map(|t| t.0 as u64).collect())
    }

    fn encode(&self, k: &Kernel, id: u64, _oids: &crate::oidmap::OidMap) -> Result<Vec<u8>, SlsError> {
        serial::encode_thread(k, Tid(id as u32))
    }

    fn restore(
        &self,
        _sls: &mut Sls,
        _reg: &SerializerRegistry,
        _oid: Oid,
        _epoch: u64,
        _mode: RestoreMode,
        _rb: &mut Rebuild,
    ) -> Result<(), SlsError> {
        // Threads restore with their owning process (ProcSer), which
        // records the oid → tid mapping; a thread has no standalone
        // existence to rebuild.
        Ok(())
    }
}

struct FileSer;

impl Serializer for FileSer {
    fn kind(&self) -> KObjKind {
        KObjKind::File
    }

    fn collect(&self, _k: &Kernel, reach: &Reach) -> Result<Vec<u64>, SlsError> {
        Ok(reach.files.clone())
    }

    fn encode(&self, k: &Kernel, id: u64, oids: &crate::oidmap::OidMap) -> Result<Vec<u8>, SlsError> {
        serial::encode_file(k, id, oids)
    }

    fn restore(
        &self,
        sls: &mut Sls,
        reg: &SerializerRegistry,
        oid: Oid,
        epoch: u64,
        mode: RestoreMode,
        rb: &mut Rebuild,
    ) -> Result<(), SlsError> {
        if rb.get(KObjKind::File, oid).is_some() {
            return Ok(());
        }
        let rec = serial::decode_file(&meta(sls, oid, epoch)?)?;
        // The target first.
        if let Some((tkind, toid)) = rec.target.kobj() {
            reg.restore_one(tkind, sls, toid, epoch, mode, rb)?;
        }
        let kind = match rec.target {
            FileTarget::Vnode(v) => {
                let ino = VnodeId(rb.require(KObjKind::Vnode, v)?);
                sls.kernel.vfs.open_ref(ino)?;
                FileKind::Vnode(ino)
            }
            FileTarget::Pipe(p, read) => FileKind::Pipe {
                pipe: rb.require(KObjKind::Pipe, p)?,
                end: if read { PipeEnd::Read } else { PipeEnd::Write },
            },
            FileTarget::Socket(s) => FileKind::Socket(rb.require(KObjKind::Socket, s)?),
            FileTarget::Kqueue(q) => FileKind::Kqueue(rb.require(KObjKind::Kqueue, q)?),
            FileTarget::Pty(p, master) => FileKind::Pty {
                pty: rb.require(KObjKind::Pty, p)?,
                side: if master { PtySide::Master } else { PtySide::Slave },
            },
            FileTarget::ShmPosix(s) => FileKind::ShmPosix(rb.require(KObjKind::ShmPosix, s)?),
            FileTarget::Device(d) => FileKind::Device(d),
        };
        let fid = FileId(sls.next_file_id());
        sls.kernel.insert_file(OpenFile {
            id: fid,
            kind,
            offset: rec.offset,
            flags: serial::flags_from(rec.flags),
            refs: 0, // counted as fd slots / in-flight references install
            extsync_disabled: rec.extsync_disabled,
        });
        sls.kernel.charge.allocs(1);
        rb.insert(KObjKind::File, oid, fid.0);
        Ok(())
    }
}

struct VnodeSer;

impl Serializer for VnodeSer {
    fn kind(&self) -> KObjKind {
        KObjKind::Vnode
    }

    fn collect(&self, _k: &Kernel, reach: &Reach) -> Result<Vec<u64>, SlsError> {
        Ok(reach.vnodes.iter().copied().collect())
    }

    fn encode(&self, k: &Kernel, id: u64, _oids: &crate::oidmap::OidMap) -> Result<Vec<u8>, SlsError> {
        serial::encode_vnode(k, id)
    }

    /// Reflushes changed regular-file contents as one batched page write
    /// per vnode.
    fn flush(&self, ctx: &mut FlushCtx<'_>) -> Result<(), SlsError> {
        let FlushCtx { kernel, store, oids, reach, vnode_hash, pages_flushed, bytes_flushed, .. } =
            ctx;
        for &v in &reach.vnodes {
            let vn = kernel.vfs.vnode(VnodeId(v))?;
            let VnodeKind::Regular { data } = &vn.kind else { continue };
            let hash = fnv(data);
            if vnode_hash.get(&VnodeId(v)) == Some(&hash) {
                continue;
            }
            let oid = oids.get(KObj::Vnode(v)).ok_or(SlsError::BadImage("unassigned vnode"))?;
            // File bytes live in the vnode, not in frames; page-align them
            // into arena frames so they enter the cache like VM pages do.
            let mut pages: Vec<(u64, aurora_objstore::PageRef)> =
                Vec::with_capacity(data.len().div_ceil(PAGE));
            let mut off = 0usize;
            while off < data.len() {
                let mut page = [0u8; PAGE];
                let n = (data.len() - off).min(PAGE);
                page[..n].copy_from_slice(&data[off..off + n]);
                pages.push(((off / PAGE) as u64, store.arena().alloc(page)));
                off += n;
            }
            store.write_pages(oid, &pages)?;
            *pages_flushed += pages.len() as u64;
            *bytes_flushed += data.len() as u64;
            vnode_hash.insert(VnodeId(v), hash);
        }
        Ok(())
    }

    fn restore(
        &self,
        sls: &mut Sls,
        _reg: &SerializerRegistry,
        oid: Oid,
        epoch: u64,
        _mode: RestoreMode,
        rb: &mut Rebuild,
    ) -> Result<(), SlsError> {
        if rb.get(KObjKind::Vnode, oid).is_some() {
            return Ok(());
        }
        let (rec, content) = {
            let mut store = sls.store.lock();
            let rec = serial::decode_vnode(store.meta_at(oid, epoch)?)?;
            let mut content = Vec::new();
            if !rec.is_dir && rec.size > 0 {
                let pages: Vec<u64> = (0..rec.size.div_ceil(PAGE as u64)).collect();
                for (_, page) in store.read_pages_bulk(oid, epoch, &pages)? {
                    content.extend_from_slice(page.bytes());
                    rb.pages_read += 1;
                }
                content.truncate(rec.size as usize);
            }
            (rec, content)
        };
        let kind = if rec.is_dir {
            VnodeKind::Directory {
                entries: rec.dirents.iter().map(|(n, ino)| (n.clone(), VnodeId(*ino))).collect(),
            }
        } else {
            VnodeKind::Regular { data: content }
        };
        sls.kernel.charge.allocs(2);
        sls.kernel.charge.locks(1);
        sls.kernel.vfs.insert_vnode(Vnode {
            id: VnodeId(rec.ino),
            kind,
            nlink: rec.nlink,
            open_refs: 0, // re-counted as descriptions reference it
        });
        rb.insert(KObjKind::Vnode, oid, rec.ino);
        Ok(())
    }
}

struct PipeSer;

impl Serializer for PipeSer {
    fn kind(&self) -> KObjKind {
        KObjKind::Pipe
    }

    fn collect(&self, _k: &Kernel, reach: &Reach) -> Result<Vec<u64>, SlsError> {
        Ok(reach.pipes.iter().copied().collect())
    }

    fn encode(&self, k: &Kernel, id: u64, _oids: &crate::oidmap::OidMap) -> Result<Vec<u8>, SlsError> {
        serial::encode_pipe(k, id)
    }

    fn restore(
        &self,
        sls: &mut Sls,
        _reg: &SerializerRegistry,
        oid: Oid,
        epoch: u64,
        _mode: RestoreMode,
        rb: &mut Rebuild,
    ) -> Result<(), SlsError> {
        if rb.get(KObjKind::Pipe, oid).is_some() {
            return Ok(());
        }
        let rec = serial::decode_pipe(&meta(sls, oid, epoch)?)?;
        sls.kernel.charge.allocs(2);
        sls.kernel.charge.locks(1);
        sls.kernel.charge.misses(10);
        let id = sls.kernel.pipes.keys().max().copied().unwrap_or(0) + 1;
        let mut pipe = Pipe::new(id);
        pipe.capacity = rec.capacity as usize;
        pipe.reader_open = rec.reader_open;
        pipe.writer_open = rec.writer_open;
        pipe.buffer.extend(rec.buffer.iter().copied());
        sls.kernel.pipes.insert(id, pipe);
        rb.insert(KObjKind::Pipe, oid, id);
        Ok(())
    }
}

struct SockSer;

impl Serializer for SockSer {
    fn kind(&self) -> KObjKind {
        KObjKind::Socket
    }

    fn collect(&self, _k: &Kernel, reach: &Reach) -> Result<Vec<u64>, SlsError> {
        Ok(reach.sockets.iter().copied().collect())
    }

    fn encode(&self, k: &Kernel, id: u64, oids: &crate::oidmap::OidMap) -> Result<Vec<u8>, SlsError> {
        serial::encode_socket(k, id, oids)
    }

    fn restore(
        &self,
        sls: &mut Sls,
        reg: &SerializerRegistry,
        oid: Oid,
        epoch: u64,
        mode: RestoreMode,
        rb: &mut Rebuild,
    ) -> Result<(), SlsError> {
        if rb.get(KObjKind::Socket, oid).is_some() {
            return Ok(());
        }
        let rec = serial::decode_socket(&meta(sls, oid, epoch)?)?;
        sls.kernel.charge.allocs(2);
        sls.kernel.charge.locks(2);
        sls.kernel.charge.misses(14);
        let id = sls.kernel.sockets.keys().max().copied().unwrap_or(0) + 1;
        let mut s = Socket::new(
            id,
            if rec.domain == 0 { Domain::Unix } else { Domain::Inet },
            if rec.stype == 0 { SockType::Stream } else { SockType::Dgram },
        );
        s.opts.nodelay = rec.opts.0;
        s.opts.reuseaddr = rec.opts.1;
        s.opts.keepalive = rec.opts.2;
        s.unix_path = rec.unix_path.clone();
        s.inet = (
            InetAddr { ip: rec.local.0, port: rec.local.1 },
            InetAddr { ip: rec.remote.0, port: rec.remote.1 },
        );
        s.tcp_state = match rec.tcp_state {
            1 => TcpState::Listen,
            2 => TcpState::Established,
            _ => TcpState::Closed,
        };
        s.snd_seq = rec.snd_seq;
        s.rcv_seq = rec.rcv_seq;
        // Buffers; in-flight fds are re-linked by the post-restore pass.
        for (data, _) in &rec.recv_buf {
            s.recv_buf.push_back(Message { data: data.clone(), fds: Vec::new() });
        }
        for (data, _) in &rec.send_buf {
            s.send_buf.push_back(Message { data: data.clone(), fds: Vec::new() });
            s.sent_count += 1;
        }
        sls.kernel.sockets.insert(id, s);
        // Record BEFORE the peer recursion: socket pairs reference each
        // other, and this mapping is what breaks the cycle.
        rb.insert(KObjKind::Socket, oid, id);
        // Link the peer if it is part of the image (a peer outside the
        // group was encoded as None; the remote end re-establishes).
        if let Some(peer_oid) = rec.peer {
            let present = {
                let store = sls.store.lock();
                store.meta_at(peer_oid, epoch).is_ok()
            };
            if present {
                reg.restore_one(KObjKind::Socket, sls, peer_oid, epoch, mode, rb)?;
                let peer_id = rb.require(KObjKind::Socket, peer_oid)?;
                sls.kernel.sockets.get_mut(&id).expect("restored").peer = Some(peer_id);
                sls.kernel.sockets.get_mut(&peer_id).expect("restored").peer = Some(id);
            }
        }
        Ok(())
    }

    /// Restores descriptors in flight inside the buffers (SCM_RIGHTS,
    /// §5.3) and links them in — they may reference sockets carrying
    /// further descriptors, which the fixpoint driver then revisits.
    fn post_restore(
        &self,
        sls: &mut Sls,
        reg: &SerializerRegistry,
        oid: Oid,
        epoch: u64,
        mode: RestoreMode,
        rb: &mut Rebuild,
    ) -> Result<(), SlsError> {
        let sid = rb.require(KObjKind::Socket, oid)?;
        let rec = serial::decode_socket(&meta(sls, oid, epoch)?)?;
        for (_, fds) in rec.recv_buf.iter().chain(rec.send_buf.iter()) {
            for f in fds {
                reg.restore_one(KObjKind::File, sls, *f, epoch, mode, rb)?;
            }
        }
        let to_fids = |rb: &Rebuild, fds: &[Oid]| -> Result<Vec<FileId>, SlsError> {
            fds.iter().map(|f| Ok(FileId(rb.require(KObjKind::File, *f)?))).collect()
        };
        let mut inflight: Vec<FileId> = Vec::new();
        let sock = sls.kernel.sockets.get_mut(&sid).expect("restored");
        for (i, (_, fds)) in rec.recv_buf.iter().enumerate() {
            let fids = to_fids(rb, fds)?;
            inflight.extend(fids.iter().copied());
            sock.recv_buf[i].fds = fids;
        }
        for (i, (_, fds)) in rec.send_buf.iter().enumerate() {
            let fids = to_fids(rb, fds)?;
            inflight.extend(fids.iter().copied());
            sock.send_buf[i].fds = fids;
        }
        for fid in inflight {
            sls.kernel.files.get_mut(&fid).expect("restored").refs += 1;
        }
        Ok(())
    }
}

struct KqueueSer;

impl Serializer for KqueueSer {
    fn kind(&self) -> KObjKind {
        KObjKind::Kqueue
    }

    fn collect(&self, _k: &Kernel, reach: &Reach) -> Result<Vec<u64>, SlsError> {
        Ok(reach.kqueues.iter().copied().collect())
    }

    fn encode(&self, k: &Kernel, id: u64, _oids: &crate::oidmap::OidMap) -> Result<Vec<u8>, SlsError> {
        serial::encode_kqueue(k, id)
    }

    fn restore(
        &self,
        sls: &mut Sls,
        _reg: &SerializerRegistry,
        oid: Oid,
        epoch: u64,
        _mode: RestoreMode,
        rb: &mut Rebuild,
    ) -> Result<(), SlsError> {
        if rb.get(KObjKind::Kqueue, oid).is_some() {
            return Ok(());
        }
        let rec = serial::decode_kqueue(&meta(sls, oid, epoch)?)?;
        // Restore is a bulk insert — cheap compared to the per-knote
        // locking at checkpoint time (Table 4's asymmetry).
        sls.kernel.charge.allocs(1);
        sls.kernel.charge.locks(1);
        sls.kernel.charge.misses(8);
        let id = sls.kernel.kqueues.keys().max().copied().unwrap_or(0) + 1;
        let mut kq = Kqueue::new(id);
        kq.events = serial::kevents_from(&rec)?;
        sls.kernel.kqueues.insert(id, kq);
        rb.insert(KObjKind::Kqueue, oid, id);
        Ok(())
    }
}

struct PtySer;

impl Serializer for PtySer {
    fn kind(&self) -> KObjKind {
        KObjKind::Pty
    }

    fn collect(&self, _k: &Kernel, reach: &Reach) -> Result<Vec<u64>, SlsError> {
        Ok(reach.ptys.iter().copied().collect())
    }

    fn encode(&self, k: &Kernel, id: u64, _oids: &crate::oidmap::OidMap) -> Result<Vec<u8>, SlsError> {
        serial::encode_pty(k, id)
    }

    fn restore(
        &self,
        sls: &mut Sls,
        _reg: &SerializerRegistry,
        oid: Oid,
        epoch: u64,
        _mode: RestoreMode,
        rb: &mut Rebuild,
    ) -> Result<(), SlsError> {
        if rb.get(KObjKind::Pty, oid).is_some() {
            return Ok(());
        }
        let rec = serial::decode_pty(&meta(sls, oid, epoch)?)?;
        // Recreating the device node takes the devfs locks — the slow
        // restore row of Table 4.
        sls.kernel.charge.raw(sls.kernel.charge.model().devfs_create_ns);
        sls.kernel.charge.allocs(2);
        let id = sls.kernel.ptys.keys().max().copied().unwrap_or(0) + 1;
        let mut pty = Pty::new(id);
        pty.termios = Termios { canonical: rec.term.0, echo: rec.term.1, baud: rec.baud };
        pty.input.extend(rec.input.iter().copied());
        pty.output.extend(rec.output.iter().copied());
        pty.fg_pgid = rec.fg_pgid;
        sls.kernel.ptys.insert(id, pty);
        rb.insert(KObjKind::Pty, oid, id);
        Ok(())
    }
}

struct ShmPosixSer;

impl Serializer for ShmPosixSer {
    fn kind(&self) -> KObjKind {
        KObjKind::ShmPosix
    }

    fn collect(&self, _k: &Kernel, reach: &Reach) -> Result<Vec<u64>, SlsError> {
        Ok(reach.shm_posix.iter().copied().collect())
    }

    fn encode(&self, k: &Kernel, id: u64, oids: &crate::oidmap::OidMap) -> Result<Vec<u8>, SlsError> {
        serial::encode_shm_posix(k, id, oids)
    }

    fn restore(
        &self,
        sls: &mut Sls,
        reg: &SerializerRegistry,
        oid: Oid,
        epoch: u64,
        mode: RestoreMode,
        rb: &mut Rebuild,
    ) -> Result<(), SlsError> {
        if rb.get(KObjKind::ShmPosix, oid).is_some() {
            return Ok(());
        }
        let rec = serial::decode_shm_posix(&meta(sls, oid, epoch)?)?;
        reg.restore_one(KObjKind::Mem, sls, rec.mem, epoch, mode, rb)?;
        sls.kernel.charge.allocs(1);
        sls.kernel.charge.locks(2);
        let id = sls.kernel.shm.next_id();
        sls.kernel.shm.posix.insert(
            id,
            PosixShm {
                id,
                name: rec.name.clone(),
                object: ObjId(rb.require(KObjKind::Mem, rec.mem)?),
                pages: rec.pages,
            },
        );
        rb.insert(KObjKind::ShmPosix, oid, id);
        Ok(())
    }
}

struct ShmSysvSer;

impl Serializer for ShmSysvSer {
    fn kind(&self) -> KObjKind {
        KObjKind::ShmSysv
    }

    fn collect(&self, _k: &Kernel, reach: &Reach) -> Result<Vec<u64>, SlsError> {
        Ok(reach.shm_sysv.iter().copied().collect())
    }

    fn encode(&self, k: &Kernel, id: u64, oids: &crate::oidmap::OidMap) -> Result<Vec<u8>, SlsError> {
        serial::encode_shm_sysv(k, id, oids)
    }

    fn restore(
        &self,
        sls: &mut Sls,
        reg: &SerializerRegistry,
        oid: Oid,
        epoch: u64,
        mode: RestoreMode,
        rb: &mut Rebuild,
    ) -> Result<(), SlsError> {
        if rb.get(KObjKind::ShmSysv, oid).is_some() {
            return Ok(());
        }
        let rec = serial::decode_shm_sysv(&meta(sls, oid, epoch)?)?;
        // The SysV key namespace is kernel-global: a segment with this
        // key may already exist from an earlier restore — adopt it.
        if let Some(existing) = sls.kernel.shm.sysv.values().find(|s| s.key == rec.key).map(|s| s.id)
        {
            rb.insert(KObjKind::ShmSysv, oid, existing);
            return Ok(());
        }
        reg.restore_one(KObjKind::Mem, sls, rec.mem, epoch, mode, rb)?;
        sls.kernel.charge.allocs(1);
        sls.kernel.charge.locks(2);
        let id = sls.kernel.shm.next_id();
        sls.kernel.shm.sysv.insert(
            id,
            SysvShm {
                id,
                key: rec.key,
                object: ObjId(rb.require(KObjKind::Mem, rec.mem)?),
                pages: rec.pages,
                nattch: rec.nattch,
            },
        );
        rb.insert(KObjKind::ShmSysv, oid, id);
        Ok(())
    }
}
