//! The kernel: owns every table and exposes the syscall surface.

use crate::aio::{AioKind, AioQueue};
use crate::error::{KError, Result};
use crate::fd::{Fd, FdTable};
use crate::file::{FileId, FileKind, OpenFile, OpenFlags, PipeEnd, PtySide};
use crate::ids::{IdAllocator, Pid, Tid};
use crate::kqueue::{Kevent, Kqueue};
use crate::pipe::Pipe;
use crate::process::{sig, Process, Thread};
use crate::pty::Pty;
use crate::shm::{PosixShm, ShmRegistry, SysvShm};
use crate::socket::{Domain, InetAddr, Message, SockType, Socket, TcpState};
use crate::table::Table;
use crate::vfs::{Vfs, Vnode, VnodeKind};
use aurora_sim::cost::Charge;
use aurora_sim::{Clock, CostModel};
use aurora_vm::{Inherit, ObjId, ObjKind, PageData, Prot, Vm, VmError};
use std::collections::HashMap;

/// Supplies swapped-out page content (backed by the object store in the
/// full system).
pub trait Pager: Send {
    /// Fetches page `pindex` of the *logical* object identified by its
    /// lineage from the store. `Ok(None)` means the page was never
    /// persisted (a hard fault — kernel bug); an `Err` is a store that
    /// could not give the page back ([`KError::Io`]).
    fn page_in(&mut self, lineage: u64, pindex: u64) -> Result<Option<PageData>>;
}

/// The simulated kernel.
pub struct Kernel {
    /// The VM subsystem.
    pub vm: Vm,
    /// Cost accountant (shared virtual clock).
    pub charge: Charge,
    /// Live processes by global pid.
    pub procs: HashMap<Pid, Process>,
    /// Threads by global tid.
    pub threads: HashMap<Tid, Thread>,
    /// Open-file descriptions.
    pub files: Table<OpenFile, FileId>,
    /// The file system.
    pub vfs: Vfs,
    /// Pipes.
    pub pipes: Table<Pipe>,
    /// Sockets.
    pub sockets: Table<Socket>,
    /// Shared memory registries.
    pub shm: ShmRegistry,
    /// Kqueues.
    pub kqueues: Table<Kqueue>,
    /// Pseudoterminals, by pts number.
    pub ptys: Table<Pty>,
    /// The AIO queue.
    pub aio: AioQueue,
    /// PID allocator (global ids).
    pub pid_alloc: IdAllocator,
    /// TID allocator (global ids).
    pub tid_alloc: IdAllocator,
    /// The HPET device page, mapped read-only into whitelisted processes
    /// (§5.3).
    pub hpet_object: ObjId,
    pager: Option<Box<dyn Pager>>,
    /// vDSO build id of the running kernel: bumps on "software
    /// upgrades"; restored processes always see the current one (§5.3).
    pub vdso_version: u32,
    next_ns: u32,
    /// Stop-the-world windows opened since boot (observability).
    pub quiesce_windows: u64,
    /// Width of the most recent quiesce window, virtual ns.
    pub last_quiesce_width_ns: u64,
}

impl Kernel {
    /// Boots a kernel on `clock` with the given cost model.
    pub fn new(clock: Clock, model: CostModel) -> Self {
        let mut vm = Vm::new();
        let hpet_object = vm.create_object(ObjKind::Device { dev: 1 }, 1);
        Self {
            vm,
            charge: Charge::new(clock, model),
            procs: HashMap::new(),
            threads: HashMap::new(),
            files: Table::starting_at(1),
            vfs: Vfs::new(),
            pipes: Table::starting_at(1),
            sockets: Table::starting_at(1),
            shm: ShmRegistry::default(),
            kqueues: Table::starting_at(1),
            ptys: Table::starting_at(0),
            aio: AioQueue::default(),
            pid_alloc: IdAllocator::starting_at(100),
            tid_alloc: IdAllocator::starting_at(100_000),
            hpet_object,
            pager: None,
            vdso_version: 1,
            next_ns: 0,
            quiesce_windows: 0,
            last_quiesce_width_ns: 0,
        }
    }

    /// Boots a kernel with default calibration on a fresh clock.
    pub fn boot() -> Self {
        Self::new(Clock::new(), CostModel::default())
    }

    /// Installs the pager (the object store's swap path).
    pub fn set_pager(&mut self, pager: Box<dyn Pager>) {
        self.pager = Some(pager);
    }

    fn syscall_cost(&self) {
        self.charge.raw(self.charge.model().syscall_ns);
    }

    /// Looks up a process.
    pub fn proc(&self, pid: Pid) -> Result<&Process> {
        self.procs.get(&pid).ok_or(KError::Srch)
    }

    /// Mutable process lookup.
    pub fn proc_mut(&mut self, pid: Pid) -> Result<&mut Process> {
        self.procs.get_mut(&pid).ok_or(KError::Srch)
    }

    /// Resolves a process's fd to its description id.
    pub fn resolve(&self, pid: Pid, fd: Fd) -> Result<FileId> {
        self.proc(pid)?.fdtable.get(fd)
    }

    // ------------------------------------------------------------------
    // Processes and threads
    // ------------------------------------------------------------------

    /// Creates a fresh process with one thread and an empty address
    /// space.
    pub fn spawn(&mut self, name: &str) -> Pid {
        let pid = Pid(self.pid_alloc.alloc());
        let space = self.vm.create_space();
        self.procs.insert(pid, Process::new(pid, name.to_string(), space, FdTable::default()));
        self.start_thread(pid);
        pid
    }

    /// Forks `pid`: COW address space, shared open-file descriptions (the
    /// child's fds alias the same descriptions — including offsets).
    pub fn fork(&mut self, pid: Pid) -> Result<Pid> {
        self.syscall_cost();
        let p = self.proc(pid)?;
        let (space, fdtable, pgid, sid, name, ns) =
            (p.space, p.fdtable.clone(), p.pgid, p.sid, p.name.clone(), p.ns);
        let stats_before = self.vm.stats;
        let child_space = self.vm.fork_space(space)?;
        // fork's COW setup pays per-PTE write protection plus per-entry
        // bookkeeping, like any other shadowing operation.
        let delta = self.vm.stats - stats_before;
        let model = self.charge.model().clone();
        self.charge.raw(delta.pte_downgrades * model.pte_cow_ns);
        self.charge.raw(delta.shadows_created * 2 * model.alloc_ns);
        self.charge.raw(model.shootdown_ns(1));
        // Every inherited description gains a reference.
        for (_, fid) in fdtable.iter() {
            self.files.get_mut(fid)?.refs += 1;
        }
        let child = Pid(self.pid_alloc.alloc());
        let process = Process::new(child, name, child_space, fdtable);
        self.procs.insert(child, Process { ppid: Some(pid), pgid, sid, ns, ..process });
        self.start_thread(child);
        self.proc_mut(pid)?.children.push(child);
        Ok(child)
    }

    /// Adds a thread to a process.
    pub fn add_thread(&mut self, pid: Pid) -> Result<Tid> {
        self.proc(pid)?;
        Ok(self.start_thread(pid))
    }

    /// Starts a thread in `pid`, which exists.
    fn start_thread(&mut self, pid: Pid) -> Tid {
        let tid = Tid(self.tid_alloc.alloc());
        self.threads.insert(tid, Thread::new(tid, pid));
        if let Some(p) = self.procs.get_mut(&pid) {
            p.threads.push(tid);
        }
        tid
    }

    /// Terminates and reaps a process: closes its fds, drops its AIOs,
    /// destroys its address space, orphans its children and posts
    /// SIGCHLD to its parent.
    pub fn exit(&mut self, pid: Pid) -> Result<()> {
        self.syscall_cost();
        let fds: Vec<Fd> = self.proc(pid)?.fdtable.iter().map(|(fd, _)| fd).collect();
        for fd in fds {
            self.close(pid, fd)?;
        }
        // The pid stays reserved in `pid_alloc`: groups name processes by
        // pid, and a later restore that reserved this one would join its
        // process to a group whose root exited.
        let p = self.procs.remove(&pid).ok_or(KError::Srch)?;
        for tid in &p.threads {
            self.threads.remove(tid);
            self.tid_alloc.release(tid.0);
        }
        for c in &p.children {
            if let Some(cp) = self.procs.get_mut(c) {
                cp.ppid = None;
            }
        }
        self.aio.ops.retain(|op| op.pid != pid.0);
        self.vm.destroy_space(p.space)?;
        if let Some(pp) = p.ppid {
            self.proc_mut(pp)?.children.retain(|&c| c != pid);
            self.post_signal(pp, sig::SIGCHLD)?;
        }
        Ok(())
    }

    /// Posts a signal to a process (by global pid).
    pub(crate) fn post_signal(&mut self, pid: Pid, signo: u32) -> Result<()> {
        let p = self.proc_mut(pid)?;
        p.sigpending |= sig::bit(signo);
        Ok(())
    }

    /// Allocates a fresh pid namespace (used by restore so checkpoint-
    /// time local pids stay routable without global conflicts, §5.3).
    pub fn alloc_ns(&mut self) -> u32 {
        self.next_ns += 1;
        self.next_ns
    }

    /// `kill(2)` semantics: routes a signal *by the pid the sender
    /// knows* — its namespace's local pid. A restored parent signals its
    /// restored child with the pid it remembered from before the
    /// checkpoint.
    pub fn kill(&mut self, sender: Pid, target_local: u32, signo: u32) -> Result<()> {
        self.syscall_cost();
        let ns = self.proc(sender)?.ns;
        let target = self
            .procs
            .values()
            .find(|p| p.ns == ns && p.local_pid.0 == target_local)
            .map(|p| p.pid)
            .ok_or(KError::Srch)?;
        self.post_signal(target, signo)
    }

    /// `kill(2)` to a process group: every member of the sender's
    /// namespace with the given (local) pgid.
    pub fn kill_pgrp(&mut self, sender: Pid, pgid_local: u32, signo: u32) -> Result<()> {
        self.syscall_cost();
        let ns = self.proc(sender)?.ns;
        let targets: Vec<Pid> = self
            .procs
            .values()
            .filter(|p| p.ns == ns && p.pgid.0 == pgid_local)
            .map(|p| p.pid)
            .collect();
        if targets.is_empty() {
            return Err(KError::Srch);
        }
        for t in targets {
            self.post_signal(t, signo)?;
        }
        Ok(())
    }

    /// Maps the vDSO page (read-only platform-call trampolines). The
    /// content belongs to the *running* kernel: it is never persisted,
    /// and restore injects the current platform's copy (§5.3).
    pub fn map_vdso(&mut self, pid: Pid) -> Result<u64> {
        self.syscall_cost();
        let obj = self.vm.create_object(ObjKind::Device { dev: 2 }, 1);
        let space = self.proc(pid)?.space;
        Ok(self.vm.map(space, None, 1, Prot::RX, obj, 0, Inherit::Share)?)
    }

    // ------------------------------------------------------------------
    // Memory
    // ------------------------------------------------------------------

    /// Runs a VM access, paging every swapped page it needs in from the
    /// store and retrying, until it succeeds or fails otherwise.
    fn paging<T>(
        &mut self,
        mut access: impl FnMut(&mut Vm) -> std::result::Result<T, VmError>,
    ) -> Result<T> {
        loop {
            match access(&mut self.vm) {
                Err(VmError::NeedsPage { obj, pindex }) => {
                    let needs = KError::Vm(VmError::NeedsPage { obj, pindex });
                    let lineage = self.vm.object(obj)?.lineage.0;
                    let pager = self.pager.as_mut().ok_or(needs)?;
                    let data = pager.page_in(lineage, pindex)?.ok_or(needs)?;
                    self.vm.install_page(obj, pindex, data, false)?;
                }
                done => return Ok(done?),
            }
        }
    }

    /// Maps `pages` of fresh anonymous memory into `pid`'s space.
    pub fn mmap_anon(&mut self, pid: Pid, pages: u64, prot: Prot) -> Result<u64> {
        self.syscall_cost();
        let space = self.proc(pid)?.space;
        Ok(self.vm.mmap_anon(space, pages, prot)?)
    }

    /// Maps the HPET page read-only (whitelisted device, §5.3).
    pub fn map_hpet(&mut self, pid: Pid) -> Result<u64> {
        self.syscall_cost();
        let space = self.proc(pid)?.space;
        self.vm.ref_object(self.hpet_object)?;
        Ok(self.vm.map(space, None, 1, Prot::READ, self.hpet_object, 0, Inherit::Share)?)
    }

    /// Charges the MMU-side cost of the VM work since `before`: page
    /// faults, COW copies, and PTE installs. This is where the overhead
    /// of running *under* continuous checkpointing reaches applications:
    /// after every system shadow, the first write to a page faults and
    /// copies it.
    fn charge_vm_delta(&self, before: aurora_vm::VmStats) {
        let d = self.vm.stats - before;
        let m = self.charge.model();
        self.charge.raw(
            d.faults * m.page_fault_ns
                + d.cow_breaks * m.page_copy_ns
                + d.zero_fills * m.page_copy_ns / 2
                + d.pte_installs * m.pte_install_ns,
        );
    }

    /// Writes process memory, paging in from the store as needed.
    pub fn mem_write(&mut self, pid: Pid, addr: u64, data: &[u8]) -> Result<()> {
        let space = self.proc(pid)?.space;
        let before = self.vm.stats;
        self.paging(|vm| vm.write(space, addr, data))?;
        self.charge_vm_delta(before);
        Ok(())
    }

    /// Reads process memory, paging in from the store as needed.
    pub fn mem_read(&mut self, pid: Pid, addr: u64, buf: &mut [u8]) -> Result<()> {
        let space = self.proc(pid)?.space;
        let before = self.vm.stats;
        self.paging(|vm| vm.read(space, addr, buf))?;
        self.charge_vm_delta(before);
        Ok(())
    }

    /// Dirties every page of `[addr, addr+len)`.
    pub fn mem_touch(&mut self, pid: Pid, addr: u64, len: u64) -> Result<()> {
        let space = self.proc(pid)?.space;
        let before = self.vm.stats;
        self.paging(|vm| vm.touch(space, addr, len))?;
        self.charge_vm_delta(before);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Open-file plumbing
    // ------------------------------------------------------------------

    /// Opens a description of `kind` and installs it in `pid`'s lowest
    /// free descriptor.
    fn install_file(&mut self, pid: Pid, kind: FileKind, flags: OpenFlags) -> Result<Fd> {
        let fid = self.files.insert(OpenFile::new(kind, flags));
        Ok(self.proc_mut(pid)?.fdtable.install(fid))
    }

    /// Drops one reference to a description, tearing down the underlying
    /// object at zero.
    pub(crate) fn unref_file(&mut self, id: FileId) -> Result<()> {
        let file = self.files.get_mut(id)?;
        file.refs -= 1;
        if file.refs > 0 {
            return Ok(());
        }
        let kind = file.kind;
        self.files.remove(id);
        match kind {
            FileKind::Vnode(v) => {
                let gone = self.vfs.open_unref(v)?;
                self.drop_content(gone)?;
            }
            FileKind::Pipe { pipe, end } => {
                if let Ok(p) = self.pipes.get_mut(pipe) {
                    match end {
                        PipeEnd::Read => p.reader_open = false,
                        PipeEnd::Write => p.writer_open = false,
                    }
                    if !p.reader_open && !p.writer_open {
                        self.pipes.remove(pipe);
                    }
                }
            }
            FileKind::Socket(s) => {
                // Detach from a connected peer.
                if let Some(peer) = self.sockets.remove(s).and_then(|x| x.peer) {
                    if let Ok(p) = self.sockets.get_mut(peer) {
                        p.peer = None;
                    }
                }
            }
            FileKind::Kqueue(k) => {
                self.kqueues.remove(k);
            }
            FileKind::Pty { pty, .. } => {
                // The pair lives until neither side has a description.
                if let Ok(p) = self.ptys.get_mut(pty) {
                    p.open_refs -= 1;
                    if p.open_refs == 0 {
                        self.ptys.remove(pty);
                    }
                }
            }
            FileKind::ShmPosix(_) | FileKind::Device(_) => {}
        }
        Ok(())
    }

    /// Closes a descriptor.
    pub fn close(&mut self, pid: Pid, fd: Fd) -> Result<()> {
        self.syscall_cost();
        let fid = self.proc_mut(pid)?.fdtable.remove(fd)?;
        self.unref_file(fid)
    }

    /// Duplicates a descriptor (shares the description).
    pub fn dup(&mut self, pid: Pid, fd: Fd) -> Result<Fd> {
        self.syscall_cost();
        let fid = self.resolve(pid, fd)?;
        self.files.get_mut(fid)?.refs += 1;
        Ok(self.proc_mut(pid)?.fdtable.install(fid))
    }

    // ------------------------------------------------------------------
    // Files
    // ------------------------------------------------------------------

    /// Opens a path; `create` makes the file if missing.
    pub fn open(&mut self, pid: Pid, path: &str, flags: OpenFlags, create: bool) -> Result<Fd> {
        self.syscall_cost();
        let v = match self.vfs.lookup_path(path) {
            Ok(v) => v,
            Err(KError::Noent) if create => {
                let vm = &mut self.vm;
                self.vfs.create_file(path, |v| vm.create_object(ObjKind::Vnode { vnode: v.0 }, 0))?
            }
            Err(e) => return Err(e),
        };
        self.vfs.open_ref(v)?;
        self.install_file(pid, FileKind::Vnode(v), flags)
    }

    /// Reads from a descriptor at its offset.
    pub fn read(&mut self, pid: Pid, fd: Fd, len: usize) -> Result<Vec<u8>> {
        self.syscall_cost();
        let fid = self.resolve(pid, fd)?;
        let f = self.files.get(fid)?;
        let (kind, offset) = (f.kind, f.offset);
        if !f.flags.read {
            return Err(KError::Badf);
        }
        match kind {
            FileKind::Vnode(v) => {
                let (obj, size) = self.vfs.regular(v)?;
                let mut data = vec![0u8; len.min(size.saturating_sub(offset) as usize)];
                self.paging(|vm| vm.object_read(obj, offset, &mut data))?;
                self.charge.memcpy(data.len() as u64);
                self.files.get_mut(fid)?.offset += data.len() as u64;
                Ok(data)
            }
            FileKind::Pipe { pipe, end: PipeEnd::Read } => {
                let p = self.pipes.get_mut(pipe)?;
                let data = p.pop(len);
                if data.is_empty() && p.writer_open {
                    return Err(KError::Again);
                }
                self.charge.memcpy(data.len() as u64);
                Ok(data)
            }
            _ => Err(KError::Opnotsupp),
        }
    }

    /// Writes to a descriptor at its offset.
    pub fn write(&mut self, pid: Pid, fd: Fd, data: &[u8]) -> Result<usize> {
        self.syscall_cost();
        let fid = self.resolve(pid, fd)?;
        let f = self.files.get(fid)?;
        let (kind, offset, flags) = (f.kind, f.offset, f.flags);
        if !flags.write {
            return Err(KError::Badf);
        }
        match kind {
            FileKind::Vnode(v) => {
                let (obj, size) = self.vfs.regular(v)?;
                let at = if flags.append { size } else { offset };
                self.paging(|vm| vm.object_write(obj, at, data))?;
                let end = at + data.len() as u64;
                if let VnodeKind::Regular { size, .. } = &mut self.vfs.vnode_mut(v)?.kind {
                    *size = (*size).max(end);
                }
                self.charge.memcpy(data.len() as u64);
                self.files.get_mut(fid)?.offset = end;
                Ok(data.len())
            }
            FileKind::Pipe { pipe, end: PipeEnd::Write } => {
                let p = self.pipes.get_mut(pipe)?;
                if !p.reader_open {
                    return Err(KError::Pipe);
                }
                let n = p.push(data);
                self.charge.memcpy(n as u64);
                Ok(n)
            }
            _ => Err(KError::Opnotsupp),
        }
    }

    /// Repositions a descriptor's offset.
    pub fn lseek(&mut self, pid: Pid, fd: Fd, offset: u64) -> Result<()> {
        self.syscall_cost();
        let fid = self.resolve(pid, fd)?;
        self.files.get_mut(fid)?.offset = offset;
        Ok(())
    }

    /// Removes a path (`unlink`). The vnode survives while open (§5.2).
    pub fn unlink(&mut self, _pid: Pid, path: &str) -> Result<()> {
        self.syscall_cost();
        let gone = self.vfs.unlink(path)?;
        self.drop_content(gone)
    }

    /// Inserts a vnode with a specific id (restore path); the content
    /// object of the vnode it replaces goes with it.
    pub fn insert_vnode(&mut self, vnode: Vnode) -> Result<()> {
        let gone = self.vfs.insert_vnode(vnode);
        self.drop_content(gone)
    }

    /// Drops a vnode's reference to its content object once the vnode
    /// itself is gone.
    fn drop_content(&mut self, gone: Option<Vnode>) -> Result<()> {
        if let Some(Vnode { kind: VnodeKind::Regular { obj, .. }, .. }) = gone {
            self.vm.unref_object(obj)?;
        }
        Ok(())
    }

    /// Creates a pipe; returns (read fd, write fd).
    pub fn pipe(&mut self, pid: Pid) -> Result<(Fd, Fd)> {
        self.syscall_cost();
        let pipe = self.pipes.insert(Pipe::new());
        let read = FileKind::Pipe { pipe, end: PipeEnd::Read };
        let write = FileKind::Pipe { pipe, end: PipeEnd::Write };
        let rf = self.install_file(pid, read, OpenFlags::RDONLY)?;
        let wf = self.install_file(pid, write, OpenFlags::WRONLY)?;
        Ok((rf, wf))
    }

    // ------------------------------------------------------------------
    // Sockets
    // ------------------------------------------------------------------

    /// Creates a socket descriptor.
    pub fn socket(&mut self, pid: Pid, domain: Domain, stype: SockType) -> Result<Fd> {
        self.syscall_cost();
        let sid = self.sockets.insert(Socket::new(domain, stype));
        self.install_file(pid, FileKind::Socket(sid), OpenFlags::RDWR)
    }

    /// Creates a connected UNIX socket pair.
    pub fn socketpair(&mut self, pid: Pid) -> Result<(Fd, Fd)> {
        self.syscall_cost();
        let unix = || Socket::new(Domain::Unix, SockType::Stream);
        let a = self.sockets.insert(unix());
        let b = self.sockets.insert(Socket { peer: Some(a), ..unix() });
        self.sockets.get_mut(a)?.peer = Some(b);
        let fa = self.install_file(pid, FileKind::Socket(a), OpenFlags::RDWR)?;
        let fb = self.install_file(pid, FileKind::Socket(b), OpenFlags::RDWR)?;
        Ok((fa, fb))
    }

    fn socket_of(&self, pid: Pid, fd: Fd) -> Result<u64> {
        let fid = self.resolve(pid, fd)?;
        match self.files.get(fid)?.kind {
            FileKind::Socket(s) => Ok(s),
            _ => Err(KError::Opnotsupp),
        }
    }

    /// Binds an inet socket to a local endpoint.
    pub fn bind_inet(&mut self, pid: Pid, fd: Fd, addr: InetAddr) -> Result<()> {
        self.syscall_cost();
        let sid = self.socket_of(pid, fd)?;
        if self.sockets.iter().any(|(id, s)| s.inet.0 == addr && id != sid) {
            return Err(KError::Addrinuse);
        }
        self.sockets.get_mut(sid)?.inet.0 = addr;
        Ok(())
    }

    /// Puts a TCP socket into the listening state.
    pub fn listen(&mut self, pid: Pid, fd: Fd) -> Result<()> {
        self.syscall_cost();
        let sid = self.socket_of(pid, fd)?;
        self.sockets.get_mut(sid)?.tcp_state = TcpState::Listen;
        Ok(())
    }

    /// Establishes a loopback TCP connection from `(cpid, cfd)` to the
    /// listening socket `(spid, sfd)`; returns the accepted server-side
    /// fd. (The network between machines is modelled by the experiment
    /// harnesses; the kernel provides same-host semantics.)
    pub fn tcp_connect(&mut self, cpid: Pid, cfd: Fd, spid: Pid, sfd: Fd) -> Result<Fd> {
        self.syscall_cost();
        let csid = self.socket_of(cpid, cfd)?;
        let lsid = self.socket_of(spid, sfd)?;
        let l = self.sockets.get(lsid)?;
        let (laddr, lstate) = (l.inet.0, l.tcp_state);
        if lstate != TcpState::Listen {
            return Err(KError::Notconn);
        }
        // An ephemeral client port derived from the client socket's id,
        // and the accepted socket.
        let caddr = InetAddr { ip: 0x7f00_0001, port: 32_768 + (csid % 28_000) as u16 };
        let asid = self.sockets.insert(Socket {
            inet: (laddr, caddr),
            tcp_state: TcpState::Established,
            snd_seq: 2000,
            rcv_seq: 1000,
            peer: Some(csid),
            ..Socket::new(Domain::Inet, SockType::Stream)
        });
        let c = self.sockets.get_mut(csid)?;
        c.inet = (caddr, laddr);
        c.tcp_state = TcpState::Established;
        c.snd_seq = 1000;
        c.rcv_seq = 2000;
        c.peer = Some(asid);
        self.install_file(spid, FileKind::Socket(asid), OpenFlags::RDWR)
    }

    /// Sends data on a socket (into its send buffer).
    pub fn send(&mut self, pid: Pid, fd: Fd, data: &[u8]) -> Result<usize> {
        self.sendmsg_fds(pid, fd, data, &[])
    }

    /// Sends data plus descriptors (SCM_RIGHTS). Descriptors gain a
    /// reference for the duration of the flight.
    pub fn sendmsg_fds(&mut self, pid: Pid, fd: Fd, data: &[u8], fds: &[Fd]) -> Result<usize> {
        self.syscall_cost();
        let sid = self.socket_of(pid, fd)?;
        let mut fids = Vec::with_capacity(fds.len());
        for &f in fds {
            let fid = self.resolve(pid, f)?;
            self.files.get_mut(fid)?.refs += 1;
            fids.push(fid);
        }
        self.charge.memcpy(data.len() as u64);
        let s = self.sockets.get_mut(sid)?;
        s.snd_seq = s.snd_seq.wrapping_add(data.len() as u32);
        s.sent_count += 1;
        s.send_buf.push_back(Message { data: data.to_vec(), fds: fids });
        Ok(data.len())
    }

    /// Moves every buffered message to its peer (the "network"). External
    /// synchrony interposes on this in the SLS layer.
    pub fn deliver_all(&mut self) {
        let sids: Vec<u64> = self.sockets.ids().collect();
        for sid in sids {
            self.deliver_n(sid, usize::MAX);
        }
    }

    /// Delivers at most the first `n` pending messages of a socket to its
    /// peer (external synchrony releases sealed prefixes).
    pub fn deliver_n(&mut self, sid: u64, n: usize) {
        let Ok(s) = self.sockets.get_mut(sid) else { return };
        let Some(peer) = s.peer else { return };
        let take = n.min(s.send_buf.len());
        let msgs: Vec<Message> = s.send_buf.drain(..take).collect();
        if let Ok(p) = self.sockets.get_mut(peer) {
            for m in msgs {
                p.rcv_seq = p.rcv_seq.wrapping_add(m.data.len() as u32);
                p.recv_buf.push_back(m);
            }
        }
    }

    /// Receives one message; any carried descriptors are installed into
    /// the receiving process's table.
    pub fn recvmsg(&mut self, pid: Pid, fd: Fd) -> Result<(Vec<u8>, Vec<Fd>)> {
        self.syscall_cost();
        let sid = self.socket_of(pid, fd)?;
        let msg = self.sockets.get_mut(sid)?.recv_buf.pop_front().ok_or(KError::Again)?;
        self.charge.memcpy(msg.data.len() as u64);
        let mut fds = Vec::with_capacity(msg.fds.len());
        for fid in msg.fds {
            // The in-flight reference becomes the new slot's reference.
            fds.push(self.proc_mut(pid)?.fdtable.install(fid));
        }
        Ok((msg.data, fds))
    }

    // ------------------------------------------------------------------
    // Shared memory
    // ------------------------------------------------------------------

    /// `shm_open` + `ftruncate`: creates (or opens) a named POSIX shm
    /// object of `pages` pages.
    pub fn shm_open(&mut self, pid: Pid, name: &str, pages: u64) -> Result<Fd> {
        self.syscall_cost();
        let shm_id = match self.shm.posix_by_name(name) {
            Some(s) => s.id,
            None => {
                let object = self.vm.create_object(ObjKind::Anonymous, pages);
                let id = self.shm.next_id();
                self.shm.posix.insert(
                    id,
                    PosixShm { id, name: name.to_string(), object, pages },
                );
                id
            }
        };
        self.install_file(pid, FileKind::ShmPosix(shm_id), OpenFlags::RDWR)
    }

    /// Maps a POSIX shm descriptor into the caller (`mmap(MAP_SHARED)`).
    pub fn mmap_shm(&mut self, pid: Pid, fd: Fd) -> Result<u64> {
        self.syscall_cost();
        let fid = self.resolve(pid, fd)?;
        let FileKind::ShmPosix(shm_id) = self.files.get(fid)?.kind else {
            return Err(KError::Opnotsupp);
        };
        let (object, pages) = {
            let s = self.shm.posix.get(&shm_id).ok_or(KError::Noent)?;
            (s.object, s.pages)
        };
        let space = self.proc(pid)?.space;
        self.vm.ref_object(object)?;
        Ok(self.vm.map(space, None, pages, Prot::RW, object, 0, Inherit::Share)?)
    }

    /// `shmget`: find-or-create a System V segment (global namespace
    /// scan).
    pub fn shmget(&mut self, key: i64, pages: u64) -> Result<u64> {
        self.syscall_cost();
        // The scan is what makes SysV slower than POSIX shm in Table 4.
        self.charge.raw(self.shm.sysv.len() as u64 * self.charge.model().sysv_scan_entry_ns);
        if let Some(s) = self.shm.sysv_by_key(key) {
            return Ok(s.id);
        }
        let object = self.vm.create_object(ObjKind::Anonymous, pages);
        let id = self.shm.next_id();
        self.shm.sysv.insert(id, SysvShm { id, key, object, pages, nattch: 0 });
        Ok(id)
    }

    /// `shmat`: maps a SysV segment.
    pub fn shmat(&mut self, pid: Pid, shmid: u64) -> Result<u64> {
        self.syscall_cost();
        let (object, pages) = {
            let s = self.shm.sysv.get_mut(&shmid).ok_or(KError::Noent)?;
            s.nattch += 1;
            (s.object, s.pages)
        };
        let space = self.proc(pid)?.space;
        self.vm.ref_object(object)?;
        Ok(self.vm.map(space, None, pages, Prot::RW, object, 0, Inherit::Share)?)
    }

    /// Applies the shadow backmap after system shadowing (§6).
    pub fn shm_backmap(&mut self, old: ObjId, new: ObjId) -> usize {
        self.shm.backmap_update(old, new)
    }

    // ------------------------------------------------------------------
    // Kqueues, ptys, AIO
    // ------------------------------------------------------------------

    /// Creates a kqueue descriptor.
    pub fn kqueue(&mut self, pid: Pid) -> Result<Fd> {
        self.syscall_cost();
        let id = self.kqueues.insert(Kqueue::default());
        self.install_file(pid, FileKind::Kqueue(id), OpenFlags::RDWR)
    }

    /// Registers an event on a kqueue descriptor.
    pub fn kevent_register(&mut self, pid: Pid, fd: Fd, ev: Kevent) -> Result<()> {
        self.syscall_cost();
        let fid = self.resolve(pid, fd)?;
        let FileKind::Kqueue(id) = self.files.get(fid)?.kind else { return Err(KError::Opnotsupp) };
        self.kqueues.get_mut(id)?.register(ev);
        Ok(())
    }

    /// Opens a pseudoterminal pair under the next pts number; returns
    /// (master fd, slave fd).
    pub fn openpty(&mut self, pid: Pid) -> Result<(Fd, Fd)> {
        self.syscall_cost();
        // Creating the device node takes the devfs locks (Table 4).
        self.charge.raw(self.charge.model().devfs_create_ns);
        let pty = self.ptys.insert(Pty { open_refs: 2, ..Pty::default() });
        let flags = OpenFlags::RDWR;
        let mf = self.install_file(pid, FileKind::Pty { pty, side: PtySide::Master }, flags)?;
        let sf = self.install_file(pid, FileKind::Pty { pty, side: PtySide::Slave }, flags)?;
        Ok((mf, sf))
    }

    /// Issues an asynchronous IO on a vnode descriptor.
    pub fn aio_issue(&mut self, pid: Pid, fd: Fd, offset: u64, len: u64, write: bool) -> Result<u64> {
        self.syscall_cost();
        let fid = self.resolve(pid, fd)?;
        if !matches!(self.files.get(fid)?.kind, FileKind::Vnode(_)) {
            return Err(KError::Opnotsupp);
        }
        let kind = if write { AioKind::Write } else { AioKind::Read };
        Ok(self.aio.issue(pid.0, fid, offset, len, kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fork_shares_file_offsets() {
        // The paper's §5.1 example: fork shares the description; reads by
        // either side move the shared offset.
        let mut k = Kernel::boot();
        let p = k.spawn("parent");
        let fd = k.open(p, "/data", OpenFlags::RDWR, true).unwrap();
        k.write(p, fd, b"0123456789").unwrap();
        k.lseek(p, fd, 0).unwrap();
        let c = k.fork(p).unwrap();
        assert_eq!(k.read(p, fd, 4).unwrap(), b"0123");
        // The child's next read continues from the shared offset.
        assert_eq!(k.read(c, fd, 4).unwrap(), b"4567");
    }

    #[test]
    fn independent_open_has_independent_offset() {
        let mut k = Kernel::boot();
        let p = k.spawn("a");
        let q = k.spawn("b");
        let fd1 = k.open(p, "/f", OpenFlags::RDWR, true).unwrap();
        k.write(p, fd1, b"abcdef").unwrap();
        let fd2 = k.open(q, "/f", OpenFlags::RDONLY, false).unwrap();
        assert_eq!(k.read(q, fd2, 3).unwrap(), b"abc", "third process starts at 0");
    }

    #[test]
    fn dup_shares_close_releases() {
        let mut k = Kernel::boot();
        let p = k.spawn("a");
        let fd = k.open(p, "/f", OpenFlags::RDWR, true).unwrap();
        let fd2 = k.dup(p, fd).unwrap();
        k.write(p, fd, b"x").unwrap();
        k.close(p, fd).unwrap();
        // Description still alive through fd2.
        k.write(p, fd2, b"y").unwrap();
        k.close(p, fd2).unwrap();
        assert!(k.files.is_empty());
    }

    #[test]
    fn pipe_roundtrip_and_epipe() {
        let mut k = Kernel::boot();
        let p = k.spawn("a");
        let (r, w) = k.pipe(p).unwrap();
        k.write(p, w, b"ping").unwrap();
        assert_eq!(k.read(p, r, 10).unwrap(), b"ping");
        assert_eq!(k.read(p, r, 1), Err(KError::Again), "empty pipe would block");
        k.close(p, r).unwrap();
        assert_eq!(k.write(p, w, b"x"), Err(KError::Pipe));
    }

    #[test]
    fn unix_fd_passing_transfers_descriptions() {
        let mut k = Kernel::boot();
        let p = k.spawn("sender");
        let q = k.spawn("receiver");
        let (sa, sb) = k.socketpair(p).unwrap();
        // Move one end to the receiver (as after fork+close in practice).
        let fid_b = k.resolve(p, sb).unwrap();
        k.proc_mut(p).unwrap().fdtable.remove(sb).unwrap();
        let sb_q = k.proc_mut(q).unwrap().fdtable.install(fid_b);

        let file_fd = k.open(p, "/shared", OpenFlags::RDWR, true).unwrap();
        k.write(p, file_fd, b"hello").unwrap();
        k.sendmsg_fds(p, sa, b"take this", &[file_fd]).unwrap();
        k.deliver_all();
        let (data, fds) = k.recvmsg(q, sb_q).unwrap();
        assert_eq!(data, b"take this");
        assert_eq!(fds.len(), 1);
        // The received fd shares the description — offset included: the
        // sender's write left it at 5, so the receiver reads EOF first.
        assert_eq!(k.read(q, fds[0], 5).unwrap(), b"");
        k.lseek(q, fds[0], 0).unwrap();
        assert_eq!(k.read(q, fds[0], 5).unwrap(), b"hello");
    }

    #[test]
    fn tcp_connect_establishes_five_tuple() {
        let mut k = Kernel::boot();
        let srv = k.spawn("server");
        let cli = k.spawn("client");
        let lfd = k.socket(srv, Domain::Inet, SockType::Stream).unwrap();
        k.bind_inet(srv, lfd, InetAddr { ip: 0x7f00_0001, port: 8080 }).unwrap();
        k.listen(srv, lfd).unwrap();
        let cfd = k.socket(cli, Domain::Inet, SockType::Stream).unwrap();
        let afd = k.tcp_connect(cli, cfd, srv, lfd).unwrap();
        k.send(cli, cfd, b"GET /").unwrap();
        k.deliver_all();
        let (data, _) = k.recvmsg(srv, afd).unwrap();
        assert_eq!(data, b"GET /");
        let asid = k.socket_of(srv, afd).unwrap();
        let a = k.sockets.get(asid).unwrap();
        assert_eq!(a.tcp_state, TcpState::Established);
        assert_eq!(a.inet.0.port, 8080);
    }

    #[test]
    fn posix_shm_shared_across_processes() {
        let mut k = Kernel::boot();
        let p = k.spawn("a");
        let q = k.spawn("b");
        let fd_p = k.shm_open(p, "/seg", 4).unwrap();
        let fd_q = k.shm_open(q, "/seg", 4).unwrap();
        let ap = k.mmap_shm(p, fd_p).unwrap();
        let aq = k.mmap_shm(q, fd_q).unwrap();
        k.mem_write(p, ap, b"cross-process").unwrap();
        let mut buf = [0u8; 13];
        k.mem_read(q, aq, &mut buf).unwrap();
        assert_eq!(&buf, b"cross-process");
    }

    #[test]
    fn sysv_shmget_reuses_by_key() {
        let mut k = Kernel::boot();
        let p = k.spawn("a");
        let id1 = k.shmget(42, 2).unwrap();
        let id2 = k.shmget(42, 2).unwrap();
        assert_eq!(id1, id2);
        let a = k.shmat(p, id1).unwrap();
        k.mem_write(p, a, b"sysv").unwrap();
        assert_eq!(k.shm.sysv[&id1].nattch, 1);
    }

    #[test]
    fn exit_posts_sigchld_and_cleans_up() {
        let mut k = Kernel::boot();
        let p = k.spawn("parent");
        let c = k.fork(p).unwrap();
        let frames_before = k.vm.resident_frames();
        let addr = k.mmap_anon(c, 4, Prot::RW).unwrap();
        k.mem_write(c, addr, b"child data").unwrap();
        let fd = k.open(c, "/f", OpenFlags::RDWR, true).unwrap();
        k.aio_issue(c, fd, 0, 4096, false).unwrap();
        k.exit(c).unwrap();
        assert!(k.proc(p).unwrap().has_pending(sig::SIGCHLD));
        assert_eq!(k.vm.resident_frames(), frames_before, "child memory freed");
        // The child is reaped: gone from the tables, its parent's
        // children and the AIO queue.
        assert_eq!(k.proc(c).err(), Some(KError::Srch));
        assert!(k.proc(p).unwrap().children.is_empty());
        assert_eq!((k.procs.len(), k.threads.len()), (1, 1));
        assert!(k.aio.ops.is_empty());
        assert_eq!(k.kill(p, c.0, sig::SIGTERM), Err(KError::Srch));
    }

    #[test]
    fn a_pty_lives_while_either_side_is_open() {
        let mut k = Kernel::boot();
        let p = k.spawn("term");
        let (m, s) = k.openpty(p).unwrap();
        let dup = k.dup(p, m).unwrap();
        k.close(p, m).unwrap();
        k.close(p, s).unwrap();
        assert_eq!(k.ptys.len(), 1, "the master is still open through its dup");
        k.close(p, dup).unwrap();
        assert!(k.ptys.is_empty());
        let (m, _) = k.openpty(p).unwrap();
        let FileKind::Pty { pty, .. } = k.files.get(k.resolve(p, m).unwrap()).unwrap().kind else {
            panic!("not a pty")
        };
        assert_eq!(pty, 1, "pts numbers are not reused");
    }

    #[test]
    fn read_write_grow() {
        let mut k = Kernel::boot();
        let p = k.spawn("a");
        let fd = k.open(p, "/f", OpenFlags::RDWR, true).unwrap();
        k.lseek(p, fd, 4).unwrap();
        k.write(p, fd, b"data").unwrap();
        let v = k.vfs.lookup_path("/f").unwrap();
        assert_eq!(k.vfs.regular(v).unwrap().1, 8);
        k.lseek(p, fd, 0).unwrap();
        assert_eq!(k.read(p, fd, 8).unwrap(), b"\0\0\0\0data");
        k.lseek(p, fd, 100).unwrap();
        assert_eq!(k.read(p, fd, 4).unwrap(), b"", "read past EOF is empty");
    }

    #[test]
    fn anonymous_file_survives_unlink_while_open() {
        let mut k = Kernel::boot();
        let p = k.spawn("a");
        let objects = k.vm.object_count();
        let fd = k.open(p, "/anon", OpenFlags::RDWR, true).unwrap();
        k.unlink(p, "/anon").unwrap();
        assert_eq!(k.vfs.lookup_path("/anon"), Err(KError::Noent));
        // Still readable through the open reference.
        k.write(p, fd, b"still here").unwrap();
        k.lseek(p, fd, 0).unwrap();
        assert_eq!(k.read(p, fd, 10).unwrap(), b"still here");
        // Last close reclaims the vnode and its content object.
        k.close(p, fd).unwrap();
        assert_eq!(k.vfs.vnode_ids(), [crate::vfs::ROOT]);
        assert_eq!(k.vm.object_count(), objects);
    }

    #[test]
    fn kill_routes_within_namespace_only() {
        let mut k = Kernel::boot();
        let a = k.spawn("a");
        let b = k.spawn("b");
        // Same (default) namespace: kill by pid works.
        k.kill(a, b.0, sig::SIGTERM).unwrap();
        assert!(k.proc(b).unwrap().has_pending(sig::SIGTERM));
        // Different namespace: unreachable.
        let ns = k.alloc_ns();
        k.proc_mut(a).unwrap().ns = ns;
        assert_eq!(k.kill(a, b.0, sig::SIGTERM), Err(KError::Srch));
    }

    #[test]
    fn spawn_assigns_unique_pids() {
        let mut k = Kernel::boot();
        let a = k.spawn("a");
        let b = k.spawn("b");
        assert_ne!(a, b);
        assert_eq!(k.proc(a).unwrap().local_pid, a);
    }
}
