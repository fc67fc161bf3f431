//! The "one of everything" process shared by the record tests.

use aurora_core::world::World;
use aurora_core::{AuroraApi, SlsOptions};
use aurora_posix::file::OpenFlags;
use aurora_posix::kqueue::{Filter, Kevent};
use aurora_posix::process::Regs;
use aurora_posix::Pid;

/// Spawns a process holding one of every descriptor-reachable object:
/// a written file, a pipe with buffered bytes, a socketpair with a
/// queued message, a kqueue with one event, a pty, a mapped POSIX shm
/// segment, and distinctive thread state.
pub fn spawn_everything(w: &mut World) -> Pid {
    let k = &mut w.sls.kernel;
    let pid = k.spawn("everything");
    let fd = k.open(pid, "/f", OpenFlags::RDWR, true).unwrap();
    k.write(pid, fd, b"record test").unwrap();
    let (_r, wfd) = k.pipe(pid).unwrap();
    k.write(pid, wfd, b"piped bytes").unwrap();
    let (sa, _sb) = k.socketpair(pid).unwrap();
    k.send(pid, sa, b"queued").unwrap();
    let kq = k.kqueue(pid).unwrap();
    k.kevent_register(
        pid,
        kq,
        Kevent { ident: 9, filter: Filter::Write, enabled: true, udata: 77 },
    )
    .unwrap();
    k.openpty(pid).unwrap();
    let shm_fd = k.shm_open(pid, "/rec-seg", 2).unwrap();
    let shm_addr = k.mmap_shm(pid, shm_fd).unwrap();
    k.mem_write(pid, shm_addr, b"shm!").unwrap();
    let tid = k.proc(pid).unwrap().threads[0];
    let t = k.threads.get_mut(&tid).unwrap();
    t.sigmask = 0xDEAD_BEEF;
    t.priority = -7;
    t.regs = Regs { pc: 0x401234, sp: 0x7fff_0000, gp: [11; 8], fpu: [22; 8] };
    pid
}

/// Builds one of everything, checkpoints, and returns (world, gid, pid).
#[allow(dead_code)] // not every test binary checkpoints through here
pub fn checkpointed_world() -> (World, aurora_core::GroupId, Pid) {
    let mut w = World::quickstart();
    let pid = spawn_everything(&mut w);
    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
    w.sls.sls_checkpoint(gid).unwrap();
    w.sls.sls_barrier(gid).unwrap();
    (w, gid, pid)
}
