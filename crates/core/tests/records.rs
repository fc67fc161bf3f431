//! Serializer record tests: every POSIX object type round-trips through
//! its on-disk record bit-exactly, and checkpoint images decode to
//! records matching the live kernel state.

mod common;

use aurora_core::kinds::posix::{
    KqueueRecord, PipeRecord, ProcRecord, ShmPosixRecord, SocketRecord, ThreadRecord, VnodeRecord,
};
use aurora_core::wire::Record;
use aurora_core::world::World;
use aurora_core::{AuroraApi, KObj, Kind, SlsOptions};
use aurora_posix::kqueue::Filter;
use aurora_posix::process::Regs;
use aurora_posix::socket::TcpState;
use aurora_posix::ThreadState;
use common::checkpointed_world;

/// Decodes the record the newest checkpoint stored for a kernel object.
fn stored<R: Record>(w: &World, gid: aurora_core::GroupId, kind: Kind, id: u64) -> R {
    let oid = w.sls.oidmap_lookup(gid, KObj(kind, id)).expect("object was checkpointed");
    let store = w.sls.store().lock();
    let epoch = store.last_epoch().unwrap();
    R::from_bytes(store.meta_at(oid, epoch).unwrap()).unwrap()
}

#[test]
fn thread_record_captures_cpu_state_exactly() {
    let (w, gid, pid) = checkpointed_world();
    let tid = w.sls.kernel.proc(pid).unwrap().threads[0];
    let rec: ThreadRecord = stored(&w, gid, Kind::Thread, tid.0 as u64);
    assert_eq!(rec.local_tid, tid.0);
    assert_eq!(rec.sigmask, 0xDEAD_BEEF);
    assert_eq!(rec.priority, -7);
    assert_eq!(rec.regs, Regs { pc: 0x401234, sp: 0x7fff_0000, gp: [11; 8], fpu: [22; 8] });
}

#[test]
fn proc_record_lists_fds_and_entries() {
    let (w, gid, pid) = checkpointed_world();
    let p = w.sls.kernel.proc(pid).unwrap();
    let rec: ProcRecord = stored(&w, gid, Kind::Proc, pid.0 as u64);
    assert_eq!(rec.local_pid, p.local_pid.0);
    assert_eq!(rec.fds.len(), p.fdtable.len());
    assert_eq!(
        rec.entries.len(),
        w.sls.kernel.vm.entries(p.space).unwrap().len(),
        "every map entry serialized"
    );
    assert_eq!(rec.name, "everything");
}

#[test]
fn kqueue_record_holds_the_event() {
    let (w, gid, _pid) = checkpointed_world();
    let kq_id = w.sls.kernel.kqueues.ids().next().unwrap();
    let rec: KqueueRecord = stored(&w, gid, Kind::Kqueue, kq_id);
    assert_eq!(rec.events, vec![(9, Filter::Write, true, 77)]);
}

#[test]
fn pipe_record_holds_buffered_bytes() {
    let (w, gid, _pid) = checkpointed_world();
    let pipe_id = w.sls.kernel.pipes.ids().next().unwrap();
    let rec: PipeRecord = stored(&w, gid, Kind::Pipe, pipe_id);
    assert_eq!(rec.buffer, b"piped bytes");
    assert!(rec.reader_open && rec.writer_open);
}

#[test]
fn socket_record_holds_unsent_message_and_peer() {
    let (w, gid, _pid) = checkpointed_world();
    // The message was in flight at checkpoint time; exactly one record
    // (sender's send buffer — the image is cut before intra-group
    // delivery) holds it, and the pair's records reference each other.
    let mut carried = Vec::new();
    let mut peers = 0;
    for sid in w.sls.kernel.sockets.ids() {
        let rec: SocketRecord = stored(&w, gid, Kind::Socket, sid);
        for (data, _) in rec.send_buf.iter().chain(rec.recv_buf.iter()) {
            carried.push(data.clone());
        }
        if rec.peer.is_some() {
            peers += 1;
        }
        assert_eq!(rec.tcp_state, TcpState::Closed, "unix stream pair is not TCP-established");
    }
    assert_eq!(carried, vec![b"queued".to_vec()], "the in-flight message is in the image once");
    assert_eq!(peers, 2, "both ends reference each other by OID");
}

#[test]
fn vnode_record_has_hidden_link_count() {
    let (w, gid, _pid) = checkpointed_world();
    let ino = w
        .sls
        .kernel
        .vfs
        .vnode_ids()
        .into_iter()
        .find(|v| {
            matches!(
                w.sls.kernel.vfs.vnode(*v).map(|vn| vn.open_refs > 0),
                Ok(true)
            )
        })
        .expect("the open file has open refs");
    let rec: VnodeRecord = stored(&w, gid, Kind::Vnode, ino.0);
    assert!(rec.open_refs >= 1, "hidden link count persisted");
    assert_eq!(rec.size, "record test".len() as u64);
}

#[test]
fn shm_record_references_its_memory_object() {
    let (w, gid, _pid) = checkpointed_world();
    let shm_id = *w.sls.kernel.shm.posix.keys().next().unwrap();
    let rec: ShmPosixRecord = stored(&w, gid, Kind::ShmPosix, shm_id);
    assert_eq!(rec.name, "/rec-seg");
    assert_eq!(rec.pages, 2);
    // The referenced memory object exists in the same image and holds
    // the written page.
    let store = w.sls.store().lock();
    let epoch = store.last_epoch().unwrap();
    assert!(store.pages_at(rec.mem, epoch).unwrap().contains(&0));
}

#[test]
fn tcp_socket_record_holds_five_tuple_and_seqs() {
    let mut w = World::quickstart();
    let k = &mut w.sls.kernel;
    let srv = k.spawn("server");
    let lfd = k.socket(srv, aurora_posix::socket::Domain::Inet, aurora_posix::socket::SockType::Stream).unwrap();
    k.bind_inet(srv, lfd, aurora_posix::socket::InetAddr { ip: 0x0a000001, port: 6379 }).unwrap();
    k.listen(srv, lfd).unwrap();
    let cli = k.spawn("client");
    let cfd = k.socket(cli, aurora_posix::socket::Domain::Inet, aurora_posix::socket::SockType::Stream).unwrap();
    let afd = k.tcp_connect(cli, cfd, srv, lfd).unwrap();
    let _ = afd;
    let gid = w.sls.attach(srv, SlsOptions::default()).unwrap();
    w.sls.sls_checkpoint(gid).unwrap();
    w.sls.sls_barrier(gid).unwrap();

    // The accepted socket's record: established, bound to port 6379.
    let (sid, _) = w
        .sls
        .kernel
        .sockets
        .iter()
        .find(|(_, s)| s.tcp_state == TcpState::Established && s.inet.0.port == 6379)
        .expect("accepted socket");
    let rec: SocketRecord = stored(&w, gid, Kind::Socket, sid);
    assert_eq!(rec.tcp_state, TcpState::Established);
    assert_eq!(rec.local.1, 6379);
    assert_ne!(rec.remote.1, 0, "remote port captured");
    assert_ne!(rec.snd_seq, 0, "sequence numbers captured");
}

#[test]
fn quiesced_threads_resume_after_checkpoint() {
    let (w, _gid, pid) = checkpointed_world();
    for tid in &w.sls.kernel.proc(pid).unwrap().threads {
        assert_eq!(
            w.sls.kernel.threads[tid].state,
            ThreadState::User,
            "checkpoint must leave threads running"
        );
    }
}
