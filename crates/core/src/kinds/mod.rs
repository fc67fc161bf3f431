//! One definition per kernel-object kind (§5.2–5.3).
//!
//! A kind is its record plus three functions: [`KindDef`] is implemented
//! on the record type itself — `collect` picks the kind's objects out of
//! the reachability walk, `capture` turns a live kernel object into the
//! typed record (charging what the real serializer pays, Table 4), and
//! `install` rebuilds the kernel object from it. Everything every kind
//! would otherwise repeat lives once in the two drivers below, and the
//! [`KINDS`] table, in serialization order, is what the checkpoint
//! pipeline, restore (and so `sls recv`), the coredump exporter and the
//! CRIU baseline all index. The POSIX kinds are defined in [`posix`],
//! memory objects in [`vm`].

pub mod posix;
pub mod vm;

use crate::checkpoint::Reach;
use crate::error::SlsError;
use crate::oidmap::{KObj, Kind, OidMap, MANIFEST};
use crate::owed::OwedPages;
use crate::restore::RestoreMode;
use crate::wire::{record, Record};
use crate::{CheckpointMode, LineageBinding, Sls};
use aurora_objstore::{ObjectStore, Oid, StoreError, View};
use aurora_posix::ids::PidNamespace;
use aurora_posix::{Kernel, Pid};
use aurora_vm::{ObjId, ObjKind};
use std::collections::{BTreeMap, BTreeSet, HashMap};

record! {
    /// The group manifest: everything a restore needs to find the rest.
    pub struct ManifestRecord = MANIFEST, v 1 {
        /// Checkpoint period.
        pub period_ns: u64,
        /// External synchrony enabled.
        pub extsync: bool,
        /// Member processes: (proc OID, local pid, is_root).
        pub procs: Vec<(Oid, u32, bool)>,
        /// Every file-system vnode object in the image (the namespace is
        /// part of the single level store, §5.2).
        pub fs_vnodes: Vec<Oid>,
    }
}

/// State handed to [`KindDef::assign_oid`].
pub struct AssignCtx<'a> {
    /// The kernel being checkpointed.
    pub kernel: &'a Kernel,
    /// The object store (for OID allocation).
    pub store: &'a mut ObjectStore,
    /// The group's kernel-object → OID mapping.
    pub oids: &'a mut OidMap,
    /// The pager's lineage → binding map.
    pub lineages: &'a mut HashMap<u64, LineageBinding>,
    /// Lineages whose binding this assignment inserted (an abort's undo
    /// list).
    pub new_lineages: &'a mut Vec<u64>,
    /// The clean file pages the group's next flush writes.
    pub(crate) owed: &'a mut OwedPages,
}

/// State handed to [`KindDef::flush`] during the pipeline's Flush stage
/// (after the application has resumed).
pub struct FlushCtx<'a> {
    /// The kernel (mutable: flushing marks pages clean).
    pub kernel: &'a mut Kernel,
    /// The object store.
    pub store: &'a mut ObjectStore,
    /// The group's OID mapping (read-only; assignment already happened).
    pub oids: &'a OidMap,
    /// The reachability scan this checkpoint serialized.
    pub reach: &'a Reach,
    /// Running count of pages flushed (updated by hooks).
    pub pages_flushed: u64,
    /// Running count of data bytes flushed (updated by hooks).
    pub bytes_flushed: u64,
    /// Every (object, page) a hook marked clean. The pipeline keeps this
    /// across retries so an aborted checkpoint can re-dirty the pages —
    /// their "durable" copies die with the rolled-back epoch.
    pub cleaned: Vec<(aurora_vm::ObjId, u64)>,
    /// How dirty pages are written: full images, or sub-page redo
    /// records ([`Sls::checkpoint_mode`](crate::Sls::checkpoint_mode)).
    pub mode: CheckpointMode,
    /// The pager's lineage bindings: a restored branch's floor/resume
    /// pin the redo chains of its VM objects (memory and file content)
    /// to branch-visible versions.
    pub lineages: &'a HashMap<u64, LineageBinding>,
    /// The clean file pages this flush writes with the dirty ones.
    pub(crate) owed: &'a OwedPages,
}

/// One image being rebuilt: what to restore from, and the restored
/// kernel id of every (kind, OID) so far, plus the cross-cutting restore
/// bookkeeping.
pub struct Rebuild<'a> {
    /// The world the image is rebuilt into.
    pub sls: &'a mut Sls,
    /// The checkpoint epoch being restored.
    pub epoch: u64,
    /// How memory comes back.
    pub mode: RestoreMode,
    pub(crate) ids: BTreeMap<(Kind, Oid), u64>,
    /// Pages read from the store during the restore.
    pub pages_read: u64,
    /// The pid namespace under construction (local → global).
    pub(crate) pid_ns: PidNamespace,
    /// The kernel namespace id the restored processes live in.
    pub(crate) kernel_ns: u32,
    /// New global pids, manifest order (roots first).
    pub(crate) new_pids: Vec<Pid>,
    /// The process whose threads are being installed: a thread has no
    /// standalone existence, it restores only inside its process.
    pub(crate) owner: Option<Pid>,
    /// Pages the installed records want, queued for the restore's one
    /// read plan: the VM object they land in, its store object, their
    /// indices.
    reads: Vec<(ObjId, Oid, Vec<u64>)>,
    /// Every VM object the restore made, with its store object; each
    /// holds one reference for the restore.
    pub(crate) objects: Vec<(Oid, ObjId)>,
}

impl<'a> Rebuild<'a> {
    pub(crate) fn new(sls: &'a mut Sls, epoch: u64, mode: RestoreMode) -> Self {
        let kernel_ns = sls.kernel.alloc_ns();
        Self {
            sls,
            epoch,
            mode,
            ids: BTreeMap::new(),
            pages_read: 0,
            pid_ns: PidNamespace::default(),
            kernel_ns,
            new_pids: Vec::new(),
            owner: None,
            reads: Vec::new(),
            objects: Vec::new(),
        }
    }

    /// Creates the VM object of store object `oid` — a memory object or
    /// a regular file's content — and brings its pages back as the mode
    /// says: a full restore queues them for its one read plan, a lazy
    /// one leaves them `Swapped` for the pager. The fresh lineage is
    /// bound at once, pinned to this restore's branch: history ≤ epoch
    /// plus whatever this instance commits from now on.
    pub(crate) fn install_object(
        &mut self,
        oid: Oid,
        kind: ObjKind,
        size_pages: u64,
    ) -> Result<ObjId, SlsError> {
        let vm = &mut self.sls.kernel.vm;
        let obj = vm.create_object(kind, size_pages);
        self.objects.push((oid, obj));
        let lineage = vm.object(obj)?.lineage.0;
        let resume = self.sls.store.lock().current_epoch();
        let binding = LineageBinding { oid, floor: self.epoch, resume };
        self.sls.lineage_oids.lock().insert(lineage, binding);
        // Device pages are re-injected, never read (§5.3).
        if matches!(kind, ObjKind::Device { .. }) {
            return Ok(obj);
        }
        // Size is epoch-granular: a page past the end was written by a
        // future this restore rewound away from.
        let mut pages = self.sls.store.lock().pages_at(oid, self.epoch).unwrap_or_default();
        pages.retain(|&pi| pi < size_pages);
        match self.mode {
            RestoreMode::Full => self.reads.push((obj, oid, pages)),
            RestoreMode::Lazy => {
                for pi in pages {
                    self.sls.kernel.vm.mark_swapped(obj, pi)?;
                }
            }
        }
        Ok(obj)
    }

    /// Reads every queued page as one plan and installs each one as a
    /// shared ref of the store's cache frame (the restored object shares
    /// it until its first write breaks COW).
    pub(crate) fn read_planned(&mut self) -> Result<(), SlsError> {
        let reads = std::mem::take(&mut self.reads);
        let pages: Vec<(Oid, u64)> =
            reads.iter().flat_map(|(_, oid, pis)| pis.iter().map(|&pi| (*oid, pi))).collect();
        let got = self.sls.store.lock().read_pages(View::Epoch(self.epoch), &pages)?;
        let mut got = got.into_iter();
        for (obj, oid, pis) in reads {
            for (pi, page) in pis.into_iter().zip(&mut got) {
                let page = page.ok_or(StoreError::NoSuchPage(oid, pi))?;
                self.sls.kernel.vm.install_page(obj, pi, page, false)?;
                self.pages_read += 1;
            }
        }
        Ok(())
    }

    /// Rebuilds the object stored at `oid` (and, recursively, whatever
    /// it references) unless it already was, and returns its kernel id.
    pub(crate) fn restore(&mut self, kind: Kind, oid: Oid) -> Result<u64, SlsError> {
        (kind.ops().restore)(self, oid)
    }

    /// [`restore`](Rebuild::restore) for each of `oids`, in order.
    pub(crate) fn restore_all(
        &mut self,
        kind: Kind,
        oids: impl Iterator<Item = Oid>,
    ) -> Result<Vec<u64>, SlsError> {
        oids.map(|oid| self.restore(kind, oid)).collect()
    }

    /// Decodes the record stored at `oid` as of the restored epoch.
    pub(crate) fn read<R: Record>(&self, oid: Oid) -> Result<R, SlsError> {
        R::from_bytes(self.sls.store.lock().meta_at(oid, self.epoch)?)
    }
}

/// One kind of kernel object, implemented on the kind's record type.
pub trait KindDef: Record {
    /// The kind; its discriminant is the record's tag.
    const KIND: Kind;

    /// Kernel ids of this kind found by the shared reachability walk, in
    /// serialization order.
    fn collect(reach: &Reach) -> Vec<u64>;

    /// The [`OidMap`] key for kernel id `id`. Most kinds key by the id
    /// itself; memory objects key by their lineage.
    fn key_of(k: &Kernel, id: u64) -> Result<KObj, SlsError> {
        let _ = k;
        Ok(KObj(Self::KIND, id))
    }

    /// Ensures `id` has an OID, creating the store object on first
    /// sight. Overridden by kinds with assignment side effects (memory
    /// objects publish their lineage binding to the pager).
    fn assign_oid(ctx: &mut AssignCtx<'_>, id: u64) -> Result<Oid, SlsError> {
        let key = Self::key_of(ctx.kernel, id)?;
        Ok(ctx.oids.get_or_create(ctx.store, key)?)
    }

    /// Captures kernel object `id` as a record, charging the kernel the
    /// lock acquisitions, cache-missing pointer chases and per-element
    /// scans the real serializer pays (Table 4). `oids` already maps
    /// everything the object references.
    fn capture(k: &Kernel, id: u64, oids: &OidMap) -> Result<Self, SlsError>;

    /// Flushes this kind's bulk data (memory and file pages) during the
    /// concurrent Flush stage. Default: records only, nothing extra.
    fn flush(ctx: &mut FlushCtx<'_>) -> Result<(), SlsError> {
        let _ = ctx;
        Ok(())
    }

    /// Rebuilds the kernel object from its record, restoring what it
    /// references through `Rebuild::restore`, and returns the new
    /// kernel id.
    fn install(&self, cx: &mut Rebuild<'_>, oid: Oid) -> Result<u64, SlsError>;

    /// Runs right after `oid → id` is recorded: for references that can
    /// lead back to this object (a socket's peer, the SysV segments
    /// attached to a memory object). The recorded id is what ends the
    /// cycle.
    fn link(&self, cx: &mut Rebuild<'_>, oid: Oid, id: u64) -> Result<(), SlsError> {
        let _ = (cx, oid, id);
        Ok(())
    }

    /// Second restore pass, run after every discovered object exists —
    /// for cross-object links that need the full population (in-flight
    /// descriptors inside socket buffers).
    fn post_restore(cx: &mut Rebuild<'_>, oid: Oid, id: u64) -> Result<(), SlsError> {
        let _ = (cx, oid, id);
        Ok(())
    }
}

/// One row of [`KINDS`]: a kind's functions behind plain pointers.
pub struct KindOps {
    /// The kind this row describes.
    pub kind: Kind,
    /// [`KindDef::collect`].
    pub collect: fn(&Reach) -> Vec<u64>,
    /// [`KindDef::key_of`].
    pub key_of: fn(&Kernel, u64) -> Result<KObj, SlsError>,
    /// [`KindDef::assign_oid`].
    pub assign_oid: fn(&mut AssignCtx<'_>, u64) -> Result<Oid, SlsError>,
    /// [`KindDef::capture`], framed into record bytes and charged.
    pub encode: fn(&Kernel, u64, &OidMap) -> Result<Vec<u8>, SlsError>,
    /// [`KindDef::flush`].
    pub flush: fn(&mut FlushCtx<'_>) -> Result<(), SlsError>,
    restore: fn(&mut Rebuild<'_>, Oid) -> Result<u64, SlsError>,
    post_restore: fn(&mut Rebuild<'_>, Oid, u64) -> Result<(), SlsError>,
}

const fn ops<D: KindDef>() -> KindOps {
    assert!(D::TAG == D::KIND as u16, "a kind's record is tagged with the kind");
    KindOps {
        kind: D::KIND,
        collect: D::collect,
        key_of: D::key_of,
        assign_oid: D::assign_oid,
        encode: encode::<D>,
        flush: D::flush,
        restore: restore::<D>,
        post_restore: D::post_restore,
    }
}

/// Every kind, in serialization order: row `kind as usize - 1`.
pub static KINDS: [KindOps; 11] = [
    ops::<posix::ProcRecord>(),
    ops::<posix::ThreadRecord>(),
    ops::<posix::FileRecord>(),
    ops::<posix::VnodeRecord>(),
    ops::<posix::PipeRecord>(),
    ops::<posix::SocketRecord>(),
    ops::<posix::KqueueRecord>(),
    ops::<posix::PtyRecord>(),
    ops::<posix::ShmPosixRecord>(),
    ops::<posix::ShmSysvRecord>(),
    ops::<vm::MemRecord>(),
];

impl Kind {
    /// This kind's row of [`KINDS`].
    pub(crate) fn ops(self) -> &'static KindOps {
        &KINDS[self as usize - 1]
    }
}

/// The checkpoint driver: capture, frame, charge the copy-out.
fn encode<D: KindDef>(k: &Kernel, id: u64, oids: &OidMap) -> Result<Vec<u8>, SlsError> {
    let out = D::capture(k, id, oids)?.to_bytes();
    k.charge.encode(out.len() as u64);
    Ok(out)
}

/// The restore driver. Restores recurse through object references (a
/// file restores its target, a socket its peer), so sharing is re-linked
/// by construction; the id map is both the result and the guard that
/// makes every object restore exactly once.
fn restore<D: KindDef>(cx: &mut Rebuild<'_>, oid: Oid) -> Result<u64, SlsError> {
    if let Some(&id) = cx.ids.get(&(D::KIND, oid)) {
        return Ok(id);
    }
    let rec: D = cx.read(oid)?;
    let id = rec.install(cx, oid)?;
    cx.ids.insert((D::KIND, oid), id);
    rec.link(cx, oid, id)?;
    Ok(id)
}

/// Runs every kind's `post_restore` over all restored objects to a
/// fixpoint (a post hook may restore further objects — e.g. a descriptor
/// in flight inside a socket buffer — which then need their own post
/// pass).
pub(crate) fn post_restore_all(cx: &mut Rebuild<'_>) -> Result<(), SlsError> {
    let mut done: BTreeSet<(Kind, Oid)> = BTreeSet::new();
    loop {
        let pending: Vec<((Kind, Oid), u64)> =
            cx.ids.iter().filter(|(key, _)| !done.contains(key)).map(|(k, v)| (*k, *v)).collect();
        if pending.is_empty() {
            return Ok(());
        }
        for ((kind, oid), id) in pending {
            done.insert((kind, oid));
            (kind.ops().post_restore)(cx, oid, id)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::posix::*;
    use super::vm::{MemKind, MemRecord};
    use super::*;
    use aurora_objstore::ObjectKind;
    use aurora_posix::kqueue::Filter;
    use aurora_posix::process::Regs;
    use aurora_posix::socket::{Domain, SockType, TcpState};
    use aurora_sim::codec::CodecError;
    use aurora_sim::rng::{DetRng, Rng};
    use aurora_vm::Inherit;
    use std::fmt::Debug;

    #[test]
    fn table_is_the_serialization_order_and_the_tags() {
        use Kind::*;
        let order = [Proc, Thread, File, Vnode, Pipe, Socket, Kqueue, Pty, ShmPosix, ShmSysv, Mem];
        assert_eq!(KINDS.iter().map(|ops| ops.kind).collect::<Vec<_>>(), order);
        for (i, kind) in order.into_iter().enumerate() {
            assert_eq!(kind as u16, 0x01 + i as u16, "{kind:?}'s tag");
            assert_eq!(kind.ops().kind, kind);
            let stored = match kind {
                Vnode => ObjectKind::File,
                Mem => ObjectKind::Memory,
                other => ObjectKind::Posix(other as u16),
            };
            assert_eq!(kind.store_kind(), stored);
        }
        assert_eq!(MANIFEST, 0x0C);
        assert_eq!(ManifestRecord::TAG, MANIFEST);
    }

    /// A seeded random value, for the round-trip property.
    trait Arb: Sized {
        fn arb(r: &mut DetRng) -> Self;
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arb for $t {
                fn arb(r: &mut DetRng) -> Self {
                    r.next_u64() as $t
                }
            }
        )*};
    }
    arb_int!(u8, u16, u32, u64, i8, i64);

    macro_rules! arb_enum {
        ($($t:ident: $($v:ident),+;)*) => {$(
            impl Arb for $t {
                fn arb(r: &mut DetRng) -> Self {
                    let all = [$($t::$v),+];
                    all[r.gen_range(0..all.len() as u64) as usize]
                }
            }
        )*};
    }
    arb_enum! {
        Domain: Unix, Inet;
        SockType: Stream, Dgram;
        TcpState: Closed, Listen, Established;
        Filter: Read, Write, Timer, Proc;
        Inherit: Share, Copy, None;
        MemKind: Anonymous, Vnode, Device;
    }

    macro_rules! arb_tuple {
        ($($t:ident),+) => {
            impl<$($t: Arb),+> Arb for ($($t,)+) {
                fn arb(r: &mut DetRng) -> Self {
                    ($($t::arb(r),)+)
                }
            }
        };
    }
    arb_tuple!(A, B);
    arb_tuple!(A, B, C);
    arb_tuple!(A, B, C, D);

    impl Arb for bool {
        fn arb(r: &mut DetRng) -> Self {
            r.next_u64() & 1 == 1
        }
    }

    impl Arb for String {
        fn arb(r: &mut DetRng) -> Self {
            let alphabet = ['a', '/', 'é', '\0', '𝄞'];
            (0..r.gen_range(0..6)).map(|_| alphabet[r.gen_range(0..5) as usize]).collect()
        }
    }

    impl Arb for Oid {
        fn arb(r: &mut DetRng) -> Self {
            Oid(r.next_u64())
        }
    }

    impl<T: Arb> Arb for Option<T> {
        fn arb(r: &mut DetRng) -> Self {
            bool::arb(r).then(|| T::arb(r))
        }
    }

    impl<T: Arb> Arb for Vec<T> {
        fn arb(r: &mut DetRng) -> Self {
            (0..r.gen_range(0..4)).map(|_| T::arb(r)).collect()
        }
    }

    impl<const N: usize> Arb for [u64; N] {
        fn arb(r: &mut DetRng) -> Self {
            std::array::from_fn(|_| r.next_u64())
        }
    }

    impl Arb for FileTarget {
        fn arb(r: &mut DetRng) -> Self {
            let (oid, aux) = (Oid::arb(r), bool::arb(r));
            match r.gen_range(0..7) {
                0 => FileTarget::Vnode(oid),
                1 => FileTarget::Pipe(oid, aux),
                2 => FileTarget::Socket(oid),
                3 => FileTarget::Kqueue(oid),
                4 => FileTarget::Pty(oid, aux),
                5 => FileTarget::ShmPosix(oid),
                _ => FileTarget::Device(oid.0),
            }
        }
    }

    /// The field list once more, names only: the struct literal makes the
    /// compiler check it is complete.
    macro_rules! arb_struct {
        ($($t:ident { $($field:ident),+ })*) => {$(
            impl Arb for $t {
                fn arb(r: &mut DetRng) -> Self {
                    $t { $($field: Arb::arb(r)),+ }
                }
            }
        )*};
    }
    arb_struct! {
        Regs { pc, sp, gp, fpu }
        EntryRecord { start, end, prot, inherit, offset_pages, mem, sls_exclude }
        ProcRecord {
            had_ephemeral_children, local_pid, parent_local, pgid, sid, name, threads, fds, entries,
            aio_reads
        }
        ThreadRecord { local_tid, sigmask, sigpending, priority, regs }
        FileRecord { target, offset, flags, extsync_disabled }
        VnodeRecord { ino, is_dir, nlink, open_refs, size, dirents }
        PipeRecord { capacity, reader_open, writer_open, buffer }
        SocketRecord {
            domain, stype, opts, unix_path, local, remote, tcp_state, snd_seq, rcv_seq, peer,
            recv_buf, send_buf
        }
        KqueueRecord { events }
        PtyRecord { pts, term, baud, input, output, fg_pgid }
        ShmPosixRecord { name, pages, mem }
        ShmSysvRecord { key, pages, mem, nattch }
        MemRecord { size_pages, kind, vnode, backer }
        ManifestRecord { period_ns, extsync, procs, fs_vnodes }
    }

    /// value → bytes → value is the identity, and no strict prefix of the
    /// bytes decodes.
    fn roundtrips<R: Record + Arb + PartialEq + Debug>(r: &mut DetRng) {
        for _ in 0..64 {
            let v = R::arb(r);
            let bytes = v.to_bytes();
            assert_eq!(R::from_bytes(&bytes).as_ref(), Ok(&v));
            for cut in 0..bytes.len() {
                assert!(R::from_bytes(&bytes[..cut]).is_err(), "{v:?} cut at {cut}");
            }
        }
    }

    #[test]
    fn every_record_roundtrips_and_refuses_its_prefixes() {
        let r = &mut DetRng::seed_from_u64(0x5EC0_4D50);
        roundtrips::<ProcRecord>(r);
        roundtrips::<ThreadRecord>(r);
        roundtrips::<FileRecord>(r);
        roundtrips::<VnodeRecord>(r);
        roundtrips::<PipeRecord>(r);
        roundtrips::<SocketRecord>(r);
        roundtrips::<KqueueRecord>(r);
        roundtrips::<PtyRecord>(r);
        roundtrips::<ShmPosixRecord>(r);
        roundtrips::<ShmSysvRecord>(r);
        roundtrips::<MemRecord>(r);
        roundtrips::<ManifestRecord>(r);
    }

    const HEADER: usize = 8;

    /// `v` with every `u32` at the body offsets in `counts` set to
    /// `u32::MAX`, and every byte at `enums` set to `0xFF`, one at a time:
    /// each must be refused.
    fn refuses<R: Record + Debug>(v: &R, counts: &[usize], enums: &[usize]) {
        let hostile = |at: usize, len: usize| {
            let mut bytes = v.to_bytes();
            bytes[HEADER + at..HEADER + at + len].fill(0xFF);
            R::from_bytes(&bytes)
        };
        for &at in counts {
            assert!(hostile(at, 4).is_err(), "{v:?}: count at body offset {at}");
        }
        for &at in enums {
            assert!(hostile(at, 1).is_err(), "{v:?}: enum at body offset {at}");
        }
    }

    /// The offsets below are sums of the field widths before each count
    /// or enum byte, in values whose own counts are zero or one.
    #[test]
    fn a_hostile_record_is_an_error_not_an_abort() {
        let entry = EntryRecord {
            start: 0,
            end: 4096,
            prot: 3,
            inherit: Inherit::Copy,
            offset_pages: 0,
            mem: Oid(1),
            sls_exclude: false,
        };
        let mut proc = ProcRecord {
            had_ephemeral_children: false,
            local_pid: 100,
            parent_local: None,
            pgid: 100,
            sid: 100,
            name: String::new(),
            threads: vec![],
            fds: vec![],
            entries: vec![],
            aio_reads: vec![],
        };
        refuses(&proc, &[14, 18, 22, 26, 30], &[]);
        proc.entries.push(entry);
        refuses(&proc, &[26, 65], &[47]);
        refuses(
            &FileRecord {
                target: FileTarget::Device(7),
                offset: 0,
                flags: 3,
                extsync_disabled: false,
            },
            &[],
            &[0],
        );
        refuses(
            &VnodeRecord { ino: 2, is_dir: true, nlink: 1, open_refs: 0, size: 0, dirents: vec![] },
            &[25],
            &[],
        );
        refuses(
            &PipeRecord { capacity: 64, reader_open: true, writer_open: true, buffer: vec![] },
            &[10],
            &[],
        );
        let mut sock = SocketRecord {
            domain: Domain::Unix,
            stype: SockType::Stream,
            opts: (false, false, false),
            unix_path: None,
            local: (0, 0),
            remote: (0, 0),
            tcp_state: TcpState::Closed,
            snd_seq: 0,
            rcv_seq: 0,
            peer: None,
            recv_buf: vec![],
            send_buf: vec![],
        };
        refuses(&sock, &[28, 32], &[0, 1, 18]);
        sock.recv_buf.push((vec![], vec![]));
        refuses(&sock, &[28, 32, 36, 40], &[]);
        refuses(&KqueueRecord { events: vec![] }, &[0], &[]);
        refuses(&KqueueRecord { events: vec![(9, Filter::Read, true, 0)] }, &[0], &[12]);
        refuses(
            &PtyRecord {
                pts: 0,
                term: (true, true),
                baud: 9600,
                input: vec![],
                output: vec![],
                fg_pgid: None,
            },
            &[14, 18],
            &[],
        );
        refuses(&ShmPosixRecord { name: String::new(), pages: 1, mem: Oid(1) }, &[0], &[]);
        refuses(
            &MemRecord { size_pages: 1, kind: MemKind::Anonymous, vnode: None, backer: None },
            &[],
            &[8],
        );
        refuses(
            &ManifestRecord { period_ns: 1, extsync: true, procs: vec![], fs_vnodes: vec![] },
            &[9, 13],
            &[],
        );

        // The 40-byte SOCKET record whose message count used to size a
        // 206 GB allocation.
        sock.recv_buf.clear();
        let mut forty = sock.to_bytes()[..40].to_vec();
        forty[4..8].copy_from_slice(&32u32.to_le_bytes());
        forty[36..].fill(0xFF);
        assert_eq!(
            SocketRecord::from_bytes(&forty),
            Err(SlsError::BadImage("count exceeds record"))
        );

        // Only the version this build writes: PROC relabelled v1 (or v3)
        // is another format, not an older one to guess at.
        for version in [1u16, 3] {
            let mut relabelled = proc.to_bytes();
            relabelled[2..4].copy_from_slice(&version.to_le_bytes());
            assert!(matches!(
                ProcRecord::from_bytes(&relabelled),
                Err(SlsError::Codec(CodecError::BadVersion { found, .. })) if found == version
            ));
        }
    }
}
