//! ELF coredump export (`sls dump`, Table 2): any checkpoint or running
//! state can be extracted as an ELF64 core file for debugging.

use crate::checkpoint::Reach;
use crate::kinds::KINDS;
use crate::oidmap::{Kind, OidMap};
use crate::{Sls, SlsError};
use aurora_objstore::Oid;
use aurora_posix::Pid;
use aurora_sim::codec::Encoder;
use aurora_vm::PAGE_SIZE;

const EHDR_SIZE: usize = 64;
const PHDR_SIZE: usize = 56;
const PT_LOAD: u32 = 1;
const PT_NOTE: u32 = 4;
const NT_PRSTATUS: u32 = 1;
/// Aurora extension note: the process record in the checkpoint image
/// format, produced by the same kind table checkpoints use ("AURA").
const NT_AURORA_PROC: u32 = 0x4155_5241;

impl Sls {
    /// The OID map [`coredump`](Sls::coredump) encodes process records
    /// against: an attached group's live map when one covers `pid`,
    /// otherwise a temporary map fake-bound over the process's reachable
    /// objects (the OIDs only name cross-references inside the note).
    fn dump_oidmap(&self, pid: Pid) -> Result<OidMap, SlsError> {
        let mut oids = OidMap::default();
        let reach = Reach::collect(&self.kernel, &[pid])?;
        // Fake bindings live above bit 48 so they can never collide with
        // a store-allocated OID carried over from a group's live map.
        let mut next = 1u64 << 48;
        for ops in &KINDS {
            for id in (ops.collect)(&reach) {
                let key = (ops.key_of)(&self.kernel, id)?;
                let bound = self
                    .groups
                    .values()
                    .find_map(|g| g.oidmap.get(key))
                    .unwrap_or_else(|| {
                        next += 1;
                        Oid(next - 1)
                    });
                if oids.get(key).is_none() {
                    oids.bind(key, bound);
                }
            }
        }
        Ok(oids)
    }

    /// Produces an ELF64 core image of a running process: one PT_NOTE
    /// with an NT_PRSTATUS per thread plus an NT_AURORA_PROC carrying
    /// the checkpoint-format process record, one PT_LOAD per map entry.
    pub fn coredump(&self, pid: Pid) -> Result<Vec<u8>, SlsError> {
        let p = self.kernel.proc(pid)?;
        let entries: Vec<_> = self.kernel.vm.entries(p.space)?.to_vec();

        let push_note = |notes: &mut Encoder, ntype: u32, desc: &[u8]| {
            let name = b"CORE";
            notes.u32(name.len() as u32 + 1);
            notes.u32(desc.len() as u32);
            notes.u32(ntype);
            notes.raw(name);
            notes.raw(&[0, 0, 0, 0][..(4 - name.len() % 4) % 4 + 1]); // NUL + pad
            notes.raw(desc);
            let pad = (4 - desc.len() % 4) % 4;
            notes.raw(&vec![0u8; pad]);
        };

        // NT_PRSTATUS notes.
        let mut notes = Encoder::new();
        for tid in &p.threads {
            let t = self.kernel.threads.get(tid).ok_or(SlsError::BadImage("thread"))?;
            let mut desc = Encoder::new();
            desc.u32(t.local_tid.0);
            desc.u64(t.regs.pc);
            desc.u64(t.regs.sp);
            for r in t.regs.gp {
                desc.u64(r);
            }
            let desc = desc.finish_vec();
            push_note(&mut notes, NT_PRSTATUS, &desc);
        }
        // The checkpoint-format process record, via the same table row
        // the checkpoint pipeline encodes through.
        {
            let oids = self.dump_oidmap(pid)?;
            let rec = (Kind::Proc.ops().encode)(&self.kernel, pid.0 as u64, &oids)?;
            push_note(&mut notes, NT_AURORA_PROC, &rec);
        }
        let notes = notes.finish_vec();

        let phnum = 1 + entries.len();
        let headers_len = EHDR_SIZE + phnum * PHDR_SIZE;
        let mut segments: Vec<(u64, Vec<u8>)> = Vec::with_capacity(entries.len());
        for e in &entries {
            // Missing or swapped pages are holes in the dump.
            let pages = (e.end - e.start) / PAGE_SIZE as u64;
            let (data, _resident) = self.kernel.vm.read_nofault(e.object, e.offset_pages, pages)?;
            segments.push((e.start, data));
        }

        let mut out = Vec::new();
        // ELF header.
        out.extend_from_slice(&[0x7f, b'E', b'L', b'F', 2, 1, 1, 0]); // ident
        out.extend_from_slice(&[0; 8]);
        out.extend_from_slice(&4u16.to_le_bytes()); // ET_CORE
        out.extend_from_slice(&62u16.to_le_bytes()); // EM_X86_64
        out.extend_from_slice(&1u32.to_le_bytes()); // version
        out.extend_from_slice(&0u64.to_le_bytes()); // entry
        out.extend_from_slice(&(EHDR_SIZE as u64).to_le_bytes()); // phoff
        out.extend_from_slice(&0u64.to_le_bytes()); // shoff
        out.extend_from_slice(&0u32.to_le_bytes()); // flags
        out.extend_from_slice(&(EHDR_SIZE as u16).to_le_bytes());
        out.extend_from_slice(&(PHDR_SIZE as u16).to_le_bytes());
        out.extend_from_slice(&(phnum as u16).to_le_bytes());
        out.extend_from_slice(&[0u8; 6]); // shentsize, shnum, shstrndx
        debug_assert_eq!(out.len(), EHDR_SIZE);

        // Program headers. Note first, then loads.
        let mut file_off = headers_len as u64;
        let phdr = |ptype: u32, flags: u32, off: u64, vaddr: u64, fsz: u64, msz: u64| {
            let mut h = Vec::with_capacity(PHDR_SIZE);
            h.extend_from_slice(&ptype.to_le_bytes());
            h.extend_from_slice(&flags.to_le_bytes());
            h.extend_from_slice(&off.to_le_bytes());
            h.extend_from_slice(&vaddr.to_le_bytes());
            h.extend_from_slice(&vaddr.to_le_bytes()); // paddr
            h.extend_from_slice(&fsz.to_le_bytes());
            h.extend_from_slice(&msz.to_le_bytes());
            h.extend_from_slice(&PAGE_SIZE.to_le_bytes());
            h
        };
        let mut phdrs = Vec::new();
        phdrs.extend(phdr(PT_NOTE, 4, file_off, 0, notes.len() as u64, 0));
        file_off += notes.len() as u64;
        for (vaddr, data) in &segments {
            phdrs.extend(phdr(PT_LOAD, 6, file_off, *vaddr, data.len() as u64, data.len() as u64));
            file_off += data.len() as u64;
        }
        out.extend_from_slice(&phdrs);
        out.extend_from_slice(&notes);
        for (_, data) in segments {
            out.extend_from_slice(&data);
        }
        Ok(out)
    }
}
