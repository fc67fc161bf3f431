//! Restore (§4, §5.3): rebuild a consistency group from a checkpoint,
//! full or lazy. The restore is recursion-driven through the
//! [`KINDS`](crate::kinds::KINDS) table: the manifest names the
//! file-system namespace and the processes; each kind's `install` pulls
//! in the objects it references (a file restores its target, a memory
//! object its backer, a socket its peer), so sharing is re-linked by
//! construction and no per-type logic lives here. Installing reads no
//! page: records queue the pages they want, and the whole image's pages
//! come back in one read plan once every record is installed.

use crate::kinds::{post_restore_all, ManifestRecord, Rebuild};
use crate::oidmap::{Kind, MANIFEST};
use crate::{GroupId, Sls, SlsError, SlsOptions};
use aurora_objstore::{ObjectKind, Oid, View};
use aurora_posix::Pid;
use aurora_vm::ObjId;

/// How to bring memory back (§6, "lazy restores").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RestoreMode {
    /// Read every page from the store during the restore.
    Full,
    /// Mark pages swapped; the application faults them in on demand.
    Lazy,
}

/// What a restore produced.
#[derive(Clone, Debug)]
pub struct RestoreReport {
    /// The new consistency group.
    pub group: GroupId,
    /// New (global) pids, manifest order (roots first).
    pub pids: Vec<Pid>,
    /// Pages read during the restore (0 for lazy).
    pub pages_read: u64,
    /// Restore wall time on the virtual clock, ns.
    pub elapsed_ns: u64,
}

impl Sls {
    /// Lists the group manifests present at `epoch` — how `sls restore`
    /// finds what existed before a crash.
    pub fn manifests_at(&self, epoch: u64) -> Result<Vec<Oid>, SlsError> {
        let store = self.store.lock();
        let mut out = Vec::new();
        for oid in store.objects_at(epoch)? {
            if store.kind(oid)? == ObjectKind::Posix(MANIFEST) {
                out.push(oid);
            }
        }
        Ok(out)
    }

    /// Restores the group image identified by `manifest` as of `epoch`,
    /// creating fresh processes. Global pids/tids are newly allocated
    /// (reserving the checkpoint-time value when free); the application
    /// sees its checkpoint-time ids (§5.3).
    pub fn restore_image(
        &mut self,
        manifest: Oid,
        epoch: u64,
        mode: RestoreMode,
    ) -> Result<RestoreReport, SlsError> {
        self.restore_inner(manifest, epoch, mode, None)
    }

    /// Point-in-time restore (§15): rebuilds the group at any committed
    /// *record* boundary, not just an epoch boundary. The base image is
    /// the newest committed epoch entirely at or below `lsn`
    /// ([`epoch_for_lsn`]); every page that changed after it is then
    /// overlaid with its content as of the target LSN (one read plan
    /// under [`View::Lsn`], chain replay in the store) and left dirty,
    /// so the branch's next checkpoint re-commits the overlay. The
    /// object namespace (and object and file sizes) resolve at
    /// base-epoch granularity; page *content* — memory and file pages
    /// alike — resolves at record granularity.
    ///
    /// [`epoch_for_lsn`]: aurora_objstore::ObjectStore::epoch_for_lsn
    pub fn restore_at(
        &mut self,
        manifest: Oid,
        lsn: u64,
        mode: RestoreMode,
    ) -> Result<RestoreReport, SlsError> {
        let base = self
            .store
            .lock()
            .epoch_for_lsn(lsn)
            .ok_or(SlsError::BadImage("restore_at target below the history floor"))?;
        self.restore_inner(manifest, base, mode, Some(lsn))
    }

    /// Group-level convenience for [`restore_at`](Sls::restore_at):
    /// resolves the group's manifest and restores at `lsn`.
    pub fn sls_restore_at(
        &mut self,
        gid: GroupId,
        lsn: u64,
        mode: RestoreMode,
    ) -> Result<RestoreReport, SlsError> {
        let manifest = self.groups.get(&gid).ok_or(SlsError::NoSuchGroup(gid))?.manifest;
        self.restore_at(manifest, lsn, mode)
    }

    fn restore_inner(
        &mut self,
        manifest: Oid,
        epoch: u64,
        mode: RestoreMode,
        overlay: Option<u64>,
    ) -> Result<RestoreReport, SlsError> {
        let clock = self.kernel.charge.clock().clone();
        let t0 = clock.now();

        self.forget_dead_lineages();
        let mut cx = Rebuild::new(self, epoch, mode);
        let man: ManifestRecord = cx.read(manifest)?;

        // The file-system namespace first: every vnode in the image.
        for voi in &man.fs_vnodes {
            cx.restore(Kind::Vnode, *voi)?;
        }
        // Processes, parents before children (manifest order); each one
        // recursively restores everything it references.
        for (poid, _local, _root) in &man.procs {
            cx.restore(Kind::Proc, *poid)?;
        }
        // Cross-object links that need the full population (in-flight
        // descriptors inside socket buffers), run to a fixpoint.
        post_restore_all(&mut cx)?;
        // Every record is installed: read the pages they queued as one
        // plan, all issued together.
        cx.read_planned()?;
        let Rebuild { ids, mut pages_read, pid_ns, new_pids, objects, .. } = cx;

        // Point-in-time roll-forward: overlay every restored page — of a
        // memory object or a file's content — that changed after the
        // base epoch with its content as of the target LSN — one more
        // plan, chain replay in the store — left dirty so the branch's
        // next checkpoint re-commits it.
        if let Some(lsn) = overlay {
            let changed = self.store.lock().modified_since(epoch);
            let mut wants: Vec<(Oid, u64)> = Vec::new();
            let mut dests: Vec<ObjId> = Vec::new();
            for &(oid, obj) in &objects {
                let size_pages = self.kernel.vm.object(obj)?.size_pages;
                // `changed` is sorted by oid: this object's pages are one run.
                let from = changed.partition_point(|&(o, _)| o < oid);
                for &(_, pi) in changed[from..].iter().take_while(|&&(o, _)| o == oid) {
                    // A page past the end grew after the base epoch; size
                    // is epoch-granular.
                    if pi < size_pages {
                        wants.push((oid, pi));
                        dests.push(obj);
                    }
                }
            }
            let got = self.store.lock().read_pages(View::Lsn(lsn), &wants)?;
            let mut overlaid = 0u64;
            for ((obj, (_, pi)), page) in dests.into_iter().zip(wants).zip(got) {
                if let Some(p) = page {
                    self.kernel.vm.install_page(obj, pi, p, true)?;
                    pages_read += 1;
                    overlaid += 1;
                }
            }
            let trace = self.kernel.charge.trace();
            if trace.is_enabled() {
                trace.instant(
                    "core",
                    "restore.at",
                    &[("lsn", lsn), ("base_epoch", epoch), ("overlaid", overlaid)],
                );
            }
        }

        // Each VM object was created holding one reference for the
        // restore; its mappings, shadows, shm segments and vnode took
        // their own. Drop the restore's, so the objects die with their
        // last user.
        for &(_, obj) in &objects {
            self.kernel.vm.unref_object(obj)?;
        }

        // Register the restored group so subsequent checkpoints continue
        // the same on-disk objects.
        let roots = man
            .procs
            .iter()
            .filter(|(_, _, root)| *root)
            .map(|(_, local, _)| Pid(pid_ns.global_of(*local)))
            .collect();
        let opts = SlsOptions {
            period_ns: man.period_ns,
            external_synchrony: man.extsync,
            ..SlsOptions::default()
        };
        // Re-bind the oid map so the exactly-once scan recognizes the
        // restored objects — one generic loop; each kind supplies its
        // key (the id except memory, which keys by its new lineage).
        let mut oidmap = crate::oidmap::OidMap::default();
        for (&(kind, oid), &id) in &ids {
            oidmap.bind((kind.ops().key_of)(&self.kernel, id)?, oid);
        }
        let group = self.add_group(roots, opts, manifest);
        group.oidmap = oidmap;
        group.epochs = vec![epoch];
        group.last_checkpoint_ns = clock.now();
        let gid = group.id;
        // The namespace is shared: the restored group and every other
        // live one owe the file pages this restore changed under them.
        self.owe_restored(epoch, &objects)?;

        Ok(RestoreReport {
            group: gid,
            pids: new_pids,
            pages_read,
            elapsed_ns: clock.now() - t0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::RestoreMode;
    use crate::world::World;
    use crate::{AuroraApi, SlsOptions};

    /// A restore binds its memory objects' lineages for the pager; once
    /// the restored processes exit, their objects and bindings go with
    /// them, so neither grows with the number of restores.
    #[test]
    fn lineage_bindings_plateau_across_restore_exit_cycles() {
        let mut w = World::quickstart();
        let pid = w.spawn_counter_app();
        let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
        w.sls.sls_checkpoint(gid).unwrap();
        w.sls.sls_barrier(gid).unwrap();
        let mut sizes = Vec::new();
        for i in 0..200 {
            let mode = if i % 2 == 0 { RestoreMode::Full } else { RestoreMode::Lazy };
            let r = w.sls.sls_restore(gid, None, mode).unwrap();
            for pid in r.pids {
                w.sls.kernel.exit(pid).unwrap();
            }
            sizes.push((w.sls.lineage_oids.lock().len(), w.sls.kernel.vm.object_count()));
        }
        assert_eq!(sizes[199], sizes[9], "bindings and VM objects plateau: {sizes:?}");
    }
}
