//! The clean file pages a group owes its image. Every group persists the
//! whole namespace (§5.2) under its own vnode OIDs, but a file page has
//! one dirty bit, cleared by whichever group flushes it first, and a
//! restore rewinds the shared namespace. A group comes to owe pages in
//! three ways, one entry point each: it persists a file for the first
//! time ([`OwedPages::persisted_first`]), another group's flush cleaned
//! them ([`Sls::owe_cleaned`]), or a restore installed them
//! ([`Sls::owe_restored`]). The group's next flush writes them with the
//! dirty ones; an abort owes them again.

use crate::oidmap::{KObj, Kind};
use crate::{Group, GroupId, Sls, SlsError};
use aurora_objstore::Oid;
use aurora_posix::{vfs::VnodeKind, VnodeId};
use aurora_vm::{ObjId, ObjKind, Vm};
use std::collections::BTreeSet;
use std::sync::Arc;

/// (content object, page) pairs a group's next flush writes.
#[derive(Debug, Default)]
pub(crate) struct OwedPages(BTreeSet<(ObjId, u64)>);

impl OwedPages {
    /// Every page of file content `obj`.
    pub(crate) fn persisted_first(&mut self, vm: &Vm, obj: ObjId) -> Result<(), SlsError> {
        self.0.extend(vm.object(obj)?.pages.keys().map(|&pi| (obj, pi)));
        Ok(())
    }

    /// The pages of `obj` owed, ascending.
    pub(crate) fn of(&self, obj: ObjId) -> Vec<u64> {
        self.0.range((obj, 0)..=(obj, u64::MAX)).map(|&(_, pi)| pi).collect()
    }

    /// Owes `other`'s pages too.
    pub(crate) fn extend(&mut self, other: OwedPages) {
        self.0.extend(other.0);
    }
}

impl Sls {
    /// The groups but `except` that checkpoint again: those with a live
    /// root.
    fn owing(&mut self, except: Option<GroupId>) -> impl Iterator<Item = &mut Group> {
        let procs = &self.kernel.procs;
        let live = move |g: &&mut Group| g.roots.iter().any(|p| procs.contains_key(p));
        self.groups.values_mut().filter(move |g| Some(g.id) != except).filter(live)
    }

    /// Group `by` cleaned `cleaned`: every other group owes the file
    /// pages among them.
    pub(crate) fn owe_cleaned(&mut self, by: GroupId, cleaned: &[(ObjId, u64)]) {
        if cleaned.is_empty() || self.owing(Some(by)).next().is_none() {
            return;
        }
        let vm = &self.kernel.vm;
        let is_file = |o| matches!(vm.object(o).map(|o| o.kind), Ok(ObjKind::Vnode { .. }));
        let pages: Vec<(ObjId, u64)> = cleaned.iter().copied().filter(|p| is_file(p.0)).collect();
        for g in self.owing(Some(by)) {
            g.owed.0.extend(&pages);
        }
    }

    /// A restore of `epoch` made `objects`. Every group persisting a
    /// file among them, the restored one included, owes each restored
    /// page whose checksum differs from its own store object's newest
    /// version: its next image would resolve the page there.
    pub(crate) fn owe_restored(
        &mut self,
        epoch: u64,
        objects: &[(Oid, ObjId)],
    ) -> Result<(), SlsError> {
        let k = &self.kernel;
        let content = |&(oid, obj): &(Oid, ObjId)| {
            let ObjKind::Vnode { vnode } = k.vm.object(obj).ok()?.kind else { return None };
            match k.vfs.vnode(VnodeId(vnode)).ok()?.kind {
                VnodeKind::Regular { obj: held, .. } if held == obj => Some((vnode, oid, obj)),
                _ => None,
            }
        };
        let files: Vec<(u64, Oid, ObjId)> = objects.iter().filter_map(content).collect();
        let store = Arc::clone(&self.store);
        let store = store.lock();
        let newest = store.last_epoch().unwrap_or(epoch);
        for (ino, oid, obj) in files {
            let pages: Vec<u64> = self.kernel.vm.object(obj)?.pages.keys().copied().collect();
            let csum = |oid, pi, at| store.page_csum(oid, pi, at).ok();
            for g in self.owing(None) {
                // A group yet to persist the file owes it whole then.
                let Some(mine) = g.oidmap.get(KObj(Kind::Vnode, ino)) else { continue };
                let stale = |&&pi: &&u64| csum(mine, pi, newest) != csum(oid, pi, epoch);
                g.owed.0.extend(pages.iter().filter(stale).map(|&pi| (obj, pi)));
            }
        }
        Ok(())
    }
}
