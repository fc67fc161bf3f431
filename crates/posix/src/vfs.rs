//! A tmpfs-style VFS with a name cache.
//!
//! Vnodes carry a link count *and* an open-reference count: an unlinked
//! but still-open ("anonymous") file survives until its last close. The
//! Aurora file system additionally persists such files across crashes via
//! a hidden link count (§5.2); the serializer reads `open_refs` from here.
//!
//! A regular file's content is a VM object (the unified page cache): the
//! vnode holds one reference to it, and the kernel reads and writes it
//! through the object's pages, so files checkpoint, restore and fault in
//! exactly like memory.

use crate::error::{KError, Result};
use aurora_vm::ObjId;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};

/// A vnode identifier (also the inode number).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VnodeId(pub u64);

/// Vnode type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VnodeKind {
    /// Regular file: its content object and its size.
    Regular {
        /// The VM object holding the content's pages.
        obj: ObjId,
        /// File size in bytes.
        size: u64,
    },
    /// Directory with named entries.
    Directory {
        /// Name → vnode.
        entries: BTreeMap<String, VnodeId>,
    },
}

/// One vnode.
#[derive(Clone, Debug)]
pub struct Vnode {
    /// Identity/inode number.
    pub id: VnodeId,
    /// Type and content.
    pub kind: VnodeKind,
    /// Directory links.
    pub nlink: u32,
    /// Open-file descriptions referencing this vnode (the basis of the
    /// Aurora FS hidden link count).
    pub open_refs: u32,
}

/// The file system: vnodes plus a (vnode, name) → vnode name cache.
#[derive(Clone, Debug)]
pub struct Vfs {
    vnodes: HashMap<VnodeId, Vnode>,
    next: u64,
    /// The VFS name cache; hits avoid directory scans. Checkpoints bypass
    /// it entirely by referencing inode numbers (§5.2).
    namecache: HashMap<(VnodeId, String), VnodeId>,
    /// Name cache statistics (hits, misses) for the vnode-ref ablation.
    pub cache_hits: u64,
    /// Name cache misses.
    pub cache_misses: u64,
}

/// The root directory's vnode id.
pub const ROOT: VnodeId = VnodeId(1);

impl Default for Vfs {
    fn default() -> Self {
        let mut vnodes = HashMap::new();
        vnodes.insert(
            ROOT,
            Vnode {
                id: ROOT,
                kind: VnodeKind::Directory { entries: BTreeMap::new() },
                nlink: 2,
                open_refs: 0,
            },
        );
        Self { vnodes, next: 2, namecache: HashMap::new(), cache_hits: 0, cache_misses: 0 }
    }
}

impl Vfs {
    /// Creates a VFS with just the root directory.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Looks up a vnode.
    pub fn vnode(&self, id: VnodeId) -> Result<&Vnode> {
        self.vnodes.get(&id).ok_or(KError::Noent)
    }

    /// Mutable vnode lookup.
    pub fn vnode_mut(&mut self, id: VnodeId) -> Result<&mut Vnode> {
        self.vnodes.get_mut(&id).ok_or(KError::Noent)
    }

    /// Inserts a vnode with a specific id (restore path); returns the
    /// vnode it replaced.
    pub(crate) fn insert_vnode(&mut self, vnode: Vnode) -> Option<Vnode> {
        self.next = self.next.max(vnode.id.0 + 1);
        self.vnodes.insert(vnode.id, vnode)
    }

    /// All vnode ids (serializer).
    pub fn vnode_ids(&self) -> Vec<VnodeId> {
        let mut v: Vec<VnodeId> = self.vnodes.keys().copied().collect();
        v.sort();
        v
    }

    /// Resolves one path component through the name cache.
    pub(crate) fn lookup_component(&mut self, dir: VnodeId, name: &str) -> Result<VnodeId> {
        if let Some(&v) = self.namecache.get(&(dir, name.to_string())) {
            self.cache_hits += 1;
            return Ok(v);
        }
        self.cache_misses += 1;
        let d = self.vnodes.get(&dir).ok_or(KError::Noent)?;
        let VnodeKind::Directory { entries } = &d.kind else {
            return Err(KError::Notdir);
        };
        let v = *entries.get(name).ok_or(KError::Noent)?;
        self.namecache.insert((dir, name.to_string()), v);
        Ok(v)
    }

    /// Resolves an absolute path (`/a/b/c`).
    pub fn lookup_path(&mut self, path: &str) -> Result<VnodeId> {
        let mut cur = ROOT;
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            cur = self.lookup_component(cur, comp)?;
        }
        Ok(cur)
    }

    fn split_path(path: &str) -> Result<(&str, &str)> {
        let path = path.trim_end_matches('/');
        let (dir, name) = path.rsplit_once('/').ok_or(KError::Inval)?;
        if name.is_empty() {
            return Err(KError::Inval);
        }
        Ok((if dir.is_empty() { "/" } else { dir }, name))
    }

    /// Creates an empty regular file at an absolute path; `content`
    /// makes its content object for the new vnode.
    pub(crate) fn create_file(
        &mut self,
        path: &str,
        content: impl FnOnce(VnodeId) -> ObjId,
    ) -> Result<VnodeId> {
        self.create(path, |v| VnodeKind::Regular { obj: content(v), size: 0 }, 1)
    }

    /// Creates a directory at an absolute path.
    pub fn mkdir(&mut self, path: &str) -> Result<VnodeId> {
        self.create(path, |_| VnodeKind::Directory { entries: BTreeMap::new() }, 2)
    }

    fn create(
        &mut self,
        path: &str,
        kind: impl FnOnce(VnodeId) -> VnodeKind,
        nlink: u32,
    ) -> Result<VnodeId> {
        let (dirpath, name) = Self::split_path(path)?;
        let dir = self.lookup_path(dirpath)?;
        let d = self.vnodes.get_mut(&dir).ok_or(KError::Noent)?;
        let VnodeKind::Directory { entries } = &mut d.kind else {
            return Err(KError::Notdir);
        };
        let Entry::Vacant(slot) = entries.entry(name.to_string()) else {
            return Err(KError::Exist);
        };
        let v = VnodeId(self.next);
        self.next += 1;
        slot.insert(v);
        self.vnodes.insert(v, Vnode { id: v, kind: kind(v), nlink, open_refs: 0 });
        self.namecache.insert((dir, name.to_string()), v);
        Ok(v)
    }

    /// Unlinks a path. The vnode survives while it has links or open
    /// references (the "anonymous file" case of §5.2); returns it if it
    /// did not.
    pub(crate) fn unlink(&mut self, path: &str) -> Result<Option<Vnode>> {
        let (dirpath, name) = Self::split_path(path)?;
        let dir = self.lookup_path(dirpath)?;
        let d = self.vnodes.get_mut(&dir).ok_or(KError::Noent)?;
        let VnodeKind::Directory { entries } = &mut d.kind else {
            return Err(KError::Notdir);
        };
        let v = entries.remove(name).ok_or(KError::Noent)?;
        self.namecache.remove(&(dir, name.to_string()));
        let vn = self.vnodes.get_mut(&v).ok_or(KError::Noent)?;
        vn.nlink = vn.nlink.saturating_sub(1);
        Ok(self.maybe_reclaim(v))
    }

    /// Adds an open reference (an open-file description now points here).
    pub fn open_ref(&mut self, v: VnodeId) -> Result<()> {
        self.vnodes.get_mut(&v).ok_or(KError::Noent)?.open_refs += 1;
        Ok(())
    }

    /// Drops an open reference; returns the vnode if that reclaimed it.
    pub(crate) fn open_unref(&mut self, v: VnodeId) -> Result<Option<Vnode>> {
        let vn = self.vnodes.get_mut(&v).ok_or(KError::Noent)?;
        vn.open_refs = vn.open_refs.saturating_sub(1);
        Ok(self.maybe_reclaim(v))
    }

    fn maybe_reclaim(&mut self, v: VnodeId) -> Option<Vnode> {
        let vn = self.vnodes.get(&v)?;
        if vn.nlink == 0 && vn.open_refs == 0 {
            self.vnodes.remove(&v)
        } else {
            None
        }
    }

    /// A regular file's content object and size.
    pub fn regular(&self, v: VnodeId) -> Result<(ObjId, u64)> {
        match self.vnode(v)?.kind {
            VnodeKind::Regular { obj, size } => Ok((obj, size)),
            VnodeKind::Directory { .. } => Err(KError::Isdir),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_lookup_roundtrip() {
        let mut fs = Vfs::new();
        fs.mkdir("/tmp").unwrap();
        let v = fs.create_file("/tmp/a.txt", |_| ObjId(0)).unwrap();
        assert_eq!(fs.lookup_path("/tmp/a.txt").unwrap(), v);
    }

    #[test]
    fn duplicate_create_fails() {
        let mut fs = Vfs::new();
        fs.create_file("/x", |_| ObjId(0)).unwrap();
        assert_eq!(fs.create_file("/x", |_| ObjId(0)), Err(KError::Exist));
    }

    #[test]
    fn namecache_hits_after_first_lookup() {
        let mut fs = Vfs::new();
        fs.create_file("/hot", |_| ObjId(0)).unwrap();
        fs.lookup_path("/hot").unwrap();
        let h0 = fs.cache_hits;
        fs.lookup_path("/hot").unwrap();
        assert_eq!(fs.cache_hits, h0 + 1);
    }

    #[test]
    fn unlink_invalidates_namecache() {
        let mut fs = Vfs::new();
        fs.create_file("/gone", |_| ObjId(0)).unwrap();
        fs.lookup_path("/gone").unwrap();
        fs.unlink("/gone").unwrap();
        assert_eq!(fs.lookup_path("/gone"), Err(KError::Noent));
    }

    #[test]
    fn lookup_through_nested_dirs() {
        let mut fs = Vfs::new();
        fs.mkdir("/a").unwrap();
        fs.mkdir("/a/b").unwrap();
        let v = fs.create_file("/a/b/c", |_| ObjId(0)).unwrap();
        assert_eq!(fs.lookup_path("/a/b/c").unwrap(), v);
        assert_eq!(fs.lookup_path("/a/x"), Err(KError::Noent));
    }
}
