//! A tmpfs-style VFS with a name cache.
//!
//! Vnodes carry a link count *and* an open-reference count: an unlinked
//! but still-open ("anonymous") file survives until its last close. The
//! Aurora file system additionally persists such files across crashes via
//! a hidden link count (§5.2); the serializer reads `open_refs` from here.

use crate::error::{KError, Result};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};

/// A vnode identifier (also the inode number).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VnodeId(pub u64);

/// Vnode type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VnodeKind {
    /// Regular file with contents.
    Regular {
        /// File contents.
        data: Vec<u8>,
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

    /// Inserts a vnode with a specific id (restore path).
    pub fn insert_vnode(&mut self, vnode: Vnode) {
        self.next = self.next.max(vnode.id.0 + 1);
        self.vnodes.insert(vnode.id, vnode);
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

    /// Creates a regular file at an absolute path.
    pub(crate) fn create_file(&mut self, path: &str) -> Result<VnodeId> {
        self.create(path, VnodeKind::Regular { data: Vec::new() }, 1)
    }

    /// Creates a directory at an absolute path.
    pub fn mkdir(&mut self, path: &str) -> Result<VnodeId> {
        self.create(path, VnodeKind::Directory { entries: BTreeMap::new() }, 2)
    }

    fn create(&mut self, path: &str, kind: VnodeKind, nlink: u32) -> Result<VnodeId> {
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
        self.vnodes.insert(v, Vnode { id: v, kind, nlink, open_refs: 0 });
        self.namecache.insert((dir, name.to_string()), v);
        Ok(v)
    }

    /// Unlinks a path. The vnode survives while it has links or open
    /// references (the "anonymous file" case of §5.2).
    pub(crate) fn unlink(&mut self, path: &str) -> Result<()> {
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
        self.maybe_reclaim(v);
        Ok(())
    }

    /// Adds an open reference (an open-file description now points here).
    pub fn open_ref(&mut self, v: VnodeId) -> Result<()> {
        self.vnodes.get_mut(&v).ok_or(KError::Noent)?.open_refs += 1;
        Ok(())
    }

    /// Drops an open reference, reclaiming the vnode if fully dead.
    pub(crate) fn open_unref(&mut self, v: VnodeId) -> Result<()> {
        let vn = self.vnodes.get_mut(&v).ok_or(KError::Noent)?;
        vn.open_refs = vn.open_refs.saturating_sub(1);
        self.maybe_reclaim(v);
        Ok(())
    }

    fn maybe_reclaim(&mut self, v: VnodeId) {
        if let Some(vn) = self.vnodes.get(&v) {
            if vn.nlink == 0 && vn.open_refs == 0 {
                self.vnodes.remove(&v);
            }
        }
    }

    /// Reads from a regular file at `offset`.
    pub(crate) fn read_at(&self, v: VnodeId, offset: u64, len: usize) -> Result<Vec<u8>> {
        let vn = self.vnode(v)?;
        let VnodeKind::Regular { data } = &vn.kind else { return Err(KError::Isdir) };
        let start = (offset as usize).min(data.len());
        let end = (start + len).min(data.len());
        Ok(data[start..end].to_vec())
    }

    /// Writes to a regular file at `offset`, growing it as needed.
    pub(crate) fn write_at(&mut self, v: VnodeId, offset: u64, buf: &[u8]) -> Result<usize> {
        let vn = self.vnode_mut(v)?;
        let VnodeKind::Regular { data } = &mut vn.kind else { return Err(KError::Isdir) };
        let start = offset as usize;
        if data.len() < start + buf.len() {
            data.resize(start + buf.len(), 0);
        }
        data[start..start + buf.len()].copy_from_slice(buf);
        Ok(buf.len())
    }

    /// Size of a regular file.
    pub(crate) fn size(&self, v: VnodeId) -> Result<u64> {
        let vn = self.vnode(v)?;
        match &vn.kind {
            VnodeKind::Regular { data } => Ok(data.len() as u64),
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
        let v = fs.create_file("/tmp/a.txt").unwrap();
        assert_eq!(fs.lookup_path("/tmp/a.txt").unwrap(), v);
    }

    #[test]
    fn duplicate_create_fails() {
        let mut fs = Vfs::new();
        fs.create_file("/x").unwrap();
        assert_eq!(fs.create_file("/x"), Err(KError::Exist));
    }

    #[test]
    fn read_write_grow() {
        let mut fs = Vfs::new();
        let v = fs.create_file("/f").unwrap();
        fs.write_at(v, 4, b"data").unwrap();
        assert_eq!(fs.size(v).unwrap(), 8);
        assert_eq!(fs.read_at(v, 0, 8).unwrap(), b"\0\0\0\0data");
        assert_eq!(fs.read_at(v, 100, 4).unwrap(), b"", "read past EOF is empty");
    }

    #[test]
    fn anonymous_file_survives_unlink_while_open() {
        let mut fs = Vfs::new();
        let v = fs.create_file("/anon").unwrap();
        fs.open_ref(v).unwrap();
        fs.unlink("/anon").unwrap();
        assert_eq!(fs.lookup_path("/anon"), Err(KError::Noent));
        // Still readable through the open reference.
        fs.write_at(v, 0, b"still here").unwrap();
        assert_eq!(fs.read_at(v, 0, 10).unwrap(), b"still here");
        // Last close reclaims it.
        fs.open_unref(v).unwrap();
        assert_eq!(fs.read_at(v, 0, 1), Err(KError::Noent));
    }

    #[test]
    fn namecache_hits_after_first_lookup() {
        let mut fs = Vfs::new();
        fs.create_file("/hot").unwrap();
        fs.lookup_path("/hot").unwrap();
        let h0 = fs.cache_hits;
        fs.lookup_path("/hot").unwrap();
        assert_eq!(fs.cache_hits, h0 + 1);
    }

    #[test]
    fn unlink_invalidates_namecache() {
        let mut fs = Vfs::new();
        fs.create_file("/gone").unwrap();
        fs.lookup_path("/gone").unwrap();
        fs.unlink("/gone").unwrap();
        assert_eq!(fs.lookup_path("/gone"), Err(KError::Noent));
    }

    #[test]
    fn lookup_through_nested_dirs() {
        let mut fs = Vfs::new();
        fs.mkdir("/a").unwrap();
        fs.mkdir("/a/b").unwrap();
        let v = fs.create_file("/a/b/c").unwrap();
        assert_eq!(fs.lookup_path("/a/b/c").unwrap(), v);
        assert_eq!(fs.lookup_path("/a/x"), Err(KError::Noent));
    }
}
