//! Per-process file descriptor tables.

use crate::error::{KError, Result};
use crate::file::FileId;

/// A file descriptor number.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fd(pub u32);

/// A per-process table mapping descriptor numbers to open-file
/// descriptions. Slots are reused lowest-first, as POSIX requires.
#[derive(Clone, Debug, Default)]
pub struct FdTable {
    slots: Vec<Option<FileId>>,
}

impl FdTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs `file` in the lowest free slot.
    pub fn install(&mut self, file: FileId) -> Fd {
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(file);
                return Fd(i as u32);
            }
        }
        self.slots.push(Some(file));
        Fd(self.slots.len() as u32 - 1)
    }

    /// Installs `file` at a specific descriptor (for restore and `dup2`),
    /// returning the previous occupant.
    pub fn install_at(&mut self, fd: Fd, file: FileId) -> Option<FileId> {
        let idx = fd.0 as usize;
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, None);
        }
        self.slots[idx].replace(file)
    }

    /// Resolves a descriptor.
    pub(crate) fn get(&self, fd: Fd) -> Result<FileId> {
        self.slots.get(fd.0 as usize).copied().flatten().ok_or(KError::Badf)
    }

    /// Removes a descriptor, returning the description it referenced.
    pub fn remove(&mut self, fd: Fd) -> Result<FileId> {
        let slot = self.slots.get_mut(fd.0 as usize).ok_or(KError::Badf)?;
        slot.take().ok_or(KError::Badf)
    }

    /// All live `(fd, file)` pairs in ascending fd order.
    pub fn iter(&self) -> impl Iterator<Item = (Fd, FileId)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|f| (Fd(i as u32), f)))
    }

    /// Number of live descriptors.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// True when no descriptors are open.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowest_slot_first() {
        let mut t = FdTable::new();
        let a = t.install(FileId(1));
        let b = t.install(FileId(2));
        assert_eq!((a, b), (Fd(0), Fd(1)));
        t.remove(a).unwrap();
        assert_eq!(t.install(FileId(3)), Fd(0), "freed slot is reused first");
    }

    #[test]
    fn get_and_remove() {
        let mut t = FdTable::new();
        let fd = t.install(FileId(7));
        assert_eq!(t.get(fd).unwrap(), FileId(7));
        assert_eq!(t.remove(fd).unwrap(), FileId(7));
        assert_eq!(t.get(fd), Err(KError::Badf));
        assert_eq!(t.remove(fd), Err(KError::Badf));
    }

    #[test]
    fn install_at_extends_table() {
        let mut t = FdTable::new();
        assert_eq!(t.install_at(Fd(5), FileId(9)), None);
        assert_eq!(t.get(Fd(5)).unwrap(), FileId(9));
        // Lower slots remain free and are used first.
        assert_eq!(t.install(FileId(1)), Fd(0));
    }

    #[test]
    fn iter_ascending() {
        let mut t = FdTable::new();
        t.install_at(Fd(3), FileId(3));
        t.install_at(Fd(1), FileId(1));
        let v: Vec<_> = t.iter().collect();
        assert_eq!(v, vec![(Fd(1), FileId(1)), (Fd(3), FileId(3))]);
    }
}
