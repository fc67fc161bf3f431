//! Pipes.

use std::collections::VecDeque;

/// Default pipe buffer capacity (FreeBSD's 64 KiB).
pub const PIPE_CAPACITY: usize = 64 * 1024;

/// A pipe: a bounded byte queue between two open-file descriptions.
#[derive(Clone, Debug)]
pub struct Pipe {
    /// Buffered bytes.
    pub buffer: VecDeque<u8>,
    /// Capacity in bytes.
    pub capacity: usize,
    /// Reader end still open.
    pub reader_open: bool,
    /// Writer end still open.
    pub writer_open: bool,
}

impl Pipe {
    /// Creates an empty pipe.
    pub(crate) fn new() -> Self {
        Self {
            buffer: VecDeque::new(),
            capacity: PIPE_CAPACITY,
            reader_open: true,
            writer_open: true,
        }
    }

    /// Bytes that can be written without blocking.
    pub(crate) fn room(&self) -> usize {
        self.capacity - self.buffer.len()
    }

    /// Appends up to `room()` bytes, returning how many were taken.
    pub(crate) fn push(&mut self, data: &[u8]) -> usize {
        let n = data.len().min(self.room());
        self.buffer.extend(&data[..n]);
        n
    }

    /// Removes up to `len` bytes.
    pub(crate) fn pop(&mut self, len: usize) -> Vec<u8> {
        let n = len.min(self.buffer.len());
        self.buffer.drain(..n).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut p = Pipe::new();
        p.push(b"abc");
        p.push(b"def");
        assert_eq!(p.pop(4), b"abcd");
        assert_eq!(p.pop(10), b"ef");
    }

    #[test]
    fn capacity_limits_push() {
        let mut p = Pipe::new();
        p.capacity = 4;
        assert_eq!(p.push(b"abcdef"), 4);
        assert_eq!(p.room(), 0);
        p.pop(2);
        assert_eq!(p.push(b"xy"), 2);
    }
}
