//! Pseudoterminals.
//!
//! Restoring a pty is the slow row of Table 4 (~30 µs): it must recreate
//! the device node in devfs, which takes the devfs locks.

use std::collections::VecDeque;

/// Terminal settings that survive a checkpoint (termios subset).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Termios {
    /// Canonical (line-buffered) mode.
    pub canonical: bool,
    /// Echo input.
    pub echo: bool,
    /// Baud rate.
    pub baud: u32,
}

impl Default for Termios {
    fn default() -> Self {
        Self { canonical: true, echo: true, baud: 38_400 }
    }
}

/// A pseudoterminal pair; its table id is the `/dev/pts/N` number.
#[derive(Clone, Debug, Default)]
pub struct Pty {
    /// Terminal settings.
    pub termios: Termios,
    /// Bytes waiting master→slave (input to the application).
    pub input: VecDeque<u8>,
    /// Bytes waiting slave→master (application output).
    pub output: VecDeque<u8>,
    /// Foreground process group (local pid space).
    pub fg_pgid: Option<u32>,
    /// Open-file descriptions of either side; the pair is freed when the
    /// last one closes. Not persisted: a restore recounts it as the
    /// descriptions install, like a vnode's `open_refs`.
    pub open_refs: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_termios_is_canonical() {
        let p = Pty::default();
        assert!(p.termios.canonical && p.termios.echo);
        assert_eq!(p.termios.baud, 38_400);
    }
}
