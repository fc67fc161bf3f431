//! Kqueues: kernel event queues.
//!
//! Table 4 measures a kqueue holding 1024 registered events; serializing
//! one costs a per-event scan because every `knote` must be locked.

/// Event filter (subset of FreeBSD's).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Filter {
    /// Readable.
    Read,
    /// Writable.
    Write,
    /// Timer.
    Timer,
    /// Process events.
    Proc,
}

/// One registered event (a `knote`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Kevent {
    /// Identifier (fd, pid, or timer id depending on the filter).
    pub ident: u64,
    /// Filter.
    pub filter: Filter,
    /// Enabled?
    pub enabled: bool,
    /// User data cookie.
    pub udata: u64,
}

/// A kqueue.
#[derive(Clone, Debug, Default)]
pub struct Kqueue {
    /// Registered events.
    pub events: Vec<Kevent>,
}

impl Kqueue {
    /// Registers (or replaces) an event keyed by (ident, filter).
    pub(crate) fn register(&mut self, ev: Kevent) {
        if let Some(existing) =
            self.events.iter_mut().find(|e| e.ident == ev.ident && e.filter == ev.filter)
        {
            *existing = ev;
        } else {
            self.events.push(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_replaces_same_key() {
        let mut kq = Kqueue::default();
        kq.register(Kevent { ident: 3, filter: Filter::Read, enabled: true, udata: 1 });
        kq.register(Kevent { ident: 3, filter: Filter::Read, enabled: false, udata: 2 });
        assert_eq!(kq.events.len(), 1);
        assert_eq!(kq.events[0].udata, 2);
        kq.register(Kevent { ident: 3, filter: Filter::Write, enabled: true, udata: 3 });
        assert_eq!(kq.events.len(), 2);
    }
}
