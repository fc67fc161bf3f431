//! The frame arena: one identity for a 4 KiB page wherever it lives.
//!
//! Aurora is a *single level* store — a page is the same object whether
//! it sits in a process's address space, a frozen shadow chain, or the
//! object store's page cache. This crate provides that identity as a
//! refcounted immutable-until-unique frame:
//!
//! * [`PageRef`] is an `Arc`-backed 4 KiB page. Cloning it shares the
//!   frame; nothing copies bytes.
//! * Mutation goes through [`FrameArena::make_mut`], which hands out a
//!   direct `&mut` when the frame is uniquely held and otherwise breaks
//!   COW by cloning the bytes into a fresh frame — the *only* place in
//!   the whole system a resident page is copied.
//! * A single shared **zero frame** backs zero-fill faults: faulting a
//!   fresh page is a refcount bump, and the 4 KiB allocation + memset is
//!   deferred to the first byte actually written.
//! * A [`FrameArena`] carries the gauges ([`FrameGauges`]): `resident`
//!   frames attributed to it, `shared` frames (refcount ≥ 2), and the
//!   cumulative `copies_broken`. The gauges are per-arena (an `Arc`'d
//!   counter block), so parallel tests and independent machines never
//!   contaminate each other; one `Sls` wires a single arena through its
//!   VM and its store.
//!
//! Gauge semantics:
//!
//! * `resident` — live frames attributed to the arena, plus the arena's
//!   own zero frame. Detached frames ([`PageRef::detached`], the global
//!   [`PageRef::zero`]) are invisible to every gauge.
//! * `shared` — attributed frames whose refcount is currently ≥ 2: the
//!   pages for which a copy has been *avoided* so far.
//! * `copies_broken` — make_mut calls that had to clone a shared
//!   *data* frame. Materializing the zero frame is not counted: writing
//!   a fresh zero-fill page allocates, it does not duplicate data.

use aurora_trace::Trace;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Page size in bytes (x86-64 base pages, as in the paper's testbed).
pub const PAGE_SIZE: usize = 4096;

/// One page of bytes.
pub type PageBytes = [u8; PAGE_SIZE];

/// Arena-wide gauge snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrameGauges {
    /// Live frames attributed to the arena.
    pub resident: u64,
    /// Attributed frames currently shared (refcount ≥ 2).
    pub shared: u64,
    /// Cumulative COW breaks: shared data frames cloned on write.
    pub copies_broken: u64,
}

#[derive(Debug, Default)]
struct Counters {
    resident: AtomicU64,
    shared: AtomicU64,
    copies_broken: AtomicU64,
    /// Write-path trace, off by default. The flag keeps the untraced
    /// fast path to one relaxed load (no mutex).
    traced: AtomicBool,
    trace: Mutex<Trace>,
}

#[derive(Debug)]
struct FrameInner {
    /// Gauge block of the owning arena; `None` for detached frames and
    /// the global zero frame.
    counters: Option<Arc<Counters>>,
    /// True for zero frames: materializing one is an allocation, not a
    /// COW break.
    zero: bool,
    data: PageBytes,
}

/// A refcounted page frame. `Clone` shares the frame (no bytes move);
/// reads deref to the page; writes go through [`FrameArena::make_mut`].
#[derive(Debug)]
pub struct PageRef {
    inner: Arc<FrameInner>,
}

impl PageRef {
    /// The process-wide shared zero frame, for callers without an arena
    /// (tests, decoders). Never counted by any gauge.
    pub fn zero() -> PageRef {
        static ZERO: OnceLock<PageRef> = OnceLock::new();
        ZERO.get_or_init(|| PageRef {
            inner: Arc::new(FrameInner { counters: None, zero: true, data: [0u8; PAGE_SIZE] }),
        })
        .clone()
    }

    /// A frame not attributed to any arena (invisible to gauges). For
    /// test fixtures and one-off buffers; system code should allocate
    /// through its arena.
    pub fn detached(data: PageBytes) -> PageRef {
        PageRef { inner: Arc::new(FrameInner { counters: None, zero: false, data }) }
    }

    /// The page bytes.
    pub fn bytes(&self) -> &PageBytes {
        &self.inner.data
    }

    /// True if both refs share one frame.
    pub fn ptr_eq(a: &PageRef, b: &PageRef) -> bool {
        Arc::ptr_eq(&a.inner, &b.inner)
    }

    /// True for a zero frame (global or arena-local) that has never been
    /// materialized.
    pub fn is_zero_frame(&self) -> bool {
        self.inner.zero
    }

    /// Current number of refs sharing this frame.
    pub fn ref_count(&self) -> usize {
        Arc::strong_count(&self.inner)
    }
}

impl Clone for PageRef {
    fn clone(&self) -> Self {
        if let Some(c) = &self.inner.counters {
            // unique → shared transition.
            if Arc::strong_count(&self.inner) == 1 {
                c.shared.fetch_add(1, Ordering::Relaxed);
            }
        }
        PageRef { inner: self.inner.clone() }
    }
}

impl Drop for PageRef {
    fn drop(&mut self) {
        if let Some(c) = &self.inner.counters {
            match Arc::strong_count(&self.inner) {
                // Last ref: the frame dies.
                1 => {
                    c.resident.fetch_sub(1, Ordering::Relaxed);
                }
                // shared → unique transition.
                2 => {
                    c.shared.fetch_sub(1, Ordering::Relaxed);
                }
                _ => {}
            }
        }
    }
}

impl std::ops::Deref for PageRef {
    type Target = PageBytes;
    fn deref(&self) -> &PageBytes {
        &self.inner.data
    }
}

impl PartialEq for PageRef {
    fn eq(&self, other: &Self) -> bool {
        PageRef::ptr_eq(self, other) || self.inner.data == other.inner.data
    }
}

impl Eq for PageRef {}

/// A handle to one machine's frame gauges plus its local zero frame.
/// Cheap to clone (all clones share the counters); every allocation and
/// COW break made through a handle is attributed to it.
#[derive(Clone, Debug)]
pub struct FrameArena {
    counters: Arc<Counters>,
    zero: PageRef,
}

impl Default for FrameArena {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameArena {
    /// Creates an arena with fresh gauges and its own zero frame (which
    /// counts as one resident frame).
    pub fn new() -> Self {
        let counters = Arc::new(Counters::default());
        counters.resident.fetch_add(1, Ordering::Relaxed);
        let zero = PageRef {
            inner: Arc::new(FrameInner {
                counters: Some(counters.clone()),
                zero: true,
                data: [0u8; PAGE_SIZE],
            }),
        };
        Self { counters, zero }
    }

    /// The arena's shared zero frame: zero-fill faults clone this instead
    /// of allocating. The returned ref shares one frame with every other
    /// zero-fill in the arena until [`make_mut`](Self::make_mut)
    /// materializes a private copy.
    pub fn zero(&self) -> PageRef {
        self.zero.clone()
    }

    /// Allocates a frame holding `data`, attributed to this arena.
    pub fn alloc(&self, data: PageBytes) -> PageRef {
        self.counters.resident.fetch_add(1, Ordering::Relaxed);
        PageRef {
            inner: Arc::new(FrameInner {
                counters: Some(self.counters.clone()),
                zero: false,
                data,
            }),
        }
    }

    /// Write access to a frame. Unique frames are written in place;
    /// shared frames are cloned first (the COW break — the only page
    /// copy in the system) with the copy attributed to this arena.
    /// Breaking a *zero* frame allocates but is not a `copies_broken`
    /// event: no data existed to duplicate.
    pub fn make_mut<'a>(&self, page: &'a mut PageRef) -> &'a mut PageBytes {
        let was_shared = Arc::strong_count(&page.inner) != 1;
        let was_zero = page.inner.zero;
        if Arc::strong_count(&page.inner) != 1 {
            let from_zero = page.inner.zero;
            self.counters.resident.fetch_add(1, Ordering::Relaxed);
            if !from_zero {
                self.counters.copies_broken.fetch_add(1, Ordering::Relaxed);
            }
            *page = PageRef {
                inner: Arc::new(FrameInner {
                    counters: Some(self.counters.clone()),
                    zero: false,
                    data: page.inner.data,
                }),
            };
        } else if page.inner.zero {
            // A uniquely-held zero frame can only be the arena's own (the
            // arena itself holds a ref, so handed-out zeros are never
            // unique) or a detached one; either way materialize rather
            // than corrupt the shared zeros.
            self.counters.resident.fetch_add(1, Ordering::Relaxed);
            *page = PageRef {
                inner: Arc::new(FrameInner {
                    counters: Some(self.counters.clone()),
                    zero: false,
                    data: page.inner.data,
                }),
            };
        }
        if self.counters.traced.load(Ordering::Relaxed) {
            // `copied` reports whether the write landed in a fresh frame:
            // every shared entry is cloned, and a zero frame is always
            // materialized. The invariant checker flags `shared && !copied`
            // — an in-place write mutating a frozen view.
            let copied = was_shared || was_zero;
            let trace = self.counters.trace.lock().unwrap().clone();
            trace.instant(
                "frames",
                "frames.write",
                &[
                    ("shared", was_shared as u64),
                    ("copied", copied as u64),
                    ("zero", was_zero as u64),
                ],
            );
        }
        &mut Arc::get_mut(&mut page.inner).expect("unique after COW break").data
    }

    /// Installs a trace recorder on the arena's shared counter block:
    /// every clone of this arena starts emitting `frames.write` instants
    /// from [`make_mut`](Self::make_mut). A disabled trace turns the
    /// instrumentation back off.
    pub fn set_trace(&self, trace: Trace) {
        let enabled = trace.is_enabled();
        *self.counters.trace.lock().unwrap() = trace;
        self.counters.traced.store(enabled, Ordering::Relaxed);
    }

    /// Gauge snapshot.
    pub fn gauges(&self) -> FrameGauges {
        FrameGauges {
            resident: self.counters.resident.load(Ordering::Relaxed),
            shared: self.counters.shared.load(Ordering::Relaxed),
            copies_broken: self.counters.copies_broken.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_frame_is_zero_and_shared() {
        let a = PageRef::zero();
        let b = PageRef::zero();
        assert!(a.iter().all(|&x| x == 0));
        assert!(PageRef::ptr_eq(&a, &b), "one global zero frame");
        assert!(a.is_zero_frame());
    }

    #[test]
    fn arena_zero_fills_share_one_frame() {
        let arena = FrameArena::new();
        let g0 = arena.gauges();
        assert_eq!(g0.resident, 1, "the arena's zero frame is resident");
        assert_eq!(g0.shared, 0);
        let a = arena.zero();
        let b = arena.zero();
        assert!(PageRef::ptr_eq(&a, &b));
        let g = arena.gauges();
        assert_eq!(g.resident, 1, "zero fills allocate nothing");
        assert_eq!(g.shared, 1, "the zero frame is now shared");
        drop(a);
        drop(b);
        assert_eq!(arena.gauges().shared, 0);
    }

    #[test]
    fn clone_shares_and_drop_unshares() {
        let arena = FrameArena::new();
        let a = arena.alloc([7u8; PAGE_SIZE]);
        assert_eq!(arena.gauges(), FrameGauges { resident: 2, shared: 0, copies_broken: 0 });
        let b = a.clone();
        assert!(PageRef::ptr_eq(&a, &b));
        assert_eq!(arena.gauges().shared, 1, "shared counts frames, not refs");
        let c = a.clone();
        assert_eq!(arena.gauges().shared, 1);
        drop(b);
        drop(c);
        assert_eq!(arena.gauges().shared, 0);
        drop(a);
        assert_eq!(arena.gauges().resident, 1, "only the zero frame remains");
    }

    #[test]
    fn make_mut_unique_writes_in_place() {
        let arena = FrameArena::new();
        let mut a = arena.alloc([1u8; PAGE_SIZE]);
        let before = arena.gauges();
        arena.make_mut(&mut a)[0] = 9;
        assert_eq!(a[0], 9);
        assert_eq!(arena.gauges(), before, "no copy, no gauge movement");
    }

    #[test]
    fn make_mut_shared_breaks_cow_once() {
        let arena = FrameArena::new();
        let a = arena.alloc([1u8; PAGE_SIZE]);
        let mut b = a.clone();
        arena.make_mut(&mut b)[0] = 9;
        assert_eq!(a[0], 1, "the frozen side is untouched");
        assert_eq!(b[0], 9);
        assert!(!PageRef::ptr_eq(&a, &b));
        let g = arena.gauges();
        assert_eq!(g.copies_broken, 1);
        assert_eq!(g.shared, 0, "the break unshared the frame");
        assert_eq!(g.resident, 3, "zero + original + copy");
        // Second write: in place, no second break.
        arena.make_mut(&mut b)[1] = 8;
        assert_eq!(arena.gauges().copies_broken, 1);
    }

    #[test]
    fn materializing_zero_is_not_a_break() {
        let arena = FrameArena::new();
        let mut z = arena.zero();
        arena.make_mut(&mut z)[0] = 5;
        assert_eq!(z[0], 5);
        assert_eq!(arena.zero()[0], 0, "the shared zeros stay zero");
        let g = arena.gauges();
        assert_eq!(g.copies_broken, 0, "zero materialization is an alloc");
        assert_eq!(g.resident, 2);
    }

    #[test]
    fn detached_frames_are_invisible_to_gauges() {
        let arena = FrameArena::new();
        let before = arena.gauges();
        let a = PageRef::detached([3u8; PAGE_SIZE]);
        let b = a.clone();
        drop(b);
        drop(a);
        let z = PageRef::zero();
        drop(z);
        assert_eq!(arena.gauges(), before);
    }

    #[test]
    fn make_mut_on_global_zero_attributes_to_arena() {
        let arena = FrameArena::new();
        let mut z = PageRef::zero();
        arena.make_mut(&mut z)[0] = 1;
        assert_eq!(arena.gauges().resident, 2, "materialized into the arena");
        assert_eq!(arena.gauges().copies_broken, 0);
        assert_eq!(PageRef::zero()[0], 0);
    }

    #[test]
    fn traced_writes_emit_frames_write_instants() {
        let arena = FrameArena::new();
        let trace = Trace::recording(|| 0);
        arena.set_trace(trace.clone());
        // In-place write to a unique frame.
        let mut a = arena.alloc([1u8; PAGE_SIZE]);
        arena.make_mut(&mut a)[0] = 2;
        // COW break of a shared frame.
        let mut b = a.clone();
        arena.make_mut(&mut b)[0] = 3;
        // Zero materialization.
        let mut z = arena.zero();
        arena.make_mut(&mut z)[0] = 4;
        let evs = trace.events();
        let writes: Vec<_> = evs.iter().filter(|e| e.name == "frames.write").collect();
        assert_eq!(writes.len(), 3);
        assert_eq!(writes[0].args, vec![("shared", 0), ("copied", 0), ("zero", 0)]);
        assert_eq!(writes[1].args, vec![("shared", 1), ("copied", 1), ("zero", 0)]);
        assert_eq!(writes[2].args, vec![("shared", 1), ("copied", 1), ("zero", 1)]);
        // Disabling stops emission.
        arena.set_trace(Trace::disabled());
        arena.make_mut(&mut a)[1] = 5;
        assert_eq!(trace.events().len(), evs.len());
    }

    #[test]
    fn page_eq_compares_content() {
        let arena = FrameArena::new();
        let a = arena.alloc([4u8; PAGE_SIZE]);
        let b = arena.alloc([4u8; PAGE_SIZE]);
        let c = arena.alloc([5u8; PAGE_SIZE]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
