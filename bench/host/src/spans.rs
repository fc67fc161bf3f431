//! Harness spans: host-time intervals recorded around every call the
//! benchmark makes into a crate, from outside the crate.
//!
//! A span is `{name, start, end, parent, op}`. Spans nest: the device
//! wrapper opens `storage.*` spans while a `core.*` span is open, so a
//! parent's *self time* is its duration minus the time its children
//! cover. Spans live in memory and are written out when the run ends.
//! With recording off (every end-to-end run) `enter` is one relaxed
//! load and no clock is read.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// "No parent" / "not recording" marker.
pub const NONE: u32 = u32::MAX;

/// One recorded interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// `<crate>.<call>`.
    pub name: &'static str,
    /// Host ns since the log was created.
    pub start: u64,
    /// Host ns since the log was created.
    pub end: u64,
    /// Index of the enclosing span, or [`NONE`].
    pub parent: u32,
    /// Timed operation the span belongs to.
    pub op: u32,
    /// Bytes moved (device spans), else 0.
    pub bytes: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
}

struct Inner {
    on: AtomicBool,
    t0: Instant,
    state: Mutex<State>,
}

/// A shareable span recorder. The harness and the device wrapper hold
/// clones of one log.
#[derive(Clone)]
pub struct SpanLog(Arc<Inner>);

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    /// A log with recording off.
    pub fn new() -> Self {
        Self(Arc::new(Inner {
            on: AtomicBool::new(false),
            t0: Instant::now(),
            state: Mutex::new(State::default()),
        }))
    }

    /// Turns recording on or off.
    pub fn set_recording(&self, on: bool) {
        self.0.on.store(on, Ordering::Relaxed);
    }

    /// Whether spans are being recorded.
    pub fn recording(&self) -> bool {
        self.0.on.load(Ordering::Relaxed)
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.0
            .state
            .lock()
            .expect("span log is only used by the one benchmark thread")
    }

    /// Sets the operation id stamped on subsequent spans.
    pub fn set_op(&self, op: u32) {
        if self.recording() {
            self.state().op = op;
        }
    }

    /// Opens a span; returns its index ([`NONE`] when not recording).
    pub fn enter(&self, name: &'static str) -> u32 {
        if !self.recording() {
            return NONE;
        }
        let mut st = self.state();
        let id = st.spans.len() as u32;
        let parent = st.stack.last().copied().unwrap_or(NONE);
        let op = st.op;
        st.stack.push(id);
        // Read the clock last so the bookkeeping above is charged to
        // the parent, not to this span.
        let start = self.0.t0.elapsed().as_nanos() as u64;
        st.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            op,
            bytes: 0,
        });
        id
    }

    /// Closes the span `id` returned by [`enter`](Self::enter).
    pub fn exit(&self, id: u32, bytes: u64) {
        if id == NONE {
            return;
        }
        let end = self.0.t0.elapsed().as_nanos() as u64;
        let mut st = self.state();
        let top = st.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        let s = &mut st.spans[id as usize];
        s.end = end;
        s.bytes = bytes;
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id, 0);
        r
    }

    /// Takes every recorded span out of the log.
    pub fn take(&self) -> Vec<Span> {
        let mut st = self.state();
        debug_assert!(st.stack.is_empty(), "take() with spans still open");
        std::mem::take(&mut st.spans)
    }
}

/// Per-name totals over a span list.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of self times (duration minus direct children), ns.
    pub self_ns: u64,
}

/// Self time of every span: its duration minus what its direct children
/// cover. Children never overlap each other (one thread, strict
/// nesting), so the subtraction is exact.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if s.parent != NONE {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.dur());
        }
    }
    own
}

/// Aggregates spans by name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, &self_ns) in spans.iter().zip(&own) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur();
        t.self_ns += self_ns;
    }
    out
}

/// Durations (ns) of every span called `name`, in recording order.
pub fn durations_of(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur() as f64)
        .collect()
}

/// Writes spans as compact JSON: a name table plus one
/// `[name, start_ns, end_ns, parent, op, bytes]` row per span
/// (`parent` is a row index, -1 for none).
pub fn write_json(
    path: &std::path::Path,
    workload: &str,
    seed: u64,
    spans: &[Span],
) -> std::io::Result<()> {
    let mut names: Vec<&'static str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    let idx: BTreeMap<&str, usize> = names.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let f = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(f);
    write!(
        w,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"clock\":\"host_ns\","
    )?;
    write!(
        w,
        "\"columns\":[\"name\",\"start\",\"end\",\"parent\",\"op\",\"bytes\"],\"names\":["
    )?;
    for (i, n) in names.iter().enumerate() {
        write!(w, "{}\"{n}\"", if i > 0 { "," } else { "" })?;
    }
    write!(w, "],\"spans\":[")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NONE {
            -1
        } else {
            s.parent as i64
        };
        write!(
            w,
            "{}\n[{},{},{},{},{},{}]",
            if i > 0 { "," } else { "" },
            idx[s.name],
            s.start,
            s.end,
            parent,
            s.op,
            s.bytes
        )?;
    }
    writeln!(w, "\n]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 0,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // core [0,100] ⊃ storage.write [10,30] ⊃ inner [12,20]; core ⊃ storage.flush [40,45].
        let spans = vec![
            span("core.sls_checkpoint", 0, 100, NONE),
            span("storage.write", 10, 30, 0),
            span("storage.inner", 12, 20, 1),
            span("storage.flush", 40, 45, 0),
        ];
        assert_eq!(self_times(&spans), vec![100 - 20 - 5, 20 - 8, 8, 5]);
        let t = totals_by_name(&spans);
        assert_eq!(t["core.sls_checkpoint"].self_ns, 75);
        assert_eq!(t["storage.write"].total_ns, 20);
    }

    #[test]
    fn recording_nests_and_off_records_nothing() {
        let log = SpanLog::new();
        assert_eq!(log.enter("a.b"), NONE);
        log.set_recording(true);
        log.set_op(7);
        let outer = log.enter("core.x");
        log.time("storage.y", || ());
        log.exit(outer, 0);
        let spans = log.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].parent, spans[1].parent, spans[1].op),
            (NONE, 0, 7)
        );
        assert!(spans[0].end >= spans[1].end && spans[1].start >= spans[0].start);
    }
}
