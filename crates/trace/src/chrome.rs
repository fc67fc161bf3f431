//! Chrome trace-event JSON exporter.
//!
//! Renders a recorded event list as the `{"traceEvents": [...]}` object
//! format accepted by `about://tracing` and Perfetto. The layout is
//! deterministic: events appear in issue order, every track (one per
//! category, sorted by name) gets a stable tid, and timestamps are
//! printed with fixed microsecond.3 precision so identical runs export
//! byte-identical documents.

use crate::{json, Phase, TraceEvent};

/// Virtual process id for all tracks — there is one simulated machine.
const PID: u32 = 1;

/// Formats a nanosecond timestamp as the microseconds Chrome expects,
/// with exactly three decimals (no float formatting involved).
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn args_json(args: &[(&'static str, u64)]) -> String {
    let mut s = String::from("{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\"{}\":{}", json::escape(k), v));
    }
    s.push('}');
    s
}

/// Exports `events` as a Chrome trace-event JSON document.
pub fn export(events: &[TraceEvent]) -> String {
    // One track per category, in sorted order for stable tids.
    let mut cats: Vec<&'static str> = events.iter().map(|e| e.cat).collect();
    cats.sort_unstable();
    cats.dedup();
    let tid_of = |cat: &str| cats.iter().position(|c| *c == cat).unwrap() as u32 + 1;

    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |line: String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&line);
    };

    // Track-name metadata so viewers label rows by subsystem.
    for cat in &cats {
        push(
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{PID},\"tid\":{},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                tid_of(cat),
                json::escape(cat)
            ),
            &mut first,
        );
    }

    for e in events {
        let tid = tid_of(e.cat);
        let name = json::escape(&e.name);
        let cat = json::escape(e.cat);
        let args = args_json(&e.args);
        let line = match e.ph {
            Phase::Complete => format!(
                "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":{PID},\"tid\":{tid},\"args\":{args}}}",
                us(e.ts),
                us(e.dur)
            ),
            Phase::Instant => format!(
                "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\
                 \"pid\":{PID},\"tid\":{tid},\"args\":{args}}}",
                us(e.ts)
            ),
        };
        push(line, &mut first);
    }

    out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Trace;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn sample_trace() -> Trace {
        let clk = Arc::new(AtomicU64::new(0));
        let c = clk.clone();
        let t = Trace::recording(move || c.load(Ordering::Relaxed));
        clk.store(1_500, Ordering::Relaxed);
        let s = t.span("pipeline", "quiesce");
        clk.store(4_750, Ordering::Relaxed);
        s.end();
        t.instant("storage", "write", &[("lba", 12), ("nblocks", 4)]);
        t.instant("vm", "dirty_pages", &[("value", 37)]);
        t
    }

    #[test]
    fn export_is_valid_json() {
        let doc = sample_trace().export_chrome();
        json::validate(&doc).unwrap();
    }

    #[test]
    fn export_contains_expected_records() {
        let doc = sample_trace().export_chrome();
        assert!(doc.contains("\"name\":\"quiesce\""));
        assert!(doc.contains("\"ph\":\"X\""));
        assert!(doc.contains("\"ts\":1.500"));
        assert!(doc.contains("\"dur\":3.250"));
        assert!(doc.contains("\"ph\":\"i\""));
        assert!(doc.contains("\"lba\":12"));
        assert!(doc.contains("\"value\":37"));
        // Track metadata for each category.
        for cat in ["pipeline", "storage", "vm"] {
            assert!(doc.contains(&format!("\"args\":{{\"name\":\"{cat}\"}}")));
        }
    }

    #[test]
    fn export_is_deterministic() {
        let a = sample_trace().export_chrome();
        let b = sample_trace().export_chrome();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_trace_exports_cleanly() {
        let doc = export(&[]);
        json::validate(&doc).unwrap();
        assert!(doc.contains("traceEvents"));
    }
}
