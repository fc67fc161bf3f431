//! Exporter correctness: Prometheus name sanitization, JSON string
//! escaping in `series_json`, and histogram percentile edge cases.

use aurora_trace::json::validate;
use aurora_trace::{Histogram, Sampler};

fn vals(pairs: &[(&str, u64)]) -> Vec<(String, u64)> {
    pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
}

#[test]
fn prometheus_sanitizes_every_non_alphanumeric_byte() {
    let s = Sampler::new(1);
    s.record(
        5,
        vals(&[
            ("store.cache-hit/miss%", 3),
            ("pipeline.g0.stage flush", 7),
            ("frames.résident", 1),
            ("a\"b\\c", 9),
        ]),
    );
    let text = s.prometheus_text("aurora");
    // Dots, dashes, slashes, percent, spaces, quotes, backslashes and
    // non-ASCII all collapse to underscores; the result is a legal
    // Prometheus metric name.
    assert!(text.contains("# TYPE aurora_store_cache_hit_miss_ gauge"));
    assert!(text.contains("aurora_store_cache_hit_miss_ 3"));
    assert!(text.contains("aurora_pipeline_g0_stage_flush 7"));
    assert!(text.contains("aurora_frames_r_sident 1"));
    assert!(text.contains("aurora_a_b_c 9"));
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let name = line.split_whitespace().next().unwrap();
        assert!(
            name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "illegal metric name {name:?}"
        );
    }
}

#[test]
fn prometheus_prefix_is_applied_verbatim() {
    let s = Sampler::new(1);
    s.record(1, vals(&[("g", 2)]));
    let text = s.prometheus_text("sls");
    assert!(text.starts_with("# TYPE sls_virtual_time_ns gauge"));
    assert!(text.contains("sls_g 2"));
}

#[test]
fn series_json_escapes_hostile_gauge_names_and_marks() {
    let s = Sampler::new(1);
    s.record(3, vals(&[("quo\"te", 1), ("back\\slash", 2), ("tab\there", 3), ("ctl\u{1}", 4)]));
    s.mark(4, "line\nbreak \"quoted\"");
    let json = s.series_json();
    validate(&json).expect("escaped output must stay well-formed JSON");
    assert!(json.contains("\"quo\\\"te\":1"));
    assert!(json.contains("\"back\\\\slash\":2"));
    assert!(json.contains("\"tab\\there\":3"));
    assert!(json.contains("\"ctl\\u0001\":4"));
    assert!(json.contains("\"line\\nbreak \\\"quoted\\\"\""));
}

#[test]
fn empty_histogram_percentiles_are_zero() {
    let h = Histogram::default();
    assert_eq!(h.count(), 0);
    assert_eq!(h.percentile(50.0), 0);
    assert_eq!(h.percentile(95.0), 0);
    assert_eq!(h.percentile(99.0), 0);
    assert_eq!(h.percentile(0.0), 0);
    assert_eq!(h.percentile(100.0), 0);
    assert_eq!(h.mean(), 0);
}

#[test]
fn single_sample_histogram_percentiles_cover_the_sample() {
    let mut h = Histogram::default();
    h.record(1000);
    for p in [50.0, 95.0, 99.0, 100.0] {
        assert!(h.percentile(p) >= 1000, "p{p} below the only sample");
    }
    let mut z = Histogram::default();
    z.record(0);
    assert_eq!(z.percentile(50.0), 0);
    assert_eq!(z.percentile(99.0), 0);
}
