//! Size/time unit helpers shared by the experiment harnesses.

/// One kibibyte.
pub const KIB: u64 = 1 << 10;
/// One mebibyte.
pub const MIB: u64 = 1 << 20;
/// One gibibyte.
pub const GIB: u64 = 1 << 30;

/// One microsecond in nanoseconds.
pub const US: u64 = 1_000;
/// One millisecond in nanoseconds.
pub const MS: u64 = 1_000_000;
/// One second in nanoseconds.
pub const SEC: u64 = 1_000_000_000;

/// Formats a nanosecond duration the way the paper's tables do
/// (`28 µs`, `1.8 ms`, `4.0 ms`).
pub fn fmt_ns(ns: u64) -> String {
    if ns < 10 * US {
        format!("{:.1} µs", ns as f64 / US as f64)
    } else if ns < MS {
        format!("{:.0} µs", ns as f64 / US as f64)
    } else if ns < SEC {
        format!("{:.1} ms", ns as f64 / MS as f64)
    } else {
        format!("{:.2} s", ns as f64 / SEC as f64)
    }
}

/// Formats a byte count (`4 KiB`, `256 MiB`, `1 GiB`).
pub fn fmt_bytes(bytes: u64) -> String {
    if bytes >= GIB && bytes.is_multiple_of(GIB) {
        format!("{} GiB", bytes / GIB)
    } else if bytes >= MIB {
        format!("{} MiB", bytes / MIB)
    } else if bytes >= KIB {
        format!("{} KiB", bytes / KIB)
    } else {
        format!("{bytes} B")
    }
}

/// Formats an operations-per-second rate (`150k ops/s`, `1.2M ops/s`).
pub fn fmt_ops(ops_per_sec: f64) -> String {
    if ops_per_sec >= 1_000_000.0 {
        format!("{:.2}M ops/s", ops_per_sec / 1_000_000.0)
    } else if ops_per_sec >= 1_000.0 {
        format!("{:.0}k ops/s", ops_per_sec / 1_000.0)
    } else {
        format!("{ops_per_sec:.0} ops/s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ns_matches_paper_style() {
        assert_eq!(fmt_ns(2_800), "2.8 µs");
        assert_eq!(fmt_ns(28_000), "28 µs");
        assert_eq!(fmt_ns(185_000), "185 µs");
        assert_eq!(fmt_ns(1_800_000), "1.8 ms");
        assert_eq!(fmt_ns(417_200_000), "417.2 ms");
        assert_eq!(fmt_ns(2_000_000_000), "2.00 s");
    }

    #[test]
    fn fmt_bytes_powers() {
        assert_eq!(fmt_bytes(4 * KIB), "4 KiB");
        assert_eq!(fmt_bytes(256 * MIB), "256 MiB");
        assert_eq!(fmt_bytes(GIB), "1 GiB");
        assert_eq!(fmt_bytes(100), "100 B");
    }

    #[test]
    fn fmt_ops_scales() {
        assert_eq!(fmt_ops(120_000.0), "120k ops/s");
        assert_eq!(fmt_ops(2_500_000.0), "2.50M ops/s");
        assert_eq!(fmt_ops(12.0), "12 ops/s");
    }
}
