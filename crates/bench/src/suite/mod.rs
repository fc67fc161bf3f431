//! The benchmark suite: one module per table/figure of the paper. Each
//! exposes `run() -> BenchReport` — it prints the human table and
//! returns the same numbers machine-readable. [`all`] is the single
//! table of them: `bench_all` dispatches through it by name, and
//! `tests/bench_all.rs` holds it one-to-one with the committed
//! `bench/snapshots/`.

pub mod ablations;
pub mod degraded_mode;
pub mod delta_checkpoint;
pub mod fig3_filebench;
pub mod fig4_memcached_peak;
pub mod fig5_memcached_pegged;
pub mod fig6_rocksdb;
pub mod group_scaling;
pub mod live_migration;
pub mod table1_criu;
pub mod table4_posix_objects;
pub mod table5_memory_objects;
pub mod table6_applications;
pub mod table7_aurora_vs_criu;
pub mod trace_overhead;

use crate::BenchReport;

/// A suite entry: the benchmark's name and its runner.
pub type Entry = (&'static str, fn() -> BenchReport);

/// Every benchmark in the suite, in the paper's order.
pub fn all() -> Vec<Entry> {
    vec![
        ("table1_criu", table1_criu::run as fn() -> BenchReport),
        ("fig3_filebench", fig3_filebench::run),
        ("fig4_memcached_peak", fig4_memcached_peak::run),
        ("fig5_memcached_pegged", fig5_memcached_pegged::run),
        ("fig6_rocksdb", fig6_rocksdb::run),
        ("table4_posix_objects", table4_posix_objects::run),
        ("table5_memory_objects", table5_memory_objects::run),
        ("table6_applications", table6_applications::run),
        ("table7_aurora_vs_criu", table7_aurora_vs_criu::run),
        ("ablations", ablations::run),
        ("group_scaling", group_scaling::run),
        ("degraded_mode", degraded_mode::run),
        ("delta_checkpoint", delta_checkpoint::run),
        ("live_migration", live_migration::run),
        ("trace_overhead", trace_overhead::run),
    ]
}
