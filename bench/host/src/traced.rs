//! The traced run: same generator and seed, the first quarter of the
//! ops, three passes — untraced (the yardstick), harness spans + layer
//! counters + counting allocator, and the program's own recorder — plus
//! the layer probes. Produces every per-layer metric; none of this
//! feeds an end-to-end metric.

use crate::metrics::{self, Value};
use crate::probes::{self, ProbeSizes};
use crate::run::{run_pass, Mode, Pass};
use crate::spans::{self, durations_of, totals_by_name, NameTotals};
use crate::stats::Samples;
use crate::workloads::common::{CHECKPOINTS, EPOCHS_DROPPED, MEM_WRITES, RESTORES, STAGES};
use crate::workloads::Workload;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Fewest ops in a traced pass (and in the shorter recorder pass).
const MIN_TRACED_OPS: usize = 20;

/// Result of a traced run.
pub struct Traced {
    /// Every per-layer metric, table order.
    pub values: Vec<Value>,
    /// Ops and checks attempted across the three passes.
    pub attempted: u64,
    /// Failed ops and checks across the three passes.
    pub failed: u64,
    /// First few failure messages.
    pub failures: Vec<String>,
    /// Where the span file went.
    pub trace_path: std::path::PathBuf,
    /// Spans written.
    pub spans_written: usize,
}

/// Median host ns of the first `n` ops of a pass.
fn p50_first(p: &Pass, n: usize) -> f64 {
    Samples::from_vec(p.h.op_host_ns[..n.min(p.h.op_host_ns.len())].to_vec()).median()
}

struct Out {
    values: BTreeMap<&'static str, (f64, usize, bool)>,
}

impl Out {
    fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, (v, 0, false));
    }

    /// A percentile of `samples`, scaled by `scale`. A sample too thin
    /// for the ten-beyond rule is still reported — per-layer metrics
    /// carry no bound — but flagged.
    fn pct(&mut self, name: &'static str, samples: Vec<f64>, p: f64, scale: f64) {
        let mut s = Samples::from_vec(samples);
        let (v, thin) = match s.percentile(p) {
            Ok(v) => (v, false),
            Err(t) => (t.value, t.n > 0),
        };
        self.values.insert(name, (v * scale, s.len(), thin));
    }
}

/// Runs the traced passes and the probes for `W`.
pub fn run_traced<W: Workload>(
    sizes: &W::Sizes,
    full_ops: usize,
    seed: u64,
    probe_sizes: &ProbeSizes,
    out_dir: &Path,
) -> Result<Traced, String> {
    let ops = (full_ops / 4).max(MIN_TRACED_OPS);
    let rec_ops = (ops / 4).max(MIN_TRACED_OPS);

    let plain = run_pass::<W>(sizes, ops, seed, Mode::Plain, 1, true)?;
    let mut traced = run_pass::<W>(sizes, ops, seed, Mode::Spans, 1, true)?;
    let recorded = run_pass::<W>(sizes, rec_ops, seed, Mode::Recorder, 1, true)?;
    let probe = probes::run_all(probe_sizes, seed);

    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let trace_path = out_dir.join(format!("trace_{}.json", W::NAME));
    spans::write_json(&trace_path, W::NAME, seed, &traced.spans)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;

    let done = traced.h.op_host_ns.len().max(1);
    let n = done as f64;
    let op_ns_total: f64 = traced.h.op_host_ns.iter().sum();
    // Spans of the timed ops only; verification spans carry op id `ops`.
    let timed: Vec<spans::Span> = traced
        .spans
        .iter()
        .copied()
        .filter(|s| (s.op as usize) < ops)
        .collect();
    let by_name = totals_by_name(&timed);
    let sum = |prefix: &str, f: fn(&NameTotals) -> u64| -> f64 {
        by_name
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, t)| f(t))
            .sum::<u64>() as f64
    };
    let total_of = |name: &str| by_name.get(name).map_or(0.0, |t| t.total_ns as f64);
    let count_of = |name: &str| by_name.get(name).map_or(0.0, |t| t.count as f64);
    let all = &traced.spans;

    let mut o = Out {
        values: BTreeMap::new(),
    };
    for (name, v) in &probe {
        o.set(name, *v);
    }

    // storage — device wrapper counters and spans.
    let l = traced.layers;
    o.set("storage.writes_per_op", l.dev_writes as f64 / n);
    o.set(
        "storage.write_kib_per_op",
        l.dev_write_bytes as f64 / 1024.0 / n,
    );
    o.set("storage.flushes_per_op", l.dev_flushes as f64 / n);
    o.set("storage.reads_per_op", l.dev_reads as f64 / n);
    o.set(
        "storage.read_kib_per_op",
        l.dev_read_bytes as f64 / 1024.0 / n,
    );
    o.set("storage.queue_depth_max", traced.queue_depth_max as f64);
    o.set(
        "storage.inflight_kib_max",
        traced.inflight_bytes_max as f64 / 1024.0,
    );
    let storage_ns = sum("storage.", |t| t.total_ns);
    o.set("storage.host_us_per_op", storage_ns / 1e3 / n);
    o.set("storage.host_share", storage_ns / op_ns_total);

    // objstore — gauge deltas and end-of-run gauges.
    o.set("objstore.redo_appended_per_op", l.redo_appended as f64 / n);
    o.set(
        "objstore.redo_kib_saved_per_op",
        l.redo_bytes_saved as f64 / 1024.0 / n,
    );
    o.set(
        "objstore.materializations_per_op",
        l.materializations as f64 / n,
    );
    o.set(
        "objstore.chain_len_p95",
        traced.store_end.redo_chain_len_p95 as f64,
    );
    let lookups = (l.cache_hits + l.cache_misses) as f64;
    o.set(
        "objstore.cache_hit_ratio",
        if lookups > 0.0 {
            l.cache_hits as f64 / lookups
        } else {
            0.0
        },
    );
    o.set(
        "objstore.cache_pages_end",
        traced.store_end.cache_pages as f64,
    );
    o.set(
        "objstore.epochs_retained_end",
        traced.store_end.epochs as f64,
    );
    o.set("objstore.objects_end", traced.store_end.objects as f64);

    // frames.
    o.set("frames.resident_end", traced.frames_end.resident as f64);
    o.set("frames.shared_end", traced.frames_end.shared as f64);
    o.set("frames.copies_broken_per_op", l.copies_broken as f64 / n);

    // vm.
    o.set("vm.faults_per_op", l.faults as f64 / n);
    o.set("vm.cow_breaks_per_op", l.cow_breaks as f64 / n);
    o.set("vm.zero_fills_per_op", l.zero_fills as f64 / n);
    o.set("vm.frames_allocated_per_op", l.frames_allocated as f64 / n);
    o.set("vm.pte_downgrades_per_op", l.pte_downgrades as f64 / n);
    o.set(
        "vm.collapse_pages_moved_per_op",
        l.collapse_pages_moved as f64 / n,
    );

    // posix — spans.
    o.set(
        "posix.mem_write_host_us_per_op",
        total_of("posix.mem_write") / 1e3 / n,
    );
    let reads = count_of("posix.mem_read");
    o.set(
        "posix.mem_read_fault_ns_per_page",
        if reads > 0.0 {
            total_of("posix.mem_read") / reads
        } else {
            0.0
        },
    );
    o.set(
        "posix.exit_host_us_per_op",
        total_of("posix.exit") / 1e3 / n,
    );
    o.pct(
        "posix.profile_build_us",
        traced.h.series("profile_build_ns").values().to_vec(),
        50.0,
        1e-3,
    );
    o.pct(
        "posix.objects_per_image",
        traced.h.series("objects").values().to_vec(),
        50.0,
        1.0,
    );

    // core — virtual, per stage.
    const STAGE_METRICS: [&str; 9] = [
        "core.stage_quiesce_us_p50",
        "core.stage_collapse_us_p50",
        "core.stage_aio_us_p50",
        "core.stage_os_state_us_p50",
        "core.stage_shadow_us_p50",
        "core.stage_resume_us_p50",
        "core.stage_flush_us_p50",
        "core.stage_seal_us_p50",
        "core.stage_commit_us_p50",
    ];
    for (metric, series) in STAGE_METRICS.iter().zip(STAGES) {
        o.pct(
            metric,
            traced.h.series(series).values().to_vec(),
            50.0,
            1e-3,
        );
    }
    o.set(
        "core.pages_flushed_per_op",
        traced.h.series("pages_flushed").sum() / n,
    );
    o.set(
        "core.kib_flushed_per_op",
        traced.h.series("bytes_flushed").sum() / 1024.0 / n,
    );
    o.pct(
        "core.shared_frames_p50",
        traced.h.series("shared_frames").values().to_vec(),
        50.0,
        1.0,
    );
    o.set("core.retries", traced.h.count("retries") as f64);

    // core — virtual, per restore.
    for (metric, series) in [
        ("core.restore_full_virt_us_p50", "restore_full_virt_ns"),
        ("core.restore_lazy_virt_us_p50", "restore_lazy_virt_ns"),
        ("core.restore_at_virt_us_p50", "restore_at_virt_ns"),
    ] {
        o.pct(
            metric,
            traced.h.series(series).values().to_vec(),
            50.0,
            1e-3,
        );
    }
    o.set(
        "core.pages_read_per_restore",
        traced.h.series("pages_read").mean(),
    );

    // core — host, from spans (verification spans included: they are the
    // only restore/reboot samples two of the workloads have).
    o.pct(
        "core.checkpoint_host_us_p50",
        durations_of(&timed, "core.sls_checkpoint"),
        50.0,
        1e-3,
    );
    o.pct(
        "core.checkpoint_host_us_p95",
        durations_of(&timed, "core.sls_checkpoint"),
        95.0,
        1e-3,
    );
    o.pct(
        "core.barrier_host_us_p50",
        durations_of(&timed, "core.sls_barrier"),
        50.0,
        1e-3,
    );
    o.pct(
        "core.retain_last_host_us_p50",
        durations_of(&timed, "core.retain_last"),
        50.0,
        1e-3,
    );
    o.pct(
        "core.restore_full_host_us_p50",
        durations_of(all, "core.restore_full"),
        50.0,
        1e-3,
    );
    o.pct(
        "core.restore_lazy_host_us_p50",
        durations_of(all, "core.restore_lazy"),
        50.0,
        1e-3,
    );
    o.pct(
        "core.restore_at_host_us_p50",
        durations_of(all, "core.restore_at"),
        50.0,
        1e-3,
    );
    o.pct(
        "core.reboot_host_ms_p50",
        durations_of(all, "core.crash_and_reboot"),
        50.0,
        1e-6,
    );
    o.set("core.self_share", sum("core.", |t| t.self_ns) / op_ns_total);
    o.set("core.allocs_per_op", traced.allocs.0 as f64 / n);
    o.set("core.alloc_kib_per_op", traced.allocs.1 as f64 / 1024.0 / n);

    // apps / workloads.
    let mut requests = durations_of(&timed, "apps.get");
    requests.extend(durations_of(&timed, "apps.set"));
    let n_requests = requests.len() as f64;
    o.pct("apps.request_host_ns_p50", requests, 50.0, 1.0);
    o.set("apps.arena_wraps", traced.h.count("arena_wraps") as f64);
    let gen_ns = total_of("workloads.next_op");
    o.set(
        "workloads.gen_host_ns_per_req",
        if n_requests > 0.0 {
            gen_ns / n_requests
        } else {
            0.0
        },
    );
    o.set(
        "workloads.set_share",
        if n_requests > 0.0 {
            traced.h.count("sets") as f64 / n_requests
        } else {
            0.0
        },
    );

    // The instruments price themselves.
    let plain_p50 = p50_first(&plain, ops);
    o.set(
        "harness.span_overhead_pct",
        (p50_first(&traced, ops) / plain_p50 - 1.0) * 100.0,
    );
    let trace = recorded
        .trace
        .as_ref()
        .expect("recorder pass carries its trace");
    let events = trace.event_count() as f64;
    let rec_done = recorded.h.op_host_ns.len().max(1);
    o.set(
        "trace.overhead_pct",
        (p50_first(&recorded, rec_ops) / p50_first(&plain, rec_ops) - 1.0) * 100.0,
    );
    o.set(
        "trace.events_per_op",
        (events + trace.dropped_records() as f64) / rec_done as f64,
    );
    o.set("trace.dropped_records", trace.dropped_records() as f64);
    let t0 = Instant::now();
    let exported = trace.export_chrome();
    let export_ns = t0.elapsed().as_nanos() as f64;
    std::hint::black_box(exported.len());
    o.set(
        "trace.export_ns_per_event",
        if events > 0.0 {
            export_ns / events
        } else {
            0.0
        },
    );

    // What the probes explain of an op: probe cost × how often the op
    // does that thing. The residue is serializers, registry, oidmap,
    // posix object code and the harness itself — everything no probe
    // prices.
    let g = |name: &str| o.values.get(name).map_or(0.0, |v| v.0);
    let per_op = |counter: &str| traced.h.count(counter) as f64 / n;
    let hits = (per_op(MEM_WRITES) - g("vm.faults_per_op")).max(0.0);
    let full_images =
        (g("core.pages_flushed_per_op") - g("objstore.redo_appended_per_op")).max(0.0);
    let pages_installed = g("core.pages_read_per_restore") * per_op(RESTORES);
    let explained_ns = g("vm.cow_break_ns") * g("vm.cow_breaks_per_op")
        + g("vm.write_hit_ns") * hits
        + g("vm.system_shadow_ns_per_page") * g("vm.pte_downgrades_per_op")
        + g("vm.collapse_ns_per_page") * g("vm.collapse_pages_moved_per_op")
        + g("vm.install_page_ns") * pages_installed
        + g("sim.fnv_ns_per_page") * g("core.pages_flushed_per_op")
        + g("sim.encode_ns_per_kib") * g("core.kib_flushed_per_op")
        + g("objstore.append_redo_ns_per_rec") * g("objstore.redo_appended_per_op")
        + g("objstore.write_pages_ns_per_page") * full_images
        + g("objstore.commit_ns") * per_op(CHECKPOINTS)
        + g("objstore.gc_ns_per_epoch") * per_op(EPOCHS_DROPPED)
        + g("objstore.read_cold_ns_per_page") * l.cache_misses as f64 / n
        + g("objstore.read_warm_ns_per_page") * l.cache_hits as f64 / n
        + g("objstore.reopen_ms") * 1e6 * count_of("core.crash_and_reboot") / n
        + gen_ns / n;
    let mean_op_ns =
        plain.h.op_host_ns.iter().sum::<f64>() / plain.h.op_host_ns.len().max(1) as f64;
    o.set(
        "harness.unattributed_share",
        1.0 - explained_ns / mean_op_ns,
    );

    let values = metrics::PER_LAYER
        .iter()
        .map(|def| {
            let (value, n, thin) = *o
                .values
                .get(def.name)
                .unwrap_or_else(|| panic!("{} was not computed", def.name));
            Value {
                def,
                value,
                n,
                thin,
            }
        })
        .collect();
    let passes = [&plain, &traced, &recorded];
    Ok(Traced {
        values,
        attempted: passes.iter().map(|p| p.h.attempted).sum(),
        failed: passes.iter().map(|p| p.h.failed).sum(),
        failures: passes
            .iter()
            .flat_map(|p| p.h.failures.iter().cloned())
            .collect(),
        trace_path,
        spans_written: traced.spans.len(),
    })
}
