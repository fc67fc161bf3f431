//! Harness checks at tiny sizes: the device wrapper is transparent, the
//! seed alone determines the op stream and every virtual number, all
//! four workloads verify, and `BENCHMARK.json` matches the metric table.

use aurora_hostbench::e2e;
use aurora_hostbench::json::Json;
use aurora_hostbench::metrics::{Clock, END_TO_END, PER_LAYER};
use aurora_hostbench::probes::ProbeSizes;
use aurora_hostbench::run::{run_pass, Mode, Pass};
use aurora_hostbench::traced::run_traced;
use aurora_hostbench::workloads::app_image::AppImage;
use aurora_hostbench::workloads::ckpt_sparse::CkptSparse;
use aurora_hostbench::workloads::common::{APP_LAT_NS, DURABLE_NS, RESTORE_NS, STOP_NS};
use aurora_hostbench::workloads::memcached::MemcachedRun;
use aurora_hostbench::workloads::restore_chain::RestoreChain;
use aurora_hostbench::workloads::{
    app_image, ckpt_sparse, memcached, restore_chain, Workload, NAMES,
};
use aurora_posix::profiles::AppProfile;

/// Sizes small enough for `cargo test`: each workload's nominal shape,
/// shrunk.
trait Tiny: Workload {
    fn tiny() -> Self::Sizes;
}

impl Tiny for CkptSparse {
    fn tiny() -> ckpt_sparse::Sizes {
        ckpt_sparse::Sizes {
            region_pages: 128,
            writes_per_epoch: 16,
            warmup: 8,
            ..Self::nominal()
        }
    }
}

impl Tiny for RestoreChain {
    fn tiny() -> restore_chain::Sizes {
        restore_chain::Sizes {
            region_pages: 64,
            chain_epochs: 24,
            writes_min: 2,
            writes_max: 5,
            fault_pages: 16,
            verify_pages: 16,
            ..Self::nominal()
        }
    }
}

impl Tiny for AppImage {
    fn tiny() -> app_image::Sizes {
        let mut s = Self::nominal();
        s.profile = AppProfile {
            procs: 2,
            threads_per_proc: 2,
            rss_bytes: 256 << 10,
            vm_entries: 8,
            files: 3,
            sockets: 2,
            pipes: 1,
            kqueues: 1,
            ptys: 1,
            ..s.profile
        };
        s
    }
}

impl Tiny for MemcachedRun {
    fn tiny() -> memcached::Sizes {
        memcached::Sizes {
            arena_pages: 1024,
            preload: 500,
            requests_per_op: 50,
            period_ns: 250_000,
            gc_every: 4,
            warmup: 10,
            verify_keys: 50,
            ..Self::nominal()
        }
    }
}

/// Everything deterministic a pass measured: the virtual series, the
/// per-op virtual durations, device bytes, counters.
fn fingerprint(p: &mut Pass) -> Vec<(String, Vec<f64>)> {
    let mut out = vec![("op_virt_ns".to_string(), p.h.op_virt_ns.clone())];
    for s in [STOP_NS, DURABLE_NS, RESTORE_NS, APP_LAT_NS] {
        out.push((s.to_string(), p.h.series(s).values().to_vec()));
    }
    for c in [
        "app_ops",
        "app_bytes_changed",
        "checkpoints",
        "epochs_dropped",
        "dev_bytes_written",
    ] {
        out.push((c.to_string(), vec![p.h.count(c) as f64]));
    }
    out
}

fn tiny<W: Tiny>(ops: usize, seed: u64, wrap: bool) -> Pass {
    run_sized::<W>(&W::tiny(), ops, seed, wrap)
}

fn run_sized<W: Workload>(sizes: &W::Sizes, ops: usize, seed: u64, wrap: bool) -> Pass {
    let p = run_pass::<W>(sizes, ops, seed, Mode::Plain, 1, wrap).expect("tiny run");
    assert_eq!(p.h.failed, 0, "{}: {:?}", W::NAME, p.h.failures);
    assert!(p.h.attempted as usize >= ops);
    p
}

/// `ckpt_sparse` without history GC. With it, two runs of one seed
/// already differ in device-completion times by ~1e-5: the store's
/// `prune_below_floor` walks `HashMap`s, so the order raw blocks return
/// to the free list — and with it which stripe member a later full
/// image queues on — changes from process to process (README,
/// "Determinism"). Everything else about the workload is exact.
fn ckpt_sparse_no_gc() -> <CkptSparse as Workload>::Sizes {
    let mut s = CkptSparse::tiny();
    s.gc_every = usize::MAX;
    s
}

fn wrapper_is_transparent<W: Workload>(sizes: &W::Sizes, ops: usize) {
    let mut wrapped = run_sized::<W>(sizes, ops, 3, true);
    let mut bare = run_sized::<W>(sizes, ops, 3, false);
    assert!(wrapped.distinct_lbas > 0 && bare.distinct_lbas == 0);
    assert_eq!(
        fingerprint(&mut wrapped),
        fingerprint(&mut bare),
        "{}",
        W::NAME
    );
}

#[test]
fn device_wrapper_changes_no_virtual_or_device_number() {
    wrapper_is_transparent::<CkptSparse>(&ckpt_sparse_no_gc(), 24);
    wrapper_is_transparent::<RestoreChain>(&RestoreChain::tiny(), 6);
    wrapper_is_transparent::<AppImage>(&AppImage::tiny(), 10);
    wrapper_is_transparent::<MemcachedRun>(&MemcachedRun::tiny(), 40);
}

fn seed_determines_the_run<W: Workload>(sizes: &W::Sizes, ops: usize) {
    let mut a = run_sized::<W>(sizes, ops, 1, true);
    let mut b = run_sized::<W>(sizes, ops, 1, true);
    let c = run_sized::<W>(sizes, ops, 2, true);
    assert_eq!(
        a.h.stream,
        b.h.stream,
        "{}: same seed, different op stream",
        W::NAME
    );
    assert_ne!(
        a.h.stream,
        c.h.stream,
        "{}: different seeds, same op stream",
        W::NAME
    );
    assert_eq!(
        fingerprint(&mut a),
        fingerprint(&mut b),
        "{}: same seed, different virtual numbers",
        W::NAME
    );
    assert_eq!(a.distinct_lbas, b.distinct_lbas);
}

#[test]
fn same_seed_same_stream_and_same_virtual_numbers() {
    seed_determines_the_run::<CkptSparse>(&ckpt_sparse_no_gc(), 24);
    seed_determines_the_run::<RestoreChain>(&RestoreChain::tiny(), 6);
    seed_determines_the_run::<AppImage>(&AppImage::tiny(), 10);
    seed_determines_the_run::<MemcachedRun>(&MemcachedRun::tiny(), 40);
}

#[test]
fn end_to_end_metrics_come_out_in_table_order_and_refuse_thin_tails() {
    // 200 ops: the fewest that support a p95.
    let mut p = tiny::<CkptSparse>(200, 1, true);
    let values = e2e::end_to_end(&mut p, 1.0).expect("200 ops support every percentile");
    let names: Vec<&str> = values.iter().map(|v| v.def.name).collect();
    assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
    for v in &values {
        assert!(
            v.value.is_finite() && v.value > 0.0,
            "{} = {}",
            v.def.name,
            v.value
        );
    }
    let mut short = tiny::<CkptSparse>(199, 1, true);
    let err = e2e::end_to_end(&mut short, 1.0).unwrap_err();
    assert!(err.contains("host_op_us_p95"), "{err}");
}

#[test]
fn traced_run_reports_every_per_layer_metric_and_writes_spans() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("traced");
    let t = run_traced::<AppImage>(
        &AppImage::tiny(),
        80,
        1,
        &ProbeSizes {
            pages: 64,
            batch: 8,
            epochs: 4,
        },
        &dir,
    )
    .expect("traced run");
    assert_eq!(t.failed, 0, "{:?}", t.failures);
    assert_eq!(t.values.len(), PER_LAYER.len());
    let get = |n: &str| t.values.iter().find(|v| v.def.name == n).unwrap().value;
    assert!(get("core.self_share") > 0.0 && get("core.self_share") <= 1.0);
    assert!(get("posix.objects_per_image") > 10.0);
    assert!(get("core.allocs_per_op") > 0.0 && get("trace.events_per_op") > 0.0);
    assert!(get("harness.unattributed_share") < 1.0);
    let text = std::fs::read_to_string(&t.trace_path).expect("span file");
    let doc = Json::parse(&text).expect("span file is JSON");
    assert_eq!(
        doc.get("spans").and_then(Json::as_arr).map(<[Json]>::len),
        Some(t.spans_written)
    );
    assert!(t.spans_written > 0);
}

#[test]
fn benchmark_json_matches_the_metric_table() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("valid JSON");
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        doc.get("paths").unwrap().as_arr().unwrap(),
        [Json::Str("bench/host".into())]
    );

    let workloads: Vec<&str> = doc
        .get("workloads")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|w| w.get("name").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(workloads, NAMES);

    let e2e_json = doc.get("end_to_end").unwrap().as_arr().unwrap();
    assert_eq!(e2e_json.len(), END_TO_END.len());
    for (j, def) in e2e_json.iter().zip(&END_TO_END) {
        assert_eq!(j.get("name").unwrap().as_str(), Some(def.name));
        assert_eq!(
            j.get("unit").unwrap().as_str(),
            Some(def.unit),
            "{}",
            def.name
        );
        assert_eq!(
            j.get("better").unwrap().as_str(),
            Some(def.better.label()),
            "{}",
            def.name
        );
        assert_eq!(j.get("bound").unwrap().as_f64(), def.bound, "{}", def.name);
    }
    let layer_json = doc.get("per_layer").unwrap().as_arr().unwrap();
    assert_eq!(layer_json.len(), PER_LAYER.len());
    for (j, def) in layer_json.iter().zip(&PER_LAYER) {
        assert_eq!(j.get("name").unwrap().as_str(), Some(def.name));
        assert_eq!(
            j.get("unit").unwrap().as_str(),
            Some(def.unit),
            "{}",
            def.name
        );
        assert_eq!(
            j.get("better").unwrap().as_str(),
            Some(def.better.label()),
            "{}",
            def.name
        );
        assert!(j.get("bound").is_none());
    }
    // Deterministic metrics are the ones `compare --exact` holds to
    // equality; the host ones are the only ones that carry noise.
    assert!(END_TO_END
        .iter()
        .filter(|m| m.clock == Clock::Host)
        .all(|m| m.name.starts_with("host_") || m.name == "setup_s"));
}
