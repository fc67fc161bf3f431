//! `sls` — the Aurora command line (Table 2 of the paper), driving a
//! demonstration machine end to end:
//!
//! ```text
//! sls demo                 run the full attach/checkpoint/crash/restore tour
//! ```
//!
//! The simulated machine lives for one invocation (the kernel is a
//! user-space simulation); `demo` chains the Table 2 workflow so every
//! command's effect is visible: attach → periodic checkpoints → named
//! checkpoint → ps → crash → restore → time travel → suspend/resume →
//! dump → send/recv migration.
//!
//! ```text
//! sls stat                 run an instrumented workload, dump every gauge
//! sls watch                same workload, one live line per metrics sample
//! ```
//!
//! Both boot the machine with the virtual-time metrics sampler and the
//! online invariant checker armed; `stat --prom` / `stat --json` emit
//! the Prometheus text and time-series JSON exporters verbatim.

use aurora_core::world::World;
use aurora_core::{AuroraApi, RestoreMode, SlsOptions};
use aurora_sim::units::{fmt_bytes, fmt_ns};
use aurora_trace::{InvariantChecker, ProbeSpec};
use std::env;
use std::io::Write;

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("demo");
    match cmd {
        "demo" => {
            // sls demo [--trace FILE]: record everything the demo does
            // and write a Chrome trace-event file loadable in Perfetto.
            let trace_path = args
                .iter()
                .position(|a| a == "--trace")
                .map(|i| args.get(i + 1).cloned().unwrap_or_else(|| "trace.json".into()));
            demo(trace_path.as_deref());
        }
        "stat" => {
            let prom = args.iter().any(|a| a == "--prom");
            let json = args.iter().any(|a| a == "--json");
            if prom && json {
                eprintln!("pick one of --prom / --json");
                std::process::exit(2);
            }
            let period = flag_u64(&args, "--period").unwrap_or(10_000_000);
            let probe = flag_str(&args, "--probe");
            stat(prom, json, period, probe.as_deref());
        }
        "watch" => {
            let period = flag_u64(&args, "--period").unwrap_or(10_000_000);
            let steps = flag_u64(&args, "--steps").unwrap_or(12);
            watch(period, steps);
        }
        "cluster" => {
            let nodes = flag_u64(&args, "--nodes").unwrap_or(3) as usize;
            let quorum = flag_u64(&args, "--quorum").unwrap_or(2) as usize;
            let epochs = flag_u64(&args, "--epochs").unwrap_or(6);
            let kill = flag_u64(&args, "--kill").map(|k| k as usize);
            cluster_demo(nodes, quorum, epochs, kill);
        }
        "migrate" => {
            let rounds = flag_u64(&args, "--rounds").unwrap_or(6) as u32;
            let threshold = flag_u64(&args, "--threshold").unwrap_or(128);
            migrate_demo(rounds, threshold);
        }
        "explain" => {
            // sls explain epoch <n> [--json]: replay the deterministic
            // quorum scenario with provenance on and print epoch <n>'s
            // causal waterfall.
            if args.get(1).map(String::as_str) != Some("epoch") {
                eprintln!("usage: sls explain epoch <n> [--json] [--nodes N] [--quorum Q]");
                std::process::exit(2);
            }
            let epoch = match args.get(2).and_then(|v| v.parse::<u64>().ok()) {
                Some(e) if e > 0 => e,
                _ => {
                    eprintln!("explain wants a positive epoch number");
                    std::process::exit(2);
                }
            };
            let json = args.iter().any(|a| a == "--json");
            let nodes = flag_u64(&args, "--nodes").unwrap_or(3) as usize;
            let quorum = flag_u64(&args, "--quorum").unwrap_or(2) as usize;
            explain_epoch(epoch, json, nodes, quorum);
        }
        "help" | "--help" | "-h" => usage(),
        other => {
            eprintln!("unknown or non-interactive command: {other}");
            eprintln!("(the simulated machine lives for one invocation; run `sls demo`)");
            usage();
            std::process::exit(2);
        }
    }
}

/// `--flag N` style argument, parsed as u64.
fn flag_u64(args: &[String], name: &str) -> Option<u64> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).and_then(|v| {
        v.parse().map_err(|_| eprintln!("{name} wants a number, got {v:?}")).ok()
    })
}

/// `--flag VALUE` style argument, as a string.
fn flag_str(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

fn usage() {
    println!(
        "sls — the Aurora single level store CLI (reproduction)\n\n\
         USAGE: sls demo [--trace FILE]\n\
         \x20      sls stat [--prom | --json] [--period NS] [--probe PREFIX]\n\
         \x20      sls watch [--period NS] [--steps N]\n\
         \x20      sls cluster [--nodes N] [--quorum Q] [--epochs E] [--kill NODE]\n\
         \x20      sls migrate [--rounds N] [--threshold PAGES]\n\
         \x20      sls explain epoch <n> [--json] [--nodes N] [--quorum Q]\n\n\
         demo   walk the paper's Table 2 workflow: attach → periodic\n\
         \x20      checkpoints → named checkpoint → ps → crash → restore →\n\
         \x20      time travel → suspend/resume → dump → send/recv migration\n\
         \x20      --trace FILE  write Chrome trace-event JSON of the run\n\
         \x20                    (open in Perfetto or chrome://tracing)\n\n\
         stat   run an instrumented workload (checkpoints, a crash, a\n\
         \x20      restore) with the metrics sampler and invariant checker\n\
         \x20      armed, then print every subsystem gauge\n\
         \x20      --prom        emit Prometheus text exposition instead\n\
         \x20      --json        emit the deterministic time-series JSON\n\
         \x20      --period NS   virtual-time sampling period (default 10ms)\n\
         \x20      --probe PFX   count events whose name starts with PFX\n\n\
         watch  same workload, printing one line per metrics sample as\n\
         \x20      virtual time advances (a `sls stat` you can scroll)\n\n\
         cluster boot N replicated nodes on one virtual clock, commit\n\
         \x20      epochs at quorum Q, print per-node watermarks\n\
         \x20      --kill NODE   take a follower down halfway through\n\n\
         migrate live-migrate a memcached between cluster nodes under\n\
         \x20      mutilate load; prints pre-copy rounds and the final\n\
         \x20      stop-and-copy pause in virtual µs\n\n\
         explain replay the deterministic quorum scenario with epoch\n\
         \x20      provenance on, then print epoch <n>'s causal waterfall:\n\
         \x20      every hop from the leader's quiesce to the quorum-gated\n\
         \x20      release, with the critical path attributed to pipeline\n\
         \x20      stages, fabric links, and quorum members\n\
         \x20      --json        emit the full causal graph as JSON"
    );
}

/// The canned workload `stat`/`watch` instrument: attach two counter
/// apps as separate consistency groups (so the per-group pipeline and
/// quiesce gauges get distinct `g<N>` rows and ticks exercise the
/// overlapped scheduler), six checkpointed work intervals, a durable
/// named checkpoint, a power loss, recovery, restore, and two more
/// intervals. Deterministic — two runs produce byte-identical exporter
/// output. `step` is called after every `tick` with the 1-based
/// interval number.
fn instrumented_workload(w: &mut World, mut step: impl FnMut(&mut World, u64)) {
    let pid = w.spawn_counter_app();
    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
    let sidecar = w.spawn_counter_app();
    w.sls.attach(sidecar, SlsOptions::default()).unwrap();
    for i in 1..=6u64 {
        w.bump_counter(pid).unwrap();
        w.bump_counter(sidecar).unwrap();
        w.clock.advance(10_000_000);
        w.sls.tick().unwrap();
        step(w, i);
    }
    w.sls.sls_barrier(gid).unwrap();
    w.sls.crash_and_reboot().unwrap();
    step(w, 7);
    let epoch = w.sls.store().lock().last_epoch().unwrap();
    let manifest = w.sls.manifests_at(epoch).unwrap()[0];
    let r = w.sls.restore_image(manifest, epoch, RestoreMode::Full).unwrap();
    let pid = r.pids[0];
    for i in 8..=9u64 {
        w.bump_counter(pid).unwrap();
        w.clock.advance(10_000_000);
        w.sls.tick().unwrap();
        step(w, i);
    }
}

fn stat(prom: bool, json: bool, period: u64, probe: Option<&str>) {
    let mut w = World::quickstart();
    let trace = w.enable_tracing();
    let checker = InvariantChecker::arm(&trace);
    let sampler = w.enable_sampling(period);
    let probe_id = probe
        .map(|p| trace.probe(ProbeSpec::any().name_prefix(p.to_string()), |_| {}));
    instrumented_workload(&mut w, |_, _| {});
    w.sls.sample_metrics();

    if prom {
        print!("{}", sampler.prometheus_text("aurora"));
        return;
    }
    if json {
        println!("{}", sampler.series_json());
        return;
    }

    let now = w.clock.now();
    println!("sls stat — Aurora gauges after the instrumented workload (t={})", fmt_ns(now));
    println!();
    let gauges = w.sls.stat_gauges();
    let width = gauges.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    for (name, value) in &gauges {
        println!("  {name:<width$}  {value}");
    }
    println!();
    println!(
        "sampler: {} rows every {} of virtual time; marks: {}",
        sampler.len(),
        fmt_ns(sampler.period_ns()),
        sampler
            .marks()
            .iter()
            .map(|(ts, l)| format!("{l}@{}", fmt_ns(*ts)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    if let (Some(p), Some(id)) = (probe, probe_id) {
        println!("probe {p:?}: {} matching events", trace.probe_hits(id));
    }
    println!(
        "invariants: {} events checked, {}",
        checker.checked(),
        if checker.is_clean() {
            "all clean".to_string()
        } else {
            format!("{} VIOLATIONS: {:?}", checker.violations().len(), checker.violations())
        }
    );
}

/// `sls cluster`: boot an N-node replicated cluster on one virtual
/// clock, commit epochs through the quorum pipeline, and print the
/// per-node watermark table as acks land. `--kill NODE` takes a
/// follower down halfway through to show the quorum riding it out.
fn cluster_demo(nodes: usize, quorum: usize, epochs: u64, kill: Option<usize>) {
    use aurora_cluster::{Cluster, ClusterConfig};
    println!("Booting a {nodes}-node Aurora cluster (quorum {quorum}) on one virtual clock…");
    let mut c = Cluster::new(ClusterConfig { nodes, quorum, ..ClusterConfig::default() });
    c.enable_provenance(8);
    let pid = c.leader().kernel.spawn("counter");
    let addr = c.leader().kernel.mmap_anon(pid, 16, aurora_vm::Prot::RW).unwrap();
    c.leader().kernel.mem_write(pid, addr, &0u64.to_le_bytes()).unwrap();
    let gid = c
        .attach_on_leader(pid, SlsOptions { external_synchrony: true, ..SlsOptions::default() })
        .unwrap();
    println!("Leader pid {} attached as group g{} (external synchrony on)", pid.0, gid.0);
    println!(
        "  {:>5}  {:>12}  {:>8}  {}",
        "epoch",
        "durable_at",
        "quorum",
        (0..nodes).map(|n| format!("{:>8}", format!("node{n}"))).collect::<Vec<_>>().join("  ")
    );
    for i in 1..=epochs {
        if let Some(k) = kill {
            if i == epochs / 2 + 1 && c.nodes[k].alive {
                println!("  -- killing node {k} --");
                c.kill(k);
            }
        }
        let mut buf = [0u8; 8];
        c.leader().kernel.mem_read(pid, addr, &mut buf).unwrap();
        let v = u64::from_le_bytes(buf) + 1;
        c.leader().kernel.mem_write(pid, addr, &v.to_le_bytes()).unwrap();
        let stats = c.checkpoint_and_replicate(gid).unwrap();
        c.drain().unwrap();
        let marks = c.watermarks(gid.0);
        println!(
            "  {:>5}  {:>12}  {:>8}  {}",
            stats.epoch,
            fmt_ns(stats.durable_at),
            c.quorum_watermark(gid.0),
            marks.iter().map(|&(_, w)| format!("{w:>8}")).collect::<Vec<_>>().join("  ")
        );
    }
    let gauges = c.leader().stat_gauges();
    println!("\ncluster gauges on the leader:");
    for (name, v) in gauges.iter().filter(|(n, _)| n.starts_with("cluster.")) {
        println!("  {name:<32} {v}");
    }
    println!("\ntrace rings (bounded; drops mean provenance graphs go lossy):");
    for i in 0..c.nodes.len() {
        let t = c.node_trace(i);
        println!(
            "  node{i}: {} events recorded, {} dropped{}",
            t.event_count(),
            t.dropped_records(),
            if t.dropped_records() > 0 { "  [lossy]" } else { "" }
        );
    }
    println!(
        "fabric: {} msgs / {} on the wire, {} dropped",
        c.fabric.stats().sent_msgs,
        fmt_bytes(c.fabric.stats().sent_bytes),
        c.fabric.stats().dropped_msgs
    );
}

/// `sls explain epoch <n>`: replay the deterministic quorum scenario
/// with per-node tracing and provenance on, stitch epoch `n`'s causal
/// graph out of the nodes' trace rings, and print the per-hop latency
/// waterfall with critical-path attribution. `--json` emits the whole
/// graph (events, edges, critical path) as deterministic JSON —
/// byte-identical across reruns, since the cluster runs on virtual
/// time.
fn explain_epoch(epoch: u64, json: bool, nodes: usize, quorum: usize) {
    use aurora_cluster::{Cluster, ClusterConfig};
    use aurora_trace::HopKind;
    let mut c = Cluster::new(ClusterConfig { nodes, quorum, ..ClusterConfig::default() });
    c.enable_provenance(16);
    let pid = c.leader().kernel.spawn("counter");
    let addr = c.leader().kernel.mmap_anon(pid, 16, aurora_vm::Prot::RW).unwrap();
    c.leader().kernel.mem_write(pid, addr, &0u64.to_le_bytes()).unwrap();
    let gid = c
        .attach_on_leader(pid, SlsOptions { external_synchrony: true, ..SlsOptions::default() })
        .unwrap();
    // Commit rounds until the requested epoch exists (bounded — epochs
    // advance by at least one per round).
    let mut last = 0;
    for _ in 0..epoch + 4 {
        if last >= epoch {
            break;
        }
        let mut buf = [0u8; 8];
        c.leader().kernel.mem_read(pid, addr, &mut buf).unwrap();
        let v = u64::from_le_bytes(buf) + 1;
        c.leader().kernel.mem_write(pid, addr, &v.to_le_bytes()).unwrap();
        last = c.checkpoint_and_replicate(gid).unwrap().epoch;
        c.drain().unwrap();
    }
    let Some(g) = c.epoch_graph(gid.0, epoch) else {
        let avail = c.leader().store().lock().epochs_for(gid.0).to_vec();
        eprintln!("no causal graph for epoch {epoch} of g{}; group epochs: {avail:?}", gid.0);
        std::process::exit(2);
    };
    if json {
        println!("{}", g.to_json());
        return;
    }

    let cp = g.critical_path();
    println!(
        "sls explain — epoch {epoch} of g{} on a {nodes}-node cluster (quorum {quorum})",
        gid.0
    );
    println!(
        "\ncausal graph: {} hops across {} nodes, {}, {}",
        g.events.len(),
        g.node_span(),
        if g.is_acyclic() { "acyclic" } else { "CYCLIC" },
        if g.truncated { "TRUNCATED (ring drops — graph may be missing hops)" } else { "complete" }
    );
    println!(
        "critical path (seal → release): {} over {} hops\n",
        fmt_ns(cp.total_ns),
        cp.hops.len()
    );
    println!(
        "  {:>12}  {:>12}  {:>12}  {:>5}  {:<6}  {:<18}  waterfall",
        "from", "until", "dur", "node", "kind", "hop"
    );
    const BAR: usize = 24;
    for h in &cp.hops {
        let (lead, fill) = if cp.total_ns == 0 {
            (0, 0)
        } else {
            (
                ((h.from_ns - cp.start_ns) as usize * BAR) / cp.total_ns as usize,
                (((h.dur_ns as usize) * BAR) / cp.total_ns as usize).max(1),
            )
        };
        println!(
            "  {:>12}  {:>12}  {:>12}  {:>5}  {:<6}  {:<18}  {}{}",
            fmt_ns(h.from_ns),
            fmt_ns(h.until_ns),
            fmt_ns(h.dur_ns),
            h.node,
            h.kind.as_str(),
            h.label,
            " ".repeat(lead.min(BAR)),
            "#".repeat(fill.min(BAR + 1 - lead.min(BAR)))
        );
    }
    println!("\nattribution:");
    for kind in [HopKind::Stage, HopKind::Link, HopKind::Member, HopKind::Local] {
        let ns = cp.attributed_ns(kind);
        let pct = (ns * 100).checked_div(cp.total_ns).unwrap_or(0);
        println!("  {:<6}  {:>12}  {pct:>3}%", kind.as_str(), fmt_ns(ns));
    }
    let hop_sum: u64 = cp.hops.iter().map(|h| h.dur_ns).sum();
    println!(
        "\nhop durations sum to {} = end-to-end release latency ({})",
        fmt_ns(hop_sum),
        fmt_ns(cp.end_ns - cp.start_ns)
    );
    if let Some(fr) = c.flight_recorder() {
        println!("flight recorder: {} epoch graphs on board (cap {})", fr.len(), fr.capacity());
    }
}

/// `sls migrate`: live-migrate a running memcached between cluster
/// nodes under mutilate traffic, printing each pre-copy round and the
/// final stop-and-copy pause in virtual µs.
fn migrate_demo(max_rounds: u32, threshold: u64) {
    use aurora_apps::memcached::Memcached;
    use aurora_cluster::{Cluster, ClusterConfig, MigrationConfig};
    use aurora_workloads::mutilate::{McOp, Mutilate, MutilateConfig};
    println!("Booting a 3-node cluster; memcached on the leader, mutilate at the door…");
    let mut c = Cluster::new(ClusterConfig::default());
    let mut mc = Memcached::launch(&mut c.leader().kernel, 2048, 12).unwrap();
    let gid = c.attach_on_leader(mc.pid, SlsOptions::default()).unwrap();
    let mut gen = Mutilate::new(MutilateConfig { keyspace: 512, ..MutilateConfig::default() });
    for i in 0..400u32 {
        let key = format!("seed-{i:08}").into_bytes();
        let mut v = key.clone();
        v.resize(256, b'v');
        mc.set(&mut c.leader().kernel, &key, &v).unwrap();
    }
    for _ in 0..2_000 {
        match gen.next_op() {
            McOp::Set { key, value_len } => {
                let mut v = key.to_vec();
                v.resize(value_len.max(8), b'v');
                mc.set(&mut c.leader().kernel, &key, &v).unwrap();
            }
            McOp::Get { key } => {
                mc.get(&mut c.leader().kernel, &key).unwrap();
            }
        }
    }
    println!("Warmed {} keys; migrating group g{} leader → node 2 under load…", mc.keys(), gid.0);
    let report = c
        .live_migrate(
            2,
            gid,
            MigrationConfig { max_rounds, dirty_threshold_pages: threshold },
            |sls, _round| {
                for _ in 0..200 {
                    match gen.next_op() {
                        McOp::Set { key, value_len } => {
                            let mut v = key.to_vec();
                            v.resize(value_len.max(8), b'v');
                            mc.set(&mut sls.kernel, &key, &v)?;
                        }
                        McOp::Get { key } => {
                            mc.get(&mut sls.kernel, &key)?;
                        }
                    }
                }
                Ok(())
            },
        )
        .unwrap();
    println!("  {:>5}  {:>6}  {:>10}  {:>12}  {:>12}", "round", "epoch", "pages", "bytes", "took");
    for r in &report.rounds {
        println!(
            "  {:>5}  {:>6}  {:>10}  {:>12}  {:>12}",
            r.round,
            r.epoch,
            r.pages,
            fmt_bytes(r.bytes),
            fmt_ns(r.elapsed_ns)
        );
    }
    println!(
        "stop-and-copy pause: {} µs (virtual); {} total over {} pages",
        report.stop_copy_pause_us,
        fmt_bytes(report.total_bytes),
        report.total_pages
    );
    let new_pid = *report.restore.pids.first().expect("restored server process");
    let mut mc_target = mc.failover_to(new_pid);
    let keys = mc.key_list();
    let mut verified = 0usize;
    for key in &keys {
        let a = mc.get(&mut c.leader().kernel, key).unwrap();
        let b = mc_target.get(&mut c.nodes[2].sls.kernel, key).unwrap();
        assert_eq!(a, b, "post-failover mismatch on {:?}", String::from_utf8_lossy(key));
        verified += 1;
    }
    println!(
        "failover: target pid {} on node 2 serves {verified}/{} keys byte-identical to the source",
        new_pid.0,
        keys.len()
    );
}

fn watch(period: u64, steps: u64) {
    let mut w = World::quickstart();
    let trace = w.enable_tracing();
    let checker = InvariantChecker::arm(&trace);
    let sampler = w.enable_sampling(period);
    println!("sls watch — one line per metrics sample (virtual-time period {})", fmt_ns(period));
    const COLS: [&str; 8] = [
        "store.current_epoch",
        "frames.resident",
        "store.cache_pages",
        "pipeline.checkpoints",
        "dev.bytes_written",
        "redo.appended",
        "device.health.worst",
        "cluster.quorum_lag",
    ];
    println!(
        "  {:>10}  {}",
        "t",
        COLS.map(|c| format!("{c:>20}")).join("  ")
    );
    let mut seen = 0usize;
    let mut seen_marks = 0usize;
    let emit = |sampler: &aurora_trace::Sampler, seen: &mut usize, seen_marks: &mut usize| {
        // Merge new sample rows and new discontinuity marks by virtual
        // time so a reboot prints between the rows it interrupted.
        let marks = sampler.marks();
        let samples = sampler.samples();
        let mut lines: Vec<(u64, String)> = Vec::new();
        for (ts, label) in marks.iter().skip(*seen_marks) {
            lines.push((*ts, format!("  {:>10}  -- {label} --", fmt_ns(*ts))));
            *seen_marks += 1;
        }
        for s in samples.iter().skip(*seen) {
            let row = COLS
                .map(|c| {
                    s.values
                        .iter()
                        .find(|(n, _)| n == c)
                        .map(|(_, v)| format!("{v:>20}"))
                        .unwrap_or_else(|| format!("{:>20}", "-"))
                })
                .join("  ");
            lines.push((s.ts, format!("  {:>10}  {row}", fmt_ns(s.ts))));
            *seen += 1;
        }
        lines.sort_by_key(|(ts, _)| *ts);
        for (_, line) in lines {
            println!("{line}");
        }
    };
    let mut left = steps;
    instrumented_workload(&mut w, |w, _| {
        if left > 0 {
            w.sls.sample_metrics();
            emit(w.sls.sampler().unwrap(), &mut seen, &mut seen_marks);
            left -= 1;
        }
    });
    w.sls.sample_metrics();
    emit(&sampler, &mut seen, &mut seen_marks);
    println!(
        "watched {} samples; invariants: {} events checked, {}",
        seen,
        checker.checked(),
        if checker.is_clean() { "all clean" } else { "VIOLATIONS" }
    );
}

fn demo(trace_path: Option<&str>) {
    println!("Booting a simulated machine (4× Optane-like devices, 64 KiB stripe)…");
    let mut w = World::quickstart();
    let trace = trace_path.map(|_| w.enable_tracing());
    let pid = w.spawn_counter_app();
    println!("Spawned demo app as pid {}", pid.0);

    // sls attach
    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
    println!("\n$ sls attach {}", pid.0);
    let cp = w.sls.sls_checkpoint(gid).unwrap();
    println!(
        "  attached as group {}; full checkpoint: epoch {}, stop {}, {} flushed",
        gid.0,
        cp.epoch,
        fmt_ns(cp.stop_time_ns),
        fmt_bytes(cp.bytes_flushed)
    );
    println!("  pipeline stages (stop = first six):");
    for (name, ns) in cp.stages() {
        println!("    {name:<9} {}", fmt_ns(ns));
    }
    println!("    {:<9} {}", "total", fmt_ns(cp.stage_total_ns()));

    // Work + periodic checkpoints.
    println!("\n$ (app works; Aurora checkpoints every 10 ms)");
    for i in 1..=5u64 {
        w.bump_counter(pid).unwrap();
        w.clock.advance(10_000_000);
        let stats = w.sls.tick().unwrap();
        if let Some(s) = stats.first() {
            println!(
                "  t={:>3} ms  counter={}  epoch {} (stop {})",
                (i * 10),
                w.read_counter(pid).unwrap(),
                s.epoch,
                fmt_ns(s.stop_time_ns)
            );
        }
    }

    // sls checkpoint <name>
    println!("\n$ sls checkpoint before-crash");
    let named_epoch = *w.sls.history(gid).unwrap().last().unwrap();
    // Wait for durability — a named checkpoint should survive anything.
    w.sls.sls_barrier(gid).unwrap();
    println!("  named epoch {named_epoch} \"before-crash\" (durable)");

    // sls ps
    println!("\n$ sls ps");
    for g in w.sls.groups() {
        let history = w.sls.history(g).unwrap().to_vec();
        println!(
            "  group {}: {} member(s), {} checkpoints (epochs {:?}…)",
            g.0,
            w.sls.group_pids(g).unwrap().len(),
            history.len(),
            &history[..history.len().min(4)]
        );
    }

    // Crash.
    println!("\n$ (machine crashes: power loss)");
    w.bump_counter(pid).unwrap(); // lost work
    w.sls.crash_and_reboot().unwrap();
    println!("  kernel rebooted; all processes died; store recovered");

    // sls restore
    println!("\n$ sls restore");
    let epoch = w.sls.store().lock().last_epoch().unwrap();
    let manifest = w.sls.manifests_at(epoch).unwrap()[0];
    let r = w.sls.restore_image(manifest, epoch, RestoreMode::Full).unwrap();
    let new_pid = r.pids[0];
    let local = w.sls.kernel.proc(new_pid).unwrap().local_pid.0;
    let counter = w.read_counter(new_pid).unwrap();
    println!(
        "  restored epoch {epoch}: pid {} (local pid preserved: {local}), counter={counter}",
        new_pid.0,
    );

    // Time travel to the named checkpoint.
    println!("\n$ sls restore --name before-crash   (time travel)");
    let r2 = w.sls.restore_image(manifest, named_epoch, RestoreMode::Lazy).unwrap();
    println!(
        "  lazily restored epoch {named_epoch}: counter={} ({} pages read eagerly)",
        w.read_counter(r2.pids[0]).unwrap(),
        r2.pages_read
    );

    // suspend/resume: evict everything, then fault back.
    println!("\n$ sls suspend {} && sls resume", new_pid.0);
    let g2 = r.group;
    w.sls.sls_checkpoint(g2).unwrap();
    w.sls.sls_barrier(g2).unwrap();
    let evicted = w.sls.evict_clean_pages(g2, u64::MAX).unwrap();
    println!("  suspended: {evicted} pages evicted to the store (no IO — already clean)");
    let v = w.read_counter(new_pid).unwrap();
    println!("  resumed: first touch faulted the state back; counter={v}");

    // sls dump
    println!("\n$ sls dump core.{}", new_pid.0);
    let core = w.sls.coredump(new_pid).unwrap();
    let path = std::env::temp_dir().join(format!("aurora-core.{}", new_pid.0));
    std::fs::File::create(&path).and_then(|mut f| f.write_all(&core)).unwrap();
    println!("  wrote {} ({} bytes, ELF64 ET_CORE)", path.display(), core.len());

    // sls send / recv
    println!("\n$ sls send | ssh other-machine sls recv");
    let mut other = World::quickstart();
    let cp = w.sls.sls_checkpoint(g2).unwrap();
    w.sls.sls_barrier(g2).unwrap();
    let moved = w.sls.migrate_to(&mut other.sls, cp.epoch, RestoreMode::Full).unwrap();
    println!(
        "  migrated: remote pid {}, counter={} — execution state crossed machines",
        moved.pids[0].0,
        other.read_counter(moved.pids[0]).unwrap()
    );

    println!("\nDemo complete.");

    if let (Some(path), Some(trace)) = (trace_path, trace) {
        let json = aurora_trace::chrome::export(&trace.events());
        std::fs::write(path, &json).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!(
            "Wrote {path}: {} events across the sim/storage/objstore/vm/posix/pipeline layers",
            trace.event_count()
        );
    }
}
