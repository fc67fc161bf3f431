//! `aurora-hostbench` — the repo's two-clock benchmark.
//!
//! ```text
//! run     --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//! all     --out <file.json> [--seed <n>] [--seconds <s>] [--runs <k>] [--trace 0|1]
//! compare <a.json> <b.json> [--exact]
//! ```
//!
//! `run` runs one workload from one seed in this one single-threaded
//! process, prints every metric by name with unit and clock, verifies
//! the outputs, and ends with one line of JSON. Exit code 0 only when
//! every output verified.

use aurora_hostbench::compare::compare;
use aurora_hostbench::e2e;
use aurora_hostbench::json::Json;
use aurora_hostbench::probes::ProbeSizes;
use aurora_hostbench::report::Outcome;
use aurora_hostbench::run::{run_pass, Mode};
use aurora_hostbench::traced::run_traced;
use aurora_hostbench::workloads::app_image::AppImage;
use aurora_hostbench::workloads::ckpt_sparse::CkptSparse;
use aurora_hostbench::workloads::memcached::MemcachedRun;
use aurora_hostbench::workloads::restore_chain::RestoreChain;
use aurora_hostbench::workloads::{ops_for, Workload, NAMES};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Set-up repetitions of an untraced run (`setup_s` is their median).
const SETUPS: usize = 3;
/// Seed used when none is given; seed 2 is the held-out seed (README).
const DEFAULT_SEED: u64 = 1;
/// `--seconds` used when none is given (`run_seconds` in BENCHMARK.json).
const DEFAULT_SECONDS: u64 = 10;

const USAGE: &str = "usage:
  aurora-hostbench run --workload <ckpt_sparse|restore_chain|app_image|memcached_100hz> --seed <n> [--seconds <s>] [--trace 0|1]
  aurora-hostbench all --out <file.json> [--seed <n>] [--seconds <s>] [--runs <k>] [--trace 0|1]
  aurora-hostbench compare <a.json> <b.json> [--exact]";

/// Where trace files go: `<package dir>/out`.
fn out_dir() -> PathBuf {
    match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(dir) => PathBuf::from(dir).join("out"),
        None => PathBuf::from("bench/host/out"),
    }
}

fn run_one<W: Workload>(
    seed: u64,
    seconds: u64,
    traced: bool,
    probe: ProbeSizes,
) -> Result<Outcome, String> {
    let sizes = W::nominal();
    let ops = ops_for::<W>(seconds);
    if traced {
        let t = run_traced::<W>(&sizes, ops, seed, &probe, &out_dir())?;
        println!(
            "{} harness spans written to {}",
            t.spans_written,
            t.trace_path.display()
        );
        return Ok(Outcome {
            workload: W::NAME,
            seed,
            seconds,
            traced,
            attempted: t.attempted,
            failed: t.failed,
            failures: t.failures,
            values: t.values,
        });
    }
    let mut pass = run_pass::<W>(&sizes, ops, seed, Mode::Plain, SETUPS, true)?;
    println!("op-stream hash {:016x} ({} timed ops)", pass.h.stream, ops);
    let (values, extra_failure) = match e2e::end_to_end(&mut pass, e2e::peak_rss_mib()?) {
        Ok(v) => (v, None),
        Err(e) => (Vec::new(), Some(e)),
    };
    let mut failures = pass.h.failures.clone();
    failures.extend(extra_failure.clone());
    Ok(Outcome {
        workload: W::NAME,
        seed,
        seconds,
        traced,
        attempted: pass.h.attempted.max(1),
        failed: pass.h.failed + extra_failure.is_some() as u64,
        failures,
        values,
    })
}

fn dispatch(workload: &str, seed: u64, seconds: u64, traced: bool) -> Result<Outcome, String> {
    // Probe shapes: pages in the image, pages dirtied per checkpoint,
    // delta epochs stacked for the read probes — each workload's own.
    match workload {
        "ckpt_sparse" => run_one::<CkptSparse>(
            seed,
            seconds,
            traced,
            ProbeSizes {
                pages: 8192,
                batch: 512,
                epochs: 16,
            },
        ),
        "restore_chain" => run_one::<RestoreChain>(
            seed,
            seconds,
            traced,
            ProbeSizes {
                pages: 2048,
                batch: 26,
                epochs: 48,
            },
        ),
        "app_image" => run_one::<AppImage>(
            seed,
            seconds,
            traced,
            ProbeSizes {
                pages: 2048,
                batch: 18,
                epochs: 16,
            },
        ),
        "memcached_100hz" => run_one::<MemcachedRun>(
            seed,
            seconds,
            traced,
            ProbeSizes {
                pages: 4096,
                batch: 2800,
                epochs: 16,
            },
        ),
        other => Err(format!(
            "unknown workload `{other}` (one of: {})",
            NAMES.join(", ")
        )),
    }
}

/// `--key value` pairs after the subcommand, plus bare positionals.
fn parse_flags(args: &[String]) -> Result<(BTreeMap<String, String>, Vec<String>), String> {
    let (mut flags, mut bare) = (BTreeMap::new(), Vec::new());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.strip_prefix("--") {
            Some("exact") => {
                flags.insert("exact".to_string(), "1".to_string());
            }
            Some(key) => {
                let v = it.next().ok_or(format!("--{key} needs a value"))?;
                flags.insert(key.to_string(), v.clone());
            }
            None => bare.push(a.clone()),
        }
    }
    Ok((flags, bare))
}

fn num(flags: &BTreeMap<String, String>, key: &str, default: u64) -> Result<u64, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key}: `{v}` is not a whole number")),
    }
}

fn cmd_run(flags: &BTreeMap<String, String>) -> Result<bool, String> {
    let workload = flags.get("workload").ok_or("run needs --workload")?;
    let seed = num(flags, "seed", DEFAULT_SEED)?;
    let seconds = num(flags, "seconds", DEFAULT_SECONDS)?;
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds {seconds}: must be 1..=60"));
    }
    let traced = num(flags, "trace", 0)? != 0;
    let outcome = dispatch(workload, seed, seconds, traced)?;
    outcome.print();
    // The result is the last line of standard output.
    println!("{}", outcome.result_json().dump());
    Ok(outcome.correct())
}

/// Runs every workload `runs` times, each run its own child process (so
/// `host_peak_rss_mib` is that run's alone), and collects the result
/// lines into one file for `compare`.
fn cmd_all(flags: &BTreeMap<String, String>) -> Result<bool, String> {
    let out = flags.get("out").ok_or("all needs --out <file.json>")?;
    let seed = num(flags, "seed", DEFAULT_SEED)?;
    let seconds = num(flags, "seconds", DEFAULT_SECONDS)?;
    let runs = num(flags, "runs", 1)?;
    let trace = num(flags, "trace", 0)?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut entries = Vec::new();
    let mut all_ok = true;
    for r in 0..runs {
        for workload in NAMES {
            let started = std::time::Instant::now();
            let output = std::process::Command::new(&exe)
                .args(["run", "--workload", workload])
                .args([
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    &trace.to_string(),
                ])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let last = stdout.lines().last().unwrap_or("");
            let result =
                Json::parse(last).map_err(|e| format!("{workload}: no result line ({e})"))?;
            let ok = output.status.success();
            all_ok &= ok;
            println!(
                "run {}/{runs} {workload:<16} {}  {:>5.1} s",
                r + 1,
                if ok { "ok    " } else { "FAILED" },
                started.elapsed().as_secs_f64()
            );
            entries.push(Json::Obj(vec![
                ("workload".into(), Json::Str(workload.into())),
                ("seed".into(), Json::Num(seed as f64)),
                ("seconds".into(), Json::Num(seconds as f64)),
                ("trace".into(), Json::Num(trace as f64)),
                ("result".into(), result),
            ]));
        }
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let doc = Json::Obj(vec![
        ("nproc".into(), Json::Num(nproc as f64)),
        ("runs".into(), Json::Arr(entries)),
    ]);
    std::fs::write(out, doc.dump() + "\n").map_err(|e| format!("{out}: {e}"))?;
    println!("wrote {out}");
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let outcome =
        parse_flags(rest).and_then(|(flags, bare)| match (cmd.as_str(), bare.as_slice()) {
            ("run", []) => cmd_run(&flags),
            ("all", []) => cmd_all(&flags),
            ("compare", [a, b]) => compare(a, b, flags.contains_key("exact")),
            _ => Err(USAGE.to_string()),
        });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("aurora-hostbench: {e}");
            ExitCode::from(2)
        }
    }
}
