//! The suite's one entry point: `bench_all [NAME…] [--out DIR]` runs the
//! named benchmarks of [`aurora_bench::suite::all`] (all of them when no
//! name is given) and writes a machine-readable `BENCH_<name>.json` into
//! `DIR` (default `.`) next to each printed table. Set
//! `AURORA_BENCH_QUICK=1` for smoke-test sizes (CI).

fn main() {
    let mut names: Vec<String> = Vec::new();
    let mut out_dir = ".".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--out" {
            out_dir = args.next().unwrap_or_else(|| {
                eprintln!("--out needs a directory");
                std::process::exit(2);
            });
        } else {
            names.push(arg);
        }
    }
    let suite = aurora_bench::suite::all();
    // Reject the whole command line before running anything: a typo must
    // not cost a partial run or leave a partial set of reports behind.
    if let Some(bad) = names.iter().find(|n| !suite.iter().any(|(name, _)| name == n)) {
        eprintln!("unknown benchmark {bad:?}; valid names:");
        for (name, _) in &suite {
            eprintln!("  {name}");
        }
        std::process::exit(2);
    }
    if aurora_bench::quick() {
        eprintln!("AURORA_BENCH_QUICK set: running shrunken smoke-test sizes");
    }
    for (name, run) in suite {
        if !names.is_empty() && !names.iter().any(|n| n == name) {
            continue;
        }
        eprintln!("\n##### {name}");
        let path = format!("{out_dir}/BENCH_{name}.json");
        std::fs::write(&path, run().to_json())
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("wrote {path}");
    }
}
