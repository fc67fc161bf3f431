//! The `bench_all` command line and the table behind it: names select
//! entries of `suite::all()`, a name outside it is rejected before
//! anything runs, and the table matches the committed snapshots.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aurora_bench_all_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The file names in `dir`, sorted.
fn file_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("directory exists")
        .map(|e| e.expect("readable entry").file_name().into_string().expect("utf-8 name"))
        .collect();
    names.sort();
    names
}

/// `suite::all()` is the single source of benchmark names: every entry
/// has a committed snapshot for the exact gate to compare against, and
/// every snapshot belongs to an entry.
#[test]
fn suite_names_match_committed_snapshots_one_to_one() {
    let snapshots = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench/snapshots");
    let mut expected: Vec<String> =
        aurora_bench::suite::all().iter().map(|(name, _)| format!("BENCH_{name}.json")).collect();
    expected.sort();
    assert_eq!(file_names(&snapshots), expected);
}

#[test]
fn unknown_name_exits_non_zero_and_writes_nothing() {
    let dir = scratch_dir("unknown");
    let out = Command::new(env!("CARGO_BIN_EXE_bench_all"))
        .args(["table1_criu", "no_such_bench", "--out"])
        .arg(&dir)
        .output()
        .expect("run bench_all");
    assert!(!out.status.success(), "an unknown name must fail the run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no_such_bench"), "names the offender: {stderr}");
    for (name, _) in aurora_bench::suite::all() {
        assert!(stderr.contains(name), "lists valid name {name}: {stderr}");
    }
    assert!(file_names(&dir).is_empty(), "nothing written");
    std::fs::remove_dir_all(&dir).expect("clean up");
}

#[test]
fn names_select_exactly_their_reports() {
    let dir = scratch_dir("select");
    let status = Command::new(env!("CARGO_BIN_EXE_bench_all"))
        .args(["table4_posix_objects", "table1_criu", "--out"])
        .arg(&dir)
        .env("AURORA_BENCH_QUICK", "1")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run bench_all");
    assert!(status.success());
    assert_eq!(file_names(&dir), ["BENCH_table1_criu.json", "BENCH_table4_posix_objects.json"]);
    std::fs::remove_dir_all(&dir).expect("clean up");
}
