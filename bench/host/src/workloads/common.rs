//! Steps several workloads share: a recorded checkpoint, a restore after
//! a crash, tearing a restored tree down.

use crate::harness::Harness;
use aurora_core::restore::RestoreReport;
use aurora_core::{AuroraApi, CheckpointStats, GroupId, RestoreMode, Sls};
use aurora_objstore::Oid;
use aurora_posix::Pid;

/// Series every checkpoint feeds: stop time and time-to-durable.
pub const STOP_NS: &str = "stop_ns";
/// See [`STOP_NS`].
pub const DURABLE_NS: &str = "durable_ns";
/// Virtual ns across the restore step(s) of an op.
pub const RESTORE_NS: &str = "restore_ns";
/// Virtual ns the application waits per unit of its work.
pub const APP_LAT_NS: &str = "app_lat_ns";

/// Counter: application operations completed in the timed section.
pub const APP_OPS: &str = "app_ops";
/// Counter: application bytes changed in the timed section.
pub const APP_BYTES: &str = "app_bytes_changed";
/// Counter: device bytes written while the application bytes of
/// [`APP_BYTES`] were changed (the runner adds the timed section's; a
/// workload that writes in set-up adds those itself).
pub const DEV_BYTES: &str = "dev_bytes_written";
/// Counter: checkpoints taken in the timed section.
pub const CHECKPOINTS: &str = "checkpoints";
/// Counter: epochs dropped by `retain_last` in the timed section.
pub const EPOCHS_DROPPED: &str = "epochs_dropped";
/// Counter: restores performed in the timed section.
pub const RESTORES: &str = "restores";
/// Counter: `mem_write` calls in the timed section.
pub const MEM_WRITES: &str = "mem_writes";

/// The nine stage series, `CheckpointStats::stages()` order.
pub const STAGES: [&str; 9] = [
    "stage.quiesce",
    "stage.collapse",
    "stage.aio",
    "stage.os_state",
    "stage.shadow",
    "stage.resume",
    "stage.flush",
    "stage.seal",
    "stage.commit",
];

/// `sls_checkpoint` as a span, with its virtual costs recorded. A
/// checkpoint that aborted after retries is an error.
pub fn checkpoint(h: &mut Harness, sls: &mut Sls, gid: GroupId) -> Result<CheckpointStats, String> {
    let entry = h.virt_now();
    let stats = h
        .call("core.sls_checkpoint", || sls.sls_checkpoint(gid))
        .map_err(|e| format!("sls_checkpoint: {e}"))?;
    if let Some(f) = &stats.failure {
        return Err(format!(
            "checkpoint aborted in stage {}: {}",
            f.stage, f.cause
        ));
    }
    h.add(CHECKPOINTS, 1);
    h.rec(STOP_NS, stats.stop_time_ns as f64);
    h.rec(DURABLE_NS, stats.durable_at.saturating_sub(entry) as f64);
    if h.detail {
        for (name, (_, ns)) in STAGES.iter().zip(stats.stages()) {
            h.rec(name, ns as f64);
        }
        h.rec("pages_flushed", stats.pages_flushed as f64);
        h.rec("bytes_flushed", stats.bytes_flushed as f64);
        h.rec("shared_frames", stats.shared_frames as f64);
        h.rec("objects", stats.objects as f64);
        h.add("retries", stats.retries as u64);
    }
    Ok(stats)
}

/// `sls_barrier` as a span.
pub fn barrier(h: &mut Harness, sls: &mut Sls, gid: GroupId) -> Result<(), String> {
    h.call("core.sls_barrier", || sls.sls_barrier(gid))
        .map_err(|e| format!("sls_barrier: {e}"))
}

/// `retain_last` as a span; counts the epochs it dropped.
pub fn retain_last(h: &mut Harness, sls: &mut Sls, gid: GroupId, n: usize) -> Result<(), String> {
    let dropped = h
        .call("core.retain_last", || sls.retain_last(gid, n))
        .map_err(|e| format!("retain_last: {e}"))?;
    h.add(EPOCHS_DROPPED, dropped);
    Ok(())
}

/// `crash_and_reboot` as a span, then the surviving image's manifest
/// and newest epoch (groups are forgotten by the reboot).
pub fn crash_and_find_image(h: &mut Harness, sls: &mut Sls) -> Result<(Oid, u64), String> {
    h.call("core.crash_and_reboot", || sls.crash_and_reboot())
        .map_err(|e| format!("crash_and_reboot: {e}"))?;
    let epoch = sls
        .store()
        .lock()
        .last_epoch()
        .ok_or("no checkpoint survived the crash")?;
    let manifests = h
        .call("core.manifests_at", || sls.manifests_at(epoch))
        .map_err(|e| format!("manifests_at: {e}"))?;
    let manifest = *manifests
        .first()
        .ok_or("no manifest in the surviving epoch")?;
    Ok((manifest, epoch))
}

/// Records one restore's virtual cost under the per-mode detail series.
pub fn record_restore(h: &mut Harness, series: &'static str, r: &RestoreReport) {
    h.add(RESTORES, 1);
    if h.detail {
        h.rec(series, r.elapsed_ns as f64);
        h.rec("pages_read", r.pages_read as f64);
    }
}

/// Span name and detail series of a restore in `mode`.
pub fn restore_names(mode: RestoreMode) -> (&'static str, &'static str) {
    match mode {
        RestoreMode::Full => ("core.restore_full", "restore_full_virt_ns"),
        RestoreMode::Lazy => ("core.restore_lazy", "restore_lazy_virt_ns"),
    }
}

/// `restore_image` as a `core.restore_full|lazy` span.
pub fn restore_image(
    h: &mut Harness,
    sls: &mut Sls,
    manifest: Oid,
    epoch: u64,
    mode: RestoreMode,
) -> Result<RestoreReport, String> {
    let (span, series) = restore_names(mode);
    let r = h
        .call(span, || sls.restore_image(manifest, epoch, mode))
        .map_err(|e| format!("restore_image({mode:?}): {e}"))?;
    record_restore(h, series, &r);
    Ok(r)
}

/// Exits every process of a restored tree, children first.
pub fn exit_tree(h: &mut Harness, sls: &mut Sls, pids: &[Pid]) -> Result<(), String> {
    for &pid in pids.iter().rev() {
        h.call("posix.exit", || sls.kernel.exit(pid))
            .map_err(|e| format!("exit({pid:?}): {e}"))?;
    }
    Ok(())
}
