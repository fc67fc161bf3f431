//! Delta checkpointing: device write amplification and flush latency of
//! the redo-record flush path against full-page logging (§15).
//!
//! The workload is the incremental-checkpoint worst case for page-image
//! logging: every round dirties a fixed set of pages but changes only a
//! few dozen bytes in each. Full-page mode must write the whole page per
//! dirty page per epoch; redo mode logs one sub-page record per page and
//! packs the records into shared blocks, so the device bytes per epoch
//! drop by the page-to-span ratio. Both runs use the same virtual
//! machine, device model, and write pattern — only `checkpoint_mode`
//! differs.
//!
//! No paper reference: Aurora's testbed logs full page images. This
//! table is the proof artifact for the redo-record write path.

use crate::{header, row, BenchReport};
use aurora_core::world::World;
use aurora_core::{AuroraApi, CheckpointMode, SlsOptions};
use aurora_trace::Histogram;
use aurora_vm::PAGE_SIZE;

/// Measured checkpoint rounds per mode.
fn rounds() -> u64 {
    if crate::quick() {
        10
    } else {
        50
    }
}

/// Region size: the app's resident working set.
const REGION_PAGES: u64 = 64;
/// Pages dirtied per round.
const DIRTY_PAGES: u64 = 16;
/// Bytes actually changed in each dirty page per round.
const WRITE_BYTES: usize = 64;

struct ModeRun {
    /// Device bytes written per epoch, averaged over the rounds.
    bytes_per_epoch: f64,
    /// Device bytes per application byte changed.
    write_amp: f64,
    /// Flush-stage latency samples, one per round.
    flush_hist: Histogram,
    /// Store gauges at the end of the run (redo counters).
    gauges: aurora_objstore::StoreGauges,
}

fn run_mode(mode: CheckpointMode) -> ModeRun {
    let mut w = World::quickstart();
    w.sls.checkpoint_mode = mode;
    let pid = w.sls.kernel.spawn("delta");
    let addr = w.dirty_region(pid, REGION_PAGES).unwrap();
    let gid = w
        .sls
        .attach(pid, SlsOptions { external_synchrony: false, ..SlsOptions::default() })
        .unwrap();
    // Warm up: the full checkpoint commits every region page, so the
    // measured rounds are purely incremental.
    w.sls.sls_checkpoint(gid).unwrap();
    let base = w.sls.store().lock().device().lock().bytes_written();
    let mut flush_hist = Histogram::default();
    for r in 0..rounds() {
        for i in 0..DIRTY_PAGES {
            // A different page subset and offset each round, same sizes.
            let pi = (i * (REGION_PAGES / DIRTY_PAGES) + r % 4) % REGION_PAGES;
            let off = ((r * 97 + i * 13) as usize * 61) % (PAGE_SIZE - WRITE_BYTES);
            let data = [(r as u8) ^ (i as u8); WRITE_BYTES];
            w.sls
                .kernel
                .mem_write(pid, addr + pi * PAGE_SIZE as u64 + off as u64, &data)
                .unwrap();
        }
        let stats = w.sls.sls_checkpoint(gid).unwrap();
        assert!(stats.committed(), "round {r} checkpoint failed");
        flush_hist.record(stats.flush_ns);
    }
    let written = w.sls.store().lock().device().lock().bytes_written() - base;
    let bytes_per_epoch = written as f64 / rounds() as f64;
    let app_bytes = (DIRTY_PAGES as usize * WRITE_BYTES) as f64;
    let gauges = w.sls.store().lock().gauges();
    ModeRun { bytes_per_epoch, write_amp: bytes_per_epoch / app_bytes, flush_hist, gauges }
}

pub fn run() -> BenchReport {
    let mut report = BenchReport::new("delta_checkpoint");
    header(
        "Delta checkpointing: device bytes per epoch, small-dirty-delta workload",
        &["mode", "bytes/epoch", "write amp", "flush p95 (ns)"],
    );
    let mut results = Vec::new();
    for (name, mode) in
        [("full_page", CheckpointMode::FullPage), ("redo_delta", CheckpointMode::Delta)]
    {
        let r = run_mode(mode);
        row(&[
            name.to_string(),
            format!("{:.0}", r.bytes_per_epoch),
            format!("{:.1}x", r.write_amp),
            format!("{}", r.flush_hist.percentile(95.0)),
        ]);
        report.push(name, "bytes_per_epoch", r.bytes_per_epoch);
        report.push(name, "write_amp", r.write_amp);
        report.push(name, "flush_p95_ns", r.flush_hist.percentile(95.0) as f64);
        report.merge_histogram(&format!("flush.{name}"), &r.flush_hist);
        results.push(r);
    }
    let (full, delta) = (&results[0], &results[1]);
    let ratio = full.bytes_per_epoch / delta.bytes_per_epoch;
    let g = &delta.gauges;
    println!(
        "\nredo mode writes {ratio:.1}x fewer device bytes per epoch \
         ({} records appended, {} bytes saved vs page images)",
        g.redo_appended, g.redo_bytes_saved
    );
    report.push("redo", "bytes_ratio_full_vs_delta", ratio);
    report.push("redo", "appended", g.redo_appended as f64);
    report.push("redo", "materializations", g.redo_materializations as f64);
    report.push("redo", "bytes_saved", g.redo_bytes_saved as f64);
    report.push("redo", "chain_len_p95", g.redo_chain_len_p95 as f64);
    report.push("redo", "vcl", g.redo_vcl as f64);
    report.push("redo", "vdl_le_vcl", f64::from(u8::from(g.redo_vdl <= g.redo_vcl)));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The PR's acceptance bar: on the small-dirty-delta workload, redo
    /// mode must cut device bytes per epoch by at least 2x.
    #[test]
    fn redo_mode_halves_device_bytes_per_epoch() {
        let full = run_mode(CheckpointMode::FullPage);
        let delta = run_mode(CheckpointMode::Delta);
        assert!(
            full.bytes_per_epoch >= 2.0 * delta.bytes_per_epoch,
            "expected >= 2x write reduction, got {:.0} vs {:.0} bytes/epoch",
            full.bytes_per_epoch,
            delta.bytes_per_epoch
        );
        assert!(delta.gauges.redo_appended > 0, "delta run logged redo records");
        assert!(delta.gauges.redo_vdl <= delta.gauges.redo_vcl, "VDL never exceeds VCL");
    }
}
