//! Run summaries: mean / standard deviation over repeated runs, as the
//! paper's error bars report. (Percentiles come from
//! `aurora_trace::Histogram`.)

/// Mean and sample standard deviation over repeated experiment runs.
///
/// The paper runs each benchmark at least three times and reports the
/// standard deviation as error bars.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunSummary {
    /// Mean over runs.
    pub mean: f64,
    /// Sample standard deviation over runs (0 for a single run).
    pub stddev: f64,
}

/// Summarizes a slice of per-run measurements.
pub fn summarize_runs(runs: &[f64]) -> RunSummary {
    if runs.is_empty() {
        return RunSummary { mean: 0.0, stddev: 0.0 };
    }
    let mean = runs.iter().sum::<f64>() / runs.len() as f64;
    let stddev = if runs.len() < 2 {
        0.0
    } else {
        let var =
            runs.iter().map(|r| (r - mean) * (r - mean)).sum::<f64>() / (runs.len() - 1) as f64;
        var.sqrt()
    };
    RunSummary { mean, stddev }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_summary_matches_hand_computation() {
        let s = summarize_runs(&[1.0, 2.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.stddev - 1.0).abs() < 1e-12);
        let single = summarize_runs(&[5.0]);
        assert_eq!(single.stddev, 0.0);
    }
}
