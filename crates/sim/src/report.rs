//! Simulation run reports.

use crate::OracleSummary;
use aqua_dram::mitigation::MitigationStats;
use aqua_dram::Duration;
use aqua_faults::FaultReport;
use aqua_telemetry::TelemetrySummary;
use serde::{Deserialize, Serialize};

/// Everything measured in one simulation run.
///
/// `PartialEq` compares every field, which is how the bench harness asserts
/// that parallel and serial matrix runs produce identical results.
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Mitigation scheme name.
    pub scheme: String,
    /// Workload label (core 0's generator).
    pub workload: String,
    /// Total requests issued across all cores.
    pub requests_done: u64,
    /// Requests per core.
    pub per_core: Vec<u64>,
    /// Epochs simulated.
    pub epochs: u64,
    /// Channel time consumed by ordinary data bursts.
    pub data_busy: Duration,
    /// Channel time consumed by row migrations.
    pub migration_busy: Duration,
    /// Channel time consumed by in-DRAM table traffic.
    pub table_busy: Duration,
    /// Mitigation statistics (migrations, refreshes, throttles, violations).
    pub mitigation: MitigationStats,
    /// Security-oracle summary.
    pub oracle: OracleSummary,
    /// Shadow-memory integrity violations (a translation resolved to a
    /// physical row not holding the requested data; must be zero in
    /// fault-free runs).
    pub integrity_violations: u64,
    /// Fault-campaign accounting (all zero when no faults were injected).
    /// `faults.unaccounted` must be zero in every run: a corruption that is
    /// neither recovered, counted, nor dormant escaped silently.
    pub faults: FaultReport,
    /// End-of-run telemetry snapshot (`None` when no hub, or a disabled
    /// one, was attached).
    pub telemetry: Option<TelemetrySummary>,
}

impl RunReport {
    /// Row migrations per epoch (the Figure 6 metric).
    pub fn migrations_per_epoch(&self) -> f64 {
        self.mitigation.row_migrations as f64 / self.epochs.max(1) as f64
    }

    /// Normalized performance vs a baseline run of the same workload
    /// (`requests_done / baseline.requests_done`, the Figure 7/9 metric).
    pub fn normalized_perf(&self, baseline: &RunReport) -> f64 {
        assert_eq!(
            self.workload, baseline.workload,
            "normalize against the same workload"
        );
        self.requests_done as f64 / baseline.requests_done.max(1) as f64
    }

    /// Slowdown percentage vs baseline (positive = slower).
    pub fn slowdown_pct(&self, baseline: &RunReport) -> f64 {
        (1.0 - self.normalized_perf(baseline)) * 100.0
    }
}

/// Geometric mean of normalized-performance values (the paper's `Gmean`).
///
/// Returns `None` if any value is non-positive (the logarithm is undefined
/// there, and a zero-request run would otherwise poison a whole figure);
/// an empty input yields `Some(1.0)` (the neutral element).
pub fn gmean(values: impl IntoIterator<Item = f64>) -> Option<f64> {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        if v <= 0.0 || !v.is_finite() {
            return None;
        }
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        Some(1.0)
    } else {
        Some((log_sum / n as f64).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(workload: &str, requests: u64) -> RunReport {
        RunReport {
            scheme: "x".into(),
            workload: workload.into(),
            requests_done: requests,
            epochs: 2,
            ..RunReport::default()
        }
    }

    #[test]
    fn normalized_perf_and_slowdown() {
        let base = report("lbm", 1000);
        let mit = report("lbm", 900);
        assert!((mit.normalized_perf(&base) - 0.9).abs() < 1e-12);
        assert!((mit.slowdown_pct(&base) - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "same workload")]
    fn cross_workload_normalization_rejected() {
        report("lbm", 1).normalized_perf(&report("mcf", 1));
    }

    #[test]
    fn migrations_per_epoch_divides() {
        let mut r = report("lbm", 10);
        r.mitigation.row_migrations = 10;
        assert_eq!(r.migrations_per_epoch(), 5.0);
    }

    #[test]
    fn gmean_basics() {
        assert!((gmean([1.0, 1.0]).unwrap() - 1.0).abs() < 1e-12);
        assert!((gmean([0.5, 2.0]).unwrap() - 1.0).abs() < 1e-12);
        assert!((gmean(std::iter::empty()).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gmean_rejects_non_positive_values() {
        assert_eq!(gmean([1.0, 0.0]), None);
        assert_eq!(gmean([-2.0]), None);
        assert_eq!(gmean([1.0, f64::NAN]), None);
    }
}
