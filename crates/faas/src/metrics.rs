//! Latency recorders for serving experiments.

use serde::{Deserialize, Serialize};

/// Accumulates latency samples (milliseconds) and reports summary statistics.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct LatencyStats {
    samples_ms: Vec<f64>,
}

impl LatencyStats {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        LatencyStats::default()
    }

    /// A recorder holding `samples_ms`, in order.
    pub fn from_samples(samples_ms: Vec<f64>) -> Self {
        LatencyStats { samples_ms }
    }

    /// Records one latency sample in milliseconds.
    pub fn record(&mut self, ms: f64) {
        self.samples_ms.push(ms);
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples_ms.len()
    }

    /// Mean latency — the paper's SLO metric (§IV-C).
    pub fn mean(&self) -> f64 {
        crate::stats::mean(&self.samples_ms)
    }

    /// The `p`-th percentile (0 < p <= 100), by nearest-rank on the sorted
    /// samples. Returns 0 for an empty recorder.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p <= 100.0, "percentile must be in (0, 100]");
        if self.samples_ms.is_empty() {
            return 0.0;
        }
        let mut copy = self.samples_ms.clone();
        let rank = ((p / 100.0) * copy.len() as f64).ceil() as usize;
        let at = rank.saturating_sub(1).min(copy.len() - 1);
        let order = |a: &f64, b: &f64| a.partial_cmp(b).expect("latencies are finite");
        *copy.select_nth_unstable_by(at, order).1
    }

    /// Minimum sample (0 when empty).
    pub fn min(&self) -> f64 {
        self.samples_ms
            .iter()
            .copied()
            .reduce(f64::min)
            .unwrap_or(0.0)
    }

    /// Maximum sample (0 when empty).
    pub fn max(&self) -> f64 {
        self.samples_ms.iter().copied().fold(0.0, f64::max)
    }

    /// Immutable view of the raw samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples_ms
    }

    /// Folds another replication's samples into this recorder.
    pub fn absorb(&mut self, other: &LatencyStats) {
        self.samples_ms.extend_from_slice(&other.samples_ms);
    }
}

/// Latency recorders split by query outcome, so degraded local-fallback
/// latencies and deadline-expired queries do not dilute the ok-path p99.
///
/// Shed queries never execute, so they have no latency and no recorder
/// here; they appear only in the overload counters.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct StatusLatency {
    /// Queries fully served by workers.
    pub ok: LatencyStats,
    /// Queries that completed only via master-local fallback.
    pub degraded: LatencyStats,
    /// Queries that produced no result (latency until failure detection).
    pub failed: LatencyStats,
    /// Queries cancelled mid-plan by deadline expiry (latency until
    /// cancellation took effect).
    pub deadline_exceeded: LatencyStats,
}

impl StatusLatency {
    /// Creates empty per-status recorders.
    pub fn new() -> Self {
        StatusLatency::default()
    }

    /// Records one query latency under its terminal status. Shed queries
    /// are ignored: they never ran.
    pub fn record(&mut self, status: crate::chaos::QueryStatus, ms: f64) {
        use crate::chaos::QueryStatus;
        match status {
            QueryStatus::Ok => self.ok.record(ms),
            QueryStatus::Degraded => self.degraded.record(ms),
            QueryStatus::Failed => self.failed.record(ms),
            QueryStatus::DeadlineExceeded => self.deadline_exceeded.record(ms),
            QueryStatus::Shed => {}
        }
    }

    /// Total samples across all statuses.
    pub fn count(&self) -> usize {
        self.ok.count()
            + self.degraded.count()
            + self.failed.count()
            + self.deadline_exceeded.count()
    }

    /// Folds another replication's per-status samples into this recorder.
    pub fn absorb(&mut self, other: &StatusLatency) {
        self.ok.absorb(&other.ok);
        self.degraded.absorb(&other.degraded);
        self.failed.absorb(&other.failed);
        self.deadline_exceeded.absorb(&other.deadline_exceeded);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_statistics() {
        let mut s = LatencyStats::new();
        for v in [10.0, 20.0, 30.0, 40.0, 50.0] {
            s.record(v);
        }
        assert_eq!(s.count(), 5);
        assert!((s.mean() - 30.0).abs() < 1e-9);
        assert_eq!(s.percentile(50.0), 30.0);
        assert_eq!(s.percentile(100.0), 50.0);
        assert_eq!(s.percentile(20.0), 10.0);
        assert_eq!(s.min(), 10.0);
        assert_eq!(s.max(), 50.0);
    }

    #[test]
    fn empty_recorder_is_safe() {
        let s = LatencyStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.percentile(99.0), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.min(), 0.0);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn out_of_range_percentile_panics() {
        let s = LatencyStats::new();
        let _ = s.percentile(0.0);
    }

    #[test]
    fn selection_matches_the_sorted_nearest_rank() {
        // Samples with duplicates: 40 distinct values over up to 300 draws.
        let mut state = 0x5eed_u64;
        let mut draw = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 33) % 40
        };
        for len in 1..=300 {
            let mut s = LatencyStats::new();
            (0..len).for_each(|_| s.record(draw() as f64 * 2.5 + 0.25));
            let mut sorted = s.samples().to_vec();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for p in [0.1, 1.0, 50.0, 99.0, 99.9, 100.0] {
                let rank = ((p / 100.0) * len as f64).ceil() as usize;
                let want = sorted[rank.saturating_sub(1).min(len - 1)];
                assert_eq!(s.percentile(p).to_bits(), want.to_bits(), "len {len} p {p}");
            }
            assert_eq!(s.min().to_bits(), sorted[0].to_bits(), "len {len}");
        }
    }

    #[test]
    fn p99_catches_tail() {
        let mut s = LatencyStats::new();
        for _ in 0..99 {
            s.record(10.0);
        }
        s.record(1000.0);
        assert_eq!(s.percentile(99.0), 10.0);
        assert_eq!(s.percentile(99.5), 1000.0);
    }
}
