//! What one run measured: named metrics with units, the operations it
//! attempted, the named failures among them, and the provenance lines.

use std::fmt::Write as _;

/// Fewest samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-th percentile (0 < q < 100) of `samples`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie above its rank: such a tail
/// is one or two outliers, not a percentile.
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    let rank = ((q / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n < rank + MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The highest of p99, p90 and p50 that `samples` can support, as
/// `(q, value)`; `(0, 0)` when not even the median can be given.
#[must_use]
pub fn tail(samples: &[f64]) -> (f64, f64) {
    [99.0, 90.0, 50.0]
        .into_iter()
        .find_map(|q| percentile(samples, q).map(|v| (q, v)))
        .unwrap_or((0.0, 0.0))
}

/// The middle value (mean of the middle two for an even count); 0 when empty.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Microseconds in a duration, as a float.
#[must_use]
pub fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `part / whole`, or 0 when `whole` is 0.
#[must_use]
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// One run's results.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failures: Vec<String>,
    provenance: Vec<(String, String)>,
}

impl Report {
    /// Records metric `name` in `unit`.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Counts `n` attempted operations (ticks, batches, queries).
    pub fn attempts(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records one failure among the operations already counted.
    pub fn fail(&mut self, name: &str, detail: impl std::fmt::Display) {
        self.failures.push(format!("{name}: {detail}"));
    }

    /// Counts one correctness gate as an attempted operation, failing it
    /// under `name` unless `ok`.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(name, detail());
        }
    }

    /// Adds one provenance entry (printed, not a metric).
    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.provenance.push((key.to_string(), value.to_string()));
    }

    /// Replaces the metrics with exactly `wanted`, in its order. A wanted
    /// metric that was not recorded reads 0 and is returned; one recorded
    /// under another unit, or recorded but not wanted, fails the run.
    pub fn keep_only(&mut self, wanted: &[(&'static str, &'static str)]) -> Vec<&'static str> {
        let recorded = std::mem::take(&mut self.metrics);
        let mut missing = Vec::new();
        for &(name, unit) in wanted {
            let value = match recorded.iter().find(|(n, _, _)| n == name) {
                Some(&(_, v, u)) => {
                    self.check("metric.unit", u == unit, || {
                        format!("{name}: {u}, declared {unit}")
                    });
                    v
                }
                None => {
                    missing.push(name);
                    0.0
                }
            };
            self.metrics.push((name.to_string(), value, unit));
        }
        for (name, _, _) in &recorded {
            let declared = wanted.iter().any(|(n, _)| n == name);
            self.check("metric.declared", declared, || {
                format!("{name} is not declared")
            });
        }
        missing
    }

    /// Failures so far.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Failures as a percentage of the operations attempted.
    #[must_use]
    pub fn failed_pct(&self) -> f64 {
        100.0 * ratio(self.failed() as f64, self.attempted.max(1) as f64)
    }

    /// The human-readable lines printed before the result line.
    #[must_use]
    pub fn lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (k, v) in &self.provenance {
            out.push(format!("# {k}: {v}"));
        }
        for (name, value, unit) in &self.metrics {
            out.push(format!("{name} = {value} {unit}"));
        }
        out.push(format!(
            "failed_pct = {} % ({} of {} operations)",
            self.failed_pct(),
            self.failed(),
            self.attempted
        ));
        for f in &self.failures {
            out.push(format!("FAIL {f}"));
        }
        out
    }

    /// The one-line JSON result. A metric that is not a finite number is
    /// a failure of the run, not a value.
    #[must_use]
    pub fn json(&mut self) -> String {
        let bad: Vec<String> = self
            .metrics
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, v, _)| format!("{n} = {v}"))
            .collect();
        for b in bad {
            self.check("metric.finite", false, || b);
        }
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failed()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 90.0), Some(90.0));
        assert_eq!(
            percentile(&samples, 91.0),
            None,
            "only 9 samples beyond p91"
        );
        assert_eq!(percentile(&samples, 99.0), None);
        assert_eq!(percentile(&samples[..19], 50.0), None);
        assert_eq!(percentile(&samples[..20], 50.0), Some(10.0));
        let many: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&many, 99.0), Some(990.0));
        assert_eq!(tail(&samples), (90.0, 90.0));
        assert_eq!(tail(&samples[..5]), (0.0, 0.0));
    }

    #[test]
    fn json_counts_non_finite_metrics_as_failures() {
        let mut r = Report::default();
        r.attempts(3);
        r.metric("a", 1.5, "ms");
        r.metric("b", f64::NAN, "ms");
        let line = r.json();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 1,"));
        assert!(line.contains("\"a\": {\"value\": 1.5, \"unit\": \"ms\"}"));
    }
}
