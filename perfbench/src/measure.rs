//! Summary statistics and the result line.
//!
//! Every timing is summarised by its median and by the highest percentile
//! that still has at least [`MIN_BEYOND`] samples beyond it, so a tail
//! figure never rests on one or two outliers.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Nearest-rank index of percentile `p` (0 < p ≤ 100) in `n` sorted
/// samples. The small offset keeps a `p · n / 100` that should be whole
/// from rounding up.
fn rank_index(n: usize, p: f64) -> usize {
    let rank = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Samples strictly beyond percentile `p` of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank_index(n, p)
}

/// Percentile `p` of `sorted`, or `None` when fewer than [`MIN_BEYOND`]
/// samples lie beyond it (so p99 needs at least 1000 samples).
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if samples_beyond(sorted.len(), p) < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank_index(sorted.len(), p)])
}

/// The highest candidate percentile `n` samples support.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// Median of unsorted samples (mean of the middle pair for even counts).
///
/// # Panics
/// Panics on an empty slice or a NaN sample: every caller measures at
/// least one finite duration.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let v = sorted(samples.to_vec());
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Sorts samples ascending.
///
/// # Panics
/// Panics on a NaN sample.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    samples
}

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 characters of letters, digits, `_`, `.` and `-`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 characters of letters, digits,
/// `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The metrics of one run, keyed by name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    /// Records `name = value unit`.
    ///
    /// # Panics
    /// Panics on an invalid name or unit, a duplicate name, or a
    /// non-finite value — all bugs in the benchmark itself.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_metric_name(name), "bad metric name {name:?}");
        assert!(valid_unit(unit), "bad unit {unit:?}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let old = self.values.insert(name.to_owned(), (value, unit));
        assert!(old.is_none(), "metric {name} recorded twice");
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|&(v, _)| v)
    }

    /// The metrics named in `names`.
    ///
    /// # Panics
    /// Panics if one of `names` was never recorded or was recorded with
    /// another unit.
    pub fn select(&self, names: &[(&str, &'static str)]) -> Metrics {
        let mut out = Metrics::default();
        for &(name, unit) in names {
            let &(value, recorded) = self
                .values
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            assert_eq!(unit, recorded, "metric {name} recorded with another unit");
            out.put(name, value, unit);
        }
        out
    }

    /// The result line: `{"correct": …, "attempted": …, "failed": …,
    /// "metrics": {name: {"value": …, "unit": …}}}`. Values keep all
    /// their digits: Rust's shortest round-trip float formatting, which is
    /// also valid JSON (`1.0`, `1e-7`).
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, (value, unit))) in self.values.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        let data: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(percentile(&data, 99.0), Some(989.0));
        assert_eq!(percentile(&data[..999], 99.0), None);
        assert_eq!(samples_beyond(999, 99.0), 9);
    }

    #[test]
    fn tail_percentile_is_the_highest_with_ten_beyond() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1_200), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(15), None);
        for n in [20usize, 40, 100, 1000, 5000] {
            let p = tail_percentile(n).expect("supported");
            assert!(samples_beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn metric_name_charset() {
        for good in [
            "setup_s",
            "linalg.svd_ms",
            "serve.engine.query_ms",
            "p50",
            "a-b",
            "9x",
        ] {
            assert!(valid_metric_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "per/sec",
            "q%",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        for good in ["ms", "s", "1/s", "count", "%", "B", "MB"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "m s", "seventeen-chars-x", "µs"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.put("latency_ms", 1.25, "ms");
        m.put("count", 3.0, "count");
        m.put("tiny", 1e-7, "s");
        assert_eq!(
            m.result_line(true, 10, 0),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"count\": {\"value\": 3.0, \"unit\": \"count\"}, \
             \"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"tiny\": {\"value\": 1e-7, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "bad metric name")]
    fn invalid_names_are_refused() {
        Metrics::default().put("bad name", 1.0, "ms");
    }
}
