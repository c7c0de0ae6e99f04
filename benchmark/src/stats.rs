//! Order statistics and the result line.

use std::fmt::Write as _;

/// A percentile is reported only when at least this many samples lie
/// beyond it, so a tail figure never rests on a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (0 < q <= 1) of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie strictly beyond its rank.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if !(q > 0.0 && q <= 1.0) || beyond(samples.len(), q) < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// 1-based nearest rank of percentile `q` among `n > 0` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `q` of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Smallest sample count for which [`percentile`] reports `q`.
pub fn samples_needed(q: f64) -> usize {
    (1..)
        .find(|&n| beyond(n, q) >= MIN_BEYOND)
        .expect("some sample count satisfies any q < 1")
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Median (mean of the middle pair for even counts); 0 for no samples.
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

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The metrics of one run, in print order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric { name, value, unit });
    }

    /// Human-readable table, one metric per line.
    pub fn table(&self, title: &str) -> String {
        let mut out = format!("{title}\n");
        for m in &self.0 {
            let _ = writeln!(out, "  {:<26} {:>16.6} {}", m.name, m.value, m.unit);
        }
        out
    }
}

/// The machine-readable last line of a run. `{:?}` prints a finite
/// `f64` with all its digits in a form JSON accepts.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\":{{\"value\":{value:?},\"unit\":\"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_its_rank() {
        let under: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&under, 0.99), None, "999 samples leave 9 beyond");
        let exact: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&exact, 0.99), Some(990.0), "rank 990, 10 beyond");
        assert_eq!(samples_needed(0.99), 1000);
    }

    #[test]
    fn p50_is_nearest_rank_and_order_free() {
        let mut v: Vec<f64> = (1..=40).map(f64::from).collect();
        v.reverse();
        assert_eq!(percentile(&v, 0.5), Some(20.0));
        assert_eq!(percentile(&v[..15], 0.5), None, "15 samples: only 7 beyond");
        assert_eq!(samples_needed(0.5), 20);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut m = Metrics::default();
        m.push("wall_s", 0.5, "s");
        m.push("tiny", 1.5e-9, "s");
        let line = result_line(true, 3, 0, &m);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{"));
        assert!(line.contains("\"wall_s\":{\"value\":0.5,\"unit\":\"s\"}"));
        assert!(line.contains("\"tiny\":{\"value\":1.5e-9,\"unit\":\"s\"}"));
    }
}
