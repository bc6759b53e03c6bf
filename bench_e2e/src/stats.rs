//! Order statistics for benchmark timings.
//!
//! Every timing the benchmark reports goes through [`summarize`]: the
//! median, the quartiles (computed exactly like Python's
//! `statistics.quantiles(values, n=4)`, so a spread printed here matches
//! one recomputed from the raw values), and the tail — the highest
//! percentile that still has at least [`TAIL_BEYOND`] samples beyond it.

use std::fmt;

/// Samples a tail value must have strictly above it.
pub const TAIL_BEYOND: usize = 10;

/// A sample set cannot be summarized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsError {
    /// No samples at all.
    Empty,
    /// A sample was NaN (a broken timer or a division by zero upstream);
    /// ordering it would silently corrupt every statistic.
    NaN,
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::Empty => f.write_str("no samples"),
            StatsError::NaN => f.write_str("a sample is NaN"),
        }
    }
}

impl std::error::Error for StatsError {}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile rank of the tail value, in percent (e.g. `97.5`).
    pub percentile: f64,
    /// The sample at that rank.
    pub value: f64,
}

/// Median, quartiles and tail of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// `None` below `2 * TAIL_BEYOND` samples, where the only candidate
    /// would be the median itself.
    pub tail: Option<Tail>,
}

/// Summarizes `samples`.
///
/// # Errors
///
/// [`StatsError::Empty`] for no samples, [`StatsError::NaN`] when any
/// sample is NaN.
pub fn summarize(samples: &[f64]) -> Result<Summary, StatsError> {
    if samples.is_empty() {
        return Err(StatsError::Empty);
    }
    if samples.iter().any(|v| v.is_nan()) {
        return Err(StatsError::NaN);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    let (q1, q3) = quartiles(&sorted);
    Ok(Summary {
        n,
        median,
        q1,
        q3,
        tail: tail(&sorted),
    })
}

/// Median of `samples`.
///
/// # Errors
///
/// As [`summarize`].
pub fn median(samples: &[f64]) -> Result<f64, StatsError> {
    summarize(samples).map(|s| s.median)
}

/// First and third quartile of sorted data by Python's default
/// (`exclusive`) `statistics.quantiles` method; a single sample is its
/// own quartiles.
fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// The sample with exactly [`TAIL_BEYOND`] samples above it, or `None`
/// when fewer than `2 * TAIL_BEYOND` samples exist.
fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    if n < 2 * TAIL_BEYOND {
        return None;
    }
    Some(Tail {
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        value: sorted[n - TAIL_BEYOND - 1],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_and_nan() {
        assert_eq!(summarize(&[]), Err(StatsError::Empty));
        assert_eq!(summarize(&[1.0, f64::NAN, 2.0]), Err(StatsError::NaN));
        assert_eq!(median(&[f64::NAN]), Err(StatsError::NaN));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s = summarize(&(1..=10).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.q3), (0.75, 2.25));
        let one = summarize(&[4.0]).unwrap();
        assert_eq!((one.q1, one.median, one.q3), (4.0, 4.0, 4.0));
    }

    #[test]
    fn no_tail_below_twenty_samples() {
        let v: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(summarize(&v).unwrap().tail, None);
        let v: Vec<f64> = (0..20).map(f64::from).collect();
        let t = summarize(&v).unwrap().tail.unwrap();
        assert_eq!((t.percentile, t.value), (50.0, 9.0));
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        for (n, pct) in [(40, 75.0), (100, 90.0), (400, 97.5), (1000, 99.0)] {
            let v: Vec<f64> = (0..n).rev().map(f64::from).collect();
            let t = summarize(&v).unwrap().tail.unwrap();
            assert_eq!(t.percentile, pct, "n={n}");
            assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        }
    }

    #[test]
    fn ties_are_ordered_by_position() {
        let mut v = vec![1.0; 25];
        v.extend([5.0; 5]);
        let s = summarize(&v).unwrap();
        assert_eq!(s.median, 1.0);
        assert_eq!(s.q3, 1.0);
        // The 11th-largest sample is one of the tied 1.0s.
        assert_eq!(s.tail.unwrap().value, 1.0);
    }
}
