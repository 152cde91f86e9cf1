//! Medians and regression bounds.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// On an empty slice: a metric without a sample is a benchmark bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// The share of `first` by which `second` is worse (negative when it is
/// better), in the metric's own direction.
pub fn worse_by(first: f64, second: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => second - first,
        Better::Higher => first - second,
    };
    if first == 0.0 {
        if delta == 0.0 {
            0.0
        } else {
            delta.signum() * f64::INFINITY
        }
    } else {
        delta / first.abs()
    }
}

/// Whether two medians of one metric agree within its bound, in either
/// order — the `--repeat-check` rule.
pub fn agree_within(a: f64, b: f64, better: Better, bound: f64) -> bool {
    worse_by(a, b, better) <= bound && worse_by(b, a, better) <= bound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    #[should_panic(expected = "median of no samples")]
    fn median_of_nothing_panics() {
        median(&[]);
    }

    #[test]
    fn min_and_max() {
        assert_eq!(min(&[2.0, -1.0, 7.0]), -1.0);
        assert_eq!(max(&[2.0, -1.0, 7.0]), 7.0);
    }

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((worse_by(10.0, 11.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worse_by(10.0, 11.0, Better::Higher) + 0.1).abs() < 1e-12);
        assert_eq!(worse_by(0.0, 0.0, Better::Lower), 0.0);
        assert_eq!(worse_by(0.0, 1.0, Better::Lower), f64::INFINITY);
    }

    #[test]
    fn bound_is_symmetric_and_inclusive() {
        assert!(agree_within(10.0, 11.0, Better::Lower, 0.1));
        assert!(agree_within(11.0, 10.0, Better::Lower, 0.1));
        assert!(!agree_within(10.0, 11.2, Better::Lower, 0.1));
        assert!(!agree_within(10.0, 8.5, Better::Higher, 0.1));
        // Exact metrics carry bound 0: only equal medians agree.
        assert!(agree_within(4.0, 4.0, Better::Lower, 0.0));
        assert!(!agree_within(4.0, 4.000001, Better::Lower, 0.0));
    }
}
