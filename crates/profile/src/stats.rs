//! Basic numeric summary statistics.

/// Summary statistics over a set of numeric observations.
///
/// The observations arrive as `(value, count)` pairs, `count` copies of
/// `value` each, so a column's statistics cost its distinct values, not its
/// rows. Every field is bit-equal to the same statistic over the expanded
/// list of observations sorted ascending by a stable sort.
#[derive(Debug, Clone, PartialEq)]
pub struct NumericStats {
    /// Number of finite observations.
    pub count: usize,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// 50th percentile (linear interpolation).
    pub median: f64,
    /// 25th percentile.
    pub q1: f64,
    /// 75th percentile.
    pub q3: f64,
}

impl NumericStats {
    /// Computes stats over `pairs`, each `count` observations of `value`,
    /// ignoring non-finite values and zero counts. Returns `None` when no
    /// finite observation remains.
    ///
    /// The pairs are stable-sorted by value. That orders the observations
    /// exactly as a stable sort of the expanded list would, equal values
    /// (`-0.0` beside `0.0`) included, since each pair's copies sit
    /// together in both. The sums run over that order through `repeat_n`,
    /// and the quantiles index it through cumulative counts, so no list of
    /// one `f64` per observation is built or sorted.
    pub fn compute(pairs: &[(f64, usize)]) -> Option<Self> {
        let mut sorted: Vec<(f64, usize)> =
            pairs.iter().copied().filter(|&(v, n)| v.is_finite() && n > 0).collect();
        if sorted.is_empty() {
            return None;
        }
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite values compare"));
        let observations = || sorted.iter().flat_map(|&(v, n)| std::iter::repeat_n(v, n));
        let ends: Vec<usize> = sorted
            .iter()
            .scan(0, |end, &(_, n)| {
                *end += n;
                Some(*end)
            })
            .collect();
        let count = ends[ends.len() - 1];
        let sum: f64 = observations().sum();
        let mean = sum / count as f64;
        let var = observations().map(|v| (v - mean).powi(2)).sum::<f64>() / count as f64;
        // The observation at `index` of the ascending order.
        let nth = |index: usize| sorted[ends.partition_point(|&end| end <= index)].0;
        // Linear-interpolated quantile.
        let quantile = |q: f64| {
            if count == 1 {
                return nth(0);
            }
            let pos = q * (count - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            let frac = pos - lo as f64;
            nth(lo) * (1.0 - frac) + nth(hi) * frac
        };
        Some(NumericStats {
            count,
            min: sorted[0].0,
            max: sorted[sorted.len() - 1].0,
            mean,
            std_dev: var.sqrt(),
            median: quantile(0.5),
            q1: quantile(0.25),
            q3: quantile(0.75),
        })
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// Tukey fences at `k` IQRs (k = 1.5 conventional, 3.0 "far out").
    pub fn tukey_fences(&self, k: f64) -> (f64, f64) {
        let iqr = self.iqr();
        (self.q1 - k * iqr, self.q3 + k * iqr)
    }

    /// Z-score of `value` under this distribution (0 when σ = 0).
    pub fn z_score(&self, value: f64) -> f64 {
        if self.std_dev == 0.0 {
            0.0
        } else {
            (value - self.mean) / self.std_dev
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One observation per value.
    fn each_once(values: &[f64]) -> Vec<(f64, usize)> {
        values.iter().map(|&v| (v, 1)).collect()
    }

    #[test]
    fn basic_stats() {
        let s = NumericStats::compute(&each_once(&[1.0, 2.0, 3.0, 4.0, 5.0])).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!((s.median - 3.0).abs() < 1e-12);
        assert!((s.std_dev - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn quantiles_interpolate() {
        let s = NumericStats::compute(&each_once(&[4.0, 1.0, 3.0, 2.0])).unwrap();
        assert!((s.median - 2.5).abs() < 1e-12);
        assert!((s.q1 - 1.75).abs() < 1e-12);
        assert!((s.q3 - 3.25).abs() < 1e-12);
        let s = NumericStats::compute(&[(7.0, 1)]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (7.0, 7.0, 7.0));
        // Quantiles index the observations, not the pairs.
        let s = NumericStats::compute(&[(1.0, 3), (9.0, 1)]).unwrap();
        assert_eq!((s.count, s.q1, s.median, s.q3), (4, 1.0, 1.0, 3.0));
    }

    #[test]
    fn empty_and_nan_handling() {
        assert!(NumericStats::compute(&[]).is_none());
        assert!(NumericStats::compute(&[(f64::NAN, 1)]).is_none());
        assert!(NumericStats::compute(&[(2.0, 0)]).is_none());
        let s = NumericStats::compute(&[(f64::NAN, 1), (2.0, 1)]).unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 2.0);
    }

    #[test]
    fn tukey_fences_flag_outliers() {
        let mut values: Vec<f64> = (1..=100).map(f64::from).collect();
        values.push(10_000.0);
        let s = NumericStats::compute(&each_once(&values)).unwrap();
        let (lo, hi) = s.tukey_fences(1.5);
        assert!(10_000.0 > hi);
        assert!(1.0 > lo);
    }

    #[test]
    fn z_score_degenerate_sigma() {
        let s = NumericStats::compute(&[(5.0, 3)]).unwrap();
        assert_eq!(s.z_score(100.0), 0.0);
        let s = NumericStats::compute(&each_once(&[0.0, 10.0])).unwrap();
        assert!(s.z_score(10.0) > 0.0);
    }
}
