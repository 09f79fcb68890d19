//! Order statistics and interval arithmetic over measured samples.

use std::time::Instant;

/// Nearest-rank percentile (`pct` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// How many samples lie strictly above the `pct` percentile.
pub fn beyond(samples: &[f64], pct: f64) -> usize {
    let cut = percentile(samples, pct);
    samples.iter().filter(|&&s| s > cut).count()
}

/// Merges possibly overlapping `[start, end]` intervals into disjoint ones.
pub fn union(mut spans: Vec<(Instant, Instant)>) -> Vec<(Instant, Instant)> {
    spans.sort_by_key(|&(start, _)| start);
    let mut merged: Vec<(Instant, Instant)> = Vec::with_capacity(spans.len());
    for (start, end) in spans {
        match merged.last_mut() {
            Some(last) if start <= last.1 => last.1 = last.1.max(end),
            _ => merged.push((start, end)),
        }
    }
    merged
}

/// Milliseconds of the disjoint `spans` that fall inside `[from, to]`.
pub fn overlap_ms(spans: &[(Instant, Instant)], from: Instant, to: Instant) -> f64 {
    spans
        .iter()
        .map(|&(start, end)| {
            let (start, end) = (start.max(from), end.min(to));
            end.checked_duration_since(start).map_or(0.0, |d| d.as_secs_f64() * 1e3)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&samples), 50.0);
        assert_eq!(percentile(&samples, 90.0), 90.0);
        assert_eq!(beyond(&samples, 90.0), 10);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn union_and_overlap() {
        let t = Instant::now();
        let at = |ms: u64| t + Duration::from_millis(ms);
        let merged = union(vec![(at(5), at(9)), (at(0), at(3)), (at(2), at(4))]);
        assert_eq!(merged, vec![(at(0), at(4)), (at(5), at(9))]);
        assert!((overlap_ms(&merged, at(3), at(6)) - 2.0).abs() < 1e-9);
    }
}
