//! Order statistics the ledger reports: percentiles, window medians, and
//! the run-to-run spread the bounds are held against.

/// The `p`-quantile (0 ≤ p ≤ 1) of an ascending slice by nearest rank;
/// 0 for an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Median of `values` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The value at the better quartile of `values`: a quarter of them (rounded
/// down) are better still — the second best of seven. What a run reports
/// over its takes: interference from the host only ever makes a take worse,
/// never better, and comes in spells that outlast several takes, so the
/// median take moves with the box while this one stays with the program
/// until three quarters of the takes are hit. 0 when empty.
pub fn better_quartile(values: &[f64], higher_is_better: bool) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if higher_is_better {
        v.reverse();
    }
    v.get(v.len() / 4).copied().unwrap_or(0.0)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<u64>() as f64 / values.len() as f64
}

/// A metric's windows, one value per window. What is reported is the
/// **median** window, so that one scheduler hiccup on a shared box does not
/// move the number; the quartile windows, min/max and the sample count ride
/// along for the printout.
#[derive(Debug, Clone, PartialEq)]
pub struct Windowed {
    /// Median of the per-window values.
    pub median: f64,
    /// Lower-quartile window (the value a quarter of the windows stay at or
    /// below).
    pub low: f64,
    /// Upper-quartile window.
    pub high: f64,
    /// Smallest window value.
    pub min: f64,
    /// Largest window value.
    pub max: f64,
    /// Samples across all windows.
    pub samples: u64,
    /// Every window's value, in time order.
    pub values: Vec<f64>,
}

impl Windowed {
    /// Summarises one value per window; `samples` is the total behind them.
    pub fn of(per_window: &[f64], samples: u64) -> Windowed {
        let mut sorted = per_window.to_vec();
        sorted.sort_by(f64::total_cmp);
        let quarter = sorted.len() / 4;
        Windowed {
            median: median(per_window),
            low: sorted.get(quarter).copied().unwrap_or(0.0),
            high: sorted
                .len()
                .checked_sub(quarter + 1)
                .map_or(0.0, |i| sorted[i]),
            min: per_window.iter().copied().fold(f64::INFINITY, f64::min),
            max: per_window.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            samples,
            values: per_window.to_vec(),
        }
    }
}

impl Windowed {
    /// The same summary in another unit (every value times `k`).
    pub fn scaled(&self, k: f64) -> Windowed {
        Windowed {
            median: self.median * k,
            low: self.low * k,
            high: self.high * k,
            min: self.min * k,
            max: self.max * k,
            samples: self.samples,
            values: self.values.iter().map(|v| v * k).collect(),
        }
    }
}

/// Per-window percentile of latency samples: `windows[w]` holds window
/// `w`'s samples (unsorted); empty windows are skipped so a phase that ends
/// mid-window does not report a zero.
pub fn windowed_percentile(windows: &mut [Vec<u64>], p: f64) -> Windowed {
    let mut vals = Vec::new();
    let mut samples = 0u64;
    for w in windows.iter_mut() {
        if w.is_empty() {
            continue;
        }
        w.sort_unstable();
        samples += w.len() as u64;
        vals.push(percentile(w, p) as f64);
    }
    Windowed::of(&vals, samples)
}

/// `(max − min) / median` of `values`: the run-to-run spread a metric's
/// bound is held against. 0 with fewer than two values; infinite around a
/// zero median.
pub fn range_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let med = median(values).abs();
    if med == 0.0 {
        f64::INFINITY
    } else {
        (max - min) / med
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 0.5), 51); // round(49.5) = 50 → v[50]
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn better_quartile_holds_through_a_slow_spell() {
        // seven takes, four of them in a slow spell: the median take moves
        // with the box, the second best does not
        let latency = [83.4, 85.3, 171.7, 217.7, 153.0, 260.1, 81.5];
        assert_eq!(median(&latency), 153.0);
        assert_eq!(better_quartile(&latency, false), 83.4);
        let rate = [6695.0, 7004.0, 4420.0, 5216.0, 5100.0, 4900.0, 6762.0];
        assert_eq!(better_quartile(&rate, true), 6762.0);
        // but a cost every take pays shows in full
        let slower: Vec<f64> = latency.iter().map(|v| v + 20.0).collect();
        assert!((better_quartile(&slower, false) - 103.4).abs() < 1e-9);
        assert_eq!(better_quartile(&[5.0, 3.0, 4.0], false), 3.0);
        assert_eq!(better_quartile(&[], false), 0.0);
    }

    #[test]
    fn window_median_ignores_one_bad_window() {
        // four steady windows and one hiccup: the median does not move
        let w = Windowed::of(&[100.0, 101.0, 99.0, 100.0, 900.0], 50);
        assert_eq!(w.median, 100.0);
        assert_eq!((w.low, w.high), (100.0, 101.0));
        assert_eq!(w.min, 99.0);
        assert_eq!(w.max, 900.0);
        assert_eq!(w.samples, 50);
    }

    #[test]
    fn quartile_windows_ride_along() {
        let w = Windowed::of(&[80.0, 300.0, 81.0, 950.0, 400.0, 82.0, 700.0, 210.0], 8);
        assert_eq!((w.low, w.high), (82.0, 400.0));
        assert_eq!(Windowed::of(&[], 0).low, 0.0);
        assert_eq!(Windowed::of(&[], 0).high, 0.0);
    }

    #[test]
    fn windowed_percentile_skips_empty_windows() {
        let mut ws = vec![vec![5, 1, 3], vec![], vec![10, 30, 20]];
        let w = windowed_percentile(&mut ws, 0.5);
        assert_eq!(w.samples, 6);
        assert_eq!(w.min, 3.0);
        assert_eq!(w.max, 20.0);
        assert_eq!(w.median, 11.5);
    }

    #[test]
    fn range_spread_is_max_minus_min_over_median() {
        assert!((range_spread(&[95.0, 100.0, 105.0]) - 0.10).abs() < 1e-12);
        assert_eq!(range_spread(&[7.0]), 0.0);
        assert_eq!(range_spread(&[]), 0.0);
        assert_eq!(range_spread(&[-1.0, 0.0, 1.0]), f64::INFINITY);
    }
}
