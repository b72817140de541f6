//! The benchmark's own statistics: percentiles under the ten-beyond rule,
//! geometric-mean gains, and pooled retention against an oracle.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index (0-based) of percentile `p` in `n` sorted samples.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The `p` percentile (`0 < p < 1`) of `values` by nearest rank, or `None`
/// when fewer than `min_beyond` samples lie strictly beyond its rank — a
/// tail percentile read off too few samples is noise, not a measurement.
pub fn percentile(values: &[f64], p: f64, min_beyond: usize) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let r = rank(p, sorted.len());
    (sorted.len() - 1 - r >= min_beyond).then(|| sorted[r])
}

/// The median (mean of the middle pair for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Geometric mean of `ratios`, minus one, in percent. `None` when there
/// is no ratio or one is not a positive finite number.
pub fn geomean_pct(ratios: &[f64]) -> Option<f64> {
    if ratios.is_empty() || ratios.iter().any(|r| !(r.is_finite() && *r > 0.0)) {
        return None;
    }
    let mean_ln = ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64;
    Some((mean_ln.exp() - 1.0) * 100.0)
}

/// Speed gain over a baseline: the geomean of `base / new` cycle ratios,
/// minus one, in percent. Positive means `new` runs fewer cycles.
pub fn geomean_gain_pct(pairs: &[(u64, u64)]) -> Option<f64> {
    let ratios: Vec<f64> = pairs
        .iter()
        .map(|&(base, new)| base as f64 / new as f64)
        .collect();
    geomean_pct(&ratios)
}

/// Size change against a baseline: the geomean of `new / base`, minus
/// one, in percent. Negative means `new` is smaller.
pub fn geomean_change_pct(pairs: &[(u64, u64)]) -> Option<f64> {
    let ratios: Vec<f64> = pairs
        .iter()
        .map(|&(base, new)| new as f64 / base as f64)
        .collect();
    geomean_pct(&ratios)
}

/// Pooled, signed retention over `(o2, oracle, x)` rows:
/// `Σ(o2 − x) / Σ(o2 − oracle) × 100`, as the release train reports it.
/// `None` when the pooled oracle win is zero or negative: the ratio is
/// then undefined, never ±∞.
pub fn pooled_retained_pct(rows: &[(u64, u64, u64)]) -> Option<f64> {
    let sum = |f: fn(&(u64, u64, u64)) -> u64| rows.iter().map(|r| u128::from(f(r))).sum::<u128>();
    let (o2, oracle, x) = (sum(|r| r.0), sum(|r| r.1), sum(|r| r.2));
    let win = o2 as f64 - oracle as f64;
    (win > 0.0).then(|| (o2 as f64 - x as f64) / win * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // Rank 90 of 100 leaves exactly ten samples beyond it.
        assert_eq!(percentile(&hundred, 0.9, MIN_BEYOND), Some(90.0));
        // Rank 99 leaves one: not reportable.
        assert_eq!(percentile(&hundred, 0.99, MIN_BEYOND), None);
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        // ceil(0.9 × 99) = 90 leaves nine beyond.
        assert_eq!(percentile(&ninety_nine, 0.9, MIN_BEYOND), None);
        assert_eq!(percentile(&[], 0.5, 0), None);
    }

    #[test]
    fn percentile_ignores_input_order_and_median_is_central() {
        let shuffled = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&shuffled, 0.5, 0), Some(3.0));
        assert_eq!(median(&shuffled), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn geomean_gain_is_the_geometric_not_arithmetic_mean() {
        // 2× faster on one program, 2× slower on the other: no net gain.
        let g = geomean_gain_pct(&[(200, 100), (100, 200)]).unwrap();
        assert!(g.abs() < 1e-9, "{g}");
        // Uniform 10% fewer cycles is an 11.1% gain.
        let g = geomean_gain_pct(&[(110, 100), (220, 200)]).unwrap();
        assert!((g - 10.0).abs() < 1e-9, "{g}");
        let g = geomean_gain_pct(&[(100, 125)]).unwrap();
        assert!((g + 20.0).abs() < 1e-9, "{g}");
        assert_eq!(geomean_gain_pct(&[]), None);
        assert_eq!(geomean_gain_pct(&[(100, 0)]), None);
    }

    #[test]
    fn geomean_change_reads_shrinkage_as_negative() {
        let c = geomean_change_pct(&[(100, 90), (1000, 900)]).unwrap();
        assert!((c + 10.0).abs() < 1e-9, "{c}");
    }

    #[test]
    fn retention_is_missing_when_the_oracle_does_not_win() {
        // Fresh CSSPGO-full on ad_ranker runs slower than -O2: its
        // per-program ratio is undefined, not ±∞.
        assert_eq!(pooled_retained_pct(&[(879_639, 915_646, 900_000)]), None);
        assert_eq!(pooled_retained_pct(&[(879_639, 915_646, 879_639)]), None);
        assert_eq!(pooled_retained_pct(&[(100, 100, 100)]), None);
        assert_eq!(pooled_retained_pct(&[]), None);
    }

    #[test]
    fn pooled_retention_is_signed_and_weighs_by_cycles() {
        // Program A: oracle wins 100, drifted keeps 50. Program B: the
        // oracle loses 20, drifted loses 40. Pooled: (50 − 40) / (100 − 20).
        let rows = [(1000, 900, 950), (500, 520, 540)];
        let p = pooled_retained_pct(&rows).unwrap();
        assert!((p - 12.5).abs() < 1e-9, "{p}");
        assert!(p.is_finite());
        // Worse than -O2 is negative retention.
        let p = pooled_retained_pct(&[(1000, 900, 1050)]).unwrap();
        assert!((p + 50.0).abs() < 1e-9, "{p}");
        // Pooling lets a program whose oracle loses sit beside one whose
        // oracle wins, without an undefined term.
        let p = pooled_retained_pct(&[
            (879_639, 915_646, 900_000),
            (2_000_000, 1_900_000, 1_950_000),
        ])
        .unwrap();
        assert!(p.is_finite());
    }
}
