//! Order statistics over a run's repetitions.

/// Sorts a copy of `values` ascending (NaN-free input assumed).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Fewest values from which [`trimmed_mean`] drops the extremes; below
/// it, dropping them would leave a median.
const TRIM_FROM: usize = 5;

/// The mean without the lowest and the highest value, from
/// [`TRIM_FROM`] values up; the plain mean below that, and 0 for an
/// empty slice. Host slowdowns on a shared machine come in spells of
/// several seconds, so a run's operations fall in a few host states: a
/// median picks one state and jumps between runs, a mean weighs them all,
/// and dropping the extremes keeps one odd operation from moving it. Over
/// ten runs of 20 s per seed, the spread between runs was 11% (median)
/// against 7% (this) on `database`, and 16% against 14% on `storage`.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let v = sorted(values);
    let kept = if v.len() >= TRIM_FROM {
        &v[1..v.len() - 1]
    } else {
        &v[..]
    };
    if kept.is_empty() {
        0.0
    } else {
        kept.iter().sum::<f64>() / kept.len() as f64
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads printed here match
/// the ones computed over a set of runs. `None` below two values.
fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile range as a share of the median; `None` below two
/// values or at a zero median.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let med = median(values);
    let (q1, q3) = quartiles(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// The range (max - min) as a share of the median (0 when undefined).
pub fn range_share(values: &[f64]) -> f64 {
    let med = median(values);
    let v = sorted(values);
    match (v.first(), v.last()) {
        (Some(lo), Some(hi)) if med != 0.0 => (hi - lo) / med.abs(),
        _ => 0.0,
    }
}

/// Throughput of one pass over several inputs, each taking its
/// [`trimmed_mean`] time: `Σ requests / Σ trimmed_mean(secs)`. Inputs
/// differ in work per request, so a statistic over the mixed
/// per-operation rates would jump between inputs; a per-input one keeps
/// every input's weight fixed. Inputs without samples are skipped.
pub fn pooled_rate(requests: &[u64], secs: &[Vec<f64>]) -> f64 {
    let (req, time) = requests
        .iter()
        .zip(secs)
        .filter(|(_, s)| !s.is_empty())
        .fold((0.0, 0.0), |(r, t), (&q, s)| {
            (r + q as f64, t + trimmed_mean(s))
        });
    if time > 0.0 {
        req / time
    } else {
        0.0
    }
}

/// The median over inputs of each input's [`iqr_share`], over the
/// inputs where it is defined; `None` when it is defined for none.
pub fn median_iqr_share(secs: &[Vec<f64>]) -> Option<f64> {
    let shares: Vec<f64> = secs.iter().filter_map(|s| iqr_share(s)).collect();
    (!shares.is_empty()).then(|| median(&shares))
}

/// Fewest samples that must lie above a reported tail percentile.
const TAIL_BEYOND: usize = 10;

/// The highest whole percentile (nearest-rank, at least the median) that
/// still has at least [`TAIL_BEYOND`] samples strictly beyond it, with
/// its value. `None` when there are too few samples for any such
/// percentile above the median.
pub fn tail_percentile(values: &[f64]) -> Option<(u32, f64)> {
    let v = sorted(values);
    let n = v.len();
    (50..100u32).rev().find_map(|p| {
        let rank = (p as usize * n).div_ceil(100).max(1);
        (n - rank >= TAIL_BEYOND).then(|| (p, v[rank - 1]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some((1.5, 12.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v).expect("defined") - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[7.0, 7.0, 7.0]), Some(0.0));
        // One sample has no spread at all, not a spread of 0.
        assert_eq!(iqr_share(&[7.0]), None);
        assert_eq!(iqr_share(&[0.0, 0.0]), None);
    }

    #[test]
    fn range_share_is_relative_to_the_median() {
        assert_eq!(range_share(&[4.0, 2.0, 3.0]), 2.0 / 3.0);
        assert_eq!(range_share(&[]), 0.0);
    }

    #[test]
    fn trimmed_mean_drops_one_value_at_each_end() {
        assert_eq!(trimmed_mean(&[9.0, 1.0, 2.0, 4.0, 3.0]), 3.0);
        // Below five values nothing is dropped.
        assert_eq!(trimmed_mean(&[9.0, 1.0, 2.0, 4.0]), 4.0);
        assert_eq!(trimmed_mean(&[1.0, 2.0]), 1.5);
        assert_eq!(trimmed_mean(&[]), 0.0);
    }

    #[test]
    fn pooled_rate_weights_each_input_by_its_trimmed_mean_time() {
        // Input 0: 100 requests at 2 s (one slow and one fast outlier);
        // input 1: 300 requests at 1 s; an input never run is skipped.
        let secs = vec![vec![2.0, 0.5, 2.0, 9.0, 2.0], vec![1.0], vec![]];
        assert_eq!(pooled_rate(&[100, 300, 50], &secs), 400.0 / 3.0);
        assert_eq!(pooled_rate(&[1], &[vec![]]), 0.0);
    }

    #[test]
    fn median_iqr_share_is_per_input() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let secs = vec![v.clone(), vec![5.0; 4], v, vec![3.0]];
        assert!((median_iqr_share(&secs).expect("defined") - 1.0).abs() < 1e-12);
        assert_eq!(median_iqr_share(&[vec![3.0], vec![4.0]]), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // Too few samples: even the median has fewer than 10 above it.
        assert_eq!(tail_percentile(&[1.0; 19]), None);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((50, 10.0)));
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        // p75 -> rank 30, 10 beyond; p76 -> rank 31, only 9 beyond.
        assert_eq!(tail_percentile(&v), Some((75, 30.0)));
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((99, 990.0)));
    }

    #[test]
    fn tail_percentile_rule_holds_for_every_size() {
        for n in 1..300usize {
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            if let Some((p, value)) = tail_percentile(&v) {
                let beyond = v.iter().filter(|&&x| x > value).count();
                assert!(beyond >= TAIL_BEYOND, "n={n} p={p}");
                // The next percentile up would break the rule.
                let next = ((p as usize + 1) * n).div_ceil(100);
                assert!(p == 99 || n - next < TAIL_BEYOND, "n={n} p={p}");
            } else {
                assert!(n < 2 * TAIL_BEYOND, "n={n}");
            }
        }
    }
}
