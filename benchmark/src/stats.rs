//! Percentile and quartile arithmetic.
//!
//! Two rules from the metrics guide live here so every workload obeys
//! them the same way: a percentile is reported only when at least ten
//! samples lie beyond it, and run-to-run spread is the distance between
//! the first and third quartile as a share of the median, computed as
//! Python's `statistics.quantiles(values, n=4)` computes it (the driver
//! uses that function, so `compare` must agree with it digit for digit).

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in `(0, 1]`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// [`percentile`], refused when fewer than [`MIN_BEYOND`] samples lie
/// beyond it: a tail read off a handful of points is not a measurement.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Result<f64, String> {
    let beyond = samples_beyond(sorted.len(), p);
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{:.0} of {} samples leaves {beyond} beyond it; {MIN_BEYOND} are required",
            p * 100.0,
            sorted.len()
        ));
    }
    Ok(percentile(sorted, p))
}

/// How many of `n` ascending samples lie strictly beyond the `p`-th
/// nearest-rank percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    n - rank
}

/// Median; like [`mean`], zero for no samples (a layer that saw no work).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// `(q1, q2, q3)` exactly as `statistics.quantiles(values, n=4)` (the
/// default "exclusive" method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median — the spread the
/// driver holds against a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, _, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        return 0.0;
    }
    (q3 - q1) / med.abs()
}

/// Events per second over `[0, span_s)`, as the median over `parts` equal
/// slices of the span: a slice that stalled (a rebuild, a hiccup of the
/// host) does not move the rate the way it moves a plain count / time.
pub fn median_rate(event_offsets_s: &[f64], span_s: f64, parts: usize) -> f64 {
    let slice = span_s / parts as f64;
    let mut counts = vec![0.0; parts];
    for &at in event_offsets_s {
        counts[((at / slice) as usize).min(parts - 1)] += 1.0;
    }
    median(&counts) / slice
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 100.0);
        assert_eq!(percentile(&v, 0.95), 190.0);
        assert_eq!(percentile(&v, 1.0), 200.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v200: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(tail_percentile(&v200, 0.95).unwrap(), 190.0);
        let v199 = &v200[..199];
        assert_eq!(samples_beyond(199, 0.95), 9);
        assert!(tail_percentile(v199, 0.95).is_err());
        // p99 needs a thousand samples by the same rule.
        assert!(tail_percentile(&v200, 0.99).is_err());
        assert_eq!(samples_beyond(1000, 0.99), 10);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3.1, 9.4, 2.2, 7.7, 5.0], n=4) == [2.65, 5.0, 8.55]
        let (q1, q2, q3) = quartiles(&[3.1, 9.4, 2.2, 7.7, 5.0]);
        assert!((q1 - 2.65).abs() < 1e-12 && q2 == 5.0 && (q3 - 8.55).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn median_rate_ignores_one_stalled_slice() {
        // 100 events/s for 5 s, except that the third second saw only 10.
        let mut events: Vec<f64> = Vec::new();
        for second in 0..5 {
            let n = if second == 2 { 10 } else { 100 };
            events.extend((0..n).map(|i| second as f64 + i as f64 / n as f64));
        }
        assert_eq!(median_rate(&events, 5.0, 5), 100.0);
        assert!(
            (events.len() as f64 / 5.0 - 82.0).abs() < 1e-9,
            "the plain rate is dragged down"
        );
        // An event on the closing edge still counts, in the last slice.
        assert_eq!(median_rate(&[0.5, 1.5, 2.0], 2.0, 2), 1.5);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[4.0, 4.0, 4.0]), 0.0);
    }
}
