//! Order statistics over latency samples.

/// Percentiles the tail is chosen from, highest first.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie strictly beyond a percentile for it to count
/// as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `samples` (`p` in `(0, 100]`); `None` on
/// an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.get(rank(sorted.len(), p)?).copied()
}

/// Zero-based index of the nearest-rank `p`-th percentile among `n`
/// sorted samples.
fn rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    // The epsilon keeps float noise in `p` (99.9 is not exact) from
    // pushing an exact rank up by one.
    let r = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    Some(r.clamp(1, n) - 1)
}

/// Median: the middle sample, or the mean of the middle two.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Mean of `samples` without the `cut` lowest and `cut` highest;
/// `None` when nothing is left.
pub fn trimmed_mean(samples: &[f64], cut: usize) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let kept = sorted.get(cut..sorted.len().checked_sub(cut)?)?;
    (!kept.is_empty()).then(|| kept.iter().sum::<f64>() / kept.len() as f64)
}

/// The tail of a latency distribution: the highest percentile of
/// [`TAIL_LADDER`] with at least [`TAIL_MIN_BEYOND`] samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Which percentile this is.
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly beyond it.
    pub beyond: usize,
    /// Samples in the distribution.
    pub samples: usize,
}

/// The tail of `samples`, or `None` when even the median has fewer
/// than [`TAIL_MIN_BEYOND`] samples beyond it (fewer than 20 samples).
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    TAIL_LADDER.iter().find_map(|&pct| {
        let i = rank(n, pct)?;
        let beyond = n - 1 - i;
        (beyond >= TAIL_MIN_BEYOND).then(|| Tail {
            pct,
            value: sorted[i],
            beyond,
            samples: n,
        })
    })
}

/// Human-readable summary: `p50 x ms, p<t> y ms (n samples, k beyond)`.
pub fn describe(samples: &[f64]) -> String {
    let Some(p50) = median(samples) else {
        return "no samples".to_string();
    };
    match tail(samples) {
        Some(t) => format!(
            "p50 {p50:.3} ms, tail p{} {:.3} ms ({} samples, {} beyond the tail)",
            t.pct, t.value, t.samples, t.beyond
        ),
        None => format!(
            "p50 {p50:.3} ms ({} samples: too few for a tail)",
            samples.len()
        ),
    }
}

/// Print a latency distribution under its metric names:
/// `<name>_p50_ms`, and `<name>_tail_ms` with its percentile and counts.
pub fn print_latency(name: &str, samples: &[f64]) {
    match median(samples) {
        Some(p50) => println!("{name}_p50_ms {p50:.3} ms ({} samples)", samples.len()),
        None => println!("{name}_p50_ms: no samples"),
    }
    match tail(samples) {
        Some(t) => println!(
            "{name}_tail_ms {:.3} ms (p{}, {} samples, {} beyond it)",
            t.value, t.pct, t.samples, t.beyond
        ),
        None => println!(
            "{name}_tail_ms: none ({} samples; a tail needs at least 20)",
            samples.len()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the helpers must sort.
        (0..n).rev().map(|i| (i + 1) as f64).collect()
    }

    #[test]
    fn trimmed_mean_drops_both_ends() {
        assert_eq!(trimmed_mean(&[100.0, 1.0, 2.0, 3.0, -50.0], 1), Some(2.0));
        assert_eq!(trimmed_mean(&[4.0, 2.0], 0), Some(3.0));
        assert_eq!(trimmed_mean(&[1.0, 2.0], 1), None);
        assert_eq!(trimmed_mean(&[1.0], 1), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(10);
        assert_eq!(percentile(&s, 50.0), Some(5.0));
        assert_eq!(percentile(&s, 90.0), Some(9.0));
        assert_eq!(percentile(&s, 100.0), Some(10.0));
        assert_eq!(percentile(&s, 1.0), Some(1.0));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.5]), Some(3.5));
        assert_eq!(median(&s), Some(5.5));
        assert_eq!(median(&ramp(9)), Some(5.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 19 samples: the median has 9 beyond it, so there is no tail.
        assert_eq!(tail(&ramp(19)), None);
        // 20 samples: p50 is the 10th, with exactly 10 beyond.
        let t = tail(&ramp(20)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond, t.samples), (50.0, 10.0, 10, 20));
        // 40 samples: p75 is the 30th, 10 beyond; p90 would have 4.
        let t = tail(&ramp(40)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (75.0, 30.0, 10));
        // 100 samples: p90 has 10 beyond, p95 only 5.
        let t = tail(&ramp(100)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (90.0, 90.0, 10));
        // 1000 samples: p99 has 10 beyond, p99.9 only 1.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 990.0, 10));
        // 20000 samples: p99.9 has 20 beyond.
        let t = tail(&ramp(20_000)).unwrap();
        assert_eq!((t.pct, t.beyond), (99.9, 20));
    }

    #[test]
    fn tail_is_the_highest_qualifying_rung() {
        for n in 1..600 {
            let s = ramp(n);
            match tail(&s) {
                None => assert!(n < 20, "n={n} must have a tail"),
                Some(t) => {
                    assert!(t.beyond >= TAIL_MIN_BEYOND);
                    assert_eq!(t.beyond, s.iter().filter(|&&x| x > t.value).count());
                    // No higher rung qualifies.
                    for &p in TAIL_LADDER.iter().filter(|&&p| p > t.pct) {
                        let i = rank(n, p).unwrap();
                        assert!(n - 1 - i < TAIL_MIN_BEYOND, "n={n}: p{p} also qualifies");
                    }
                }
            }
        }
    }
}
