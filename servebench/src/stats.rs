//! Order statistics and the host-noise reading.

/// The `q`-quantile of ascending `sorted` by the nearest-rank rule:
/// the smallest sample with at least `q·n` samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// The 1-based nearest rank of the `q`-quantile among `n` samples
/// (the epsilon keeps `0.99 × 1000` from rounding up to 991).
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly above the nearest-rank `q`-quantile of `n`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n.saturating_sub(rank(n, q))
}

/// The highest of the usual tail percentiles that still has at least
/// ten samples beyond it, or `None` when even the median has fewer.
pub fn tail_quantile(n: usize) -> Option<f64> {
    [0.9999, 0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&q| n > 0 && samples_beyond(n, q) >= 10)
}

/// The median over consecutive chunks of `chunk` values (in the given
/// order; a partial last chunk is dropped) of each chunk's
/// `q`-quantile, or `None` without one full chunk. A burst confined to
/// a few chunks moves it less than the quantile of all values.
pub fn chunked_quantile(values: &[f64], chunk: usize, q: f64) -> Option<f64> {
    let per_chunk: Vec<f64> = values
        .chunks_exact(chunk)
        .map(|c| {
            let mut c = c.to_vec();
            c.sort_by(f64::total_cmp);
            percentile(&c, q)
        })
        .collect();
    (!per_chunk.is_empty()).then(|| median(&per_chunk))
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Cumulative CPU ticks from the aggregate `cpu` line of `/proc/stat`:
/// `(steal, total)`, where total sums user through steal (guest time
/// is already inside user).
pub fn parse_cpu_ticks(proc_stat: &str) -> Option<(u64, u64)> {
    let line = proc_stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    if fields.len() < 8 {
        return None;
    }
    Some((fields[7], fields.iter().sum()))
}

/// Reads the host's CPU ticks now; `None` where `/proc/stat` is absent.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    parse_cpu_ticks(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// The share of CPU ticks the hypervisor stole between two readings.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    let total = t1.checked_sub(t0)?;
    (total > 0).then(|| s1.saturating_sub(s0) as f64 / total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        let odd: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&odd, 0.5), 3.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(tail_quantile(999), Some(0.9));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(9_999), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(0), None);
    }

    #[test]
    fn chunked_quantiles_resist_a_burst() {
        // Three chunks of 1000; the middle one holds a burst of slow
        // samples that dominates the p99 of all 3000.
        let mut v: Vec<f64> = (0..3000).map(|i| (i % 1000) as f64).collect();
        for x in &mut v[1000..1050] {
            *x = 1e6;
        }
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(chunked_quantile(&v, 1000, 0.99), Some(989.0));
        let mut all = v.clone();
        all.sort_by(f64::total_cmp);
        assert_eq!(percentile(&all, 0.99), 1e6);
        assert_eq!(chunked_quantile(&v[..999], 1000, 0.99), None);
        assert_eq!(chunked_quantile(&v[..1999], 1000, 0.5), Some(499.0));
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn steal_from_proc_stat() {
        let before = "cpu  100 5 50 800 10 0 5 30 7 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        let after = "cpu  200 5 60 880 10 0 5 70 9 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_cpu_ticks(before), Some((30, 1000)));
        let share = steal_share(parse_cpu_ticks(before), parse_cpu_ticks(after));
        assert_eq!(share, Some(40.0 / 230.0));
        assert_eq!(parse_cpu_ticks("cpu0 1 2 3\n"), None);
        assert_eq!(parse_cpu_ticks("cpu  1 2 3\n"), None);
        assert_eq!(steal_share(parse_cpu_ticks(before), None), None);
        assert_eq!(
            steal_share(parse_cpu_ticks(before), parse_cpu_ticks(before)),
            None
        );
    }
}
