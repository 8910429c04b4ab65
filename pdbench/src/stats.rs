//! Order statistics and the results digest.

/// Nearest-rank percentile of an ascending slice: the sample at rank
/// `ceil(p/100 · n)` (1-based). Empty input gives 0.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

fn rank(n: usize, p: f64) -> usize {
    // Integer arithmetic in tenths of a percent: `0.99 * 1000.0` in floating
    // point could round the rank of an exact boundary up by one.
    let tenths = (p * 10.0).round().clamp(0.0, 1000.0) as usize;
    (tenths * n).div_ceil(1000).clamp(1, n)
}

/// Samples a tail percentile must leave above it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles considered, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest candidate percentile whose nearest rank leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it (50 when none does).
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n >= rank(n, p) + MIN_BEYOND)
        .unwrap_or(50.0)
}

/// Samples strictly beyond the nearest rank of `p` among `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Median of unsorted samples (mean of the two middle ones for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the default exclusive method).
/// Fewer than two samples give that sample three times.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let k = (i + 1) * m;
        let j = (k / 4).clamp(1, n - 1);
        let delta = (k as f64 - 4.0 * j as f64) / 4.0;
        *q = v[j - 1] + (v[j] - v[j - 1]) * delta;
    }
    out
}

/// 64-bit FNV-1a over a stream of integers.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold in one integer, little-endian byte by byte.
    pub fn write(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 50.0), 5);
        assert_eq!(percentile(&v, 90.0), 9);
        assert_eq!(percentile(&v, 91.0), 10);
        assert_eq!(percentile(&v, 100.0), 10);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 99.0), 0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 1000 samples: p99 sits at rank 990, exactly ten beyond; p99.9 would
        // leave one.
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(beyond(1000, 99.0), 10);
        // 10_000 samples afford p99.9.
        assert_eq!(tail_percentile(10_000), 99.9);
        // 999 samples: p99 is rank 990, nine beyond — fall back to p95.
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(100), 90.0);
        for n in [20, 57, 100, 999, 1000, 4321, 20_000] {
            let p = tail_percentile(n);
            assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
        }
        assert_eq!(tail_percentile(5), 50.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let mut a = Fnv::default();
        a.write(1);
        a.write(2);
        let mut b = Fnv::default();
        b.write(2);
        b.write(1);
        assert_ne!(a.finish(), b.finish());
    }
}
