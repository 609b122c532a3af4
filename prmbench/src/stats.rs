//! Latency histograms and order statistics.
//!
//! Client threads record every operation into a [`LatHist`]: a log-linear
//! histogram with 128 sub-buckets per power of two (under 0.8% bucket
//! width), so memory stays fixed however many operations a run completes
//! and `peak_rss_mb` does not grow with throughput. Quantiles interpolate
//! inside the bucket, so they vary continuously between runs instead of
//! snapping to bucket edges.

/// Sub-bucket bits per octave.
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
const N_BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// A fixed-size log-linear histogram of nanosecond latencies.
#[derive(Clone)]
pub struct LatHist {
    counts: Vec<u64>,
    n: u64,
    sum: u128,
}

impl Default for LatHist {
    fn default() -> Self {
        LatHist { counts: vec![0; N_BUCKETS], n: 0, sum: 0 }
    }
}

fn bucket(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros(); // >= SUB_BITS
    let shift = e - SUB_BITS;
    let m = ((v >> shift) as usize) & (SUB - 1);
    SUB + shift as usize * SUB + m
}

/// `(lower bound, width)` of bucket `i`.
fn bounds(i: usize) -> (f64, f64) {
    if i < SUB {
        return (i as f64, 1.0);
    }
    let shift = (i - SUB) / SUB;
    let m = (i - SUB) % SUB;
    let width = (1u64 << shift) as f64;
    ((SUB + m) as f64 * width, width)
}

impl LatHist {
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket(ns)] += 1;
        self.n += 1;
        self.sum += ns as u128;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn sum_ns(&self) -> f64 {
        self.sum as f64
    }

    pub fn merge(&mut self, other: &LatHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.sum += other.sum;
    }

    /// The `q`-quantile in ns, interpolated within its bucket; 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.n as f64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (seen + c) as f64 >= target {
                let (lo, width) = bounds(i);
                let frac = ((target - seen as f64) / c as f64).clamp(0.0, 1.0);
                return lo + frac * width;
            }
            seen += c;
        }
        let last = self.counts.iter().rposition(|&c| c > 0).unwrap_or(0);
        let (lo, width) = bounds(last);
        lo + width
    }
}

/// Share of the measured windows the throughput and latency metrics are
/// computed over: the fastest quarter. On a shared 2-vCPU virtual
/// machine, neighbours slowed a tight loop by up to 70% for seconds at a
/// time; the fastest windows are what the program does when they leave it
/// alone, and varied less between runs than the whole phase (p99 spread
/// over eight runs: 7–17% against 8–25%).
pub const STEADY_SHARE: f64 = 0.25;

/// The fastest `share` of `windows` by operations completed, pooled into
/// one histogram, and how many windows that is.
pub fn fastest_windows(windows: &[LatHist], share: f64) -> (LatHist, usize) {
    let mut order: Vec<&LatHist> = windows.iter().collect();
    order.sort_by_key(|h| std::cmp::Reverse(h.count()));
    let k =
        ((windows.len() as f64 * share).ceil() as usize).clamp(1, windows.len().max(1));
    let mut pooled = LatHist::default();
    for h in order.iter().take(k) {
        pooled.merge(h);
    }
    (pooled, k)
}

/// Linear-interpolated `q`-quantile of unsorted samples; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// `(q1, median, q3)` by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, which is how run-to-run spread is
/// judged. Needs at least two values; with one, all three are that value.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let cut = |i: usize| {
        // Position i·(n+1)/4 in 1-based order statistics, clamped to the
        // sample as Python does.
        let m = (n + 1) as f64 * i as f64 / 4.0;
        let j = (m.floor() as usize).clamp(1, n - 1);
        let delta = m - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_narrow() {
        let mut prev = 0;
        for v in [0u64, 1, 127, 128, 129, 1000, 4095, 4096, 1 << 30, 1 << 62] {
            let b = bucket(v);
            assert!(b >= prev && b < N_BUCKETS, "v={v}");
            let (lo, width) = bounds(b);
            assert!(lo <= v as f64 && (v as f64) < lo + width + 1.0, "v={v}");
            assert!(v < SUB as u64 || width / lo <= 1.0 / SUB as f64);
            prev = b;
        }
    }

    #[test]
    fn quantiles_track_the_samples() {
        let mut h = LatHist::default();
        for v in 1..=10_000u64 {
            h.record(v * 100);
        }
        let p50 = h.quantile(0.5);
        assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.01, "{p50}");
        let p99 = h.quantile(0.99);
        assert!((p99 - 990_000.0).abs() / 990_000.0 < 0.01, "{p99}");
        assert_eq!(LatHist::default().quantile(0.5), 0.0);
    }

    #[test]
    fn fastest_windows_pool_the_busiest_quarter() {
        let windows: Vec<LatHist> = (1..=8u64)
            .map(|n| {
                let mut h = LatHist::default();
                (0..n).for_each(|_| h.record(1000 / n));
                h
            })
            .collect();
        let (pooled, k) = fastest_windows(&windows, STEADY_SHARE);
        assert_eq!(k, 2);
        assert_eq!(pooled.count(), 8 + 7);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        assert_eq!(percentile(&v, 0.5), 5.5);
    }
}
