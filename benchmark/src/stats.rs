//! Order statistics the metrics are built from: nearest-rank
//! percentiles, the "ten samples beyond" tail rule, and slice-median
//! throughput.

/// Tail percentiles tried from the top; the first with at least
/// [`MIN_BEYOND`] samples above it is the one reported.
pub const TAIL_LADDER: [f64; 6] = [0.999, 0.99, 0.95, 0.90, 0.75, 0.50];

/// A percentile is only as good as the samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in `0..=1`).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(p, sorted.len()).max(1) - 1]
}

/// Nearest rank of percentile `p` among `n` samples, in `0..=n`. The
/// epsilon keeps `0.99 * 1000` from rounding up to rank 991.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 - 1e-9).ceil().max(0.0) as usize).min(n)
}

/// The highest ladder percentile not above `preferred` that leaves at
/// least [`MIN_BEYOND`] of `n` samples beyond it. A workload names its
/// `preferred` tail once (sized with margin), so the definition only
/// slides down on a host too slow to collect the samples.
pub fn tail_percentile(n: usize, preferred: f64) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|p| *p <= preferred)
        .find(|p| n - rank(*p, n) >= MIN_BEYOND)
        .unwrap_or(0.50)
}

/// Median of unsorted floats (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median and tail of a set of latencies, with what was measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    pub samples: usize,
    pub p50_ns: u64,
    pub tail_ns: u64,
    /// The percentile `tail_ns` is (see [`tail_percentile`]).
    pub tail_p: f64,
}

/// Summarize unsorted latencies; `None` when there are none.
pub fn summarize(latencies: &mut [u64], preferred_tail: f64) -> Option<LatencySummary> {
    if latencies.is_empty() {
        return None;
    }
    latencies.sort_unstable();
    let tail_p = tail_percentile(latencies.len(), preferred_tail);
    Some(LatencySummary {
        samples: latencies.len(),
        p50_ns: percentile(latencies, 0.50),
        tail_ns: percentile(latencies, tail_p),
        tail_p,
    })
}

/// Operations per second over each of `slices` equal-count runs of
/// consecutive completions. Throughput is reported as the median of
/// these, so one burst from a noisy neighbour moves one slice and not
/// the result. Slicing by count, not by time, keeps the rates continuous
/// when a slice holds only a handful of operations. `ends_ns` are
/// completion times from the phase start.
pub fn slice_rates(ends_ns: &[u64], slices: usize) -> Vec<f64> {
    assert!(slices > 0);
    let mut ends = ends_ns.to_vec();
    ends.sort_unstable();
    let slices = slices.min(ends.len()).max(1);
    let mut rates = Vec::with_capacity(slices);
    let (mut from, mut from_ns) = (0usize, 0u64);
    for slice in 1..=slices {
        let to = ends.len() * slice / slices;
        if to > from {
            let span_ns = (ends[to - 1] - from_ns).max(1);
            rates.push((to - from) as f64 * 1e9 / span_ns as f64);
            (from, from_ns) = (to, ends[to - 1]);
        }
    }
    rates
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 leaves 1.
        assert_eq!(tail_percentile(1000, 0.999), 0.99);
        assert_eq!(tail_percentile(10_000, 0.999), 0.999);
        // 999 samples: p99 leaves 9 — not enough, fall to p95.
        assert_eq!(tail_percentile(999, 0.99), 0.95);
        // 100 samples: p90 leaves exactly 10.
        assert_eq!(tail_percentile(100, 0.99), 0.90);
        assert_eq!(tail_percentile(99, 0.99), 0.75);
        // The preferred percentile caps the choice from above.
        assert_eq!(tail_percentile(1_000_000, 0.90), 0.90);
        // Too few samples for any tail: the median is all there is.
        assert_eq!(tail_percentile(12, 0.99), 0.50);
    }

    #[test]
    fn summary_reports_the_percentile_it_used() {
        let mut lat: Vec<u64> = (1..=200).rev().collect();
        let s = summarize(&mut lat, 0.99).unwrap();
        assert_eq!(
            (s.samples, s.p50_ns, s.tail_p, s.tail_ns),
            (200, 100, 0.95, 190)
        );
        assert!(summarize(&mut [], 0.99).is_none());
    }

    #[test]
    fn slice_median_ignores_one_stalled_slice() {
        // 1000 completions 1 ms apart, but for a 5 s stall after the
        // 350th: nine slices run at 1000 ops/s, one crawls.
        let mut ends = Vec::new();
        let mut now = 0u64;
        for i in 0..1000 {
            now += if i == 350 { 5_000_000_000 } else { 1_000_000 };
            ends.push(now);
        }
        ends.reverse(); // order of arrival does not matter
        let rate = median(&slice_rates(&ends, 10));
        assert!((rate - 1000.0).abs() < 1e-6, "{rate}");
        // The plain mean would have been dragged to ~167 ops/s.
    }

    #[test]
    fn slice_rate_is_continuous_with_few_operations() {
        // 7 completions, 130 ms apart: fewer operations than slices.
        let ends: Vec<u64> = (1..=7).map(|i| i * 130_000_000).collect();
        let rate = median(&slice_rates(&ends, 10));
        assert!((rate - 1e9 / 130e6).abs() < 1e-9, "{rate}");
        assert!(slice_rates(&[], 10).is_empty());
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
