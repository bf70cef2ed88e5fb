//! Exact quantiles from raw samples.
//!
//! Every percentile the benchmark reports is read off the sorted raw
//! samples (nearest rank), never off a bucketed histogram, and is printed
//! with the number of samples it was taken from.

/// Percentiles tried, in increasing order, when looking for the highest
/// one that still has enough samples beyond it to mean something.
const TAIL_LADDER: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// Samples a reported tail percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// Raw per-call samples in nanoseconds, stored as `u32` (saturating at
/// ~4.29 s, far above any single call measured here) to halve the memory
/// of multi-million-call runs.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    ns: Vec<u32>,
    sorted: bool,
}

/// One exact quantile: its value and where it sits in the sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The quantile asked for, in `0..=1`.
    pub q: f64,
    /// The sample at that nearest rank, in nanoseconds (0 when empty).
    pub ns: u64,
    /// Samples strictly after that rank.
    pub beyond: usize,
    /// Total samples.
    pub count: usize,
}

impl Samples {
    /// An empty sample set.
    pub fn new() -> Self {
        Samples::default()
    }

    /// Records one sample.
    pub fn push(&mut self, ns: u64) {
        self.ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
        self.sorted = false;
    }

    /// Appends another sample set.
    pub fn extend(&mut self, other: Samples) {
        self.ns.extend(other.ns);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    /// Sum of all samples in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().map(|&v| u64::from(v)).sum()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
    }

    /// The nearest-rank `q`-quantile: the smallest sample with at least
    /// `q · n` samples at or below it.
    pub fn quantile(&mut self, q: f64) -> Quantile {
        self.sort();
        let count = self.ns.len();
        if count == 0 {
            return Quantile {
                q,
                ns: 0,
                beyond: 0,
                count,
            };
        }
        let rank = ((q * count as f64).ceil() as usize).clamp(1, count);
        Quantile {
            q,
            ns: u64::from(self.ns[rank - 1]),
            beyond: count - rank,
            count,
        }
    }

    /// The highest percentile of the ladder p50, p90, p99, p99.9, p99.99
    /// that has at least [`MIN_BEYOND`] samples beyond it (p50 when none
    /// has).
    pub fn tail(&mut self) -> Quantile {
        let mut best = self.quantile(TAIL_LADDER[0]);
        for &q in &TAIL_LADDER[1..] {
            let cand = self.quantile(q);
            if cand.beyond < MIN_BEYOND {
                break;
            }
            best = cand;
        }
        best
    }
}

impl Quantile {
    /// The value in microseconds.
    pub fn us(&self) -> f64 {
        self.ns as f64 / 1e3
    }

    /// `p99 = 123.456 us (n=1000, 10 beyond)` — the form every reported
    /// quantile is printed in.
    pub fn describe(&self) -> String {
        format!(
            "p{} = {:.3} us (n={}, {} beyond)",
            self.q * 100.0,
            self.us(),
            self.count,
            self.beyond
        )
    }
}

/// Median of a small set of repeated measurements (e.g. set-up times).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_are_exact() {
        let mut s = Samples::new();
        for v in (1..=100).rev() {
            s.push(v);
        }
        let p50 = s.quantile(0.5);
        assert_eq!((p50.ns, p50.beyond, p50.count), (50, 50, 100));
        let p99 = s.quantile(0.99);
        assert_eq!((p99.ns, p99.beyond), (99, 1));
        assert_eq!(s.quantile(1.0).ns, 100);
        assert_eq!(s.quantile(0.0).ns, 1);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let mut s = Samples::new();
        for v in 0..1000 {
            s.push(v);
        }
        // p99 leaves 10 beyond; p99.9 would leave 1.
        let t = s.tail();
        assert_eq!(t.q, 0.99);
        assert_eq!(t.beyond, 10);
        let mut few = Samples::new();
        few.push(7);
        assert_eq!(few.tail().q, 0.5);
    }

    #[test]
    fn empty_and_median() {
        let mut s = Samples::new();
        assert_eq!(s.quantile(0.5).ns, 0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
