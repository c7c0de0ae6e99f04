//! Power-of-two-bucket histograms with an exactly associative merge.
//!
//! Workers aggregate observations locally and the hub folds them together;
//! for the result to be independent of fold order the merge must be
//! associative and commutative *exactly* (integer adds, min, max — no
//! floating point). Bucket `k` counts values `v` with
//! `2^(k-1) <= v < 2^k` (bucket 0 counts zero).

/// Which histogram an observation lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HistId {
    /// Per-cell simulated run time, in virtual microseconds.
    CellVirtualUs,
    /// Per-cell host execution time, in wall-clock microseconds
    /// (scheduling-dependent; excluded from golden comparisons).
    CellHostUs,
    /// Virtual component spans recorded per cell.
    CellSpans,
    /// Admission-queue depth observed by the serving daemon at each
    /// admission (traffic- and scheduling-dependent).
    ServeQueueDepth,
    /// Host microseconds from a served `run`'s admission until its result
    /// line is handed to the connection's outbox, one observation per
    /// delivered run (wall-clock; excluded from golden comparisons).
    ServeResultUs,
    /// Absolute relative energy shift per diff comparison, in parts per
    /// million (deterministic: one observation per (cell, component)).
    DiffShiftPpm,
    /// Probe period of each observer-effect point, in microseconds
    /// (deterministic: one observation per (cell, period, mode) point).
    ProbePeriodUs,
}

impl HistId {
    /// All histograms, in export order.
    pub const ALL: [HistId; 7] = [
        HistId::CellVirtualUs,
        HistId::CellHostUs,
        HistId::CellSpans,
        HistId::ServeQueueDepth,
        HistId::ServeResultUs,
        HistId::DiffShiftPpm,
        HistId::ProbePeriodUs,
    ];

    /// Stable metric name (Prometheus-style snake case).
    pub fn name(self) -> &'static str {
        match self {
            HistId::CellVirtualUs => "cell_virtual_us",
            HistId::CellHostUs => "cell_host_us",
            HistId::CellSpans => "cell_spans",
            HistId::ServeQueueDepth => "serve_queue_depth",
            HistId::ServeResultUs => "serve_result_us",
            HistId::DiffShiftPpm => "diff_shift_ppm",
            HistId::ProbePeriodUs => "probe_period_us",
        }
    }

    /// Whether the histogram's content is independent of thread count
    /// (see [`crate::CounterId::deterministic`]).
    pub fn deterministic(self) -> bool {
        !matches!(
            self,
            HistId::CellHostUs | HistId::ServeQueueDepth | HistId::ServeResultUs
        )
    }

    pub(crate) fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|h| *h == self)
            .expect("every HistId is in ALL")
    }
}

/// Number of buckets: zero plus one per bit of a `u64`.
const BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` observations.
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min)
            .field("max", &self.max)
            .finish_non_exhaustive()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index for a value: 0 for 0, else its bit length.
    fn bucket(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// The exclusive upper bound of bucket `k` (`le` label in exports).
    pub fn bucket_bound(k: usize) -> u64 {
        if k >= 64 {
            u64::MAX
        } else {
            1u64 << k
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, v: u64) {
        self.buckets[Self::bucket(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold another histogram into this one.
    ///
    /// Exactly associative and commutative: every field combines with an
    /// integer add, min or max, so any fold tree over per-worker
    /// histograms yields bit-identical totals.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (wrapping, like the adds that built it).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean observation (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// `(exclusive upper bound, cumulative count)` for every non-empty
    /// prefix of buckets — the Prometheus `le` series.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (k, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if n > 0 {
                out.push((Self::bucket_bound(k), cum));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random stream (no external crates).
    fn lcg(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed.wrapping_mul(2862933555777941757).wrapping_add(1);
        move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 16) % 1_000_000
        }
    }

    fn filled(seed: u64, n: usize) -> Histogram {
        let mut next = lcg(seed);
        let mut h = Histogram::new();
        for _ in 0..n {
            h.observe(next());
        }
        h
    }

    #[test]
    fn buckets_cover_powers_of_two() {
        assert_eq!(Histogram::bucket(0), 0);
        assert_eq!(Histogram::bucket(1), 1);
        assert_eq!(Histogram::bucket(2), 2);
        assert_eq!(Histogram::bucket(3), 2);
        assert_eq!(Histogram::bucket(4), 3);
        assert_eq!(Histogram::bucket(u64::MAX), 64);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let (a, b, c) = (filled(1, 500), filled(2, 300), filled(3, 700));

        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);

        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);

        assert_eq!(left, right, "merge must be associative");

        // b ⊕ a == a ⊕ b
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must be commutative");
    }

    #[test]
    fn merge_matches_pooled_observation() {
        let mut next = lcg(7);
        let vals: Vec<u64> = (0..400).map(|_| next()).collect();
        let mut pooled = Histogram::new();
        for &v in &vals {
            pooled.observe(v);
        }
        let (lo, hi) = vals.split_at(123);
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        lo.iter().for_each(|&v| a.observe(v));
        hi.iter().for_each(|&v| b.observe(v));
        a.merge(&b);
        assert_eq!(a, pooled);
    }

    #[test]
    fn empty_is_merge_identity() {
        let a = filled(9, 100);
        let mut with_empty = a.clone();
        with_empty.merge(&Histogram::new());
        assert_eq!(with_empty, a);
        let mut from_empty = Histogram::new();
        from_empty.merge(&a);
        assert_eq!(from_empty, a);
        assert_eq!(Histogram::new().min(), None);
        assert_eq!(Histogram::new().mean(), None);
    }

    #[test]
    fn stats_track_extremes() {
        let mut h = Histogram::new();
        for v in [5, 0, 1000, 3] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
        assert_eq!(h.sum(), 1008);
        let cum = h.cumulative_buckets();
        assert_eq!(cum.last().unwrap().1, 4, "cumulative reaches the count");
    }
}
