//! Log-bucketed latency histograms with shard-per-thread atomic storage.
//!
//! The layout is the classic HDR shape specialised to one precision: values
//! `0..32` each get their own bucket; above that, every power-of-two octave
//! is split into 32 sub-buckets, so the bucket holding `v` is never wider
//! than `v / 32` — quantiles read from the merged counts carry at most
//! ~3.1 % relative error, and *every* sample is counted (no sampling, no
//! ring eviction, no unbounded `Vec`).
//!
//! Recording is wait-free: a thread picks a shard once (thread-local,
//! round-robin at first use) and then performs relaxed atomic adds on that
//! shard only, so concurrent recorders on different threads touch disjoint
//! cache lines almost all of the time. Reading merges all shards into a
//! plain [`HistogramSnapshot`]; because every cell is monotonically
//! non-decreasing, a merged `count` can lag a concurrent writer but never
//! exceed reality and never decreases between reads.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Sub-bucket precision: each octave above 32 splits into `2^SUB_BITS`
/// buckets, bounding relative error by `2^-SUB_BITS`.
const SUB_BITS: u32 = 5;

/// Sub-buckets per octave (`2^SUB_BITS`).
const SUB_COUNT: usize = 1 << SUB_BITS;

/// Total bucket count covering the full `u64` range: the 32 unit buckets
/// (group 0) plus 59 octaves (exponents 5..=63, groups 1..=59) of 32
/// sub-buckets each.
const BUCKETS: usize = (63 - SUB_BITS as usize + 2) * SUB_COUNT;

/// Shards recorders are spread over; more shards cost memory, fewer cost
/// contention. Four covers the serving worker pools we run.
const SHARDS: usize = 4;

/// Map a value to its bucket index. Total order preserving: `a <= b`
/// implies `bucket_index(a) <= bucket_index(b)`.
fn bucket_index(v: u64) -> usize {
    if v < SUB_COUNT as u64 {
        return v as usize;
    }
    // v >= 32, so leading_zeros <= 58 and exp >= 5.
    let exp = 63 - v.leading_zeros();
    let group = (exp - SUB_BITS + 1) as usize;
    let sub = ((v >> (exp - SUB_BITS)) as usize) - SUB_COUNT;
    group * SUB_COUNT + sub
}

/// Smallest value mapping to bucket `i` (inverse of [`bucket_index`]).
fn bucket_floor(i: usize) -> u64 {
    if i < SUB_COUNT {
        return i as u64;
    }
    let group = (i / SUB_COUNT) as u32;
    let sub = (i % SUB_COUNT) as u64;
    let exp = group + SUB_BITS - 1;
    (SUB_COUNT as u64 + sub) << (exp - SUB_BITS)
}

/// Largest value mapping to bucket `i`.
fn bucket_ceil(i: usize) -> u64 {
    if i + 1 >= BUCKETS {
        u64::MAX
    } else {
        bucket_floor(i + 1) - 1
    }
}

/// One shard's storage: a private bucket array plus running aggregates.
struct Shard {
    counts: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Shard {
    fn new() -> Shard {
        let mut counts = Vec::with_capacity(BUCKETS);
        counts.resize_with(BUCKETS, AtomicU64::default);
        Shard {
            counts: counts.into_boxed_slice(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Pick this thread's shard: round-robin assignment at first use, cached
/// in a thread-local so the fast path is one `Cell` read.
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
    }
    SHARD.with(|slot| {
        let mut v = slot.get();
        if v == usize::MAX {
            v = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
            slot.set(v);
        }
        v
    })
}

/// A fixed-memory, log-bucketed latency histogram.
///
/// Values are dimensionless `u64`s; the serving path records microseconds.
/// Memory is constant for the life of the histogram (`SHARDS × BUCKETS`
/// atomics, ~60 KiB) regardless of how many samples are recorded — this is
/// the bounded replacement for the old sampled latency ring.
pub struct Histogram {
    shards: Box<[Shard]>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        let mut shards = Vec::with_capacity(SHARDS);
        shards.resize_with(SHARDS, Shard::new);
        Histogram {
            shards: shards.into_boxed_slice(),
        }
    }

    /// Record one sample. Wait-free: three relaxed atomic RMWs plus a
    /// `fetch_max`, all on this thread's shard.
    pub fn record(&self, value: u64) {
        let Some(shard) = self.shards.get(shard_index()) else {
            return;
        };
        if let Some(bucket) = shard.counts.get(bucket_index(value)) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        shard.count.fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(value, Ordering::Relaxed);
        shard.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Record a duration in microseconds (saturating past ~584 000 years).
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// Merge all shards into a consistent read-side snapshot.
    ///
    /// Concurrent recorders may land between shard reads, so the snapshot
    /// can lag reality, but every cell is monotonic: repeated snapshots
    /// never observe `count` (or any bucket) decreasing.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = vec![0u64; BUCKETS];
        let mut count = 0u64;
        let mut sum = 0u64;
        let mut max = 0u64;
        for shard in self.shards.iter() {
            for (slot, cell) in counts.iter_mut().zip(shard.counts.iter()) {
                *slot += cell.load(Ordering::Relaxed);
            }
            count += shard.count.load(Ordering::Relaxed);
            sum += shard.sum.load(Ordering::Relaxed);
            max = max.max(shard.max.load(Ordering::Relaxed));
        }
        HistogramSnapshot {
            counts,
            count,
            sum,
            max,
        }
    }
}

/// A point-in-time merge of a [`Histogram`]: plain data, no atomics.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot (zero samples).
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            counts: Vec::new(),
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// The value at quantile `q` in `[0, 1]`, nearest-rank over buckets.
    ///
    /// Reports the bucket's *upper* bound clamped to the observed maximum,
    /// so the result never under-reports the true rank value and
    /// over-reports by at most one part in 32. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_ceil(i).min(self.max);
            }
        }
        self.max
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

/// A monotonically increasing event counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bucket_index_monotone_and_invertible() {
        let probes = [
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            100,
            1000,
            4096,
            65535,
            1 << 20,
            (1 << 40) + 12345,
            u64::MAX,
        ];
        let mut prev = 0usize;
        for &v in &probes {
            let i = bucket_index(v);
            assert!(i >= prev, "index not monotone at {v}");
            prev = i;
            assert!(i < BUCKETS);
            assert!(bucket_floor(i) <= v && v <= bucket_ceil(i), "v={v} i={i}");
        }
        // Exhaustive small range: every value maps into its own unit bucket.
        for v in 0..32u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_floor(v as usize), v);
        }
    }

    #[test]
    fn bucket_width_bounds_relative_error() {
        for i in SUB_COUNT..BUCKETS - 1 {
            let lo = bucket_floor(i);
            let hi = bucket_ceil(i);
            assert!(hi - lo <= lo / 32, "bucket {i} too wide: {lo}..={hi}");
        }
    }

    #[test]
    fn quantiles_match_exact_oracle_within_bucket_error() {
        let h = Histogram::new();
        let mut vals: Vec<u64> = (0..10_000u64).map(|i| (i * i) % 90_007).collect();
        for &v in &vals {
            h.record(v);
        }
        vals.sort_unstable();
        let snap = h.snapshot();
        assert_eq!(snap.count, vals.len() as u64);
        assert_eq!(snap.max, *vals.last().unwrap());
        for &q in &[0.0, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let rank = ((q * vals.len() as f64).ceil() as usize).clamp(1, vals.len());
            let exact = vals[rank - 1];
            let got = snap.quantile(q);
            assert!(got >= exact, "q={q}: {got} < exact {exact}");
            assert!(
                got <= exact + exact / 32 + 1,
                "q={q}: {got} too far above exact {exact}"
            );
        }
    }

    #[test]
    fn snapshot_is_monotone_across_reads() {
        let h = Histogram::new();
        let mut last = 0u64;
        for i in 0..1000u64 {
            h.record(i);
            let snap = h.snapshot();
            assert!(snap.count >= last);
            last = snap.count;
        }
        assert_eq!(last, 1000);
    }

    #[test]
    fn memory_is_bounded_under_sustained_recording() {
        // The histogram's storage is allocated at construction; recording
        // ten million samples must not grow it. We can't portably measure
        // RSS here, so assert the structural invariant instead: the bucket
        // array length is a compile-time constant and the snapshot's size
        // is independent of sample count.
        let h = Histogram::new();
        for i in 0..10_000_000u64 {
            h.record(i & 0xffff);
        }
        let snap = h.snapshot();
        assert_eq!(snap.counts.len(), BUCKETS);
        assert_eq!(snap.count, 10_000_000);
    }

    #[test]
    fn counter_sums_every_increment() {
        let c = Counter::new();
        c.inc();
        c.add(2);
        assert_eq!(c.get(), 3);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Arc::new(Histogram::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            crate::sync::join(t).unwrap();
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 80_000);
        assert!(snap.max >= 7 * 1000 + 9_999);
    }
}
