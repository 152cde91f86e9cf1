//! A concurrent log-linear latency histogram.
//!
//! Round-trip latencies span three decades (tens of microseconds uncontended
//! to tens of milliseconds under a 64-conversation backlog), so the bucket
//! grid must be logarithmic — but pure powers of two are too coarse at the
//! top: a 64-conversation run puts *every* sample inside one `[33.5 ms,
//! 67.1 ms)` bucket, and p50, p95 and p99 all collapse to the same bucket
//! midpoint. Each power of two is therefore split into 16 linear
//! sub-buckets (the HDR-histogram layout at 4 significant bits): relative
//! bucket width is bounded by 1/16 everywhere, so quantiles resolve to
//! ~6% at any magnitude, and [`Histogram::quantile_us`] interpolates
//! linearly inside the landing bucket on top of that. Recording stays a
//! couple of shifts plus a relaxed fetch-add per sample — cheap enough for
//! the client hot path of every host thread.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Sub-bucket resolution: each power of two splits into `2^SUB_BITS`
/// linear sub-buckets.
const SUB_BITS: u32 = 4;

/// Sub-buckets per power of two.
const SUBS: usize = 1 << SUB_BITS;

/// Total buckets: one unit-wide bucket per value below [`SUBS`], then 16
/// sub-buckets for each exponent `SUB_BITS..64`.
const BUCKETS: usize = SUBS + (64 - SUB_BITS as usize) * SUBS;

/// Bucket index of a sample of `ns` nanoseconds.
fn bucket_index(ns: u64) -> usize {
    if ns < SUBS as u64 {
        ns as usize
    } else {
        let exp = 63 - ns.leading_zeros() as usize;
        let shift = exp - SUB_BITS as usize;
        let sub = ((ns >> shift) as usize) & (SUBS - 1);
        SUBS + shift * SUBS + sub
    }
}

/// Lower bound and width of bucket `index`, in nanoseconds. The bucket
/// covers `[low, low + width)`.
fn bucket_bounds(index: usize) -> (f64, f64) {
    if index < SUBS {
        (index as f64, 1.0)
    } else {
        let shift = (index - SUBS) / SUBS;
        let sub = (index - SUBS) % SUBS;
        let width = (1u64 << shift) as f64;
        ((SUBS + sub) as f64 * width, width)
    }
}

/// A lock-free histogram of durations.
///
/// The ~8 KB bucket array is allocated lazily on the first sample: a sweep
/// spawning hundreds of per-node histograms pays for the grid only on nodes
/// that actually record (and an empty histogram is a few words).
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: OnceLock<Box<[AtomicU64; BUCKETS]>>,
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Histogram {
    /// The bucket grid, allocated on first use.
    fn grid(&self) -> &[AtomicU64; BUCKETS] {
        self.buckets
            .get_or_init(|| Box::new(std::array::from_fn(|_| AtomicU64::new(0))))
    }

    /// Records one sample given directly in nanoseconds — the form clock
    /// timestamps arrive in (`ClockHandle::now_ns`), real
    /// or virtual.
    pub fn record_ns(&self, ns: u64) {
        let ns = ns.max(1);
        self.grid()[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Adds every sample of `other` into `self`, bucket by bucket.
    ///
    /// Because samples are bucketed individually at record time, merging
    /// per-node histograms and *then* taking quantiles is exactly
    /// equivalent to having recorded every sample into one shared
    /// histogram — fleet-wide quantiles carry no rank-interpolation bias
    /// from the split (unlike averaging per-node quantiles, which is
    /// biased whenever node distributions differ). Bucket sums commute,
    /// so any merge order produces identical counts.
    pub(crate) fn merge(&self, other: &Histogram) {
        let Some(theirs) = other.buckets.get() else {
            return; // `other` never recorded: nothing to add.
        };
        let mine = self.grid();
        for (mine, theirs) in mine.iter().zip(theirs.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum_ns
            .fetch_add(other.sum_ns.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max_ns
            .fetch_max(other.max_ns.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds (0 with no samples).
    pub(crate) fn mean_us(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.sum_ns.load(Ordering::Relaxed) as f64 / n as f64 / 1_000.0
    }

    /// Largest recorded sample, microseconds.
    pub(crate) fn max_us(&self) -> f64 {
        self.max_ns.load(Ordering::Relaxed) as f64 / 1_000.0
    }

    /// Approximate `q`-quantile in microseconds: linear interpolation by
    /// rank inside the bucket holding the `q`-th sample (0 with no
    /// samples). Distinct ranks landing in one bucket still get distinct,
    /// ordered estimates — the property the coarse power-of-two histogram
    /// lost for tightly clustered tails. The bucket's upper edge is capped
    /// at the observed maximum (no sample lies beyond it, and the cap
    /// keeps tail estimates both below `max` and strictly ordered instead
    /// of collapsing onto a clamp).
    pub(crate) fn quantile_us(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let Some(buckets) = self.buckets.get() else {
            return 0.0;
        };
        let target = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let max_ns = self.max_ns.load(Ordering::Relaxed) as f64;
        let mut seen = 0u64;
        for (index, slot) in buckets.iter().enumerate() {
            let c = slot.load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            if seen + c >= target {
                let (low, width) = bucket_bounds(index);
                let high = (low + width).min(max_ns);
                let frac = (target - seen) as f64 / c as f64;
                return (low + (high - low) * frac) / 1_000.0;
            }
            seen += c;
        }
        self.max_us()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_line() {
        // Every bucket's upper edge is the next bucket's lower edge, and
        // boundary values land in the bucket that owns them.
        for index in 0..BUCKETS - 1 {
            let (low, width) = bucket_bounds(index);
            let (next_low, _) = bucket_bounds(index + 1);
            assert_eq!(low + width, next_low, "gap after bucket {index}");
        }
        for ns in [1u64, 15, 16, 17, 255, 256, 1 << 20, (1 << 20) + 12345] {
            let (low, width) = bucket_bounds(bucket_index(ns));
            assert!(
                low <= ns as f64 && (ns as f64) < low + width,
                "ns={ns} misfiled into [{low}, {})",
                low + width
            );
        }
    }

    #[test]
    fn quantiles_bracket_the_samples() {
        let h = Histogram::default();
        for us in [10u64, 20, 40, 80, 160, 320, 640, 1_280, 2_560, 5_120] {
            h.record_ns(us * 1_000);
        }
        assert_eq!(h.count(), 10);
        let p50 = h.quantile_us(0.50);
        assert!((50.0..200.0).contains(&p50), "p50 {p50}");
        let p99 = h.quantile_us(0.99);
        assert!(p99 >= 2_560.0, "p99 {p99}");
        assert!((h.max_us() - 5_120.0).abs() < 1.0);
        assert!(h.mean_us() > 900.0 && h.mean_us() < 1_100.0);
    }

    #[test]
    fn clustered_tail_quantiles_stay_ordered() {
        // The regression that motivated the sub-buckets: a contended run
        // puts all samples between 34 ms and 64 ms — one power-of-two
        // bucket. The log-linear grid plus interpolation must still
        // separate the quantiles, strictly and in order.
        let h = Histogram::default();
        for i in 0..100u64 {
            h.record_ns((34_000 + i * 300) * 1_000);
        }
        let (p50, p95, p99) = (
            h.quantile_us(0.50),
            h.quantile_us(0.95),
            h.quantile_us(0.99),
        );
        assert!(p50 < p95, "p50 {p50} !< p95 {p95}");
        assert!(p95 < p99, "p95 {p95} !< p99 {p99}");
        assert!((30_000.0..70_000.0).contains(&p50), "p50 {p50}");
        // Each estimate is within one sub-bucket (~6%) of the true rank
        // statistic.
        assert!((p50 - 49_000.0).abs() < 49_000.0 * 0.07, "p50 {p50}");
        assert!((p95 - 62_500.0).abs() < 62_500.0 * 0.07, "p95 {p95}");
        assert!(p99 <= h.max_us());
    }

    /// Every bucket's count; empty for a histogram that never allocated.
    fn counts(h: &Histogram) -> Vec<u64> {
        h.buckets.get().map_or_else(Vec::new, |grid| {
            grid.iter().map(|c| c.load(Ordering::Relaxed)).collect()
        })
    }

    #[test]
    fn merge_equals_recording_into_one_histogram() {
        // Fleet-wide quantiles: two per-node histograms with *different*
        // latency regimes (the case where averaging per-node quantiles is
        // biased), merged, must agree exactly — bucket for bucket and
        // quantile for quantile — with one histogram that saw everything.
        let node_a = Histogram::default();
        let node_b = Histogram::default();
        let reference = Histogram::default();
        for i in 0..200u64 {
            let fast = 10_000 + i * 37; // ~10 µs regime on node A
            let slow = 34_000_000 + i * 300_000; // ~34 ms regime on node B
            node_a.record_ns(fast);
            node_b.record_ns(slow);
            reference.record_ns(fast);
            reference.record_ns(slow);
        }
        let fleet = Histogram::default();
        fleet.merge(&node_a);
        fleet.merge(&node_b);
        assert_eq!(fleet.count(), reference.count());
        assert_eq!(counts(&fleet), counts(&reference));
        for q in [0.05, 0.25, 0.50, 0.75, 0.95, 0.99, 1.0] {
            assert_eq!(fleet.quantile_us(q), reference.quantile_us(q), "q={q}");
        }
        assert_eq!(fleet.mean_us(), reference.mean_us());
        assert_eq!(fleet.max_us(), reference.max_us());
        // Strict ordering survives the merge: the quantile ladder of the
        // bimodal fleet distribution is strictly increasing.
        let (p50, p95, p99) = (
            fleet.quantile_us(0.50),
            fleet.quantile_us(0.95),
            fleet.quantile_us(0.99),
        );
        assert!(p50 < p95 && p95 < p99, "p50 {p50}, p95 {p95}, p99 {p99}");
        // Merge order does not matter (bucket sums commute).
        let swapped = Histogram::default();
        swapped.merge(&node_b);
        swapped.merge(&node_a);
        assert_eq!(counts(&swapped), counts(&fleet));
    }

    #[test]
    fn merging_an_empty_histogram_allocates_nothing() {
        let empty = Histogram::default();
        let target = Histogram::default();
        target.merge(&empty);
        assert_eq!(target.count(), 0);
        // Neither side allocated its bucket grid.
        assert!(target.buckets.get().is_none());
        assert!(empty.buckets.get().is_none());
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_us(0.5), 0.0);
        assert_eq!(h.mean_us(), 0.0);
        assert!(h.buckets.get().is_none());
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::default());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 1..=1_000u64 {
                        h.record_ns(i);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(h.count(), 4_000);
    }
}
