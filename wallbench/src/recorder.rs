//! A log-bucketed latency recorder: fixed ~3 % relative buckets, no
//! allocation per sample, mergeable across threads.
//!
//! Values are nanoseconds. A value's bucket is its octave (position of
//! the leading one bit) times [`SUBS`] plus its next five bits, so every
//! bucket spans 1/32 of its lower bound; values below [`SUBS`] get one
//! exact bucket each. Quantiles interpolate linearly inside the bucket
//! that holds the wanted rank, so a reported p50 is a continuous value
//! and not a bucket edge.

/// Sub-buckets per octave.
const SUBS: u64 = 32;
const SUB_BITS: u32 = 5;
/// Octaves 5..=63 have `SUBS` buckets each; values below `SUBS` are exact.
const BUCKETS: usize = (SUBS as usize) * 60;

/// Histogram of nanosecond samples.
#[derive(Clone)]
pub struct Recorder {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            counts: Box::new([0; BUCKETS]),
            total: 0,
        }
    }
}

fn bucket_of(ns: u64) -> usize {
    if ns < SUBS {
        return ns as usize;
    }
    let octave = 63 - ns.leading_zeros(); // >= SUB_BITS
    let sub = (ns >> (octave - SUB_BITS)) & (SUBS - 1);
    ((octave - SUB_BITS + 1) as u64 * SUBS + sub) as usize
}

/// The half-open value range `[lo, hi)` of bucket `i`.
fn bounds_of(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUBS {
        return (i, i + 1);
    }
    let octave = (i / SUBS - 1) as u32 + SUB_BITS;
    let width = 1u64 << (octave - SUB_BITS);
    let lo = (1u64 << octave) + (i % SUBS) * width;
    (lo, lo.saturating_add(width))
}

impl Recorder {
    /// Records one sample.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Recorder) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// The `q`-quantile (0 < q <= 1) in nanoseconds; 0 when empty. The
    /// wanted rank is `q * count` (fractional), located by walking the
    /// cumulative counts and interpolating inside the bucket it falls in.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = (q * self.total as f64).clamp(0.0, self.total as f64);
        let mut below = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            if n > 0 && (below + n) as f64 >= rank {
                let (lo, hi) = bounds_of(i);
                let inside = (rank - below as f64) / n as f64;
                return lo as f64 + inside * (hi - lo) as f64;
            }
            below += n;
        }
        unreachable!("rank {rank} beyond {} samples", self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomio_simgrid::DetRng;

    /// The exact quantile the recorder approximates: the value at
    /// (fractional) rank `q * n` of the sorted samples.
    fn exact(sorted: &[u64], q: f64) -> u64 {
        let rank = (q * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    #[test]
    fn buckets_tile_the_value_range() {
        let mut expected_lo = 0;
        for i in 0..BUCKETS {
            let (lo, hi) = bounds_of(i);
            assert_eq!(
                lo,
                expected_lo,
                "bucket {i} starts where {} ended",
                i.max(1) - 1
            );
            assert!(hi > lo);
            assert_eq!(bucket_of(lo), i);
            assert_eq!(bucket_of(hi - 1), i);
            expected_lo = hi;
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_agree_with_sorted_vector_within_one_bucket() {
        // Three shapes: uniform microseconds, a long-tailed mix like an
        // fsync-bound op, and a narrow spike like a loopback round trip.
        let rng = DetRng::new(0xB0C4E7);
        let shapes: [Box<dyn Fn() -> u64>; 3] = [
            Box::new(|| 1_000 + rng.next_below(900_000)),
            Box::new(|| {
                let base = 40_000_000 + rng.next_below(8_000_000);
                if rng.next_below(20) == 0 {
                    base * 3
                } else {
                    base
                }
            }),
            Box::new(|| 200_000 + rng.next_below(2_000)),
        ];
        for (s, shape) in shapes.iter().enumerate() {
            for n in [512usize, 1280, 100_000] {
                let mut rec = Recorder::default();
                let mut all: Vec<u64> = (0..n).map(|_| shape()).collect();
                for &v in &all {
                    rec.record(v);
                }
                all.sort_unstable();
                for q in [0.5, 0.95] {
                    let want = exact(&all, q);
                    let got = rec.quantile_ns(q);
                    let (lo, hi) = bounds_of(bucket_of(want));
                    let width = (hi - lo) as f64;
                    assert!(
                        got >= lo as f64 - width && got <= hi as f64 + width,
                        "shape {s} n {n} q {q}: recorder {got} vs exact {want} (bucket {lo}..{hi})"
                    );
                }
                assert_eq!(rec.total, n as u64);
            }
        }
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let rng = DetRng::new(7);
        let (mut a, mut b, mut both) = (
            Recorder::default(),
            Recorder::default(),
            Recorder::default(),
        );
        for i in 0..10_000 {
            let v = 50_000 + rng.next_below(5_000_000);
            if i % 2 == 0 { &mut a } else { &mut b }.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.total, both.total);
        assert_eq!(a.quantile_ns(0.5), both.quantile_ns(0.5));
        assert_eq!(a.quantile_ns(0.95), both.quantile_ns(0.95));
    }
}
