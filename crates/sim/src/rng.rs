//! Deterministic, forkable random number generation.
//!
//! Every stochastic component in the workspace (scene generation, detector
//! simulation, network jitter, workload key choice) draws from a [`DetRng`]
//! seeded from the experiment configuration. [`DetRng::fork`] derives an
//! independent child stream from a label, which makes results a pure
//! function of `(seed, label path)` — e.g. the detections for frame 17 are
//! identical whether the optimizer evaluates one threshold pair or a hundred.

/// SplitMix64 step, used to mix seeds and stream labels into child seeds
/// and to expand a 64-bit seed into the xoshiro state. This is the standard
/// seed-mixing finalizer from Vigna's splitmix64.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic random number generator with labelled forking.
///
/// ```
/// use croesus_sim::DetRng;
/// let mut a = DetRng::new(42);
/// let mut b = DetRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());          // same seed, same stream
/// let mut child = a.fork_named("detections");      // independent substream
/// assert!(child.uniform() < 1.0);
/// ```
///
/// The core generator is xoshiro256++ (Blackman & Vigna), implemented
/// directly so streams are bit-stable across dependency upgrades and the
/// generator stays `Clone` (snapshotting a stream is occasionally useful in
/// tests).
#[derive(Clone, Debug)]
pub struct DetRng {
    seed: u64,
    state: [u64; 4],
    /// Cached second output of the Box–Muller transform.
    spare_normal: Option<f64>,
}

impl DetRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        // Expand the seed with splitmix64 as recommended by the xoshiro
        // authors; guarantees a non-zero state.
        let mut s = seed;
        let mut state = [0u64; 4];
        for slot in &mut state {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            *slot = splitmix64(s);
        }
        DetRng {
            seed,
            state,
            spare_normal: None,
        }
    }

    /// Derive an independent child generator identified by `stream`.
    ///
    /// Forking does not consume randomness from `self`, so the set of forks
    /// taken from a generator never perturbs its own stream.
    pub fn fork(&self, stream: u64) -> DetRng {
        DetRng::new(splitmix64(
            self.seed ^ splitmix64(stream.wrapping_add(0xA5A5_5A5A)),
        ))
    }

    /// Derive a child generator from a string label.
    pub fn fork_named(&self, label: &str) -> DetRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        self.fork(h)
    }

    /// Uniform `u64` — one step of xoshiro256++.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`; returns `lo` when the range is empty.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        lo + self.uniform() * (hi - lo)
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    ///
    /// Uses Lemire's multiply-shift reduction; the bias is at most `n/2⁶⁴`,
    /// immaterial for simulation workloads.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "DetRng::index requires a non-empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform integer in `[lo, hi)`. Panics if the range is empty.
    pub fn int_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(hi > lo, "DetRng::int_range requires hi > lo");
        let span = hi - lo;
        lo + ((self.next_u64() as u128 * span as u128) >> 64) as u64
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform() < p
        }
    }

    /// Standard normal via the Box–Muller transform (cached pair).
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Avoid ln(0) by nudging u1 away from zero.
        let u1 = self.uniform().max(f64::MIN_POSITIVE);
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_is_independent_of_parent_consumption() {
        let parent = DetRng::new(42);
        let mut child1 = parent.fork(5);
        let mut parent2 = DetRng::new(42);
        parent2.next_u64(); // consume from a copy
        let mut child2 = parent2.fork(5);
        // fork() derives only from the seed, so consumption cannot matter,
        // but assert the contract explicitly.
        for _ in 0..10 {
            assert_eq!(child1.next_u64(), child2.next_u64());
        }
    }

    #[test]
    fn forks_with_distinct_streams_differ() {
        let parent = DetRng::new(42);
        let mut a = parent.fork(1);
        let mut b = parent.fork(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn named_forks_are_stable_and_distinct() {
        let parent = DetRng::new(9);
        let mut a1 = parent.fork_named("edge");
        let mut a2 = parent.fork_named("edge");
        let mut b = parent.fork_named("cloud");
        let x = a1.next_u64();
        assert_eq!(x, a2.next_u64());
        assert_ne!(x, b.next_u64());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = DetRng::new(3);
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_range_respects_bounds_and_degenerate_range() {
        let mut r = DetRng::new(3);
        for _ in 0..1_000 {
            let u = r.uniform_range(2.0, 5.0);
            assert!((2.0..5.0).contains(&u));
        }
        assert_eq!(r.uniform_range(4.0, 4.0), 4.0);
        assert_eq!(r.uniform_range(4.0, 1.0), 4.0);
    }

    #[test]
    fn bernoulli_extremes() {
        let mut r = DetRng::new(5);
        assert!(!r.bernoulli(0.0));
        assert!(r.bernoulli(1.0));
        assert!(!r.bernoulli(-0.5));
        assert!(r.bernoulli(1.5));
    }

    #[test]
    fn bernoulli_rate_close_to_p() {
        let mut r = DetRng::new(11);
        let hits = (0..20_000).filter(|_| r.bernoulli(0.3)).count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = DetRng::new(13);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| r.standard_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = DetRng::new(17);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..50).collect::<Vec<_>>(),
            "shuffle left input in order"
        );
    }

    #[test]
    fn index_and_choose_cover_range() {
        let mut r = DetRng::new(19);
        let items = [10, 20, 30];
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[r.index(3)] = true;
            let _ = r.choose(&items);
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn index_zero_panics() {
        DetRng::new(1).index(0);
    }
}
