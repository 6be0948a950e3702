//! In-tree seeded PRNG: splitmix64 seeding + xoshiro256\*\*.
//!
//! Replaces the external `rand` crate so the default workspace builds
//! with **zero** crates.io dependencies (the build environment has no
//! registry access). The API deliberately mirrors the small slice of
//! `rand` the workspace used — `StdRng::seed_from_u64`, `gen_range`,
//! `gen::<f64>()`, `shuffle`, `choose` — so call sites port mechanically.
//!
//! Streams differ from `rand`'s ChaCha-based `StdRng`, so any golden
//! numbers derived from generated data were re-pinned when this landed.
//!
//! xoshiro256\*\* is Blackman & Vigna's general-purpose generator
//! (public domain reference implementation); splitmix64 expands a 64-bit
//! seed into the 256-bit state, guaranteeing a non-zero state for every
//! seed. Not cryptographically secure — this is simulation RNG only.

/// splitmix64 step: advances `state` and returns the next output.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent 64-bit stream seed from `(seed, index)`.
///
/// Used wherever work fans out (Algorithm 1's partition repetitions)
/// so each unit of work owns a private generator — the
/// cornerstone of thread-count-independent determinism.
#[inline]
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut s = seed ^ index.wrapping_mul(0xA076_1D64_78BD_642F);
    // Two rounds decorrelate (seed, 0) from plain `seed`.
    let a = splitmix64(&mut s);
    splitmix64(&mut s) ^ a.rotate_left(32)
}

/// xoshiro256\*\* — the workspace's standard simulation RNG.
#[derive(Clone, Debug)]
pub struct StdRng {
    s: [u64; 4],
}

impl StdRng {
    /// Builds a generator from a 64-bit seed via splitmix64 expansion.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        // splitmix64 never yields four zeros for any seed, but keep the
        // invariant explicit: the all-zero state is xoshiro's fixed point.
        debug_assert!(s.iter().any(|&w| w != 0));
        StdRng { s }
    }

    #[inline]
    fn step(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

impl Rng for StdRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.step()
    }
}

/// The generator interface all sampling helpers build on. Generic call
/// sites take `&mut impl Rng`, exactly as they did with the external
/// crate.
pub trait Rng {
    fn next_u64(&mut self) -> u64;

    /// Uniform sample from a half-open or inclusive range
    /// (`gen_range(0..n)`, `gen_range(1..=6)`, `gen_range(0.0..1.0)`).
    #[inline]
    fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// Uniform sample of a whole type's "standard" distribution:
    /// floats in `[0, 1)`, integers over their full range, fair bools.
    #[inline]
    fn gen<T: Random>(&mut self) -> T
    where
        Self: Sized,
    {
        T::random(self)
    }
}

/// Types with a standard uniform distribution (the `rand::Standard`
/// analogue).
pub trait Random {
    fn random<G: Rng>(rng: &mut G) -> Self;
}

impl Random for f64 {
    #[inline]
    fn random<G: Rng>(rng: &mut G) -> f64 {
        // 53 high bits -> [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Random for f32 {
    #[inline]
    fn random<G: Rng>(rng: &mut G) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Random for bool {
    #[inline]
    fn random<G: Rng>(rng: &mut G) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

macro_rules! impl_random_int {
    ($($t:ty),*) => {$(
        impl Random for $t {
            #[inline]
            fn random<G: Rng>(rng: &mut G) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_random_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Ranges that can be sampled uniformly (the `rand` `gen_range`
/// argument bound).
pub trait SampleRange {
    type Output;
    fn sample<G: Rng>(self, rng: &mut G) -> Self::Output;
}

/// Maps a raw u64 onto `0..span` via 128-bit widening multiply
/// (Lemire's multiply-shift; bias < 2^-64 is irrelevant for simulation).
#[inline]
fn bounded(raw: u64, span: u64) -> u64 {
    ((raw as u128 * span as u128) >> 64) as u64
}

macro_rules! impl_sample_int {
    ($($t:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            #[inline]
            fn sample<G: Rng>(self, rng: &mut G) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end - self.start) as u64;
                self.start + bounded(rng.next_u64(), span) as $t
            }
        }
        impl SampleRange for core::ops::RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample<G: Rng>(self, rng: &mut G) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + bounded(rng.next_u64(), span + 1) as $t
            }
        }
    )*};
}
impl_sample_int!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_signed {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            #[inline]
            fn sample<G: Rng>(self, rng: &mut G) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as $u).wrapping_sub(self.start as $u) as u64;
                self.start.wrapping_add(bounded(rng.next_u64(), span) as $t)
            }
        }
        impl SampleRange for core::ops::RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample<G: Rng>(self, rng: &mut G) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as $u).wrapping_sub(lo as $u) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(bounded(rng.next_u64(), span + 1) as $t)
            }
        }
    )*};
}
impl_sample_signed!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

impl SampleRange for core::ops::Range<f64> {
    type Output = f64;
    #[inline]
    fn sample<G: Rng>(self, rng: &mut G) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range");
        self.start + f64::random(rng) * (self.end - self.start)
    }
}

// No `Range<f32>` impl on purpose: a second float impl would make
// unsuffixed literals (`gen_range(0.96..1.04)`) ambiguous at every call
// site. Sample f64 and narrow if f32 is ever needed.

/// Slice helpers (`rand::seq::SliceRandom` analogue).
pub trait SliceRandom {
    type Item;
    /// Fisher–Yates shuffle, in place.
    fn shuffle<G: Rng>(&mut self, rng: &mut G);
    /// Uniformly random element, `None` on an empty slice.
    fn choose<G: Rng>(&self, rng: &mut G) -> Option<&Self::Item>;
}

impl<T> SliceRandom for [T] {
    type Item = T;

    fn shuffle<G: Rng>(&mut self, rng: &mut G) {
        for i in (1..self.len()).rev() {
            let j = bounded(rng.next_u64(), i as u64 + 1) as usize;
            self.swap(i, j);
        }
    }

    fn choose<G: Rng>(&self, rng: &mut G) -> Option<&T> {
        if self.is_empty() {
            None
        } else {
            Some(&self[bounded(rng.next_u64(), self.len() as u64) as usize])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_xoshiro_reference_vector() {
        // xoshiro256** from state {1, 2, 3, 4}, outputs derived by hand
        // from the reference recurrence (result = rotl(s1*5, 7)*9).
        let mut rng = StdRng { s: [1, 2, 3, 4] };
        assert_eq!(rng.next_u64(), 11520);
        assert_eq!(rng.next_u64(), 0);
        assert_eq!(rng.next_u64(), 1509978240);
        assert_eq!(rng.next_u64(), 1215971899390074240);
    }

    #[test]
    fn splitmix_reference_vector() {
        // Reference vector for splitmix64 with seed 0.
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut s), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn deterministic_per_seed_and_distinct_across_seeds() {
        let a: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(43);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..2000 {
            let x = rng.gen_range(3..17usize);
            assert!((3..17).contains(&x));
            let y = rng.gen_range(5..=9u32);
            assert!((5..=9).contains(&y));
            let f = rng.gen_range(-2.5..4.0f64);
            assert!((-2.5..4.0).contains(&f));
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
            let s = rng.gen_range(-10..=10i64);
            assert!((-10..=10).contains(&s));
        }
    }

    #[test]
    fn range_endpoints_reachable() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut seen = [false; 4];
        for _ in 0..500 {
            seen[rng.gen_range(0..4usize)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all of 0..4 should appear");
    }

    #[test]
    fn shuffle_is_permutation_and_choose_uniformish() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements virtually never shuffle to identity");

        let empty: [u8; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
        let mut counts = [0usize; 3];
        let items = [0usize, 1, 2];
        for _ in 0..3000 {
            counts[*items.choose(&mut rng).unwrap()] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "roughly uniform, got {counts:?}");
        }
    }

    #[test]
    fn derived_seeds_are_decorrelated() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..50u64 {
            for idx in 0..50u64 {
                assert!(seen.insert(derive_seed(seed, idx)), "collision");
            }
        }
        // Stream (seed, 0) must differ from the plain seed's stream.
        let mut direct = StdRng::seed_from_u64(9);
        let mut derived = StdRng::seed_from_u64(derive_seed(9, 0));
        assert_ne!(direct.next_u64(), derived.next_u64());
    }

    #[test]
    fn mean_of_uniform_near_half() {
        let mut rng = StdRng::seed_from_u64(123);
        let n = 10_000;
        let sum: f64 = (0..n).map(|_| rng.gen::<f64>()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
