//! Offline stand-in for the `rand` crate.
//!
//! Provides the subset of the `rand 0.8` surface the workspace uses —
//! [`StdRng`] (here xoshiro256++ seeded via SplitMix64), the [`RngCore`] /
//! [`SeedableRng`] traits, and the [`Rng`] extension with `gen`, `gen_bool`
//! and `gen_range`. The generator is **not** bit-compatible with upstream
//! `rand`'s `StdRng`; every consumer in this workspace only relies on
//! determinism for a fixed seed, which this crate guarantees (the algorithm
//! is fixed and documented, with golden-value tests below).
//!
//! # Examples
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::{Rng, SeedableRng};
//!
//! let mut a = StdRng::seed_from_u64(42);
//! let mut b = StdRng::seed_from_u64(42);
//! assert_eq!(a.gen::<u64>(), b.gen::<u64>());
//! assert!(a.gen_range(0u64..10) < 10);
//! let p: f64 = a.gen();
//! assert!((0.0..1.0).contains(&p));
//! ```

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::Range;

/// Error type for fallible generator operations (infallible here; present
/// for API compatibility).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("random number generator error")
    }
}

impl std::error::Error for Error {}

/// The core generator interface: raw uniform words and byte fills.
pub trait RngCore {
    /// Returns a uniformly distributed `u32`.
    fn next_u32(&mut self) -> u32;
    /// Returns a uniformly distributed `u64`.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with uniformly distributed bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let word = self.next_u64().to_le_bytes();
            rest.copy_from_slice(&word[..rest.len()]);
        }
    }
    /// Fallible variant of [`RngCore::fill_bytes`] (never fails here).
    ///
    /// # Errors
    ///
    /// Infallible in this implementation; the `Result` mirrors upstream
    /// `rand`'s signature.
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// Generators constructible from seeds.
pub trait SeedableRng: Sized {
    /// The raw seed type.
    type Seed: Default + AsMut<[u8]>;

    /// Constructs the generator from a raw seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Constructs the generator from a `u64`, expanding it with SplitMix64
    /// (so nearby seeds yield unrelated states).
    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_exact_mut(8) {
            chunk.copy_from_slice(&splitmix64(&mut state).to_le_bytes());
        }
        Self::from_seed(seed)
    }
}

/// SplitMix64: the standard seed expander.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Types samplable uniformly from a generator.
pub trait Standard: Sized {
    /// Draws one uniformly distributed value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for u16 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32() as u16
    }
}

impl Standard for u8 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32() as u8
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32() & 1 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges samplable uniformly (exclusive upper bound).
pub trait SampleRange {
    /// The element type produced.
    type Output;
    /// Draws one value uniformly from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> Self::Output;
}

/// Uniform `u64` in `[0, bound)` via Lemire's widening-multiply method with
/// rejection, so the distribution is exactly uniform.
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    assert!(bound > 0, "cannot sample from an empty range");
    let threshold = bound.wrapping_neg() % bound;
    loop {
        let x = rng.next_u64();
        let m = (x as u128).wrapping_mul(bound as u128);
        if (m as u64) >= threshold {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(
                    self.start < self.end,
                    "cannot sample from empty range {}..{}",
                    self.start,
                    self.end
                );
                let span = (self.end - self.start) as u64;
                self.start + uniform_below(rng, span) as $t
            }
        }
    )*};
}

impl_sample_range!(u16, u32, u64, usize);

/// Convenience sampling methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a uniformly distributed value of type `T`.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability {p} not in [0, 1]"
        );
        // Compare against 53-bit fixed point so p == 1.0 is always true and
        // p == 0.0 always false.
        let threshold = (p * (1u64 << 53) as f64) as u64;
        (self.next_u64() >> 11) < threshold
    }

    /// Draws a value uniformly from `range` (half-open).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<S: SampleRange>(&mut self, range: S) -> S::Output {
        range.sample_from(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Generator implementations.
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256++.
    ///
    /// Small, fast, passes BigCrush, and trivially seedable — everything a
    /// deterministic simulator needs. Not cryptographic, and not
    /// bit-compatible with upstream `rand::rngs::StdRng`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        fn next(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
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

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, chunk) in seed.chunks_exact(8).enumerate() {
                s[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            }
            // An all-zero state is a fixed point of xoshiro; reseed via
            // SplitMix64 in that (astronomically unlikely) case.
            if s == [0; 4] {
                let mut state = 0xDEAD_BEEF_CAFE_F00Du64;
                for word in &mut s {
                    *word = splitmix64(&mut state);
                }
            }
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            self.next()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = StdRng::seed_from_u64(2014);
        let mut b = StdRng::seed_from_u64(2014);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// Golden values: lock the algorithm so a refactor cannot silently
    /// change every workload trace in the workspace.
    #[test]
    fn golden_sequence() {
        let mut rng = StdRng::seed_from_u64(0);
        let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            first,
            vec![
                5987356902031041503,
                7051070477665621255,
                6633766593972829180,
                211316841551650330
            ]
        );
    }

    #[test]
    fn gen_bool_extremes_and_bias() {
        let mut rng = StdRng::seed_from_u64(7);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "{hits}");
    }

    #[test]
    #[should_panic(expected = "not in [0, 1]")]
    fn gen_bool_rejects_out_of_range() {
        StdRng::seed_from_u64(0).gen_bool(1.5);
    }

    #[test]
    fn gen_range_covers_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            seen[rng.gen_range(0usize..10)] = true;
        }
        assert!(seen.iter().all(|&s| s));
        let x = rng.gen_range(5u64..6);
        assert_eq!(x, 5);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        StdRng::seed_from_u64(0).gen_range(5u64..5);
    }

    #[test]
    fn fill_bytes_fills_every_byte() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
        let mut buf2 = [0u8; 13];
        StdRng::seed_from_u64(9).fill_bytes(&mut buf2);
        assert_eq!(buf, buf2);
    }

    #[test]
    fn f64_samples_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..1_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn seed_from_u64_differs_for_nearby_seeds() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
