//! std-only stand-in for the `rand` 0.8 subset the SyD workspace uses:
//! `StdRng::seed_from_u64`, `Rng::gen::<f64>()`, `Rng::gen_range` over
//! `u64` ranges, `RngCore::{next_u64, fill_bytes}` and `thread_rng()`.
//!
//! [`rngs::StdRng`] is xoshiro256++ seeded through SplitMix64: the same
//! seed gives the same stream on every run, but not the stream the real
//! crate's ChaCha12 gives. Not for cryptographic use.

use std::ops::{Range, RangeInclusive};

/// A source of random bits.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes()[..chunk.len()]);
        }
    }
}

/// A generator that can be built from a seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types `Rng::gen` can produce.
pub trait Standard: Sized {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges `Rng::gen_range` can sample from.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    ///
    /// # Panics
    /// Panics on an empty range, as the real crate does.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform in `[0, span)` by widening multiply; the bias is at most
/// `span / 2^64`.
fn below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    ((u128::from(rng.next_u64()) * u128::from(span)) >> 64) as u64
}

impl SampleRange<u64> for Range<u64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> u64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + below(rng, self.end - self.start)
    }
}

impl SampleRange<u64> for RangeInclusive<u64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> u64 {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "cannot sample empty range");
        match (hi - lo).checked_add(1) {
            Some(span) => lo + below(rng, span),
            None => rng.next_u64(),
        }
    }
}

/// Convenience methods on every [`RngCore`].
pub trait Rng: RngCore {
    /// A value of `T` from its standard distribution.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// A value uniform in `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The deterministic seeded generator (xoshiro256++).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 spreads the seed over the state and cannot yield
            // the all-zero state xoshiro must avoid.
            let mut z = seed;
            let mut next = || {
                z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                x ^ (x >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            out
        }
    }

    /// The generator [`thread_rng`](super::thread_rng) returns.
    #[derive(Clone, Debug)]
    pub struct ThreadRng(pub(super) StdRng);

    impl RngCore for ThreadRng {
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
    }
}

/// A generator seeded differently on every call, from the per-process
/// random keys of std's `RandomState` and a call counter.
pub fn thread_rng() -> rngs::ThreadRng {
    use std::hash::{BuildHasher, Hasher};
    use std::sync::atomic::{AtomicU64, Ordering};
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let mut hasher = std::collections::hash_map::RandomState::new().build_hasher();
    hasher.write_u64(CALLS.fetch_add(1, Ordering::Relaxed));
    rngs::ThreadRng(SeedableRng::seed_from_u64(hasher.finish()))
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let mut c = StdRng::seed_from_u64(43);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn unit_floats_stay_in_range_and_spread() {
        let mut rng = StdRng::seed_from_u64(7);
        let xs: Vec<f64> = (0..10_000).map(|_| rng.gen::<f64>()).collect();
        assert!(xs.iter().all(|x| (0.0..1.0).contains(x)));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn gen_range_covers_both_kinds_of_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 4];
        for _ in 0..200 {
            let v: u64 = rng.gen_range(0..=3);
            seen[v as usize] = true;
            assert!((10..13u64).contains(&rng.gen_range(10..13u64)));
        }
        assert_eq!(seen, [true; 4]);
        assert_eq!(rng.gen_range(5..=5u64), 5);
        let _: u64 = rng.gen_range(0..=u64::MAX);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn an_empty_range_panics() {
        let _: u64 = StdRng::seed_from_u64(1).gen_range(3..3);
    }

    #[test]
    fn fill_bytes_fills_ragged_lengths_and_thread_rngs_differ() {
        let mut a = [0u8; 13];
        let mut b = [0u8; 13];
        thread_rng().fill_bytes(&mut a);
        thread_rng().fill_bytes(&mut b);
        assert_ne!(a, b);
        assert!(a.iter().any(|&x| x != 0));
    }
}
