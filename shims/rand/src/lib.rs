//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no registry access, so this workspace-local crate
//! provides the exact API surface the codebase uses: `rngs::StdRng` (a
//! deterministic xoshiro256++), the `Rng` and `SeedableRng` traits with
//! `gen`/`gen_range`/`gen_bool`, and `seq::index::sample`.
//!
//! Streams differ numerically from upstream `rand` (which uses ChaCha12 for
//! `StdRng`), but every consumer in this workspace only relies on seeded
//! determinism and uniformity, not on a specific stream.

use std::ops::{Range, RangeInclusive};

/// Seeded construction, mirroring `rand::SeedableRng`'s `seed_from_u64`.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Uniform sampling over a range type; the `gen_range` argument. Generic over
/// the element type `T` (mirroring `rand`'s `SampleRange<T>`) so the expected
/// output type flows backward into untyped range literals.
pub trait SampleRange<T> {
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

/// Types producible by `Rng::gen` (the `Standard` distribution).
pub trait Standard: Sized {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        // 53 random mantissa bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u64 {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for bool {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// The user-facing random-value interface.
pub trait Rng {
    fn next_u64(&mut self) -> u64;

    #[inline]
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Uniform in `[0, 1) < p`; matches `rand`'s `gen_bool` contract for
    /// `p` in `[0, 1]`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p), "gen_bool probability {p} out of range");
        f64::sample(self) < p
    }

    #[inline]
    fn gen_range<T, R2: SampleRange<T>>(&mut self, range: R2) -> T {
        range.sample_from(self)
    }
}

/// Element types `gen_range` can sample. The single blanket impl of
/// [`SampleRange`] over this trait (rather than per-type range impls) is what
/// lets the compiler unify a range literal's integer type with the surrounding
/// expression, exactly as upstream `rand` does.
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform draw from `[lo, hi)`, or `[lo, hi]` when `inclusive`.
    fn sample_in<R: Rng + ?Sized>(lo: Self, hi: Self, inclusive: bool, rng: &mut R) -> Self;
}

macro_rules! int_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_in<R: Rng + ?Sized>(lo: $t, hi: $t, inclusive: bool, rng: &mut R) -> $t {
                let span = (hi as i128 - lo as i128 + inclusive as i128) as u128;
                assert!(span > 0, "empty gen_range");
                // Modulo bias is < span / 2^64 — irrelevant for test workloads.
                let off = (rng.next_u64() as u128) % span;
                (lo as i128 + off as i128) as $t
            }
        }
    )*};
}

int_sample_uniform!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl SampleUniform for f64 {
    #[inline]
    fn sample_in<R: Rng + ?Sized>(lo: f64, hi: f64, _inclusive: bool, rng: &mut R) -> f64 {
        assert!(lo < hi, "empty gen_range");
        lo + f64::sample(rng) * (hi - lo)
    }
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    #[inline]
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T {
        T::sample_in(self.start, self.end, false, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    #[inline]
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T {
        T::sample_in(*self.start(), *self.end(), true, rng)
    }
}

pub mod rngs {
    use super::SeedableRng;

    /// Deterministic xoshiro256++ generator (Blackman & Vigna), seeded through
    /// SplitMix64 exactly like upstream `rand`'s `seed_from_u64` bootstrap.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    #[inline]
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let s = [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ];
            StdRng { s }
        }
    }

    impl super::Rng for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let out = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            out
        }
    }
}

pub mod seq {
    pub mod index {
        use crate::Rng;

        /// Result of [`sample`]; mirrors `rand::seq::index::IndexVec`.
        pub struct IndexVec(Vec<usize>);

        impl IndexVec {
            pub fn into_vec(self) -> Vec<usize> {
                self.0
            }
        }

        impl IntoIterator for IndexVec {
            type Item = usize;
            type IntoIter = std::vec::IntoIter<usize>;
            fn into_iter(self) -> Self::IntoIter {
                self.0.into_iter()
            }
        }

        /// Samples `amount` distinct indices from `0..length`, uniformly.
        ///
        /// Dense draws use a partial Fisher–Yates shuffle; sparse draws use
        /// rejection sampling. Order is unspecified (callers sort when needed).
        pub fn sample<R: Rng + ?Sized>(rng: &mut R, length: usize, amount: usize) -> IndexVec {
            assert!(amount <= length, "cannot sample {amount} indices from {length}");
            if amount * 3 >= length {
                let mut pool: Vec<usize> = (0..length).collect();
                for i in 0..amount {
                    let j = i + rng.gen_range(0..length - i);
                    pool.swap(i, j);
                }
                pool.truncate(amount);
                IndexVec(pool)
            } else {
                let mut seen = std::collections::HashSet::with_capacity(amount);
                let mut out = Vec::with_capacity(amount);
                while out.len() < amount {
                    let v = rng.gen_range(0..length);
                    if seen.insert(v) {
                        out.push(v);
                    }
                }
                IndexVec(out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn f64_in_unit_interval_and_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn gen_range_bounds_respected() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = rng.gen_range(-5i64..7);
            assert!((-5..7).contains(&v));
            let w = rng.gen_range(3u64..=9);
            assert!((3..=9).contains(&w));
            let f = rng.gen_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn index_sample_distinct_and_in_range() {
        let mut rng = StdRng::seed_from_u64(3);
        for (len, amt) in [(100, 100), (1000, 10), (50, 30)] {
            let v = super::seq::index::sample(&mut rng, len, amt).into_vec();
            assert_eq!(v.len(), amt);
            let set: std::collections::HashSet<_> = v.iter().collect();
            assert_eq!(set.len(), amt, "indices must be distinct");
            assert!(v.iter().all(|&i| i < len));
        }
    }
}
