//! The benchmark's only source of randomness: one xorshift64* generator
//! seeded from `--seed`. Grain sizes, Poisson gaps and payload bytes all
//! come from here, so the runtime under test sees nothing but generated
//! inputs and the same seed reproduces the same inputs.

/// xorshift64* (Vigna 2016): 64 bits of state, period 2^64 − 1.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeded generator. The seed goes through one splitmix64 round so that
    /// small seeds (0, 1, 2 …) start from well-mixed, non-zero states.
    pub fn new(seed: u64) -> Rng {
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        Rng(if z == 0 { 0x2545_f491_4f6c_dd1d } else { z })
    }

    /// An independent generator for a named sub-stream, so that adding a
    /// draw to one input (say, payload bytes) does not shift another (the
    /// arrival schedule).
    pub fn stream(seed: u64, stream: u64) -> Rng {
        Rng::new(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93))
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-32 for every
    /// `n` the benchmark uses.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in (0, 1].
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// One exponentially distributed gap with the given mean, in ns — the
    /// inter-arrival time of a Poisson process.
    pub fn exp_ns(&mut self, mean_ns: f64) -> u64 {
        (-self.unit().ln() * mean_ns) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..64).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..64).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut c = Rng::new(8);
        assert_ne!(a[0], c.next_u64());
    }

    #[test]
    fn streams_are_independent_of_each_other() {
        let mut a = Rng::stream(3, 1);
        let mut b = Rng::stream(3, 2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn exp_gaps_have_the_requested_mean() {
        let mut r = Rng::new(42);
        let n = 200_000;
        let sum: u64 = (0..n).map(|_| r.exp_ns(500_000.0)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 500_000.0).abs() < 5_000.0, "mean {mean}");
    }

    #[test]
    fn below_stays_in_range_and_unit_is_never_zero() {
        let mut r = Rng::new(0);
        for _ in 0..10_000 {
            assert!(r.below(9) < 9);
            let u = r.unit();
            assert!(u > 0.0 && u <= 1.0);
        }
    }
}
