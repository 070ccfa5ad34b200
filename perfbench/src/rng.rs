//! The benchmark's own seeded generator (`SplitMix64`).
//!
//! Inputs are drawn here rather than through the workspace's `rand`
//! stand-in, so the seed → input mapping is fixed by this file alone and
//! a change to the program under test cannot move it.

/// `SplitMix64`: 64-bit state, one multiply-xorshift finalizer per draw.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for one stream: `seed` from the command line, `stream`
    /// naming what the stream draws (workload, noise block, …), so two
    /// streams of one seed are unrelated.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = Self(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        g.next_u64();
        g
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n` (`n > 0`); the modulo bias is below
    /// 2⁻⁵⁰ for the small `n` drawn here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform float in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Standard normal deviate (Box–Muller, cosine branch).
    pub fn gauss(&mut self) -> f64 {
        let u1 = self.unit().max(1e-300);
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }

    /// A shuffled `0..16` — every 4-bit value exactly once.
    pub fn nibble_permutation(&mut self) -> [u8; 16] {
        let mut p: [u8; 16] = std::array::from_fn(|i| i as u8);
        self.shuffle(&mut p);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| SplitMix64::new(1, 2).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            SplitMix64::new(1, 2).next_u64(),
            SplitMix64::new(2, 2).next_u64()
        );
        assert_ne!(
            SplitMix64::new(1, 2).next_u64(),
            SplitMix64::new(1, 3).next_u64()
        );
    }

    #[test]
    fn permutation_covers_every_nibble() {
        let mut p = SplitMix64::new(7, 0).nibble_permutation().to_vec();
        p.sort_unstable();
        assert_eq!(p, (0..16).collect::<Vec<u8>>());
    }

    #[test]
    fn gauss_has_unit_moments() {
        let mut g = SplitMix64::new(3, 0);
        let xs: Vec<f64> = (0..20_000).map(|_| g.gauss()).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }
}
