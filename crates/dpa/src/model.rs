//! Leakage models: the attacker's hypothesis of how power depends on the
//! processed data.

/// A leakage model over an intermediate value predicted from the known
/// input and a key guess.
pub trait LeakageModel {
    /// Predicted relative power for `(input, key_guess)`.
    fn hypothesis(&self, input: u8, key_guess: u8) -> f64;

    /// Number of key guesses to enumerate (the key space).
    fn key_space(&self) -> usize;
}

/// Hamming weight of `target(input ⊕ key)` — the paper's model with
/// `target` = the S-box.
pub struct HammingWeight<F: Fn(u8) -> u8> {
    target: F,
    key_bits: u32,
}

impl<F: Fn(u8) -> u8> HammingWeight<F> {
    /// Hamming-weight model of `target(input ⊕ key)` over a
    /// `key_bits`-bit key space.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ key_bits ≤ 8`.
    #[must_use]
    pub fn new(target: F, key_bits: u32) -> Self {
        assert!((1..=8).contains(&key_bits), "key_bits in 1..=8");
        Self { target, key_bits }
    }
}

impl<F: Fn(u8) -> u8> LeakageModel for HammingWeight<F> {
    fn hypothesis(&self, input: u8, key_guess: u8) -> f64 {
        let mask = ((1u16 << self.key_bits) - 1) as u8;
        f64::from(((self.target)((input ^ key_guess) & mask)).count_ones())
    }

    fn key_space(&self) -> usize {
        1 << self.key_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ident(x: u8) -> u8 {
        x
    }

    #[test]
    fn hw_counts_bits() {
        let m = HammingWeight::new(ident, 8);
        assert_eq!(m.hypothesis(0xff, 0x00), 8.0);
        assert_eq!(m.hypothesis(0xff, 0xff), 0.0);
        assert_eq!(m.hypothesis(0b1010, 0), 2.0);
        assert_eq!(m.key_space(), 256);
    }

    #[test]
    fn hw_masks_to_key_bits() {
        let m = HammingWeight::new(ident, 4);
        assert_eq!(m.key_space(), 16);
        assert_eq!(m.hypothesis(0xff, 0x0), 4.0, "upper nibble masked");
    }

    #[test]
    #[should_panic(expected = "key_bits")]
    fn zero_key_bits_rejected() {
        let _ = HammingWeight::new(ident, 0);
    }
}
