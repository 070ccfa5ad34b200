//! AES-128 (FIPS-197) — the software workload the augmented `OpenRISC`
//! core executes in the paper's Table 3 experiment.

use crate::sbox::SBOX;

/// Number of rounds for a 128-bit key.
pub const ROUNDS: usize = 10;

/// An expanded AES-128 key ready for encryption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Aes128 {
    round_keys: [[u8; 16]; ROUNDS + 1],
}

fn xtime(x: u8) -> u8 {
    (x << 1) ^ (if x & 0x80 != 0 { 0x1b } else { 0 })
}

/// GF(2⁸) multiplication.
fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    p
}

impl Aes128 {
    /// Expand a 128-bit key.
    #[must_use]
    pub fn new(key: &[u8; 16]) -> Self {
        let mut w = [[0u8; 4]; 4 * (ROUNDS + 1)];
        for (i, chunk) in key.chunks(4).enumerate() {
            w[i].copy_from_slice(chunk);
        }
        let mut rcon = 1u8;
        for i in 4..4 * (ROUNDS + 1) {
            let mut t = w[i - 1];
            if i % 4 == 0 {
                t.rotate_left(1);
                for b in &mut t {
                    *b = SBOX[*b as usize];
                }
                t[0] ^= rcon;
                rcon = xtime(rcon);
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ t[j];
            }
        }
        let mut round_keys = [[0u8; 16]; ROUNDS + 1];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
            }
        }
        Self { round_keys }
    }

    /// Round keys (for the instruction-level model in `mcml-or1k`).
    #[must_use]
    pub fn round_keys(&self) -> &[[u8; 16]; ROUNDS + 1] {
        &self.round_keys
    }

    /// Encrypt one 16-byte block.
    #[must_use]
    pub fn encrypt_block(&self, plain: &[u8; 16]) -> [u8; 16] {
        let mut s = *plain;
        add_round_key(&mut s, &self.round_keys[0]);
        for r in 1..ROUNDS {
            sub_bytes(&mut s);
            shift_rows(&mut s);
            mix_columns(&mut s);
            add_round_key(&mut s, &self.round_keys[r]);
        }
        sub_bytes(&mut s);
        shift_rows(&mut s);
        add_round_key(&mut s, &self.round_keys[ROUNDS]);
        s
    }
}

// State layout: byte `s[r + 4c]` is row r, column c (FIPS-197 §3.4).

fn add_round_key(s: &mut [u8; 16], rk: &[u8; 16]) {
    for (a, b) in s.iter_mut().zip(rk) {
        *a ^= b;
    }
}

fn sub_bytes(s: &mut [u8; 16]) {
    for b in s.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

fn shift_rows(s: &mut [u8; 16]) {
    for r in 1..4 {
        let row: [u8; 4] = [s[r], s[r + 4], s[r + 8], s[r + 12]];
        for c in 0..4 {
            s[r + 4 * c] = row[(c + r) % 4];
        }
    }
}

fn mix_columns(s: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [s[4 * c], s[4 * c + 1], s[4 * c + 2], s[4 * c + 3]];
        s[4 * c] = gmul(col[0], 2) ^ gmul(col[1], 3) ^ col[2] ^ col[3];
        s[4 * c + 1] = col[0] ^ gmul(col[1], 2) ^ gmul(col[2], 3) ^ col[3];
        s[4 * c + 2] = col[0] ^ col[1] ^ gmul(col[2], 2) ^ gmul(col[3], 3);
        s[4 * c + 3] = gmul(col[0], 3) ^ col[1] ^ col[2] ^ gmul(col[3], 2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fips197_appendix_c_vector() {
        let key: [u8; 16] = (0..16u8).collect::<Vec<_>>().try_into().unwrap();
        let plain: [u8; 16] = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        let expect: [u8; 16] = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        let aes = Aes128::new(&key);
        assert_eq!(aes.encrypt_block(&plain), expect);
    }

    #[test]
    fn fips197_appendix_b_vector() {
        let key: [u8; 16] = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let plain: [u8; 16] = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let expect: [u8; 16] = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        assert_eq!(Aes128::new(&key).encrypt_block(&plain), expect);
    }

    #[test]
    fn key_expansion_first_round_key_is_key() {
        let key = [7u8; 16];
        let aes = Aes128::new(&key);
        assert_eq!(aes.round_keys()[0], key);
    }

    #[test]
    fn gmul_basics() {
        assert_eq!(gmul(0x57, 0x13), 0xfe, "FIPS-197 §4.2 example");
        assert_eq!(gmul(1, 0xab), 0xab);
        assert_eq!(gmul(0, 0xff), 0);
    }

    #[test]
    fn avalanche_on_key_bit() {
        let plain = [0x42u8; 16];
        let c1 = Aes128::new(&[0u8; 16]).encrypt_block(&plain);
        let mut key2 = [0u8; 16];
        key2[0] = 1;
        let c2 = Aes128::new(&key2).encrypt_block(&plain);
        let differing: u32 = c1
            .iter()
            .zip(c2.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert!(differing > 30, "avalanche: {differing} bits differ");
    }
}
