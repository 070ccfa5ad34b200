//! Property-based tests of the AES workload crate.

use std::collections::HashMap;

use proptest::prelude::*;

use mcml_aes::{aes::Aes128, sbox_ise, ReducedAes, SBOX};
use mcml_cells::LogicStyle;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Two different plaintexts never collide (permutation property).
    #[test]
    fn encryption_is_injective(key in any::<[u8; 16]>(), a in any::<[u8; 16]>(), b in any::<[u8; 16]>()) {
        prop_assume!(a != b);
        let aes = Aes128::new(&key);
        prop_assert_ne!(aes.encrypt_block(&a), aes.encrypt_block(&b));
    }

    /// The word-level ISE reference equals per-byte S-box application.
    #[test]
    fn sbox_word_matches_bytes(x in any::<u32>()) {
        let y = sbox_ise::sbox_word(x);
        for i in 0..4 {
            let xb = x.to_le_bytes()[i];
            prop_assert_eq!(y.to_le_bytes()[i], SBOX[xb as usize]);
        }
    }

    /// Reduced-AES netlists compute S(p ⊕ k) for random pairs (8-bit,
    /// differential style).
    #[test]
    fn reduced_netlist_matches_model(p in any::<u8>(), k in any::<u8>()) {
        let r = ReducedAes::new(8);
        let nl = r.build_netlist(LogicStyle::PgMcml);
        let mut asg = HashMap::new();
        for b in 0..8 {
            asg.insert(format!("p{b}"), (p >> b) & 1 == 1);
            asg.insert(format!("k{b}"), (k >> b) & 1 == 1);
        }
        let values = nl.evaluate(&asg, &HashMap::new());
        let mut y = 0u8;
        for b in 0..8 {
            if nl.output_value(&format!("y{b}"), &values) {
                y |= 1 << b;
            }
        }
        prop_assert_eq!(y, r.output(p, k));
    }

    /// The registered netlist captures the same value after one clock
    /// edge (cycle-level semantics).
    #[test]
    fn registered_netlist_captures_model(p in any::<u8>(), k in any::<u8>()) {
        let r = ReducedAes::new(8);
        let nl = r.build_registered_netlist(LogicStyle::Cmos);
        let mut asg = HashMap::new();
        asg.insert("clk".to_owned(), false);
        for b in 0..8 {
            asg.insert(format!("p{b}"), (p >> b) & 1 == 1);
            asg.insert(format!("k{b}"), (k >> b) & 1 == 1);
        }
        let values = nl.evaluate(&asg, &HashMap::new());
        let state = nl.next_state(&values, &HashMap::new());
        let values2 = nl.evaluate(&asg, &state);
        let mut y = 0u8;
        for b in 0..8 {
            if nl.output_value(&format!("y{b}"), &values2) {
                y |= 1 << b;
            }
        }
        prop_assert_eq!(y, r.output(p, k));
    }
}

#[test]
fn ise_netlist_equivalent_for_sampled_words() {
    let opts = sbox_ise::SboxIseOptions {
        n_sboxes: 4,
        output_regs: false,
    };
    let nl = sbox_ise::build_sbox_ise(LogicStyle::PgMcml, &opts);
    let mut x = 0x0bad_f00du32;
    for _ in 0..32 {
        x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        let mut asg = HashMap::new();
        for b in 0..32 {
            asg.insert(format!("x{b}"), (x >> b) & 1 == 1);
        }
        let values = nl.evaluate(&asg, &HashMap::new());
        let mut y = 0u32;
        for b in 0..32 {
            if nl.output_value(&format!("y{b}"), &values) {
                y |= 1 << b;
            }
        }
        assert_eq!(y, sbox_ise::sbox_word(x), "word {x:#010x}");
    }
}
