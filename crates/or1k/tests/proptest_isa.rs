//! Property-based tests of the ISA encoding and the assembler.

use proptest::prelude::*;

use mcml_or1k::asm::assemble;
use mcml_or1k::cpu::{Cpu, ExecutionTrace, Stop};
use mcml_or1k::isa::{AluOp, CmpOp, Instr};

fn reg() -> impl Strategy<Value = u8> {
    0u8..32
}

fn instr_strategy() -> impl Strategy<Value = Instr> {
    let alu = prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::And),
        Just(AluOp::Or),
        Just(AluOp::Xor),
        Just(AluOp::Mul),
        Just(AluOp::Sll),
        Just(AluOp::Srl),
        Just(AluOp::Sra),
    ];
    let shift = prop_oneof![Just(AluOp::Sll), Just(AluOp::Srl), Just(AluOp::Sra)];
    let cmp = prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Gtu),
        Just(CmpOp::Geu),
        Just(CmpOp::Ltu),
        Just(CmpOp::Leu),
    ];
    prop_oneof![
        ((-(1i32 << 25))..((1 << 25) - 1)).prop_map(Instr::J),
        ((-(1i32 << 25))..((1 << 25) - 1)).prop_map(Instr::Jal),
        reg().prop_map(Instr::Jr),
        ((-(1i32 << 25))..((1 << 25) - 1)).prop_map(Instr::Bf),
        ((-(1i32 << 25))..((1 << 25) - 1)).prop_map(Instr::Bnf),
        Just(Instr::Nop),
        (reg(), any::<u16>()).prop_map(|(r, i)| Instr::Movhi(r, i)),
        (reg(), reg(), any::<i16>()).prop_map(|(d, a, o)| Instr::Lwz(d, a, o)),
        (reg(), reg(), any::<i16>()).prop_map(|(d, a, o)| Instr::Lbz(d, a, o)),
        (reg(), reg(), any::<i16>()).prop_map(|(a, b, o)| Instr::Sw(a, b, o)),
        (reg(), reg(), any::<i16>()).prop_map(|(a, b, o)| Instr::Sb(a, b, o)),
        (reg(), reg(), any::<i16>()).prop_map(|(d, a, i)| Instr::Addi(d, a, i)),
        (reg(), reg(), any::<u16>()).prop_map(|(d, a, i)| Instr::Andi(d, a, i)),
        (reg(), reg(), any::<u16>()).prop_map(|(d, a, i)| Instr::Ori(d, a, i)),
        (reg(), reg(), any::<i16>()).prop_map(|(d, a, i)| Instr::Xori(d, a, i)),
        (shift, reg(), reg(), 0u8..32).prop_map(|(op, d, a, s)| Instr::ShiftI(op, d, a, s)),
        (alu, reg(), reg(), reg()).prop_map(|(op, d, a, b)| Instr::Alu(op, d, a, b)),
        (cmp, reg(), reg()).prop_map(|(op, a, b)| Instr::Sf(op, a, b)),
        (reg(), reg()).prop_map(|(d, a)| Instr::Cust1(d, a)),
        Just(Instr::Halt),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every instruction round-trips through its 32-bit encoding.
    #[test]
    fn encode_decode_round_trip(i in instr_strategy()) {
        let w = i.encode();
        prop_assert_eq!(Instr::decode(w), Some(i));
    }

    /// ALU semantics: the CPU computes the expected value for random
    /// register-register operations.
    #[test]
    fn alu_semantics(a in any::<u32>(), b in any::<u32>(), op_pick in 0usize..6) {
        let (mnemonic, expect): (&str, fn(u32, u32) -> u32) = [
            ("add", (|x, y| x.wrapping_add(y)) as fn(u32, u32) -> u32),
            ("sub", |x, y| x.wrapping_sub(y)),
            ("and", |x, y| x & y),
            ("or", |x, y| x | y),
            ("xor", |x, y| x ^ y),
            ("mul", |x, y| x.wrapping_mul(y)),
        ][op_pick];
        let src = format!(
            "l.movhi r3, {ah}\nl.ori r3, r3, {al}\nl.movhi r4, {bh}\nl.ori r4, r4, {bl}\nl.{mnemonic} r5, r3, r4\nl.halt\n",
            ah = a >> 16, al = a & 0xffff, bh = b >> 16, bl = b & 0xffff,
        );
        let p = assemble(&src).unwrap();
        let mut cpu = Cpu::new(&p, 4096);
        let mut t = ExecutionTrace::default();
        prop_assert_eq!(cpu.run(1000, &mut t), Stop::Halted);
        prop_assert_eq!(cpu.regs[5], expect(a, b));
    }

    /// Word stores read back, and bytes follow big-endian layout.
    #[test]
    fn memory_semantics(v in any::<u32>(), off in 0u32..64) {
        let addr = 0x200 + off * 4;
        let src = format!(
            "l.movhi r2, {h}\nl.ori r2, r2, {l}\nl.movhi r3, {vh}\nl.ori r3, r3, {vl}\nl.sw 0(r2), r3\nl.lwz r4, 0(r2)\nl.lbz r5, 0(r2)\nl.halt\n",
            h = addr >> 16, l = addr & 0xffff, vh = v >> 16, vl = v & 0xffff,
        );
        let p = assemble(&src).unwrap();
        let mut cpu = Cpu::new(&p, 8192);
        let mut t = ExecutionTrace::default();
        prop_assert_eq!(cpu.run(1000, &mut t), Stop::Halted);
        prop_assert_eq!(cpu.regs[4], v);
        prop_assert_eq!(cpu.regs[5], v >> 24, "big-endian first byte");
    }

    /// The ISE instruction always records an event whose output matches
    /// the reference model.
    #[test]
    fn cust1_semantics(x in any::<u32>()) {
        let src = format!(
            "l.movhi r3, {h}\nl.ori r3, r3, {l}\nl.cust1 r4, r3\nl.halt\n",
            h = x >> 16, l = x & 0xffff,
        );
        let p = assemble(&src).unwrap();
        let mut cpu = Cpu::new(&p, 4096);
        let mut t = ExecutionTrace::default();
        cpu.run(100, &mut t);
        prop_assert_eq!(t.ise_events.len(), 1);
        prop_assert_eq!(t.ise_events[0].input, x);
        prop_assert_eq!(cpu.regs[4], mcml_aes::sbox_ise::sbox_word(x));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Non-branch instructions survive `Display` → assemble → decode.
    #[test]
    fn disassemble_assemble_round_trip(i in instr_strategy()) {
        // Branch/jump targets format as raw offsets, which the
        // assembler treats as absolute symbols; skip them here (their
        // encode/decode round-trip is covered separately).
        prop_assume!(!matches!(
            i,
            Instr::J(_) | Instr::Jal(_) | Instr::Bf(_) | Instr::Bnf(_)
        ));
        let text = format!("{i}\n");
        let p = assemble(&text).unwrap();
        let w = u32::from_be_bytes(p.image[0..4].try_into().unwrap());
        prop_assert_eq!(Instr::decode(w), Some(i), "text was `{}`", text.trim());
    }
}
