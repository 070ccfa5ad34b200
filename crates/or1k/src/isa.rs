//! Instruction set and binary encoding.
//!
//! Encodings follow the OR1K style (6-bit major opcode in bits 31..26,
//! register fields rD = 25..21, rA = 20..16, rB = 15..11) with a reduced
//! instruction inventory. `l.cust1` is the paper's S-box ISE; `l.halt`
//! is a simulator-only stop instruction.

use serde::{Deserialize, Serialize};

/// Register index 0–31 (r0 reads as zero and ignores writes, by
/// convention enforced in the CPU).
pub type Reg = u8;

/// ALU register-register operations (major opcode 0x38).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AluOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Multiplication (low 32 bits).
    Mul,
    /// Logical shift left by rB & 31.
    Sll,
    /// Logical shift right.
    Srl,
    /// Arithmetic shift right.
    Sra,
}

impl AluOp {
    fn code(self) -> u32 {
        match self {
            AluOp::Add => 0x0,
            AluOp::Sub => 0x2,
            AluOp::And => 0x3,
            AluOp::Or => 0x4,
            AluOp::Xor => 0x5,
            AluOp::Mul => 0x6,
            AluOp::Sll => 0x8,
            AluOp::Srl => 0x9,
            AluOp::Sra => 0xa,
        }
    }

    fn from_code(c: u32) -> Option<Self> {
        Some(match c {
            0x0 => AluOp::Add,
            0x2 => AluOp::Sub,
            0x3 => AluOp::And,
            0x4 => AluOp::Or,
            0x5 => AluOp::Xor,
            0x6 => AluOp::Mul,
            0x8 => AluOp::Sll,
            0x9 => AluOp::Srl,
            0xa => AluOp::Sra,
            _ => return None,
        })
    }

    /// Assembler mnemonic suffix (`l.add`, …).
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Mul => "mul",
            AluOp::Sll => "sll",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
        }
    }
}

/// Set-flag comparison operations (major opcode 0x39, subcode in rD).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Unsigned greater-than.
    Gtu,
    /// Unsigned greater-or-equal.
    Geu,
    /// Unsigned less-than.
    Ltu,
    /// Unsigned less-or-equal.
    Leu,
}

impl CmpOp {
    fn code(self) -> u32 {
        match self {
            CmpOp::Eq => 0,
            CmpOp::Ne => 1,
            CmpOp::Gtu => 2,
            CmpOp::Geu => 3,
            CmpOp::Ltu => 4,
            CmpOp::Leu => 5,
        }
    }

    fn from_code(c: u32) -> Option<Self> {
        Some(match c {
            0 => CmpOp::Eq,
            1 => CmpOp::Ne,
            2 => CmpOp::Gtu,
            3 => CmpOp::Geu,
            4 => CmpOp::Ltu,
            5 => CmpOp::Leu,
            _ => return None,
        })
    }

    /// Assembler mnemonic suffix (`l.sfeq`, …).
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpOp::Eq => "sfeq",
            CmpOp::Ne => "sfne",
            CmpOp::Gtu => "sfgtu",
            CmpOp::Geu => "sfgeu",
            CmpOp::Ltu => "sfltu",
            CmpOp::Leu => "sfleu",
        }
    }
}

/// A decoded instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Instr {
    /// `l.j off` — jump, PC-relative in instruction words (signed 26-bit).
    J(i32),
    /// `l.jal off` — jump and link (r9 = return address).
    Jal(i32),
    /// `l.jr rB` — jump to register.
    Jr(Reg),
    /// `l.bf off` — branch if flag set.
    Bf(i32),
    /// `l.bnf off` — branch if flag clear.
    Bnf(i32),
    /// `l.nop`.
    Nop,
    /// `l.movhi rD, imm` — rD = imm << 16.
    Movhi(Reg, u16),
    /// `l.lwz rD, off(rA)` — load word (big-endian).
    Lwz(Reg, Reg, i16),
    /// `l.lbz rD, off(rA)` — load byte, zero-extended.
    Lbz(Reg, Reg, i16),
    /// `l.sw off(rA), rB` — store word.
    Sw(Reg, Reg, i16),
    /// `l.sb off(rA), rB` — store byte.
    Sb(Reg, Reg, i16),
    /// `l.addi rD, rA, simm`.
    Addi(Reg, Reg, i16),
    /// `l.andi rD, rA, uimm`.
    Andi(Reg, Reg, u16),
    /// `l.ori rD, rA, uimm`.
    Ori(Reg, Reg, u16),
    /// `l.xori rD, rA, simm` (sign-extended per OR1K).
    Xori(Reg, Reg, i16),
    /// `l.slli/srli/srai rD, rA, shamt`.
    ShiftI(AluOp, Reg, Reg, u8),
    /// Register-register ALU op: `l.<op> rD, rA, rB`.
    Alu(AluOp, Reg, Reg, Reg),
    /// Set-flag compare: `l.sf<op> rA, rB`.
    Sf(CmpOp, Reg, Reg),
    /// `l.cust1 rD, rA` — the S-box ISE: rD = SBOX applied bytewise to
    /// rA.
    Cust1(Reg, Reg),
    /// `l.halt` — stop simulation (simulator extension).
    Halt,
}

const fn f_rd(w: u32) -> u8 {
    ((w >> 21) & 0x1f) as u8
}
const fn f_ra(w: u32) -> u8 {
    ((w >> 16) & 0x1f) as u8
}
const fn f_rb(w: u32) -> u8 {
    ((w >> 11) & 0x1f) as u8
}
const fn f_imm16(w: u32) -> u16 {
    (w & 0xffff) as u16
}

fn sext26(w: u32) -> i32 {
    ((w << 6) as i32) >> 6
}

impl Instr {
    /// Encode to a 32-bit word.
    #[must_use]
    pub fn encode(self) -> u32 {
        let r = |x: Reg| u32::from(x & 0x1f);
        match self {
            #[allow(clippy::identity_op)] // opcode 0x00 << 26, kept for the encoding table's shape
            Instr::J(off) => (0x00 << 26) | ((off as u32) & 0x03ff_ffff),
            Instr::Jal(off) => (0x01 << 26) | ((off as u32) & 0x03ff_ffff),
            Instr::Bnf(off) => (0x03 << 26) | ((off as u32) & 0x03ff_ffff),
            Instr::Bf(off) => (0x04 << 26) | ((off as u32) & 0x03ff_ffff),
            Instr::Nop => 0x05 << 26,
            Instr::Movhi(rd, imm) => (0x06 << 26) | (r(rd) << 21) | u32::from(imm),
            Instr::Jr(rb) => (0x11 << 26) | (r(rb) << 11),
            Instr::Lwz(rd, ra, off) => {
                (0x21 << 26) | (r(rd) << 21) | (r(ra) << 16) | u32::from(off as u16)
            }
            Instr::Lbz(rd, ra, off) => {
                (0x23 << 26) | (r(rd) << 21) | (r(ra) << 16) | u32::from(off as u16)
            }
            Instr::Addi(rd, ra, imm) => {
                (0x27 << 26) | (r(rd) << 21) | (r(ra) << 16) | u32::from(imm as u16)
            }
            Instr::Andi(rd, ra, imm) => {
                (0x29 << 26) | (r(rd) << 21) | (r(ra) << 16) | u32::from(imm)
            }
            Instr::Ori(rd, ra, imm) => {
                (0x2a << 26) | (r(rd) << 21) | (r(ra) << 16) | u32::from(imm)
            }
            Instr::Xori(rd, ra, imm) => {
                (0x2b << 26) | (r(rd) << 21) | (r(ra) << 16) | u32::from(imm as u16)
            }
            Instr::ShiftI(op, rd, ra, sh) => {
                let sub = match op {
                    AluOp::Sll => 0u32,
                    AluOp::Srl => 1,
                    AluOp::Sra => 2,
                    _ => panic!("ShiftI only encodes shifts"),
                };
                (0x2e << 26) | (r(rd) << 21) | (r(ra) << 16) | (sub << 6) | u32::from(sh & 0x1f)
            }
            Instr::Sw(ra, rb, off) => {
                // Split immediate like OR1K: hi in rD field, lo in imm.
                let o = off as u16;
                (0x35 << 26)
                    | ((u32::from(o) >> 11) << 21)
                    | (r(ra) << 16)
                    | (r(rb) << 11)
                    | (u32::from(o) & 0x7ff)
            }
            Instr::Sb(ra, rb, off) => {
                let o = off as u16;
                (0x36 << 26)
                    | ((u32::from(o) >> 11) << 21)
                    | (r(ra) << 16)
                    | (r(rb) << 11)
                    | (u32::from(o) & 0x7ff)
            }
            Instr::Alu(op, rd, ra, rb) => {
                (0x38 << 26) | (r(rd) << 21) | (r(ra) << 16) | (r(rb) << 11) | op.code()
            }
            Instr::Sf(op, ra, rb) => {
                (0x39 << 26) | (op.code() << 21) | (r(ra) << 16) | (r(rb) << 11)
            }
            Instr::Cust1(rd, ra) => (0x3c << 26) | (r(rd) << 21) | (r(ra) << 16),
            Instr::Halt => 0x3f << 26,
        }
    }

    /// Decode a 32-bit word.
    #[must_use]
    pub fn decode(w: u32) -> Option<Instr> {
        let op = w >> 26;
        Some(match op {
            0x00 => Instr::J(sext26(w)),
            0x01 => Instr::Jal(sext26(w)),
            0x03 => Instr::Bnf(sext26(w)),
            0x04 => Instr::Bf(sext26(w)),
            0x05 => Instr::Nop,
            0x06 => Instr::Movhi(f_rd(w), f_imm16(w)),
            0x11 => Instr::Jr(f_rb(w)),
            0x21 => Instr::Lwz(f_rd(w), f_ra(w), f_imm16(w) as i16),
            0x23 => Instr::Lbz(f_rd(w), f_ra(w), f_imm16(w) as i16),
            0x27 => Instr::Addi(f_rd(w), f_ra(w), f_imm16(w) as i16),
            0x29 => Instr::Andi(f_rd(w), f_ra(w), f_imm16(w)),
            0x2a => Instr::Ori(f_rd(w), f_ra(w), f_imm16(w)),
            0x2b => Instr::Xori(f_rd(w), f_ra(w), f_imm16(w) as i16),
            0x2e => {
                let sub = (w >> 6) & 0x3;
                let op = match sub {
                    0 => AluOp::Sll,
                    1 => AluOp::Srl,
                    2 => AluOp::Sra,
                    _ => return None,
                };
                Instr::ShiftI(op, f_rd(w), f_ra(w), (w & 0x1f) as u8)
            }
            0x35 | 0x36 => {
                let off = (((w >> 21) & 0x1f) << 11 | (w & 0x7ff)) as u16 as i16;
                if op == 0x35 {
                    Instr::Sw(f_ra(w), f_rb(w), off)
                } else {
                    Instr::Sb(f_ra(w), f_rb(w), off)
                }
            }
            0x38 => Instr::Alu(AluOp::from_code(w & 0xf)?, f_rd(w), f_ra(w), f_rb(w)),
            0x39 => Instr::Sf(CmpOp::from_code((w >> 21) & 0x1f)?, f_ra(w), f_rb(w)),
            0x3c => Instr::Cust1(f_rd(w), f_ra(w)),
            0x3f => Instr::Halt,
            _ => return None,
        })
    }

    /// Base pipeline cost in cycles (taken branches add a flush penalty
    /// in the CPU model).
    #[must_use]
    pub fn base_cycles(self) -> u64 {
        match self {
            Instr::Lwz(..) | Instr::Lbz(..) => 2,
            Instr::Alu(AluOp::Mul, ..) => 3,
            _ => 1,
        }
    }
}

impl std::fmt::Display for Instr {
    /// Disassemble to assembler-compatible text (branch targets appear as
    /// relative word offsets, which [`crate::asm`] does not re-ingest —
    /// use labels when authoring; this form is for logs and round-trip
    /// tests of operand fields).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Instr::J(off) => write!(f, "l.j {off}"),
            Instr::Jal(off) => write!(f, "l.jal {off}"),
            Instr::Jr(rb) => write!(f, "l.jr r{rb}"),
            Instr::Bf(off) => write!(f, "l.bf {off}"),
            Instr::Bnf(off) => write!(f, "l.bnf {off}"),
            Instr::Nop => write!(f, "l.nop"),
            Instr::Movhi(rd, imm) => write!(f, "l.movhi r{rd}, {imm}"),
            Instr::Lwz(rd, ra, off) => write!(f, "l.lwz r{rd}, {off}(r{ra})"),
            Instr::Lbz(rd, ra, off) => write!(f, "l.lbz r{rd}, {off}(r{ra})"),
            Instr::Sw(ra, rb, off) => write!(f, "l.sw {off}(r{ra}), r{rb}"),
            Instr::Sb(ra, rb, off) => write!(f, "l.sb {off}(r{ra}), r{rb}"),
            Instr::Addi(rd, ra, imm) => write!(f, "l.addi r{rd}, r{ra}, {imm}"),
            Instr::Andi(rd, ra, imm) => write!(f, "l.andi r{rd}, r{ra}, {imm}"),
            Instr::Ori(rd, ra, imm) => write!(f, "l.ori r{rd}, r{ra}, {imm}"),
            Instr::Xori(rd, ra, imm) => write!(f, "l.xori r{rd}, r{ra}, {imm}"),
            Instr::ShiftI(op, rd, ra, sh) => {
                let mn = match op {
                    AluOp::Sll => "slli",
                    AluOp::Srl => "srli",
                    _ => "srai",
                };
                write!(f, "l.{mn} r{rd}, r{ra}, {sh}")
            }
            Instr::Alu(op, rd, ra, rb) => {
                write!(f, "l.{} r{rd}, r{ra}, r{rb}", op.mnemonic())
            }
            Instr::Sf(op, ra, rb) => write!(f, "l.{} r{ra}, r{rb}", op.mnemonic()),
            Instr::Cust1(rd, ra) => write!(f, "l.cust1 r{rd}, r{ra}"),
            Instr::Halt => write!(f, "l.halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_samples() -> Vec<Instr> {
        vec![
            Instr::J(-5),
            Instr::Jal(1000),
            Instr::Jr(9),
            Instr::Bf(12),
            Instr::Bnf(-1),
            Instr::Nop,
            Instr::Movhi(3, 0xdead),
            Instr::Lwz(4, 5, -8),
            Instr::Lbz(6, 7, 127),
            Instr::Sw(2, 3, -4),
            Instr::Sb(2, 3, 2047),
            Instr::Addi(1, 2, -300),
            Instr::Andi(1, 2, 0xff),
            Instr::Ori(1, 2, 0xffff),
            Instr::Xori(1, 2, -1),
            Instr::ShiftI(AluOp::Sll, 3, 4, 24),
            Instr::ShiftI(AluOp::Srl, 3, 4, 8),
            Instr::ShiftI(AluOp::Sra, 3, 4, 31),
            Instr::Alu(AluOp::Add, 1, 2, 3),
            Instr::Alu(AluOp::Xor, 31, 30, 29),
            Instr::Alu(AluOp::Mul, 5, 6, 7),
            Instr::Sf(CmpOp::Eq, 1, 2),
            Instr::Sf(CmpOp::Ltu, 3, 4),
            Instr::Cust1(10, 11),
            Instr::Halt,
        ]
    }

    #[test]
    fn encode_decode_round_trip() {
        for i in all_samples() {
            let w = i.encode();
            assert_eq!(Instr::decode(w), Some(i), "round-trip of {i:?} ({w:#010x})");
        }
    }

    #[test]
    fn negative_offsets_sign_extend() {
        let w = Instr::J(-1).encode();
        assert_eq!(Instr::decode(w), Some(Instr::J(-1)));
        let w = Instr::Sw(1, 2, -2048).encode();
        assert_eq!(Instr::decode(w), Some(Instr::Sw(1, 2, -2048)));
    }

    #[test]
    fn unknown_opcode_decodes_none() {
        assert_eq!(Instr::decode(0x3e << 26), None);
    }

    #[test]
    fn cycle_model() {
        assert_eq!(Instr::Nop.base_cycles(), 1);
        assert_eq!(Instr::Lwz(1, 2, 0).base_cycles(), 2);
        assert_eq!(Instr::Alu(AluOp::Mul, 1, 2, 3).base_cycles(), 3);
        assert_eq!(Instr::Cust1(1, 2).base_cycles(), 1);
    }

    #[test]
    #[should_panic(expected = "ShiftI only encodes shifts")]
    fn shifti_rejects_non_shift() {
        let _ = Instr::ShiftI(AluOp::Add, 1, 2, 3).encode();
    }
}
