//! # mcml-aes — the AES workload
//!
//! The cryptographic workload of the paper's evaluation:
//!
//! * [`aes`] — software AES-128 encryption (FIPS-197) used as the program
//!   the `OpenRISC` core executes 5000 times for the Table 3 power study;
//! * [`sbox`] — the AES S-box (plus a 4-bit mini S-box used for the
//!   transistor-level CPA tier, where an 8-bit LUT would be too large to
//!   SPICE for all plaintext–key pairs);
//! * [`reduced`] — the *"commonly accepted reduced version of the AES
//!   algorithm composed by a key addition and a S-box look-up-table"*
//!   (§6) that the security evaluation attacks, with its gate-level
//!   netlist generator;
//! * [`sbox_ise`] — the S-box instruction-set-extension functional unit:
//!   four parallel 8×8 S-box LUTs matching the processor's 32-bit word,
//!   as a mapped netlist in any of the three styles.
//!
//! ```
//! use mcml_aes::{Aes128, ReducedAes, SBOX};
//!
//! // FIPS-197 appendix C.1 known-answer vector.
//! let aes = Aes128::new(&[
//!     0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
//!     0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f,
//! ]);
//! let ct = aes.encrypt_block(&[
//!     0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
//!     0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff,
//! ]);
//! assert_eq!(ct[0], 0x69);
//!
//! // The reduced AES the security evaluation attacks: key-add + S-box.
//! let reduced = ReducedAes::new(8);
//! assert_eq!(reduced.output(0x3b, 0xa7), SBOX[0x3b ^ 0xa7]);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod aes;
pub mod reduced;
pub mod sbox;
pub mod sbox_ise;

pub use aes::Aes128;
pub use reduced::ReducedAes;
pub use sbox::{MINI_SBOX, SBOX};
pub use sbox_ise::build_sbox_ise;
