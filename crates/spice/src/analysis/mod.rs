//! Circuit analyses: DC operating point and transient.

pub mod dc;
pub(crate) mod engine;
pub(crate) mod march;
pub(crate) mod plan;
pub mod tran;
