//! Circuit analyses: DC operating point, transient, and the lockstep
//! ensemble transient.

pub mod dc;
pub(crate) mod engine;
pub mod ensemble;
pub(crate) mod march;
pub(crate) mod partition;
pub(crate) mod plan;
pub mod tran;
