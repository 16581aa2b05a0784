//! # se-aria — deterministic transactions for stateful dataflows
//!
//! StateFlow "achieves consistency by implementing an extension of Aria, a
//! deterministic transaction protocol" (§3; Lu et al., VLDB 2020). This
//! crate holds the protocol's engine-agnostic pieces; `se-stateflow`
//! distributes them across partitioned workers as its reservation round,
//! the one implementation of the protocol in this repository:
//!
//! * [`types`] — transaction ids, buffered access sets, state overlays;
//! * [`reservation`] — per-key lowest-id reservations, the WAW/RAW/WAR
//!   conflict flags and Aria's deterministic-reordering commit rule (the
//!   history checker's oracle for every recorded decision);
//! * [`pipeline`] — committed-batch watermark bookkeeping for overlapping
//!   batches (Aria pipelines the execution of batch *i+1* with the commit
//!   round of batch *i*).

#![warn(missing_docs)]

pub mod pipeline;
pub mod reservation;
pub mod types;

pub use pipeline::CommitWatermark;
pub use reservation::{CommitRule, ReservationTable};
pub use types::{BatchId, Decision, TxnBuffer, TxnId};
