//! # se-stateflow — a transactional dataflow runtime
//!
//! The paper's novel system (§3): "Existing dataflow systems cannot execute
//! multi-partition transactions. To this end, we built StateFlow, a
//! prototype dataflow system… StateFlow treats each function — and the state
//! effects it creates via calls to other functions — as a transaction with
//! ACID guarantees," implemented as an extension of the Aria deterministic
//! protocol, with cyclic function-to-function channels, consistent
//! snapshots, and a replayable source for rollback-recovery.
//!
//! Topology: one coordinator thread + N worker threads (partitions).
//! Protocol per batch: execute-on-snapshot (chains hop between workers over
//! internal delay channels) → reserve → decide (WAW/RAW/WAR, optional
//! deterministic reordering) → commit in transaction-id order → respond;
//! aborted transactions re-run at the head of the next batch with their
//! original ids. Up to `pipeline_depth` batches ([`StateflowConfig`])
//! overlap Aria-style: batch *N+1* is sealed as soon as batch *N* enters its
//! reservation round, workers order execution with committed-batch
//! watermarks, and serial-fallback retries commit at their final hop without
//! a coordinator round trip.

#![warn(missing_docs)]

pub mod config;
pub mod coordinator;
pub mod msg;
pub mod query;
pub mod runtime;
pub mod worker;

pub use config::{default_workers, BugLever, DurabilityConfig, DurabilityMode, StateflowConfig};
pub use coordinator::CoordStats;
pub use query::QueryResult;
pub use runtime::StateflowRuntime;
