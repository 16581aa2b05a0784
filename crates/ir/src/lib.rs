//! # se-ir — the stateful dataflow-graph intermediate representation
//!
//! The paper's central design decision: "the dataflow model should be used
//! as a low-level intermediate representation for the modeling and execution
//! of distributed applications, but not as a programmer-facing model" (§1).
//!
//! This crate defines that IR and its engine-independent execution core:
//!
//! * [`block`] — split-function blocks and compiled methods (the output of
//!   the paper's function-splitting transformation, §2.4);
//! * [`machine`] — the execution state machine derived per method (§2.5);
//! * [`graph`] — the enriched stateful dataflow graph: operators, routers,
//!   call and loopback edges (§2.3, Figure 2);
//! * [`event`] — invocation events carrying continuation frames (the
//!   "execution graph inserted into the function-calling event", §2.5);
//! * [`exec`] — block execution and the invocation-event protocol shared by
//!   every runtime;
//! * [`route`] — stable key-based partition routing.

#![warn(missing_docs)]

pub mod block;
pub mod event;
pub mod exec;
pub mod graph;
pub mod machine;
pub mod route;
pub mod version;

pub use block::{Block, BlockId, CompiledMethod, Terminator};
pub use event::{
    EntityOp, Frame, Invocation, InvocationKind, RequestId, Response, INITIAL_VERSION,
};
pub use exec::{
    drive_chain, drive_chain_with, process_invocation, process_invocation_with, run_from_block,
    Activation, BlockOutcome, BodyOutcome, BodyRunner, InterpBody, StepEffect,
};
pub use graph::{
    CompiledClass, CompiledProgram, DataflowGraph, EdgeKind, EdgeSpec, NodeRef, OperatorId,
    OperatorSpec,
};
pub use machine::{StateMachine, Transition};
pub use route::{fnv1a, partition_for};
pub use version::{VersionEntry, VersionRegistry};
