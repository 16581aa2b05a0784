//! # se-compiler — from imperative entities to stateful dataflows
//!
//! The compiler pipeline of the paper (§2): static analysis, remote-call
//! normalization, call-graph construction with recursion rejection, function
//! splitting into continuation-passing block CFGs, live-variable analysis,
//! state-machine derivation, and dataflow-graph assembly.
//!
//! Entry point: [`compile`].
//!
//! ```
//! let program = se_lang::programs::figure1_program();
//! let graph = se_compiler::compile(&program).expect("compiles");
//! // buy_item was split at each of its three remote calls.
//! let buy = graph.program.method_or_err("User", "buy_item").unwrap();
//! assert_eq!(buy.suspension_points(), 3);
//! ```

#![warn(missing_docs)]

pub mod callgraph;
pub mod liveness;
pub mod normalize;
pub mod pipeline;
pub mod split;

pub use callgraph::CallGraph;
pub use normalize::{normalize_method, normalize_program};
pub use pipeline::{compile, stats, CompileStats};
pub use split::split_method;
