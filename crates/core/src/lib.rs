//! # se-core — stateful entities, end to end
//!
//! The public facade of the repository: author entity programs with the
//! [`builder`] DSL, [`compile`] them into the stateful dataflow IR, and
//! [`deploy`] the IR unchanged on any supported engine — the portability
//! claim at the heart of the paper ("the choice of a runtime system is
//! completely independent of the application layer", §1).
//!
//! ```
//! use se_core::prelude::*;
//!
//! let program = se_core::programs::figure1_program();
//! let rt = se_core::deploy(&program, RuntimeChoice::Local).unwrap();
//! let user = rt.create("User", "alice", vec![("balance".into(), Value::Int(100))]).unwrap();
//! let item = rt.create("Item", "laptop", vec![
//!     ("price".into(), Value::Int(30)),
//!     ("stock".into(), Value::Int(5)),
//! ]).unwrap();
//! let ok = rt.call(user, "buy_item", vec![Value::Int(2), Value::Ref(item)]).unwrap();
//! assert_eq!(ok, Value::Bool(true));
//! ```
//!
//! Two environment overrides flip a whole run without touching code:
//! `SE_DURABILITY` (`off` | `wal`, default `off`) puts a per-partition
//! write-ahead log and incremental snapshots under StateFlow state, and
//! `SE_OBS` (`off` | `metrics` | `trace`) turns on observability for both
//! engines. Method bodies always run on the
//! `se-vm` bytecode VM; the tree-walk interpreter is the [`LocalRuntime`]
//! oracle.

#![warn(missing_docs)]

pub mod local_runtime;

use se_lang::{LangError, Program};

pub use local_runtime::LocalRuntime;
pub use se_chaos::{
    check_history, check_statefun_history, serial_order, ChaosPlan, CheckError, CheckSummary,
    DiskFault, DiskFaultKind, FaultScript, FsyncFaultAction, History, ScriptConfig, SerialOp,
};
pub use se_compiler::{compile, stats, CompileStats};
pub use se_dataflow::{
    DurableOptions, DurableStore, EntityRuntime, FsyncPolicy, NetConfig, ResponseWaiter,
};
pub use se_ir::{DataflowGraph, StateMachine};
pub use se_lang::{builder, programs, typecheck, EntityRef, Type, Value};
pub use se_stateflow::{
    default_workers, BugLever, DurabilityConfig, DurabilityMode, StateflowConfig, StateflowRuntime,
};
pub use se_statefun::{CheckpointMode, StatefunConfig, StatefunRuntime};
pub use se_vm::VmProgram;

/// Everything an application author needs.
pub mod prelude {
    pub use se_dataflow::EntityRuntime;
    pub use se_lang::builder::*;
    pub use se_lang::{EntityRef, Program, Type, Value};

    pub use crate::{deploy, RuntimeChoice};
}

/// Which engine to deploy on.
pub enum RuntimeChoice {
    /// Synchronous single-process execution (development, tests, oracles).
    Local,
    /// The Flink-StateFun-style runtime (broker round trips, remote
    /// function runtime, no transactions).
    Statefun(StatefunConfig),
    /// The StateFlow transactional dataflow runtime.
    Stateflow(StateflowConfig),
}

/// Compiles `program` and deploys it on the chosen engine.
///
/// The same compiled [`DataflowGraph`] feeds every engine — switching
/// engines never touches application code.
pub fn deploy(
    program: &Program,
    choice: RuntimeChoice,
) -> Result<Box<dyn EntityRuntime>, Vec<LangError>> {
    Ok(match choice {
        RuntimeChoice::Local => Box::new(LocalRuntime::deploy(program)?),
        RuntimeChoice::Statefun(cfg) => {
            let graph = compile(program)?;
            Box::new(StatefunRuntime::deploy(graph, cfg))
        }
        RuntimeChoice::Stateflow(cfg) => {
            let graph = compile(program)?;
            Box::new(StateflowRuntime::deploy(graph, cfg))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use se_lang::Value;

    /// The portability test: the same program, unchanged, on all three
    /// engines, producing identical results.
    #[test]
    fn same_program_all_engines_same_results() {
        let program = se_lang::programs::figure1_program();
        for choice in [
            RuntimeChoice::Local,
            RuntimeChoice::Statefun(StatefunConfig::fast_test(2)),
            RuntimeChoice::Stateflow(StateflowConfig::fast_test(2)),
        ] {
            let rt = deploy(&program, choice).unwrap();
            let user = rt
                .create("User", "u", vec![("balance".into(), Value::Int(100))])
                .unwrap();
            let item = rt
                .create(
                    "Item",
                    "i",
                    vec![
                        ("price".into(), Value::Int(30)),
                        ("stock".into(), Value::Int(5)),
                    ],
                )
                .unwrap();
            let ok = rt
                .call(user, "buy_item", vec![Value::Int(2), Value::Ref(item)])
                .unwrap();
            assert_eq!(ok, Value::Bool(true), "engine {}", rt.name());
            assert_eq!(
                rt.call(user, "balance", vec![]).unwrap(),
                Value::Int(40),
                "engine {}",
                rt.name()
            );
            rt.shutdown();
        }
    }
}
