//! # se-vm — bytecode compiler + register VM for split entity methods
//!
//! The engines' body runner. After the compiler pipeline splits entity
//! methods into block CFGs, this crate lowers those CFGs once — at deploy
//! time — to a compact register instruction set with per-class constant
//! pools, then executes them in a flat dispatch loop (the tree-walking
//! interpreter in `se-lang` / `se-ir` stays as the reference semantics the
//! lockstep suite compares against, not as something a deployment selects):
//!
//! * [`lower`] — the bytecode compiler: register allocation for locals,
//!   stack-disciplined temporaries, short-circuit lowering, and a
//!   must-definedness analysis that elides variable-defined checks the
//!   interpreter performs implicitly via its environment map;
//! * [`Vm`] — the dispatch loop, a drop-in [`se_ir::BodyRunner`];
//! * [`VmProgram`] — the deploy-time cache of compiled bodies, keyed per
//!   class/method;
//! * [`disasm`] — a disassembler with stable text output (see the
//!   `compiler_explorer` example).
//!
//! The VM is deliberately plain: one instruction per source operation, no
//! optimizer, no fused or cached instruction forms, and every operator
//! result computed by `se_lang::interp`'s evaluators — the language's value
//! semantics live in `se-lang` alone. Body execution is a fraction of a
//! percent of request latency; what the VM buys is register slots instead
//! of environment maps, not faster arithmetic.
//!
//! **Equivalence contract.** For any split program that completes within
//! the step budget, the VM produces byte-identical return values,
//! entity-state effects, emitted invocations and suspension frames as the
//! interpreter — including errors and their ordering. (The budget itself
//! meters different units per backend — statements vs. instructions — so
//! only the exact tripping point of `StepBudgetExhausted` on runaway loops
//! differs.) `tests/differential.rs` enforces the contract with randomized
//! programs executed under both backends in lockstep.
//!
//! ```
//! use se_ir::{Invocation, RequestId, drive_chain_with};
//! use se_lang::{EntityRef, Value};
//!
//! let program = se_lang::programs::figure1_program();
//! let graph = se_compiler::compile(&program).expect("Figure 1 type-checks and splits");
//! let vm = se_vm::VmProgram::compile(&graph.program); // deploy-time lowering
//!
//! let user = EntityRef::new("User", "u");
//! let item = EntityRef::new("Item", "i");
//! let mut store = std::collections::HashMap::new();
//! store.insert(user, graph.program.class("User").expect("Figure 1 declares User").class.initial_state(
//!     "u", [("balance".to_string(), Value::Int(100))]));
//! store.insert(item, graph.program.class("Item").expect("Figure 1 declares Item").class.initial_state(
//!     "i", [("price".to_string(), Value::Int(30)), ("stock".to_string(), Value::Int(5))]));
//!
//! let store = std::cell::RefCell::new(store);
//! let root = Invocation::root(RequestId(1), user, "buy_item",
//!     vec![Value::Int(2), Value::Ref(item)]);
//! let resp = drive_chain_with(
//!     &graph.program, &vm, root,
//!     |r| Ok(store.borrow()[r].clone()),
//!     |r, s| { store.borrow_mut().insert(*r, s); },
//!     16,
//! );
//! assert_eq!(resp.result, Ok(Value::Bool(true)));
//! ```

#![warn(missing_docs)]

pub mod disasm;
pub mod lower;
pub mod op;
pub mod program;
pub mod vm;

pub use disasm::{disasm_class, disasm_method};
pub use lower::{lower_method, PoolBuilder};
pub use op::{ConstPool, Op, Reg, SuspendSpec};
pub use program::{VmClass, VmMethod, VmProgram};
pub use vm::Vm;
