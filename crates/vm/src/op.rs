//! The register instruction set and per-class constant pool.
//!
//! Design points, mirroring classic register VMs (Lua, and the `moon`
//! exemplar the roadmap references):
//!
//! * **registers, not an operand stack** — every method body gets a flat
//!   register file; named locals occupy the low registers (one per distinct
//!   name), expression temporaries live above them in stack discipline, so
//!   an assignment like `i = i + 1` is an [`Op::Const`] plus one
//!   [`Op::Binary`] writing `i`'s register instead of map lookups and a map
//!   insert;
//! * **one instruction per source operation** — no fused forms or inline
//!   caches: each op does one thing and every operator result comes from
//!   `se_lang::interp`'s evaluators, so the VM and the interpreter share
//!   one definition of the language's values;
//! * **per-class constant pool** — literal [`Value`]s and attribute/method
//!   name [`Symbol`]s are deduplicated per class (keyed on the interned
//!   symbol / value) and referenced by `u16` index, keeping instructions
//!   compact and letting every method of a class share one pool;
//! * **suspension as an instruction** — [`Op::Suspend`] carries everything
//!   the invocation-event protocol needs to park the method at a remote
//!   call: callee, argument window, continuation block and the exact set of
//!   live registers to materialize into the continuation environment.

use se_ir::BlockId;
use se_lang::{BinOp, Builtin, Symbol, UnOp, Value};

/// Index of a register in a method's register file.
pub type Reg = u16;

/// Index into a method's code array (jump target).
pub type CodeIdx = u32;

/// One instruction of the register VM.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `dst = pool.values[idx].clone()`.
    Const {
        /// Destination register.
        dst: Reg,
        /// Index into the class constant pool.
        idx: u16,
    },
    /// `dst = Bool(val)` — materialized by short-circuit lowering.
    Bool {
        /// Destination register.
        dst: Reg,
        /// The boolean to load.
        val: bool,
    },
    /// `dst = src.clone()`; errors with `UndefinedVariable` if `src` is an
    /// unwritten local register.
    Move {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// Checks that local register `src` holds a value (a variable read at
    /// this program point), erroring with `UndefinedVariable` otherwise.
    /// Emitted only where the lowering pass cannot prove definedness.
    Defined {
        /// Register that must be defined.
        src: Reg,
    },
    /// `dst = state[name].clone()` — a `self.<attr>` read.
    LoadAttr {
        /// Destination register.
        dst: Reg,
        /// Index into the class name pool.
        name: u16,
    },
    /// `state[name] = src.clone()` — a `self.<attr> = …` write; errors if
    /// the attribute was never declared.
    StoreAttr {
        /// Index into the class name pool.
        name: u16,
        /// Register holding the value to store.
        src: Reg,
    },
    /// `dst = lhs <op> rhs` for non-logical operators (logical `and`/`or`
    /// are lowered to jumps for short-circuit evaluation).
    Binary {
        /// The operator.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand register.
        lhs: Reg,
        /// Right operand register.
        rhs: Reg,
    },
    /// `dst = <op> src`.
    Unary {
        /// The operator.
        op: UnOp,
        /// Destination register.
        dst: Reg,
        /// Operand register.
        src: Reg,
    },
    /// `dst = Bool(src.truthy())` — the coercion `and`/`or` apply to their
    /// result.
    Truthy {
        /// Destination register.
        dst: Reg,
        /// Operand register.
        src: Reg,
    },
    /// `dst = builtin(regs[start..start+argc])`, consuming the argument
    /// window.
    CallBuiltin {
        /// The builtin to invoke.
        f: Builtin,
        /// Destination register.
        dst: Reg,
        /// First register of the contiguous argument window.
        start: Reg,
        /// Number of arguments.
        argc: u8,
    },
    /// `dst = base[idx]` (list / map / string indexing).
    Index {
        /// Destination register.
        dst: Reg,
        /// Register holding the indexed value.
        base: Reg,
        /// Register holding the index.
        idx: Reg,
    },
    /// `dst = [regs[start..start+count]]`, consuming the element window.
    MakeList {
        /// Destination register.
        dst: Reg,
        /// First register of the contiguous element window.
        start: Reg,
        /// Number of elements.
        count: u16,
    },
    /// Unconditional jump.
    Jump {
        /// Target code index.
        to: CodeIdx,
    },
    /// Jump when `cond` is truthy.
    JumpIfTrue {
        /// Condition register.
        cond: Reg,
        /// Target code index.
        to: CodeIdx,
    },
    /// Jump when `cond` is falsy.
    JumpIfFalse {
        /// Condition register.
        cond: Reg,
        /// Target code index.
        to: CodeIdx,
    },
    /// Begins a `for` loop: checks that `list` holds a list and zeroes the
    /// iteration counter in `idx`.
    IterInit {
        /// Register holding the iterated list.
        list: Reg,
        /// Register receiving the iteration counter.
        idx: Reg,
    },
    /// Advances a `for` loop: binds the next element to `dst` and bumps
    /// `idx`, or jumps to `end` when the list is exhausted.
    IterNext {
        /// Register holding the iterated list.
        list: Reg,
        /// Register holding the iteration counter.
        idx: Reg,
        /// Register bound to the current element (the loop variable).
        dst: Reg,
        /// Code index to jump to when exhausted.
        end: CodeIdx,
    },
    /// Checks that `src` holds an entity reference (the callee check a
    /// remote call performs *before* evaluating its arguments).
    EnsureRef {
        /// Register that must hold a `Value::Ref`.
        src: Reg,
    },
    /// Returns the value in `src` to the caller.
    Return {
        /// Register holding the return value.
        src: Reg,
    },
    /// Suspends the method on a remote call (see [`SuspendSpec`]).
    Suspend {
        /// Register holding the callee entity reference.
        target: Reg,
        /// The suspension descriptor.
        spec: Box<SuspendSpec>,
    },
}

/// Everything a [`Op::Suspend`] needs to park the method at a remote call.
#[derive(Debug, Clone, PartialEq)]
pub struct SuspendSpec {
    /// Callee method name.
    pub method: Symbol,
    /// First register of the contiguous evaluated-argument window.
    pub args_start: Reg,
    /// Number of arguments.
    pub argc: u8,
    /// Variable receiving the remote call's return value, if used.
    pub result_var: Option<Symbol>,
    /// Block execution resumes at when the result arrives.
    pub resume: BlockId,
    /// The continuation environment: `(name, register)` for each of the
    /// resume block's live-in variables. Registers still unset at
    /// suspension are skipped — exactly the interpreter's behavior of
    /// retaining only *defined* live variables.
    pub save: Vec<(Symbol, Reg)>,
}

/// The per-class constant pool: literal values and attribute names shared by
/// all compiled methods of one class, referenced from instructions by `u16`
/// index.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConstPool {
    /// Deduplicated literal values.
    pub values: Vec<Value>,
    /// Deduplicated attribute names (keyed on the interned [`Symbol`]).
    pub names: Vec<Symbol>,
}

impl ConstPool {
    /// The literal at `idx`.
    ///
    /// # Panics
    /// Panics on an out-of-range index — pool indices are produced by the
    /// lowering pass, so an unknown index is a compiler bug.
    pub fn value(&self, idx: u16) -> &Value {
        &self.values[idx as usize]
    }

    /// The name at `idx`.
    ///
    /// # Panics
    /// Panics on an out-of-range index (compiler bug, as above).
    pub fn name(&self, idx: u16) -> Symbol {
        self.names[idx as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dispatch reads one `Op` per cycle; keeping the enum within a single
    /// 16-byte slot (two words) is what makes the fetch one cache-friendly
    /// load. Rare/wide variants must box their payload (`Op::Suspend`).
    #[test]
    fn op_stays_compact() {
        assert!(
            std::mem::size_of::<Op>() <= 16,
            "Op grew to {} bytes; box the wide variant's payload instead",
            std::mem::size_of::<Op>()
        );
    }
}
