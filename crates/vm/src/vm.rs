//! The dispatch loop: executes lowered method bodies against entity state.
//!
//! The VM is a drop-in [`se_ir::BodyRunner`] body executor: it consumes the
//! same activations the event protocol builds, produces the same
//! [`BodyOutcome`]s, raises the same [`LangError`]s at the same program
//! points, and materializes the same pruned continuation environments at
//! suspension — the differential proptest suite in `tests/differential.rs`
//! pins all of that against the tree-walking interpreter, under both the
//! optimized and the unoptimized lowering.
//!
//! Three things keep the common path to one bounds-checked fetch plus a
//! handful of loads:
//!
//! * the hottest handlers ([`Op::Binary`] and the fused superinstructions)
//!   take an `Int⊕Int` fast path that skips the interpreter's
//!   value-clone + full type dispatch, falling back to
//!   [`eval_binop`] (same results, same errors) for every other shape;
//! * attribute ops are **quickened**: each carries a [`CacheCell`] position
//!   hint into the entity's sorted attribute map, validated against the
//!   stored key on every use (a stale hint re-searches; it can never serve
//!   a wrong value) and refreshed in place;
//! * the loop borrows budget/scratch/flags once up front instead of going
//!   through `self` per instruction.
//!
//! One deliberate exception to equivalence: the **step budget** meters
//! different units (the interpreter ticks per statement/expression, the VM
//! per instruction — and a fused superinstruction is one instruction), so a
//! runaway loop trips [`LangError::StepBudgetExhausted`] on both backends
//! but not after the identical number of iterations. Programs that finish
//! within budget — everything the differential suite generates and any
//! realistic method body — behave identically.

use se_ir::{Activation, BodyOutcome};
use se_lang::interp::{
    eval_binop, eval_builtin_drain, eval_index, eval_unary, DEFAULT_STEP_BUDGET,
};
use se_lang::{BinOp, EntityState, Env, LangError, Symbol, Value};

use crate::op::{CacheCell, Op, Reg};
use crate::program::{VmClass, VmMethod};

thread_local! {
    /// Per-thread pool of register files, reused across activations.
    static REG_POOL: std::cell::RefCell<Vec<Vec<Option<Value>>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// A register-machine executor for method activations.
///
/// Program-visible state lives entirely in the entity's attribute map and
/// the activation handed in by the protocol; the register file lives only
/// for one `run`. The struct itself carries only metering and scratch
/// capacity: the step budget depletes across `run` calls on the same `Vm`
/// (like one [`se_lang::Interpreter`] reused across blocks), and the
/// argument-vector pool is a reused allocation, never values.
#[derive(Debug)]
pub struct Vm {
    budget: u64,
    /// Pool of argument vectors reused across builtin calls.
    scratch: Vec<Vec<Value>>,
    /// Use (and refresh) the inline caches of quickened attribute ops.
    quicken: bool,
}

impl Default for Vm {
    fn default() -> Self {
        Self::new()
    }
}

impl Vm {
    /// VM with the default step budget (one step per executed instruction).
    pub fn new() -> Self {
        Self::with_budget(DEFAULT_STEP_BUDGET)
    }

    /// VM with an explicit step budget.
    pub fn with_budget(budget: u64) -> Self {
        Self {
            budget,
            scratch: Vec::new(),
            quicken: true,
        }
    }

    /// Enables or disables inline-cache quickening (on by default; off
    /// under [`crate::lower::VmOpts::none`]).
    pub fn quickened(mut self, on: bool) -> Self {
        self.quicken = on;
        self
    }

    /// Executes one activation of `method` until it returns or suspends.
    ///
    /// On suspension the returned [`BodyOutcome::Call`] carries the pruned
    /// continuation environment, mirroring [`se_ir::run_from_block`]'s
    /// live-in retention.
    pub fn run(
        &mut self,
        class: &VmClass,
        method: &VmMethod,
        activation: Activation,
        state: &mut EntityState,
    ) -> Result<BodyOutcome, LangError> {
        self.run_pooled::<false>(class, method, activation, state, &mut OpPairProfile::new())
    }

    /// [`Vm::run`] with dynamic op-pair profiling: every executed
    /// instruction records the `(previous, current)` opcode pair into
    /// `profile`. Test/tooling instrumentation for choosing
    /// superinstructions — not a stable API.
    #[doc(hidden)]
    pub fn run_profiled(
        &mut self,
        class: &VmClass,
        method: &VmMethod,
        activation: Activation,
        state: &mut EntityState,
        profile: &mut OpPairProfile,
    ) -> Result<BodyOutcome, LangError> {
        self.run_pooled::<true>(class, method, activation, state, profile)
    }

    fn run_pooled<const PROFILE: bool>(
        &mut self,
        class: &VmClass,
        method: &VmMethod,
        activation: Activation,
        state: &mut EntityState,
        profile: &mut OpPairProfile,
    ) -> Result<BodyOutcome, LangError> {
        // Register files are pooled per thread: tiny method bodies (one
        // attribute read, one resume step) are the common case on the hot
        // path, so the per-activation allocation would dominate them.
        let mut regs = REG_POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default();
        regs.resize(method.nregs as usize, None);
        let result =
            self.run_inner::<PROFILE>(class, method, activation, state, &mut regs, profile);
        regs.clear();
        REG_POOL.with(|p| p.borrow_mut().push(regs));
        result
    }

    fn run_inner<const PROFILE: bool>(
        &mut self,
        class: &VmClass,
        method: &VmMethod,
        activation: Activation,
        state: &mut EntityState,
        regs: &mut [Option<Value>],
        profile: &mut OpPairProfile,
    ) -> Result<BodyOutcome, LangError> {
        // Seed the register file by *moving* activation values in — the
        // protocol owns them exclusively at this point. Start arguments load
        // positionally (parameters occupy the first registers in declaration
        // order); resumed environments look their registers up by name.
        let start = match activation {
            Activation::Start { args } => {
                // Extra arguments would silently bind into non-parameter
                // local registers; raise the protocol's arity error instead.
                // (Fewer arguments under-bind, exactly like the
                // interpreter's `params.zip(args)` environment: the missing
                // parameter reads as `UndefinedVariable`.)
                if args.len() > method.nparams as usize {
                    return Err(LangError::ArityMismatch {
                        method: format!("{}.{}", class.class, method.name),
                        expected: method.nparams as usize,
                        actual: args.len(),
                    });
                }
                for (i, v) in args.into_iter().enumerate() {
                    regs[i] = Some(v);
                }
                method.entry
            }
            Activation::Resume {
                block,
                env,
                result,
                result_var,
            } => {
                for (sym, v) in env {
                    if let Some(r) = method.local_reg(sym) {
                        regs[r as usize] = Some(v);
                    }
                }
                if let Some(var) = result_var {
                    // An unknown name cannot be read by any expression of
                    // this method (every referenced name has a register), so
                    // dropping the binding is unobservable — exactly like
                    // the interpreter inserting it into an environment no
                    // block will ever prune into a frame.
                    if let Some(r) = method.local_reg(var) {
                        regs[r as usize] = Some(result);
                    }
                }
                block
            }
        };

        // Hoist the per-instruction state out of `self` so the dispatch
        // loop works on direct locals/borrows instead of re-deriving them
        // through the struct every iteration. The budget in particular must
        // live in a plain local: metering through `&mut self.budget` keeps
        // a load+store round-trip on every dispatch (a loop-carried memory
        // dependency), so it is copied out here and written back on every
        // exit path of the dispatch loop.
        let Vm {
            budget,
            scratch,
            quicken,
        } = self;
        let quicken = *quicken;
        let mut fuel = *budget;
        // A direct slice borrow keeps the instruction fetch off a reload of
        // `method`'s spilled field pointer.
        let code: &[Op] = &method.code;

        let mut pc = method.block_entry[start.0 as usize] as usize;
        // `?` inside the dispatch loop would return from the function,
        // bypassing the budget write-back below — and wrapping the loop in
        // a closure makes `fuel`/`pc` by-ref captures that round-trip
        // through memory on every dispatch. `tri!` keeps them true locals
        // by breaking out of the labeled loop instead.
        // (The label is a macro argument because `macro_rules!` label
        // hygiene keeps a hardcoded `'run` from resolving at the call site.)
        macro_rules! tri {
            ($l:lifetime, $e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(e) => break $l Err(e),
                }
            };
        }
        let result = 'run: loop {
            if fuel == 0 {
                break 'run Err(LangError::StepBudgetExhausted);
            }
            fuel -= 1;
            // Out-of-range pc is unreachable: lowering terminates every
            // block, so the slice index doubles as the internal sanity check.
            let op = &code[pc];
            pc += 1;
            if PROFILE {
                profile.record(op);
            }
            match op {
                Op::Const { dst, idx } => {
                    regs[*dst as usize] = Some(class.pool.value(*idx).clone());
                }
                Op::Bool { dst, val } => {
                    regs[*dst as usize] = Some(Value::Bool(*val));
                }
                Op::Move { dst, src } => {
                    let v = tri!('run, read(regs, method, *src)).clone();
                    regs[*dst as usize] = Some(v);
                }
                Op::Defined { src } => {
                    tri!('run, read(regs, method, *src));
                }
                Op::LoadAttr { dst, name, hint } => {
                    let sym = class.pool.name(*name);
                    let v = tri!('run, load_attr(state, sym, hint, quicken)).clone();
                    regs[*dst as usize] = Some(v);
                }
                Op::StoreAttr { name, src, hint } => {
                    let sym = class.pool.name(*name);
                    let v = tri!('run, read(regs, method, *src)).clone();
                    tri!('run, store_attr(state, sym, v, hint, quicken));
                }
                Op::Binary { op, dst, lhs, rhs } => {
                    let l = tri!('run, read(regs, method, *lhs));
                    let r = tri!('run, read(regs, method, *rhs));
                    let v = match binop_fast(*op, l, r) {
                        Some(v) => v,
                        None => tri!('run, eval_binop(*op, l.clone(), r.clone())),
                    };
                    regs[*dst as usize] = Some(v);
                }
                Op::Unary { op, dst, src } => {
                    let v = tri!('run, read(regs, method, *src)).clone();
                    regs[*dst as usize] = Some(tri!('run, eval_unary(*op, v)));
                }
                Op::Truthy { dst, src } => {
                    let b = tri!('run, read(regs, method, *src)).truthy();
                    regs[*dst as usize] = Some(Value::Bool(b));
                }
                Op::CallBuiltin {
                    f,
                    dst,
                    start,
                    argc,
                } => {
                    let mut args = scratch.pop().unwrap_or_default();
                    for k in 0..*argc as usize {
                        match take(regs, method, *start + k as Reg) {
                            Ok(v) => args.push(v),
                            Err(e) => {
                                args.clear();
                                scratch.push(args);
                                break 'run Err(e);
                            }
                        }
                    }
                    let r = eval_builtin_drain(*f, &mut args);
                    args.clear();
                    scratch.push(args);
                    regs[*dst as usize] = Some(tri!('run, r));
                }
                Op::Index { dst, base, idx } => {
                    let v = tri!('run, eval_index(
                        tri!('run, read(regs, method, *base)),
                        tri!('run, read(regs, method, *idx)),
                    ));
                    regs[*dst as usize] = Some(v);
                }
                Op::MakeList { dst, start, count } => {
                    let mut items = Vec::with_capacity(*count as usize);
                    for k in 0..*count as usize {
                        items.push(tri!('run, take(regs, method, *start + k as Reg)));
                    }
                    regs[*dst as usize] = Some(Value::List(items));
                }
                Op::Jump { to } => pc = *to as usize,
                Op::JumpIfTrue { cond, to } => {
                    if tri!('run, read(regs, method, *cond)).truthy() {
                        pc = *to as usize;
                    }
                }
                Op::JumpIfFalse { cond, to } => {
                    if !tri!('run, read(regs, method, *cond)).truthy() {
                        pc = *to as usize;
                    }
                }
                Op::IterInit { list, idx } => {
                    let v = tri!('run, read(regs, method, *list));
                    if !matches!(v, Value::List(_)) {
                        break 'run Err(LangError::type_mismatch("list", v.type_name()));
                    }
                    regs[*idx as usize] = Some(Value::Int(0));
                }
                Op::IterNext {
                    list,
                    idx,
                    dst,
                    end,
                } => match tri!('run, iter_step(regs, method, *list, *idx)) {
                    Some((v, next)) => {
                        regs[*dst as usize] = Some(v);
                        regs[*idx as usize] = Some(Value::Int(next));
                    }
                    None => pc = *end as usize,
                },
                Op::LoadAttrBinary {
                    op,
                    dst,
                    name,
                    rhs,
                    hint,
                } => {
                    // Effect order of the unfused pair: attribute read
                    // (UndefinedAttribute), rhs read, then the operator.
                    let sym = class.pool.name(*name);
                    let l = tri!('run, load_attr(state, sym, hint, quicken));
                    let r = tri!('run, read(regs, method, *rhs));
                    let v = match binop_fast(*op, l, r) {
                        Some(v) => v,
                        None => tri!('run, eval_binop(*op, l.clone(), r.clone())),
                    };
                    regs[*dst as usize] = Some(v);
                }
                Op::BinaryStoreAttr {
                    op,
                    name,
                    lhs,
                    rhs,
                    hint,
                } => {
                    // Effect order of the unfused pair: operand reads, the
                    // operator, then the attribute-declared check.
                    let l = tri!('run, read(regs, method, *lhs));
                    let r = tri!('run, read(regs, method, *rhs));
                    let v = match binop_fast(*op, l, r) {
                        Some(v) => v,
                        None => tri!('run, eval_binop(*op, l.clone(), r.clone())),
                    };
                    let sym = class.pool.name(*name);
                    tri!('run, store_attr(state, sym, v, hint, quicken));
                }
                Op::BinaryBinary {
                    op1,
                    dst1,
                    lhs1,
                    rhs1,
                    op2,
                    dst2,
                    lhs2,
                    rhs2,
                } => {
                    let l = tri!('run, read(regs, method, *lhs1));
                    let r = tri!('run, read(regs, method, *rhs1));
                    let v = match binop_fast(*op1, l, r) {
                        Some(v) => v,
                        None => tri!('run, eval_binop(*op1, l.clone(), r.clone())),
                    };
                    regs[*dst1 as usize] = Some(v);
                    let l = tri!('run, read(regs, method, *lhs2));
                    let r = tri!('run, read(regs, method, *rhs2));
                    let v = match binop_fast(*op2, l, r) {
                        Some(v) => v,
                        None => tri!('run, eval_binop(*op2, l.clone(), r.clone())),
                    };
                    regs[*dst2 as usize] = Some(v);
                }
                Op::ConstBinary { op, dst, lhs, idx } => {
                    let l = tri!('run, read(regs, method, *lhs));
                    let r = class.pool.value(*idx);
                    let v = match binop_fast(*op, l, r) {
                        Some(v) => v,
                        None => tri!('run, eval_binop(*op, l.clone(), r.clone())),
                    };
                    regs[*dst as usize] = Some(v);
                }
                Op::BinaryJumpIfFalse { op, lhs, rhs, to } => {
                    let l = tri!('run, read(regs, method, *lhs));
                    let r = tri!('run, read(regs, method, *rhs));
                    if !tri!('run, branch_cond(*op, l, r)) {
                        pc = *to as usize;
                    }
                }
                Op::BinaryBranch {
                    op,
                    lhs,
                    rhs,
                    iftrue,
                    iffalse,
                } => {
                    let l = tri!('run, read(regs, method, *lhs));
                    let r = tri!('run, read(regs, method, *rhs));
                    pc = if tri!('run, branch_cond(*op, l, r)) {
                        *iftrue as usize
                    } else {
                        *iffalse as usize
                    };
                }
                Op::ConstBinaryBranch {
                    op1,
                    dst,
                    lhs,
                    idx,
                    op2,
                    rhs,
                    iftrue,
                    iffalse,
                } => {
                    let l = tri!('run, read(regs, method, *lhs));
                    let c = class.pool.value(*idx);
                    let v = match binop_fast(*op1, l, c) {
                        Some(v) => v,
                        None => tri!('run, eval_binop(*op1, l.clone(), c.clone())),
                    };
                    // The branch's left operand is the freshly computed
                    // `v` (kept off a register-file round-trip); when
                    // `rhs == dst` it reads the new value too, exactly
                    // like the unfused pair.
                    let cond = {
                        let r = if *rhs == *dst {
                            &v
                        } else {
                            tri!('run, read(regs, method, *rhs))
                        };
                        tri!('run, branch_cond(*op2, &v, r))
                    };
                    regs[*dst as usize] = Some(v);
                    pc = if cond {
                        *iftrue as usize
                    } else {
                        *iffalse as usize
                    };
                }
                Op::IterNextJump {
                    list,
                    idx,
                    dst,
                    body,
                    end,
                } => match tri!('run, iter_step(regs, method, *list, *idx)) {
                    Some((v, next)) => {
                        regs[*dst as usize] = Some(v);
                        regs[*idx as usize] = Some(Value::Int(next));
                        pc = *body as usize;
                    }
                    None => pc = *end as usize,
                },
                Op::EnsureRef { src } => {
                    tri!('run, tri!('run, read(regs, method, *src)).as_ref());
                }
                Op::Return { src } => {
                    break 'run Ok(BodyOutcome::Return(tri!('run, take(regs, method, *src))));
                }
                Op::Suspend { target, spec } => {
                    let target_ref = *tri!('run, tri!('run, read(regs, method, *target)).as_ref());
                    let mut args = Vec::with_capacity(spec.argc as usize);
                    for k in 0..spec.argc as usize {
                        args.push(tri!('run, take(regs, method, spec.args_start + k as Reg)));
                    }
                    // Materialize the pruned continuation environment from
                    // the resume block's live-in registers; unset registers
                    // are simply absent, as after the interpreter's retain.
                    let mut saved = Env::new();
                    for (sym, r) in &spec.save {
                        if let Some(v) = regs[*r as usize].take() {
                            saved.insert(*sym, v);
                        }
                    }
                    break 'run Ok(BodyOutcome::Call {
                        target: target_ref,
                        method: spec.method,
                        args,
                        result_var: spec.result_var,
                        resume: spec.resume,
                        saved_env: saved,
                    });
                }
            }
        };
        *budget = fuel;
        result
    }
}

/// The truthiness of `lhs <op> rhs` — the condition of the fused branch
/// ops. Int comparisons (the dominant loop-header shape) branch straight
/// off the machine compare without building a `Value`; everything else
/// routes through [`binop_fast`]/[`eval_binop`], so errors are identical to
/// evaluating the unfused pair.
#[inline(always)]
fn branch_cond(op: BinOp, l: &Value, r: &Value) -> Result<bool, LangError> {
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        match op {
            BinOp::Lt => return Ok(a < b),
            BinOp::Le => return Ok(a <= b),
            BinOp::Gt => return Ok(a > b),
            BinOp::Ge => return Ok(a >= b),
            BinOp::Eq => return Ok(a == b),
            BinOp::Ne => return Ok(a != b),
            _ => {}
        }
    }
    match binop_fast(op, l, r) {
        Some(v) => Ok(v.truthy()),
        None => Ok(eval_binop(op, l.clone(), r.clone())?.truthy()),
    }
}

/// The `Int ⊕ Int` fast path of [`eval_binop`]: identical results and
/// errors for every integer pair it accepts; `None` defers every other
/// shape — including division/modulo by zero — to the full evaluator.
#[inline(always)]
fn binop_fast(op: BinOp, l: &Value, r: &Value) -> Option<Value> {
    let (Value::Int(a), Value::Int(b)) = (l, r) else {
        return None;
    };
    let (a, b) = (*a, *b);
    Some(match op {
        BinOp::Add => Value::Int(a.wrapping_add(b)),
        BinOp::Sub => Value::Int(a.wrapping_sub(b)),
        BinOp::Mul => Value::Int(a.wrapping_mul(b)),
        BinOp::Div if b != 0 => Value::Int(a.wrapping_div(b)),
        BinOp::Mod if b != 0 => Value::Int(a.wrapping_rem(b)),
        BinOp::Eq => Value::Bool(a == b),
        BinOp::Ne => Value::Bool(a != b),
        BinOp::Lt => Value::Bool(a < b),
        BinOp::Le => Value::Bool(a <= b),
        BinOp::Gt => Value::Bool(a > b),
        BinOp::Ge => Value::Bool(a >= b),
        _ => return None,
    })
}

/// The quickened `self.<attr>` read: validated position hint first, full
/// search (refreshing the hint) on miss.
#[inline(always)]
fn load_attr<'s>(
    state: &'s EntityState,
    sym: Symbol,
    hint: &CacheCell,
    quicken: bool,
) -> Result<&'s Value, LangError> {
    let v = if quicken {
        let (v, h) = state.get_hinted(sym, hint.load());
        hint.store(h);
        v
    } else {
        state.get(sym)
    };
    v.ok_or_else(|| LangError::UndefinedAttribute(sym.to_string()))
}

/// The quickened `self.<attr> = …` write: errors (without modifying the
/// map) if the attribute was never declared, exactly like the unquickened
/// contains-then-insert sequence.
#[inline(always)]
fn store_attr(
    state: &mut EntityState,
    sym: Symbol,
    v: Value,
    hint: &CacheCell,
    quicken: bool,
) -> Result<(), LangError> {
    if quicken {
        match state.set_existing_hinted(sym, v, hint.load()) {
            Some(h) => {
                hint.store(h);
                Ok(())
            }
            None => Err(LangError::UndefinedAttribute(sym.to_string())),
        }
    } else {
        if !state.contains_key(sym) {
            return Err(LangError::UndefinedAttribute(sym.to_string()));
        }
        state.insert(sym, v);
        Ok(())
    }
}

/// One `for`-loop step: the element at the counter plus the bumped counter,
/// or `None` when exhausted. A counter outside `0..=len` (only reachable if
/// an optimized body ever aliased the counter register — never by emitted
/// code) raises the interpreter's list-index error instead of wrapping
/// through `as usize`.
#[inline(always)]
fn iter_step(
    regs: &[Option<Value>],
    method: &VmMethod,
    list: Reg,
    idx: Reg,
) -> Result<Option<(Value, i64)>, LangError> {
    let i = read(regs, method, idx)?.as_int()?;
    match read(regs, method, list)? {
        Value::List(items) => {
            let len = items.len() as i64;
            if !(0..=len).contains(&i) {
                return Err(LangError::runtime(format!(
                    "list index {i} out of range (len {len})"
                )));
            }
            Ok(items.get(i as usize).cloned().map(|v| (v, i + 1)))
        }
        other => Err(LangError::type_mismatch("list", other.type_name())),
    }
}

/// Reads register `r`, raising `UndefinedVariable` for unset locals.
///
/// Force-inlined with the error construction kept out of line ([`unset`] is
/// `#[cold]`): the happy path compiles to a load plus a niche check, and the
/// dispatch loop never materializes the wide `Result<_, LangError>`.
#[inline(always)]
fn read<'r>(regs: &'r [Option<Value>], method: &VmMethod, r: Reg) -> Result<&'r Value, LangError> {
    match regs[r as usize].as_ref() {
        Some(v) => Ok(v),
        None => Err(unset(method, r)),
    }
}

/// Moves register `r` out, raising `UndefinedVariable` for unset locals.
#[inline(always)]
fn take(regs: &mut [Option<Value>], method: &VmMethod, r: Reg) -> Result<Value, LangError> {
    match regs[r as usize].take() {
        Some(v) => Ok(v),
        None => Err(unset(method, r)),
    }
}

#[cold]
#[inline(never)]
fn unset(method: &VmMethod, r: Reg) -> LangError {
    match method.locals.get(r as usize) {
        Some(name) => LangError::UndefinedVariable(name.to_string()),
        // Temporaries are written before they are read by construction; an
        // unset temp is a lowering bug surfaced as a runtime error.
        None => LangError::runtime(format!("vm: read of unset temporary register r{r}")),
    }
}

/// Dynamic op-pair frequency profile (see [`Vm::run_profiled`]): counts
/// every executed `(previous, current)` opcode pair, the data the
/// superinstruction selection in `crate::lower` is derived from.
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct OpPairProfile {
    counts: std::collections::HashMap<(&'static str, &'static str), u64>,
    prev: Option<&'static str>,
}

impl OpPairProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn record(&mut self, op: &Op) {
        let name = opname(op);
        if let Some(p) = self.prev {
            *self.counts.entry((p, name)).or_insert(0) += 1;
        }
        self.prev = Some(name);
    }

    /// All observed pairs, most frequent first.
    pub fn pairs_by_count(&self) -> Vec<((&'static str, &'static str), u64)> {
        let mut v: Vec<_> = self.counts.iter().map(|(k, c)| (*k, *c)).collect();
        v.sort_by_key(|(pair, c)| (std::cmp::Reverse(*c), *pair));
        v
    }
}

/// Stable opcode mnemonic for profiling output.
fn opname(op: &Op) -> &'static str {
    match op {
        Op::Const { .. } => "Const",
        Op::Bool { .. } => "Bool",
        Op::Move { .. } => "Move",
        Op::Defined { .. } => "Defined",
        Op::LoadAttr { .. } => "LoadAttr",
        Op::StoreAttr { .. } => "StoreAttr",
        Op::Binary { .. } => "Binary",
        Op::Unary { .. } => "Unary",
        Op::Truthy { .. } => "Truthy",
        Op::CallBuiltin { .. } => "CallBuiltin",
        Op::Index { .. } => "Index",
        Op::MakeList { .. } => "MakeList",
        Op::Jump { .. } => "Jump",
        Op::JumpIfTrue { .. } => "JumpIfTrue",
        Op::JumpIfFalse { .. } => "JumpIfFalse",
        Op::IterInit { .. } => "IterInit",
        Op::IterNext { .. } => "IterNext",
        Op::LoadAttrBinary { .. } => "LoadAttrBinary",
        Op::BinaryStoreAttr { .. } => "BinaryStoreAttr",
        Op::BinaryBinary { .. } => "BinaryBinary",
        Op::ConstBinary { .. } => "ConstBinary",
        Op::BinaryJumpIfFalse { .. } => "BinaryJumpIfFalse",
        Op::BinaryBranch { .. } => "BinaryBranch",
        Op::ConstBinaryBranch { .. } => "ConstBinaryBranch",
        Op::IterNextJump { .. } => "IterNextJump",
        Op::EnsureRef { .. } => "EnsureRef",
        Op::Return { .. } => "Return",
        Op::Suspend { .. } => "Suspend",
    }
}
