//! The dispatch loop: executes lowered method bodies against entity state.
//!
//! The VM is a drop-in [`se_ir::BodyRunner`] body executor: it consumes the
//! same activations the event protocol builds, produces the same
//! [`BodyOutcome`]s, raises the same [`LangError`]s at the same program
//! points, and materializes the same pruned continuation environments at
//! suspension — the differential proptest suite in `tests/differential.rs`
//! pins all of that against the tree-walking interpreter.
//!
//! Every operator result comes from the interpreter's own evaluators
//! ([`eval_binop`], [`eval_unary`], [`eval_builtin_drain`], [`eval_index`]),
//! so the language's value semantics live in one place (`se_lang::interp`).
//! What the VM adds is the cheap part around them: operands come from
//! register slots instead of environment maps, and the loop keeps the step
//! budget and `pc` in true locals rather than going through `self` per
//! instruction.
//!
//! One deliberate exception to equivalence: the **step budget** meters
//! different units (the interpreter ticks per statement/expression, the VM
//! per instruction), so a runaway loop trips
//! [`LangError::StepBudgetExhausted`] on both backends but not after the
//! identical number of iterations. Programs that finish within budget —
//! everything the differential suite generates and any realistic method
//! body — behave identically.

use se_ir::{Activation, BodyOutcome};
use se_lang::interp::{
    eval_binop, eval_builtin_drain, eval_index, eval_unary, DEFAULT_STEP_BUDGET,
};
use se_lang::{EntityState, Env, LangError, Symbol, Value};

use crate::op::{Op, Reg};
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
        }
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
        // Register files are pooled per thread: tiny method bodies (one
        // attribute read, one resume step) are the common case on the hot
        // path, so the per-activation allocation would dominate them.
        let mut regs = REG_POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default();
        regs.resize(method.nregs as usize, None);
        let result = self.run_inner(class, method, activation, state, &mut regs);
        regs.clear();
        REG_POOL.with(|p| p.borrow_mut().push(regs));
        result
    }

    fn run_inner(
        &mut self,
        class: &VmClass,
        method: &VmMethod,
        activation: Activation,
        state: &mut EntityState,
        regs: &mut [Option<Value>],
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
        let Vm { budget, scratch } = self;
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
                Op::LoadAttr { dst, name } => {
                    let sym = class.pool.name(*name);
                    let v = tri!('run, load_attr(state, sym)).clone();
                    regs[*dst as usize] = Some(v);
                }
                Op::StoreAttr { name, src } => {
                    let sym = class.pool.name(*name);
                    let v = tri!('run, read(regs, method, *src)).clone();
                    tri!('run, store_attr(state, sym, v));
                }
                Op::Binary { op, dst, lhs, rhs } => {
                    let l = tri!('run, read(regs, method, *lhs)).clone();
                    let r = tri!('run, read(regs, method, *rhs)).clone();
                    regs[*dst as usize] = Some(tri!('run, eval_binop(*op, l, r)));
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

/// A `self.<attr>` read; errors if the attribute was never declared.
#[inline(always)]
fn load_attr(state: &EntityState, sym: Symbol) -> Result<&Value, LangError> {
    state
        .get(sym)
        .ok_or_else(|| LangError::UndefinedAttribute(sym.to_string()))
}

/// A `self.<attr> = …` write: errors (without modifying the map) if the
/// attribute was never declared.
#[inline(always)]
fn store_attr(state: &mut EntityState, sym: Symbol, v: Value) -> Result<(), LangError> {
    match state.get_mut(sym) {
        Some(slot) => {
            *slot = v;
            Ok(())
        }
        None => Err(LangError::UndefinedAttribute(sym.to_string())),
    }
}

/// One `for`-loop step: the element at the counter plus the bumped counter,
/// or `None` when exhausted. A counter outside `0..=len` (only reachable by
/// hand-assembled code — emitted loops never alias the counter register)
/// raises the interpreter's list-index error instead of wrapping through
/// `as usize`.
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
