//! Lowering split-function CFGs ([`CompiledMethod`]) to register bytecode.
//!
//! The pass is semantics-preserving down to error identity: evaluation
//! order, short-circuiting, type errors, undefined-variable errors and the
//! pruned suspension environments all match the tree-walking interpreter.
//! Two analyses make the output fast without breaking that contract:
//!
//! * **register allocation** — every distinct local name gets a dedicated
//!   register, so reads and writes are array indexing instead of map
//!   operations; expression temporaries stack above the locals;
//! * **must-definedness** — a forward dataflow fixpoint over the CFG
//!   (seeded from method parameters at entry and from the pruned live-in
//!   environment at resume edges) proves which variables are always set at
//!   each read. Proven reads use the register directly; unproven reads emit
//!   an [`Op::Defined`] check at exactly the program point where the
//!   interpreter would raise `UndefinedVariable`.
//!
//! On top of the straight lowering sits an optimization pipeline (always on
//! in deployments; [`VmOpts::none`] turns it off for the lockstep tests),
//! still bound by the same error-identity contract:
//!
//! 1. **constant folding** — literal-only subexpressions are evaluated at
//!    lowering time with the *interpreter's own* evaluation functions; any
//!    subexpression whose evaluation would error is left unfolded so the
//!    error still happens at runtime, in the original order;
//! 2. **dead-write elimination** — `Const`/`Bool`/`Move` writes to
//!    never-read temporaries (e.g. from expression statements) are dropped;
//!    a `Move` from a local keeps its `UndefinedVariable` check as an
//!    [`Op::Defined`];
//! 3. **superinstruction fusion** — adjacent pairs communicating through a
//!    temporary that a backward liveness fixpoint proves dead after the
//!    pair fuse into one opcode ([`Op::ConstBinary`],
//!    [`Op::LoadAttrBinary`], [`Op::BinaryStoreAttr`],
//!    [`Op::BinaryJumpIfFalse`]); `Jump`s to their own fallthrough (the
//!    residue of branch lowering, once the conditional fused) are dropped;
//!    and every back-edge `Jump` to an [`Op::IterNext`] becomes an
//!    [`Op::IterNextJump`]. Pairs are chosen from an op-pair profile of the
//!    benchmark workloads (see `tests/profile_pairs.rs`), not by guess.

use std::collections::{BTreeSet, HashMap};

use se_ir::{Block, BlockId, CompiledMethod, Terminator};
use se_lang::interp::{eval_binop, eval_builtin, eval_index, eval_unary};
use se_lang::{BinOp, Builtin, Expr, LangError, Stmt, Symbol, Value};

use crate::op::{CacheCell, CodeIdx, ConstPool, Op, Reg, SuspendSpec};
use crate::program::VmMethod;

/// Which lowering-time optimizations to apply. The default (and
/// [`VmOpts::all`]) enables everything and is what every deployment runs;
/// [`VmOpts::none`] is a test constructor making the emitted bytecode
/// identical to the unoptimized lowering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmOpts {
    /// Evaluate literal-only subexpressions at lowering time.
    pub fold: bool,
    /// Dead-write elimination + superinstruction fusion.
    pub fuse: bool,
    /// Quicken attribute ops with inline position caches at runtime.
    pub quicken: bool,
}

impl VmOpts {
    /// Every optimization on (the default).
    pub fn all() -> VmOpts {
        VmOpts {
            fold: true,
            fuse: true,
            quicken: true,
        }
    }

    /// Every optimization off: bytecode identical to the plain lowering.
    pub fn none() -> VmOpts {
        VmOpts {
            fold: false,
            fuse: false,
            quicken: false,
        }
    }
}

impl Default for VmOpts {
    fn default() -> Self {
        VmOpts::all()
    }
}

/// Accumulates one class's constant pool while its methods are lowered.
#[derive(Debug, Default)]
pub struct PoolBuilder {
    values: Vec<Value>,
    names: Vec<Symbol>,
    name_idx: HashMap<Symbol, u16>,
}

impl PoolBuilder {
    /// Interns a literal value, returning its pool index.
    fn value_idx(&mut self, v: &Value) -> Result<u16, LangError> {
        if let Some(i) = self.values.iter().position(|x| x == v) {
            return Ok(i as u16);
        }
        let i = self.values.len();
        if i > u16::MAX as usize {
            return Err(LangError::analysis("vm: constant pool overflow"));
        }
        self.values.push(v.clone());
        Ok(i as u16)
    }

    /// Interns a name, returning its pool index.
    fn name_of(&mut self, s: Symbol) -> Result<u16, LangError> {
        if let Some(&i) = self.name_idx.get(&s) {
            return Ok(i);
        }
        let i = self.names.len();
        if i > u16::MAX as usize {
            return Err(LangError::analysis("vm: name pool overflow"));
        }
        self.names.push(s);
        self.name_idx.insert(s, i as u16);
        Ok(i as u16)
    }

    /// Finalizes the pool.
    pub fn finish(self) -> ConstPool {
        ConstPool {
            values: self.values,
            names: self.names,
        }
    }
}

/// Lowers one split method to bytecode against the class pool, with every
/// optimization enabled (see [`lower_method_with`]).
pub fn lower_method(pool: &mut PoolBuilder, m: &CompiledMethod) -> Result<VmMethod, LangError> {
    lower_method_with(pool, m, VmOpts::all())
}

/// Lowers one split method to bytecode against the class pool, applying the
/// optimization passes selected by `opts`.
pub fn lower_method_with(
    pool: &mut PoolBuilder,
    m: &CompiledMethod,
    opts: VmOpts,
) -> Result<VmMethod, LangError> {
    let (locals, local_index) = collect_locals(m);
    if locals.len() >= u16::MAX as usize / 2 {
        return Err(LangError::analysis("vm: too many locals"));
    }
    let defined_in = definedness(m);

    let mut lw = Lowerer {
        pool,
        method: m,
        code: Vec::new(),
        local_index: &local_index,
        next_temp: locals.len() as Reg,
        max_reg: locals.len() as Reg,
        block_patches: Vec::new(),
        fold: opts.fold,
    };
    let mut block_entry = vec![0 as CodeIdx; m.blocks.len()];
    for (i, block) in m.blocks.iter().enumerate() {
        block_entry[i] = lw.here();
        // Unreachable blocks have no dataflow facts; lower them with an
        // empty set (all reads checked) — they never execute anyway.
        let mut defined = defined_in[i].clone().unwrap_or_default();
        lw.lower_block(block, &mut defined)?;
    }
    let nregs = lw.max_reg;
    let mut code = lw.code;
    for (pos, target) in lw.block_patches {
        patch(&mut code, pos, block_entry[target.0 as usize]);
    }
    if opts.fuse {
        let nlocals = locals.len() as Reg;
        eliminate_dead_temp_writes(&mut code, &mut block_entry, nlocals);
        fuse_pairs(&mut code, &mut block_entry, nlocals, nregs);
        drop_fallthrough_jumps(&mut code, &mut block_entry);
        fuse_backedges(&mut code);
        fuse_counter_branches(&mut code, &mut block_entry);
    }
    let mut sorted_index: Vec<(Symbol, Reg)> = local_index.into_iter().collect();
    sorted_index.sort_unstable_by_key(|(s, _)| *s);
    Ok(VmMethod {
        name: m.name,
        code,
        block_entry,
        entry: m.entry,
        locals,
        local_index: sorted_index,
        // `locals` starts with the parameters, and its length fits u16.
        nparams: m.params.len() as u16,
        nregs,
    })
}

/// Collects every local name the method can touch, in deterministic
/// (appearance) order: parameters, then per block its live-in params,
/// assignment targets, loop variables, referenced variables and result
/// bindings.
fn collect_locals(m: &CompiledMethod) -> (Vec<Symbol>, HashMap<Symbol, Reg>) {
    let mut names = Vec::new();
    let mut index: HashMap<Symbol, Reg> = HashMap::new();
    let mut add = |s: Symbol, names: &mut Vec<Symbol>, index: &mut HashMap<Symbol, Reg>| {
        if let std::collections::hash_map::Entry::Vacant(e) = index.entry(s) {
            e.insert(names.len() as Reg);
            names.push(s);
        }
    };
    for (p, _) in &m.params {
        add(*p, &mut names, &mut index);
    }
    let mut add_expr = |e: &Expr, names: &mut Vec<Symbol>, index: &mut HashMap<Symbol, Reg>| {
        e.visit(&mut |sub| {
            if let Expr::Var(v) = sub {
                if !index.contains_key(v) {
                    index.insert(*v, names.len() as Reg);
                    names.push(*v);
                }
            }
        });
    };
    fn walk_stmts(
        stmts: &[Stmt],
        names: &mut Vec<Symbol>,
        index: &mut HashMap<Symbol, Reg>,
        add: &mut impl FnMut(Symbol, &mut Vec<Symbol>, &mut HashMap<Symbol, Reg>),
        add_expr: &mut impl FnMut(&Expr, &mut Vec<Symbol>, &mut HashMap<Symbol, Reg>),
    ) {
        for s in stmts {
            match s {
                Stmt::Assign { name, value, .. } => {
                    add_expr(value, names, index);
                    add(*name, names, index);
                }
                Stmt::AttrAssign { value, .. } => add_expr(value, names, index),
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    add_expr(cond, names, index);
                    walk_stmts(then_body, names, index, add, add_expr);
                    walk_stmts(else_body, names, index, add, add_expr);
                }
                Stmt::While { cond, body } => {
                    add_expr(cond, names, index);
                    walk_stmts(body, names, index, add, add_expr);
                }
                Stmt::ForList {
                    var,
                    iterable,
                    body,
                } => {
                    add_expr(iterable, names, index);
                    add(*var, names, index);
                    walk_stmts(body, names, index, add, add_expr);
                }
                Stmt::Return(e) | Stmt::Expr(e) => add_expr(e, names, index),
            }
        }
    }
    for block in &m.blocks {
        for p in &block.params {
            add(*p, &mut names, &mut index);
        }
        walk_stmts(
            &block.stmts,
            &mut names,
            &mut index,
            &mut add,
            &mut add_expr,
        );
        match &block.terminator {
            Terminator::Return(e) => add_expr(e, &mut names, &mut index),
            Terminator::Jump(_) => {}
            Terminator::Branch { cond, .. } => add_expr(cond, &mut names, &mut index),
            Terminator::RemoteCall {
                target,
                args,
                result_var,
                ..
            } => {
                add_expr(target, &mut names, &mut index);
                for a in args {
                    add_expr(a, &mut names, &mut index);
                }
                if let Some(r) = result_var {
                    add(*r, &mut names, &mut index);
                }
            }
        }
    }
    (names, index)
}

/// Forward must-definedness over the CFG. `None` means "no entry reaches
/// this block" (⊤); otherwise the set of variables guaranteed set when the
/// block is entered.
fn definedness(m: &CompiledMethod) -> Vec<Option<BTreeSet<Symbol>>> {
    let n = m.blocks.len();
    let mut defined_in: Vec<Option<BTreeSet<Symbol>>> = vec![None; n];

    fn meet(slot: &mut Option<BTreeSet<Symbol>>, facts: BTreeSet<Symbol>) -> bool {
        match slot {
            None => {
                *slot = Some(facts);
                true
            }
            Some(cur) => {
                let before = cur.len();
                cur.retain(|s| facts.contains(s));
                cur.len() != before
            }
        }
    }

    // A block's straight-line prefix always executes, so its top-level
    // assignments are must-defs for every outgoing edge. (Assignments inside
    // nested control flow are conditional; an early `Return` never reaches
    // the terminator, so over-approximating past it is sound.)
    let block_defs: Vec<BTreeSet<Symbol>> = m
        .blocks
        .iter()
        .map(|b| {
            b.stmts
                .iter()
                .filter_map(|s| match s {
                    Stmt::Assign { name, .. } => Some(*name),
                    _ => None,
                })
                .collect()
        })
        .collect();

    let start_facts: BTreeSet<Symbol> = m.params.iter().map(|(p, _)| *p).collect();
    let mut changed = meet(&mut defined_in[m.entry.0 as usize], start_facts);
    while changed {
        changed = false;
        for (i, block) in m.blocks.iter().enumerate() {
            let Some(din) = &defined_in[i] else { continue };
            let mut dout = din.clone();
            dout.extend(&block_defs[i]);
            match &block.terminator {
                Terminator::Return(_) => {}
                Terminator::Jump(s) => {
                    changed |= meet(&mut defined_in[s.0 as usize], dout);
                }
                Terminator::Branch {
                    then_blk, else_blk, ..
                } => {
                    changed |= meet(&mut defined_in[then_blk.0 as usize], dout.clone());
                    changed |= meet(&mut defined_in[else_blk.0 as usize], dout);
                }
                Terminator::RemoteCall {
                    result_var, resume, ..
                } => {
                    // The resume edge enters with the *pruned* environment:
                    // live-ins that were defined at suspension, plus the
                    // bound result.
                    let live = &m.block(*resume).params;
                    let mut facts: BTreeSet<Symbol> =
                        dout.iter().copied().filter(|s| live.contains(s)).collect();
                    if let Some(r) = result_var {
                        facts.insert(*r);
                    }
                    changed |= meet(&mut defined_in[resume.0 as usize], facts);
                }
            }
        }
    }
    defined_in
}

struct Lowerer<'p> {
    pool: &'p mut PoolBuilder,
    method: &'p CompiledMethod,
    code: Vec<Op>,
    local_index: &'p HashMap<Symbol, Reg>,
    next_temp: Reg,
    max_reg: Reg,
    /// Jump instructions whose target is a block entry, patched last.
    block_patches: Vec<(usize, BlockId)>,
    /// Apply lowering-time constant folding (see [`fold_expr`]).
    fold: bool,
}

/// Rewrites the jump target of the instruction at `pos`.
fn patch(code: &mut [Op], pos: usize, target: CodeIdx) {
    match &mut code[pos] {
        Op::Jump { to }
        | Op::JumpIfTrue { to, .. }
        | Op::JumpIfFalse { to, .. }
        | Op::IterNext { end: to, .. } => *to = target,
        other => unreachable!("patching non-jump op {other:?}"),
    }
}

impl Lowerer<'_> {
    fn here(&self) -> CodeIdx {
        self.code.len() as CodeIdx
    }

    fn local(&self, s: Symbol) -> Reg {
        self.local_index[&s]
    }

    fn push_temp(&mut self) -> Result<Reg, LangError> {
        let r = self.next_temp;
        self.next_temp = self
            .next_temp
            .checked_add(1)
            .ok_or_else(|| LangError::analysis("vm: register file overflow"))?;
        self.max_reg = self.max_reg.max(self.next_temp);
        Ok(r)
    }

    /// Allocates a contiguous window of `n` temporaries.
    fn push_window(&mut self, n: usize) -> Result<Reg, LangError> {
        let start = self.next_temp;
        let end = (start as usize)
            .checked_add(n)
            .filter(|e| *e <= u16::MAX as usize)
            .ok_or_else(|| LangError::analysis("vm: register file overflow"))?
            as Reg;
        self.next_temp = end;
        self.max_reg = self.max_reg.max(end);
        Ok(start)
    }

    fn lower_block(
        &mut self,
        block: &Block,
        defined: &mut BTreeSet<Symbol>,
    ) -> Result<(), LangError> {
        self.lower_stmts(&block.stmts, defined)?;
        let saved = self.next_temp;
        match &block.terminator {
            Terminator::Return(e) => {
                let r = self.operand(e, defined)?;
                self.code.push(Op::Return { src: r });
            }
            Terminator::Jump(b) => {
                self.block_patches.push((self.code.len(), *b));
                self.code.push(Op::Jump { to: 0 });
            }
            Terminator::Branch {
                cond,
                then_blk,
                else_blk,
            } => {
                let c = self.operand(cond, defined)?;
                self.block_patches.push((self.code.len(), *else_blk));
                self.code.push(Op::JumpIfFalse { cond: c, to: 0 });
                self.block_patches.push((self.code.len(), *then_blk));
                self.code.push(Op::Jump { to: 0 });
            }
            Terminator::RemoteCall {
                target,
                method,
                args,
                result_var,
                resume,
            } => {
                // The interpreter validates the callee reference *before*
                // evaluating arguments; mirror that order.
                let t = self.operand(target, defined)?;
                self.code.push(Op::EnsureRef { src: t });
                let argc = u8::try_from(args.len())
                    .map_err(|_| LangError::analysis("vm: too many call arguments"))?;
                let start = self.push_window(args.len())?;
                for (k, a) in args.iter().enumerate() {
                    let saved_arg = self.next_temp;
                    self.lower_into(start + k as Reg, a, defined)?;
                    self.next_temp = saved_arg;
                }
                let save: Vec<(Symbol, Reg)> = self
                    .method
                    .block(*resume)
                    .params
                    .iter()
                    .map(|p| (*p, self.local(*p)))
                    .collect();
                self.code.push(Op::Suspend {
                    target: t,
                    spec: Box::new(SuspendSpec {
                        method: *method,
                        args_start: start,
                        argc,
                        result_var: *result_var,
                        resume: *resume,
                        save,
                    }),
                });
            }
        }
        self.next_temp = saved;
        Ok(())
    }

    fn lower_stmts(
        &mut self,
        stmts: &[Stmt],
        defined: &mut BTreeSet<Symbol>,
    ) -> Result<(), LangError> {
        for s in stmts {
            let saved = self.next_temp;
            self.lower_stmt(s, defined)?;
            self.next_temp = saved;
        }
        Ok(())
    }

    fn lower_stmt(&mut self, stmt: &Stmt, defined: &mut BTreeSet<Symbol>) -> Result<(), LangError> {
        match stmt {
            Stmt::Assign { name, value, .. } => {
                let dst = self.local(*name);
                self.lower_into(dst, value, defined)?;
                defined.insert(*name);
            }
            Stmt::AttrAssign { attr, value } => {
                let src = self.operand(value, defined)?;
                let name = self.pool.name_of(*attr)?;
                self.code.push(Op::StoreAttr {
                    name,
                    src,
                    hint: CacheCell::new(),
                });
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.operand(cond, defined)?;
                let jf = self.code.len();
                self.code.push(Op::JumpIfFalse { cond: c, to: 0 });
                let mut d_then = defined.clone();
                self.lower_stmts(then_body, &mut d_then)?;
                let jend = self.code.len();
                self.code.push(Op::Jump { to: 0 });
                let else_at = self.here();
                patch(&mut self.code, jf, else_at);
                let mut d_else = defined.clone();
                self.lower_stmts(else_body, &mut d_else)?;
                let end_at = self.here();
                patch(&mut self.code, jend, end_at);
                // Only facts established on *both* arms survive the join.
                *defined = &d_then & &d_else;
            }
            Stmt::While { cond, body } => {
                let head = self.here();
                let c = self.operand(cond, defined)?;
                let jf = self.code.len();
                self.code.push(Op::JumpIfFalse { cond: c, to: 0 });
                // Body facts don't survive (zero iterations possible), and
                // the condition only relies on pre-loop facts — sound, since
                // definedness is monotone across iterations.
                let mut d_body = defined.clone();
                self.lower_stmts(body, &mut d_body)?;
                self.code.push(Op::Jump { to: head });
                let end_at = self.here();
                patch(&mut self.code, jf, end_at);
            }
            Stmt::ForList {
                var,
                iterable,
                body,
            } => {
                // The list is materialized once into a dedicated temp (the
                // interpreter also iterates the evaluated value, immune to
                // reassignment of the source variable inside the body).
                let list = self.push_temp()?;
                {
                    let saved = self.next_temp;
                    self.lower_into(list, iterable, defined)?;
                    self.next_temp = saved;
                }
                let idx = self.push_temp()?;
                self.code.push(Op::IterInit { list, idx });
                let head = self.here();
                let next_at = self.code.len();
                self.code.push(Op::IterNext {
                    list,
                    idx,
                    dst: self.local(*var),
                    end: 0,
                });
                let mut d_body = defined.clone();
                d_body.insert(*var);
                self.lower_stmts(body, &mut d_body)?;
                self.code.push(Op::Jump { to: head });
                let end_at = self.here();
                patch(&mut self.code, next_at, end_at);
            }
            Stmt::Return(e) => {
                let r = self.operand(e, defined)?;
                self.code.push(Op::Return { src: r });
            }
            Stmt::Expr(e) => {
                // Evaluated for effect only; the sole observable effects of
                // a call-free expression are errors, which `operand`'s
                // lowering preserves.
                self.operand(e, defined)?;
            }
        }
        Ok(())
    }

    /// Lowers `e` and returns the register holding its value: the local's
    /// own register for a variable read (checked only when definedness is
    /// unproven), a fresh temporary otherwise.
    fn operand(&mut self, e: &Expr, defined: &BTreeSet<Symbol>) -> Result<Reg, LangError> {
        match e {
            Expr::Var(n) => {
                let r = self.local(*n);
                if !defined.contains(n) {
                    self.code.push(Op::Defined { src: r });
                }
                Ok(r)
            }
            _ => {
                let t = self.push_temp()?;
                self.lower_into(t, e, defined)?;
                Ok(t)
            }
        }
    }

    /// Lowers `e`, leaving its value in `dst`.
    fn lower_into(
        &mut self,
        dst: Reg,
        e: &Expr,
        defined: &BTreeSet<Symbol>,
    ) -> Result<(), LangError> {
        // Literal-only subexpressions evaluate at lowering time; `fold_expr`
        // declines (returns `None`) whenever evaluation would error, so the
        // runtime raises the identical error in the identical place.
        if self.fold && !matches!(e, Expr::Lit(_)) {
            if let Some(v) = fold_expr(e) {
                let idx = self.pool.value_idx(&v)?;
                self.code.push(Op::Const { dst, idx });
                return Ok(());
            }
        }
        match e {
            Expr::Lit(v) => {
                let idx = self.pool.value_idx(v)?;
                self.code.push(Op::Const { dst, idx });
            }
            Expr::Var(n) => {
                let src = self.local(*n);
                self.code.push(Op::Move { dst, src });
            }
            Expr::Attr(n) => {
                let name = self.pool.name_of(*n)?;
                self.code.push(Op::LoadAttr {
                    dst,
                    name,
                    hint: CacheCell::new(),
                });
            }
            Expr::Binary(op, l, r) if op.is_logical() => {
                self.lower_logical(dst, *op, l, r, defined)?;
            }
            Expr::Binary(op, l, r) => {
                let lhs = self.operand(l, defined)?;
                let rhs = self.operand(r, defined)?;
                self.code.push(Op::Binary {
                    op: *op,
                    dst,
                    lhs,
                    rhs,
                });
            }
            Expr::Unary(op, x) => {
                let src = self.operand(x, defined)?;
                self.code.push(Op::Unary { op: *op, dst, src });
            }
            Expr::Builtin(b, args) => {
                let argc = u8::try_from(args.len())
                    .map_err(|_| LangError::analysis("vm: too many builtin arguments"))?;
                let start = self.push_window(args.len())?;
                for (k, a) in args.iter().enumerate() {
                    let saved = self.next_temp;
                    self.lower_into(start + k as Reg, a, defined)?;
                    self.next_temp = saved;
                }
                self.code.push(Op::CallBuiltin {
                    f: *b,
                    dst,
                    start,
                    argc,
                });
            }
            Expr::Index(base, idx) => {
                let b = self.operand(base, defined)?;
                let i = self.operand(idx, defined)?;
                self.code.push(Op::Index {
                    dst,
                    base: b,
                    idx: i,
                });
            }
            Expr::ListLit(items) => {
                let count = u16::try_from(items.len())
                    .map_err(|_| LangError::analysis("vm: list literal too long"))?;
                let start = self.push_window(items.len())?;
                for (k, it) in items.iter().enumerate() {
                    let saved = self.next_temp;
                    self.lower_into(start + k as Reg, it, defined)?;
                    self.next_temp = saved;
                }
                self.code.push(Op::MakeList { dst, start, count });
            }
            Expr::Call(c) => {
                // Split blocks carry remote calls only in terminators; a
                // call in a body is an invalid split. Refusing to lower it
                // routes the method to the interpreter, which reports the
                // violation at runtime.
                return Err(LangError::analysis(format!(
                    "vm: remote call {}() inside a block body",
                    c.method
                )));
            }
        }
        Ok(())
    }

    /// Short-circuit lowering of `and` / `or`; both produce a `Bool` result
    /// exactly like the interpreter.
    fn lower_logical(
        &mut self,
        dst: Reg,
        op: se_lang::BinOp,
        l: &Expr,
        r: &Expr,
        defined: &BTreeSet<Symbol>,
    ) -> Result<(), LangError> {
        let lhs = self.operand(l, defined)?;
        let jump_rhs = self.code.len();
        let short_val = match op {
            se_lang::BinOp::And => {
                self.code.push(Op::JumpIfTrue { cond: lhs, to: 0 });
                false
            }
            se_lang::BinOp::Or => {
                self.code.push(Op::JumpIfFalse { cond: lhs, to: 0 });
                true
            }
            other => unreachable!("non-logical op {other:?} in lower_logical"),
        };
        self.code.push(Op::Bool {
            dst,
            val: short_val,
        });
        let jend = self.code.len();
        self.code.push(Op::Jump { to: 0 });
        let rhs_at = self.here();
        patch(&mut self.code, jump_rhs, rhs_at);
        let rhs = self.operand(r, defined)?;
        self.code.push(Op::Truthy { dst, src: rhs });
        let end_at = self.here();
        patch(&mut self.code, jend, end_at);
        Ok(())
    }
}

/// Evaluates a literal-only expression at lowering time, using the
/// interpreter's own evaluation functions so the folded value is exactly
/// what the runtime would compute.
///
/// Returns `None` for anything that cannot or must not fold: expressions
/// reading variables/attributes (their errors and values depend on runtime
/// state), evaluations that error (the runtime must raise them, in order),
/// and `zeros(n)` (its result is `n` bytes — folding it would balloon the
/// constant pool or OOM the compiler on a hostile literal).
fn fold_expr(e: &Expr) -> Option<Value> {
    match e {
        Expr::Lit(v) => Some(v.clone()),
        Expr::Unary(op, x) => eval_unary(*op, fold_expr(x)?).ok(),
        Expr::Binary(op, l, r) if op.is_logical() => {
            // Mirror short-circuiting: a folded falsy `and` lhs (or truthy
            // `or` lhs) decides the result without touching the rhs.
            let lv = fold_expr(l)?;
            match (op, lv.truthy()) {
                (BinOp::And, false) => Some(Value::Bool(false)),
                (BinOp::Or, true) => Some(Value::Bool(true)),
                _ => Some(Value::Bool(fold_expr(r)?.truthy())),
            }
        }
        Expr::Binary(op, l, r) => eval_binop(*op, fold_expr(l)?, fold_expr(r)?).ok(),
        Expr::Builtin(b, args) if !matches!(b, Builtin::Zeros) => {
            let vals: Option<Vec<Value>> = args.iter().map(fold_expr).collect();
            eval_builtin(*b, vals?).ok()
        }
        Expr::Index(base, idx) => eval_index(&fold_expr(base)?, &fold_expr(idx)?).ok(),
        Expr::ListLit(items) => {
            let vals: Option<Vec<Value>> = items.iter().map(fold_expr).collect();
            Some(Value::List(vals?))
        }
        _ => None,
    }
}

/// Invokes `f` once per register `op` reads (window reads expanded).
fn for_each_read(op: &Op, f: &mut impl FnMut(Reg)) {
    match op {
        Op::Const { .. } | Op::Bool { .. } | Op::LoadAttr { .. } | Op::Jump { .. } => {}
        Op::Move { src, .. }
        | Op::Defined { src }
        | Op::Unary { src, .. }
        | Op::Truthy { src, .. }
        | Op::StoreAttr { src, .. }
        | Op::EnsureRef { src }
        | Op::Return { src } => f(*src),
        Op::Binary { lhs, rhs, .. }
        | Op::BinaryStoreAttr { lhs, rhs, .. }
        | Op::BinaryJumpIfFalse { lhs, rhs, .. }
        | Op::BinaryBranch { lhs, rhs, .. } => {
            f(*lhs);
            f(*rhs);
        }
        // The branch half's left operand is this op's own freshly written
        // `dst`, not a live-in read.
        Op::ConstBinaryBranch { lhs, rhs, .. } => {
            f(*lhs);
            f(*rhs);
        }
        Op::BinaryBinary {
            lhs1,
            rhs1,
            lhs2,
            rhs2,
            ..
        } => {
            f(*lhs1);
            f(*rhs1);
            f(*lhs2);
            f(*rhs2);
        }
        Op::LoadAttrBinary { rhs, .. } => f(*rhs),
        Op::ConstBinary { lhs, .. } => f(*lhs),
        Op::CallBuiltin { start, argc, .. } => {
            for k in 0..*argc as Reg {
                f(*start + k);
            }
        }
        Op::Index { base, idx, .. } => {
            f(*base);
            f(*idx);
        }
        Op::MakeList { start, count, .. } => {
            for k in 0..*count {
                f(*start + k);
            }
        }
        Op::JumpIfTrue { cond, .. } | Op::JumpIfFalse { cond, .. } => f(*cond),
        Op::IterInit { list, .. } => f(*list),
        Op::IterNext { list, idx, .. } | Op::IterNextJump { list, idx, .. } => {
            f(*list);
            f(*idx);
        }
        Op::Suspend { target, spec } => {
            f(*target);
            for k in 0..spec.argc as Reg {
                f(spec.args_start + k);
            }
            for (_, r) in &spec.save {
                f(*r);
            }
        }
    }
}

/// Per-register read counts over `code` (saturating; only 0/1/many matter).
fn read_counts(code: &[Op], nregs_hint: usize) -> Vec<u32> {
    let mut reads = vec![0u32; nregs_hint];
    for op in code {
        for_each_read(op, &mut |r| {
            if r as usize >= reads.len() {
                reads.resize(r as usize + 1, 0);
            }
            reads[r as usize] = reads[r as usize].saturating_add(1);
        });
    }
    reads
}

/// Rewrites every jump target of `op` through `map` (old pc → new pc).
fn remap_jumps(op: &mut Op, map: &[CodeIdx]) {
    match op {
        Op::Jump { to }
        | Op::JumpIfTrue { to, .. }
        | Op::JumpIfFalse { to, .. }
        | Op::BinaryJumpIfFalse { to, .. }
        | Op::IterNext { end: to, .. } => *to = map[*to as usize],
        Op::IterNextJump { body, end, .. } => {
            *body = map[*body as usize];
            *end = map[*end as usize];
        }
        Op::BinaryBranch {
            iftrue, iffalse, ..
        } => {
            *iftrue = map[*iftrue as usize];
            *iffalse = map[*iffalse as usize];
        }
        Op::ConstBinaryBranch {
            iftrue, iffalse, ..
        } => {
            // Compaction only moves targets down, so the narrowed `u16`
            // fields (checked at fusion time) stay in range.
            *iftrue = map[*iftrue as usize] as u16;
            *iffalse = map[*iffalse as usize] as u16;
        }
        _ => {}
    }
}

/// Drops the instructions marked dead in `keep`, remapping every jump
/// target and block entry. A target pointing *at* a dropped instruction
/// moves to the next kept one (execution would have fallen through anyway —
/// only effect-free instructions are dropped).
fn compact(code: &mut Vec<Op>, block_entry: &mut [CodeIdx], keep: &[bool]) {
    let mut map = vec![0 as CodeIdx; code.len() + 1];
    let mut n = 0 as CodeIdx;
    for (pc, k) in keep.iter().enumerate() {
        map[pc] = n;
        n += *k as CodeIdx;
    }
    map[code.len()] = n;
    let mut pc = 0;
    code.retain(|_| {
        pc += 1;
        keep[pc - 1]
    });
    for op in code.iter_mut() {
        remap_jumps(op, &map);
    }
    for be in block_entry.iter_mut() {
        *be = map[*be as usize];
    }
}

/// Removes effect-free writes (`Const`/`Bool`/`Move`) to temporaries that
/// no instruction reads — the residue of expression statements and folded
/// subtrees. Writes to *locals* are never touched (they feed suspension
/// environments), and a dead `Move` out of a local keeps its
/// `UndefinedVariable` check by degrading to [`Op::Defined`]. Runs to a
/// fixpoint: removing a `Move` can kill the write feeding it.
fn eliminate_dead_temp_writes(code: &mut Vec<Op>, block_entry: &mut [CodeIdx], nlocals: Reg) {
    loop {
        let reads = read_counts(code, nlocals as usize);
        let dead = |r: Reg| r >= nlocals && reads.get(r as usize).copied().unwrap_or(0) == 0;
        let mut keep = vec![true; code.len()];
        let mut changed = false;
        for (pc, op) in code.iter_mut().enumerate() {
            match op {
                Op::Const { dst, .. } | Op::Bool { dst, .. } if dead(*dst) => {
                    keep[pc] = false;
                    changed = true;
                }
                Op::Move { dst, src } if dead(*dst) => {
                    if *src < nlocals {
                        // The read of a possibly-unset local is observable.
                        *op = Op::Defined { src: *src };
                    } else {
                        // Temporaries are written before read by
                        // construction; dropping the copy is unobservable.
                        keep[pc] = false;
                        changed = true;
                    }
                }
                _ => {}
            }
        }
        if !changed {
            return;
        }
        compact(code, block_entry, &keep);
    }
}

/// Calls `f` with every register `op` writes on *every* execution path.
/// [`Op::IterNext`]/[`Op::IterNextJump`] write only on the has-element path,
/// so for liveness purposes they kill nothing.
fn for_each_write(op: &Op, f: &mut impl FnMut(Reg)) {
    match op {
        Op::Const { dst, .. }
        | Op::Bool { dst, .. }
        | Op::Move { dst, .. }
        | Op::LoadAttr { dst, .. }
        | Op::Binary { dst, .. }
        | Op::Unary { dst, .. }
        | Op::Truthy { dst, .. }
        | Op::CallBuiltin { dst, .. }
        | Op::Index { dst, .. }
        | Op::MakeList { dst, .. }
        | Op::LoadAttrBinary { dst, .. }
        | Op::ConstBinary { dst, .. }
        | Op::ConstBinaryBranch { dst, .. } => f(*dst),
        Op::BinaryBinary { dst1, dst2, .. } => {
            f(*dst1);
            f(*dst2);
        }
        Op::IterInit { idx, .. } => f(*idx),
        _ => {}
    }
}

/// Calls `f` with every successor pc of the instruction at `pc`.
fn for_each_succ(code: &[Op], pc: usize, f: &mut impl FnMut(usize)) {
    let fallthrough = pc + 1;
    match &code[pc] {
        Op::Jump { to } => f(*to as usize),
        Op::JumpIfTrue { to, .. }
        | Op::JumpIfFalse { to, .. }
        | Op::BinaryJumpIfFalse { to, .. } => {
            f(fallthrough);
            f(*to as usize);
        }
        Op::IterNext { end, .. } => {
            f(fallthrough);
            f(*end as usize);
        }
        Op::IterNextJump { body, end, .. } => {
            f(*body as usize);
            f(*end as usize);
        }
        Op::BinaryBranch {
            iftrue, iffalse, ..
        } => {
            f(*iftrue as usize);
            f(*iffalse as usize);
        }
        Op::ConstBinaryBranch {
            iftrue, iffalse, ..
        } => {
            f(*iftrue as usize);
            f(*iffalse as usize);
        }
        Op::Return { .. } | Op::Suspend { .. } => {}
        _ => f(fallthrough),
    }
}

/// Register-liveness *in*-sets for every instruction: a backward dataflow
/// fixpoint over the flat code array (`live_in = reads ∪ (live_out −
/// writes)`, `live_out = ∪ successors' live_in`). One bitset row of
/// `words` × 64 bits per pc.
struct LiveSets {
    words: usize,
    bits: Vec<u64>,
}

impl LiveSets {
    fn compute(code: &[Op], nregs: usize) -> LiveSets {
        let words = nregs.div_ceil(64).max(1);
        let mut bits = vec![0u64; code.len() * words];
        let mut out = vec![0u64; words];
        loop {
            let mut changed = false;
            for pc in (0..code.len()).rev() {
                out.fill(0);
                for_each_succ(code, pc, &mut |s| {
                    if s < code.len() {
                        for (w, o) in out.iter_mut().enumerate() {
                            *o |= bits[s * words + w];
                        }
                    }
                });
                for_each_write(&code[pc], &mut |d| {
                    out[d as usize / 64] &= !(1u64 << (d as usize % 64));
                });
                for_each_read(&code[pc], &mut |r| {
                    out[r as usize / 64] |= 1u64 << (r as usize % 64);
                });
                let row = &mut bits[pc * words..(pc + 1) * words];
                if row != out.as_slice() {
                    row.copy_from_slice(&out);
                    changed = true;
                }
            }
            if !changed {
                return LiveSets { words, bits };
            }
        }
    }

    /// Is `r` live *into* the instruction at `pc`?
    fn live_in(&self, pc: usize, r: Reg) -> bool {
        self.bits[pc * self.words + r as usize / 64] & (1u64 << (r as usize % 64)) != 0
    }

    /// Is `r` live *out of* the instruction at `pc` (live into any
    /// successor)?
    fn live_out(&self, code: &[Op], pc: usize, r: Reg) -> bool {
        let mut live = false;
        for_each_succ(code, pc, &mut |s| {
            live |= s < code.len() && self.live_in(s, r);
        });
        live
    }
}

/// Fuses `(a, b)` into one superinstruction when they communicate through a
/// temporary dead after the pair, preserving evaluation and error order
/// exactly (each fused handler performs its two halves' effects in
/// sequence). `fusable` must hold for the intermediate register: a
/// temporary (never a local — those feed suspension environments) that
/// liveness proves no instruction reads after `b`, so discarding the write
/// is unobservable.
fn try_fuse(a: &Op, b: &Op, fusable: &impl Fn(Reg) -> bool) -> Option<Op> {
    match (a, b) {
        (Op::Const { dst: c, idx }, Op::Binary { op, dst, lhs, rhs })
            if rhs == c && lhs != c && fusable(*c) =>
        {
            Some(Op::ConstBinary {
                op: *op,
                dst: *dst,
                lhs: *lhs,
                idx: *idx,
            })
        }
        (Op::LoadAttr { dst: a, name, hint }, Op::Binary { op, dst, lhs, rhs })
            if lhs == a && rhs != a && fusable(*a) =>
        {
            Some(Op::LoadAttrBinary {
                op: *op,
                dst: *dst,
                name: *name,
                rhs: *rhs,
                hint: hint.clone(),
            })
        }
        (Op::Binary { op, dst, lhs, rhs }, Op::StoreAttr { name, src, hint })
            if src == dst && fusable(*dst) =>
        {
            Some(Op::BinaryStoreAttr {
                op: *op,
                name: *name,
                lhs: *lhs,
                rhs: *rhs,
                hint: hint.clone(),
            })
        }
        (Op::Binary { op, dst, lhs, rhs }, Op::JumpIfFalse { cond, to })
            if cond == dst && fusable(*dst) =>
        {
            Some(Op::BinaryJumpIfFalse {
                op: *op,
                lhs: *lhs,
                rhs: *rhs,
                to: *to,
            })
        }
        // Two back-to-back binaries keep both writes, so there is no
        // intermediate to prove dead — adjacency (no jump in between,
        // checked by the caller) is the only condition.
        (
            Op::Binary {
                op: op1,
                dst: dst1,
                lhs: lhs1,
                rhs: rhs1,
            },
            Op::Binary {
                op: op2,
                dst: dst2,
                lhs: lhs2,
                rhs: rhs2,
            },
        ) => Some(Op::BinaryBinary {
            op1: *op1,
            dst1: *dst1,
            lhs1: *lhs1,
            rhs1: *rhs1,
            op2: *op2,
            dst2: *dst2,
            lhs2: *lhs2,
            rhs2: *rhs2,
        }),
        _ => None,
    }
}

/// One left-to-right pass fusing adjacent instruction pairs (see
/// [`try_fuse`]). A pair only fuses when no jump lands *between* its two
/// halves (jumps landing on the first half now execute the fused op — the
/// same two effects in the same order) and the intermediate temporary is
/// dead after the pair. Deadness comes from [`LiveSets`], not a global
/// read count: temporaries are reused in stack discipline, so the same
/// register routinely carries several unrelated single-use values.
fn fuse_pairs(code: &mut Vec<Op>, block_entry: &mut [CodeIdx], nlocals: Reg, nregs: Reg) {
    let mut is_target = vec![false; code.len() + 1];
    for op in code.iter() {
        let mut mark = |t: CodeIdx| is_target[t as usize] = true;
        match op {
            Op::Jump { to }
            | Op::JumpIfTrue { to, .. }
            | Op::JumpIfFalse { to, .. }
            | Op::BinaryJumpIfFalse { to, .. }
            | Op::IterNext { end: to, .. } => mark(*to),
            Op::IterNextJump { body, end, .. } => {
                mark(*body);
                mark(*end);
            }
            Op::BinaryBranch {
                iftrue, iffalse, ..
            } => {
                mark(*iftrue);
                mark(*iffalse);
            }
            _ => {}
        }
    }
    for be in block_entry.iter() {
        is_target[*be as usize] = true;
    }
    let live = LiveSets::compute(code, nregs as usize);

    let mut new_code = Vec::with_capacity(code.len());
    let mut map = vec![0 as CodeIdx; code.len() + 1];
    let mut pc = 0;
    while pc < code.len() {
        map[pc] = new_code.len() as CodeIdx;
        let fused = if pc + 1 < code.len() && !is_target[pc + 1] {
            // The intermediate must be a temporary (locals feed suspension
            // environments) that is dead once the second half has executed.
            let fusable = |r: Reg| r >= nlocals && !live.live_out(code, pc + 1, r);
            try_fuse(&code[pc], &code[pc + 1], &fusable)
        } else {
            None
        };
        // Prefer `Binary`+`JumpIfFalse` over `Binary`+`Binary` when both
        // could fire: the compare+branch form saves the same dispatch *and*
        // unlocks back-edge fusion ([`Op::BinaryBranch`]).
        let fused = match fused {
            Some(Op::BinaryBinary { dst2, .. })
                if pc + 2 < code.len()
                    && !is_target[pc + 2]
                    && matches!(&code[pc + 2], Op::JumpIfFalse { cond, .. } if *cond == dst2)
                    && dst2 >= nlocals
                    && !live.live_out(code, pc + 2, dst2) =>
            {
                None
            }
            f => f,
        };
        match fused {
            Some(op) => {
                // Nothing jumps to `pc + 1` (checked above); the map entry
                // only keeps the remap total.
                map[pc + 1] = new_code.len() as CodeIdx;
                new_code.push(op);
                pc += 2;
            }
            None => {
                new_code.push(code[pc].clone());
                pc += 1;
            }
        }
    }
    map[code.len()] = new_code.len() as CodeIdx;
    for op in new_code.iter_mut() {
        remap_jumps(op, &map);
    }
    for be in block_entry.iter_mut() {
        *be = map[*be as usize];
    }
    *code = new_code;
}

/// Removes every `Jump` to its own fallthrough — the residue of branch
/// lowering (`if not c jump else; jump then` with `then` immediately next)
/// once fusion has collapsed the conditional into the compare. Runs to a
/// fixpoint: compaction can bring another jump adjacent to its target.
fn drop_fallthrough_jumps(code: &mut Vec<Op>, block_entry: &mut [CodeIdx]) {
    loop {
        let keep: Vec<bool> = code
            .iter()
            .enumerate()
            .map(|(pc, op)| !matches!(op, Op::Jump { to } if *to as usize == pc + 1))
            .collect();
        if keep.iter().all(|k| *k) {
            return;
        }
        compact(code, block_entry, &keep);
    }
}

/// Fuses the counted-loop tail: an [`Op::ConstBinary`] immediately followed
/// by the [`Op::BinaryBranch`] back-edge whose left operand is the counter
/// it just wrote (`i = i + 1; if i < n …` — two ops in every `while`
/// counting loop and every desugared `for`) becomes one
/// [`Op::ConstBinaryBranch`]. Runs after [`fuse_backedges`] because that is
/// what materializes the `BinaryBranch`. Both effects survive fusion (the
/// counter write and the branch), so — like [`Op::BinaryBinary`] — the only
/// conditions are adjacency and no jump landing between the halves.
fn fuse_counter_branches(code: &mut Vec<Op>, block_entry: &mut [CodeIdx]) {
    let mut is_target = vec![false; code.len() + 1];
    for pc in 0..code.len() {
        for_each_succ(code, pc, &mut |s| {
            if s != pc + 1 {
                is_target[s] = true;
            }
        });
    }
    for be in block_entry.iter() {
        is_target[*be as usize] = true;
    }

    let mut new_code = Vec::with_capacity(code.len());
    let mut map = vec![0 as CodeIdx; code.len() + 1];
    let mut pc = 0;
    while pc < code.len() {
        map[pc] = new_code.len() as CodeIdx;
        let fused = match (&code[pc], code.get(pc + 1)) {
            (
                Op::ConstBinary { op, dst, lhs, idx },
                Some(Op::BinaryBranch {
                    op: op2,
                    lhs: blhs,
                    rhs,
                    iftrue,
                    iffalse,
                }),
            ) if !is_target[pc + 1]
                && *blhs == *dst
                && *iftrue <= u16::MAX as CodeIdx
                && *iffalse <= u16::MAX as CodeIdx =>
            {
                Some(Op::ConstBinaryBranch {
                    op1: *op,
                    dst: *dst,
                    lhs: *lhs,
                    idx: *idx,
                    op2: *op2,
                    rhs: *rhs,
                    iftrue: *iftrue as u16,
                    iffalse: *iffalse as u16,
                })
            }
            _ => None,
        };
        match fused {
            Some(op) => {
                map[pc + 1] = new_code.len() as CodeIdx;
                new_code.push(op);
                pc += 2;
            }
            None => {
                new_code.push(code[pc].clone());
                pc += 1;
            }
        }
    }
    map[code.len()] = new_code.len() as CodeIdx;
    for op in new_code.iter_mut() {
        remap_jumps(op, &map);
    }
    for be in block_entry.iter_mut() {
        *be = map[*be as usize];
    }
    *code = new_code;
}

/// Replaces every back-edge `Jump` with a copy of the loop header it
/// targets, saving one dispatch per loop iteration. In-place (no pc moves);
/// the original header remains for first entry. Two header shapes fuse:
///
/// * `Jump` → [`Op::IterNext`] (each `for` loop) becomes
///   [`Op::IterNextJump`]: advance the iterator and re-enter the body, or
///   leave, in one dispatch;
/// * `Jump` → [`Op::BinaryJumpIfFalse`] (each `while` loop whose compare
///   fused) becomes [`Op::BinaryBranch`]: re-evaluate the compare and jump
///   to the body (the header's fallthrough) or the exit directly.
fn fuse_backedges(code: &mut [Op]) {
    for pc in 0..code.len() {
        let Op::Jump { to } = code[pc] else { continue };
        match code.get(to as usize) {
            Some(Op::IterNext {
                list,
                idx,
                dst,
                end,
            }) => {
                code[pc] = Op::IterNextJump {
                    list: *list,
                    idx: *idx,
                    dst: *dst,
                    body: to + 1,
                    end: *end,
                };
            }
            Some(Op::BinaryJumpIfFalse {
                op,
                lhs,
                rhs,
                to: exit,
            }) => {
                code[pc] = Op::BinaryBranch {
                    op: *op,
                    lhs: *lhs,
                    rhs: *rhs,
                    iftrue: to + 1,
                    iffalse: *exit,
                };
            }
            _ => {}
        }
    }
}
