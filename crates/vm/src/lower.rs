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
//! There is no optimization pass: each source operation lowers to the
//! instruction that performs it, so the bytecode is a direct, reviewable
//! image of the split CFG (see the `compiler_explorer` example) and only the
//! two analyses above have to respect the error-identity contract.

use std::collections::{BTreeSet, HashMap};

use se_ir::{Block, BlockId, CompiledMethod, Terminator};
use se_lang::{BinOp, Expr, LangError, Stmt, Symbol, Value};

use crate::op::{CodeIdx, ConstPool, Op, Reg, SuspendSpec};
use crate::program::VmMethod;

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

/// Lowers one split method to bytecode against the class pool.
pub fn lower_method(pool: &mut PoolBuilder, m: &CompiledMethod) -> Result<VmMethod, LangError> {
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
}

/// Rewrites the jump target of the instruction at `pos`.
fn patch(code: &mut [Op], pos: usize, target: CodeIdx) {
    match &mut code[pos] {
        Op::Jump { to }
        | Op::JumpIfTrue { to, .. }
        | Op::JumpIfFalse { to, .. }
        | Op::IterNext { end: to, .. } => *to = target,
        other => unreachable!(
            "patch sites are recorded only at jump ops this pass emitted, got {other:?}"
        ),
    }
}

impl Lowerer<'_> {
    fn here(&self) -> CodeIdx {
        self.code.len() as CodeIdx
    }

    fn local(&self, s: Symbol) -> Reg {
        *self
            .local_index
            .get(&s)
            .expect("collect_locals registers every name the method reads or writes")
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
                self.code.push(Op::StoreAttr { name, src });
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
                self.code.push(Op::LoadAttr { dst, name });
            }
            Expr::Binary(op, l, r) if op.is_logical() => {
                self.lower_logical(dst, *op == BinOp::Or, l, r, defined)?;
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

    /// Short-circuit lowering of `and` (`is_or == false`) / `or`; both
    /// produce a `Bool` result exactly like the interpreter. A falsy `and`
    /// lhs (truthy `or` lhs) decides the result on its own; otherwise the
    /// lhs jumps over that result to the rhs.
    fn lower_logical(
        &mut self,
        dst: Reg,
        is_or: bool,
        l: &Expr,
        r: &Expr,
        defined: &BTreeSet<Symbol>,
    ) -> Result<(), LangError> {
        let lhs = self.operand(l, defined)?;
        let jump_rhs = self.code.len();
        self.code.push(if is_or {
            Op::JumpIfFalse { cond: lhs, to: 0 }
        } else {
            Op::JumpIfTrue { cond: lhs, to: 0 }
        });
        self.code.push(Op::Bool { dst, val: is_or });
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
