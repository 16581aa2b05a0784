//! Bytecode disassembler with stable text output.
//!
//! Everything printed derives from symbol *names* and literal values — never
//! interner ids or addresses — so the output is byte-stable across processes
//! and suitable for golden tests and the `compiler_explorer` example.

use std::fmt::Write;

use crate::op::{Op, Reg};
use crate::program::{VmClass, VmMethod};

/// Renders one compiled method.
pub fn disasm_method(class: &VmClass, m: &VmMethod) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "method {} ({} blocks, {} locals, {} regs, {} ops)",
        m.name,
        m.block_entry.len(),
        m.locals.len(),
        m.nregs,
        m.code.len()
    );
    if !m.locals.is_empty() {
        let locals: Vec<String> = m
            .locals
            .iter()
            .enumerate()
            .map(|(i, s)| format!("r{i}={s}"))
            .collect();
        let _ = writeln!(out, "  locals: {}", locals.join(" "));
    }
    for (pc, op) in m.code.iter().enumerate() {
        for (b, entry) in m.block_entry.iter().enumerate() {
            if *entry as usize == pc {
                let _ = writeln!(out, "  b{b}:");
            }
        }
        let _ = writeln!(out, "    {pc:>4}  {}", render_op(class, m, op));
    }
    out
}

/// Renders every compiled method of a class, followed by its constant pool.
pub fn disasm_class(class: &VmClass) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "class {} bytecode:", class.class);
    for m in &class.methods {
        for line in disasm_method(class, m).lines() {
            let _ = writeln!(out, "  {line}");
        }
    }
    if !class.pool.values.is_empty() {
        let _ = writeln!(out, "  consts:");
        for (i, v) in class.pool.values.iter().enumerate() {
            let _ = writeln!(out, "    [{i}] {v}");
        }
    }
    if !class.pool.names.is_empty() {
        let names: Vec<&str> = class.pool.names.iter().map(|s| s.as_str()).collect();
        let _ = writeln!(out, "  names: {}", names.join(" "));
    }
    out
}

fn reg(m: &VmMethod, r: Reg) -> String {
    match m.locals.get(r as usize) {
        Some(name) => format!("r{r}({name})"),
        None => format!("r{r}"),
    }
}

fn render_op(class: &VmClass, m: &VmMethod, op: &Op) -> String {
    match op {
        Op::Const { dst, idx } => format!(
            "{} = const[{idx}]  ; {}",
            reg(m, *dst),
            class.pool.value(*idx)
        ),
        Op::Bool { dst, val } => format!("{} = bool {val}", reg(m, *dst)),
        Op::Move { dst, src } => format!("{} = {}", reg(m, *dst), reg(m, *src)),
        Op::Defined { src } => format!("defined? {}", reg(m, *src)),
        Op::LoadAttr { dst, name } => {
            format!("{} = self.{}", reg(m, *dst), class.pool.name(*name))
        }
        Op::StoreAttr { name, src } => {
            format!("self.{} = {}", class.pool.name(*name), reg(m, *src))
        }
        Op::Binary { op, dst, lhs, rhs } => format!(
            "{} = {op:?} {} {}",
            reg(m, *dst),
            reg(m, *lhs),
            reg(m, *rhs)
        ),
        Op::Unary { op, dst, src } => format!("{} = {op:?} {}", reg(m, *dst), reg(m, *src)),
        Op::Truthy { dst, src } => format!("{} = truthy {}", reg(m, *dst), reg(m, *src)),
        Op::CallBuiltin {
            f,
            dst,
            start,
            argc,
        } => format!(
            "{} = {f:?}(r{start}..r{})",
            reg(m, *dst),
            *start + *argc as Reg
        ),
        Op::Index { dst, base, idx } => {
            format!("{} = {}[{}]", reg(m, *dst), reg(m, *base), reg(m, *idx))
        }
        Op::MakeList { dst, start, count } => {
            format!("{} = list(r{start}..r{})", reg(m, *dst), *start + *count)
        }
        Op::Jump { to } => format!("jump {to}"),
        Op::JumpIfTrue { cond, to } => format!("if {} jump {to}", reg(m, *cond)),
        Op::JumpIfFalse { cond, to } => format!("if not {} jump {to}", reg(m, *cond)),
        Op::IterInit { list, idx } => format!("iter_init {} idx={}", reg(m, *list), reg(m, *idx)),
        Op::IterNext {
            list,
            idx,
            dst,
            end,
        } => format!(
            "{} = iter_next {} idx={} else jump {end}",
            reg(m, *dst),
            reg(m, *list),
            reg(m, *idx)
        ),
        Op::EnsureRef { src } => format!("ensure_ref {}", reg(m, *src)),
        Op::Return { src } => format!("return {}", reg(m, *src)),
        Op::Suspend { target, spec } => {
            let save: Vec<String> = spec
                .save
                .iter()
                .map(|(s, r)| format!("{s}<-r{r}"))
                .collect();
            format!(
                "suspend call {}.{}(r{}..r{}) -> {} resume b{} save[{}]",
                reg(m, *target),
                spec.method,
                spec.args_start,
                spec.args_start + spec.argc as Reg,
                spec.result_var
                    .map(|s| s.to_string())
                    .unwrap_or_else(|| "_".into()),
                spec.resume.0,
                save.join(" ")
            )
        }
    }
}
