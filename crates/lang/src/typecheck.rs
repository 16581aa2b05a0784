//! Static type checking of entity programs.
//!
//! The paper's compiler performs "a static pass over the analyzed classes"
//! that ensures type hints exist and are consistent (§2.2). This module is
//! that pass. It validates, per class:
//!
//! * the `__key__` attribute exists and is a string;
//! * attribute defaults inhabit their declared types;
//! * the key attribute is never assigned (keys are immutable for the
//!   entity's lifetime);
//! * method bodies are well-typed, including the types flowing through
//!   remote calls (argument/parameter and return compatibility);
//! * methods with a non-`Unit` return type return on every path.
//!
//! Call-*graph* properties (recursion prohibition) are checked by
//! `se-compiler`, which owns graph construction.

use std::collections::BTreeMap;

use crate::ast::{BinOp, Builtin, EntityClass, Expr, Method, Program, Stmt, UnOp};
use crate::error::LangError;
use crate::symbol::Symbol;
use crate::types::Type;
use crate::value::{ClassName, Value};

/// Type environment of a method body: local variable name → inferred type.
type TyEnv = BTreeMap<Symbol, Type>;

/// Checks an entire program, collecting *all* diagnostics rather than
/// stopping at the first.
pub fn check_program(program: &Program) -> Result<(), Vec<LangError>> {
    let mut errors = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for class in &program.classes {
        if !seen.insert(class.name) {
            errors.push(LangError::analysis(format!(
                "duplicate class `{}`",
                class.name
            )));
        }
        check_class(program, class, &mut errors);
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

fn check_class(program: &Program, class: &EntityClass, errors: &mut Vec<LangError>) {
    let ctx = |msg: String| LangError::analysis(format!("class `{}`: {}", class.name, msg));

    match class.attr(class.key_attr) {
        None => errors.push(ctx(format!(
            "key attribute `{}` is not declared",
            class.key_attr
        ))),
        Some(a) if a.ty != Type::Str => {
            errors.push(ctx(format!(
                "key attribute `{}` must be str, found {}",
                class.key_attr, a.ty
            )));
        }
        Some(_) => {}
    }

    let mut attr_names = std::collections::BTreeSet::new();
    for attr in &class.attrs {
        if !attr_names.insert(attr.name) {
            errors.push(ctx(format!("duplicate attribute `{}`", attr.name)));
        }
        // A Unit default on a Ref attribute means "must be initialized at
        // construction" and is allowed.
        let ref_uninit = matches!(attr.ty, Type::Ref(_)) && attr.default == Value::Unit;
        if !ref_uninit && !attr.ty.admits(&attr.default) {
            errors.push(ctx(format!(
                "attribute `{}`: default {} does not inhabit {}",
                attr.name, attr.default, attr.ty
            )));
        }
        if let Type::Ref(target) = &attr.ty {
            if program.class(*target).is_none() {
                errors.push(ctx(format!(
                    "attribute `{}` references undefined class `{target}`",
                    attr.name
                )));
            }
        }
    }

    let mut method_names = std::collections::BTreeSet::new();
    for method in &class.methods {
        if !method_names.insert(method.name) {
            errors.push(ctx(format!("duplicate method `{}`", method.name)));
        }
        if method.name.as_str() == crate::ast::MIGRATION_METHOD {
            check_migration_method(class, method, errors);
        }
        check_method(program, class, method, errors);
    }
}

/// Extra rules for the reserved [`crate::ast::MIGRATION_METHOD`]: it runs
/// inside the engine's sealed upgrade window, once per entity, with no other
/// traffic flowing — so it takes no parameters, returns `Unit`, and must not
/// make remote calls (there is nothing to suspend on mid-upgrade).
fn check_migration_method(class: &EntityClass, method: &Method, errors: &mut Vec<LangError>) {
    let where_ = format!("{}.{}", class.name, method.name);
    if !method.params.is_empty() {
        errors.push(LangError::analysis(format!(
            "{where_}: migration methods take no parameters, found {}",
            method.params.len()
        )));
    }
    if method.ret != Type::Unit {
        errors.push(LangError::analysis(format!(
            "{where_}: migration methods must return unit, found {}",
            method.ret
        )));
    }
    if method.body.iter().any(Stmt::contains_call) {
        errors.push(LangError::analysis(format!(
            "{where_}: migration methods must not make remote calls"
        )));
    }
}

fn check_method(
    program: &Program,
    class: &EntityClass,
    method: &Method,
    errors: &mut Vec<LangError>,
) {
    check_method_collect_calls(program, class, method, errors);
}

/// Type-checks one method and returns the `(class, method)` pairs of every
/// *resolved* call site, in source order.
///
/// The compiler's call-graph pass (`se-compiler`) consumes this instead of
/// re-implementing type inference: resolving which class a call targets *is*
/// type inference on the target expression.
pub fn check_method_collect_calls(
    program: &Program,
    class: &EntityClass,
    method: &Method,
    errors: &mut Vec<LangError>,
) -> Vec<(ClassName, Symbol)> {
    let where_ = format!("{}.{}", class.name, method.name);
    let mut env: TyEnv = TyEnv::new();
    for p in &method.params {
        if env.insert(p.name, p.ty.clone()).is_some() {
            errors.push(LangError::analysis(format!(
                "{where_}: duplicate parameter `{}`",
                p.name
            )));
        }
        if let Type::Ref(target) = &p.ty {
            if program.class(*target).is_none() {
                errors.push(LangError::analysis(format!(
                    "{where_}: parameter `{}` references undefined class `{target}`",
                    p.name
                )));
            }
        }
    }

    let mut cx = Checker {
        program,
        class,
        where_: &where_,
        errors,
        calls: Vec::new(),
    };
    cx.check_stmts(&method.body, &mut env, &method.ret);
    let calls = std::mem::take(&mut cx.calls);

    if method.ret != Type::Unit && !always_returns(&method.body) {
        cx.errors.push(LangError::analysis(format!(
            "{where_}: declared to return {} but may fall through without returning",
            method.ret
        )));
    }
    calls
}

/// Whether a statement sequence returns on every control path.
fn always_returns(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Return(_) => true,
        Stmt::If {
            then_body,
            else_body,
            ..
        } => always_returns(then_body) && always_returns(else_body),
        // Loops may iterate zero times: never a guaranteed return.
        _ => false,
    })
}

struct Checker<'a> {
    program: &'a Program,
    class: &'a EntityClass,
    where_: &'a str,
    errors: &'a mut Vec<LangError>,
    /// Resolved `(callee class, callee method)` pairs, in source order.
    calls: Vec<(ClassName, Symbol)>,
}

impl Checker<'_> {
    fn err(&mut self, msg: String) {
        self.errors
            .push(LangError::analysis(format!("{}: {}", self.where_, msg)));
    }

    fn check_stmts(&mut self, stmts: &[Stmt], env: &mut TyEnv, ret_ty: &Type) {
        for stmt in stmts {
            self.check_stmt(stmt, env, ret_ty);
        }
    }

    fn check_stmt(&mut self, stmt: &Stmt, env: &mut TyEnv, ret_ty: &Type) {
        match stmt {
            Stmt::Assign { name, ty, value } => {
                let inferred = self.infer(value, env);
                let final_ty = match ty {
                    Some(annotated) => {
                        if !annotated.compatible(&inferred) {
                            self.err(format!(
                                "`{name}` annotated {annotated} but assigned {inferred}"
                            ));
                        }
                        annotated.clone()
                    }
                    None => match env.get(name) {
                        Some(existing) => existing.join(&inferred).unwrap_or_else(|| {
                            self.err(format!(
                                "`{name}` re-assigned with incompatible type {inferred} (was {existing})"
                            ));
                            Type::Any
                        }),
                        None => inferred,
                    },
                };
                env.insert(*name, final_ty);
            }
            Stmt::AttrAssign { attr, value } => {
                if *attr == self.class.key_attr {
                    self.err(format!(
                        "assignment to key attribute `{attr}` — entity keys are immutable"
                    ));
                }
                let inferred = self.infer(value, env);
                match self.class.attr(attr) {
                    None => self.err(format!("assignment to undeclared attribute `{attr}`")),
                    Some(decl) => {
                        if !decl.ty.compatible(&inferred) {
                            self.err(format!(
                                "attribute `{attr}` has type {} but is assigned {inferred}",
                                decl.ty
                            ));
                        }
                    }
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                self.infer(cond, env);
                // Check each arm against a copy, then merge definitions so
                // later statements see variables defined in either arm.
                let mut then_env = env.clone();
                self.check_stmts(then_body, &mut then_env, ret_ty);
                let mut else_env = env.clone();
                self.check_stmts(else_body, &mut else_env, ret_ty);
                for (name, t) in then_env.into_iter().chain(else_env) {
                    match env.get(&name) {
                        Some(prev) => {
                            let joined = prev.join(&t).unwrap_or(Type::Any);
                            env.insert(name, joined);
                        }
                        None => {
                            env.insert(name, t);
                        }
                    }
                }
            }
            Stmt::While { cond, body } => {
                self.infer(cond, env);
                let mut body_env = env.clone();
                self.check_stmts(body, &mut body_env, ret_ty);
                for (name, t) in body_env {
                    env.entry(name).or_insert(t);
                }
            }
            Stmt::ForList {
                var,
                iterable,
                body,
            } => {
                let it_ty = self.infer(iterable, env);
                let elem = match it_ty {
                    Type::List(e) => *e,
                    Type::Any => Type::Any,
                    other => {
                        self.err(format!("for-loop iterable must be a list, found {other}"));
                        Type::Any
                    }
                };
                let mut body_env = env.clone();
                body_env.insert(*var, elem);
                self.check_stmts(body, &mut body_env, ret_ty);
                for (name, t) in body_env {
                    env.entry(name).or_insert(t);
                }
            }
            Stmt::Return(e) => {
                let t = self.infer(e, env);
                if !ret_ty.compatible(&t) {
                    self.err(format!("returns {t} but method declares {ret_ty}"));
                }
            }
            Stmt::Expr(e) => {
                self.infer(e, env);
            }
        }
    }

    fn infer(&mut self, expr: &Expr, env: &mut TyEnv) -> Type {
        match expr {
            Expr::Lit(v) => type_of_value(v),
            Expr::Var(name) => match env.get(name) {
                Some(t) => t.clone(),
                None => {
                    self.err(format!("use of undefined variable `{name}`"));
                    Type::Any
                }
            },
            Expr::Attr(name) => match self.class.attr(*name) {
                Some(a) => a.ty.clone(),
                None => {
                    self.err(format!("use of undeclared attribute `self.{name}`"));
                    Type::Any
                }
            },
            Expr::Binary(op, l, r) => {
                let lt = self.infer(l, env);
                let rt = self.infer(r, env);
                self.infer_binop(*op, &lt, &rt)
            }
            Expr::Unary(op, e) => {
                let t = self.infer(e, env);
                match op {
                    UnOp::Not => Type::Bool,
                    UnOp::Neg => {
                        if !matches!(t, Type::Int | Type::Float | Type::Any) {
                            self.err(format!("negation requires a numeric operand, found {t}"));
                        }
                        t
                    }
                }
            }
            Expr::Builtin(b, args) => {
                if args.len() != b.arity() {
                    self.err(format!(
                        "builtin {b:?} expects {} argument(s), got {}",
                        b.arity(),
                        args.len()
                    ));
                }
                let arg_tys: Vec<Type> = args.iter().map(|a| self.infer(a, env)).collect();
                self.infer_builtin(*b, &arg_tys)
            }
            Expr::Index(base, idx) => {
                let bt = self.infer(base, env);
                let it = self.infer(idx, env);
                match (bt, it) {
                    (Type::List(e), Type::Int | Type::Any) => *e,
                    (Type::Map(v), Type::Str | Type::Any) => *v,
                    (Type::Str, Type::Int | Type::Any) => Type::Str,
                    (Type::Any, _) => Type::Any,
                    (b, i) => {
                        self.err(format!("cannot index {b} with {i}"));
                        Type::Any
                    }
                }
            }
            Expr::ListLit(items) => {
                let mut elem = Type::Any;
                let mut hetero = false;
                for it in items {
                    let t = self.infer(it, env);
                    if hetero {
                        continue;
                    }
                    match elem.join(&t) {
                        Some(j) => elem = j,
                        None => {
                            self.err(format!("heterogeneous list literal: {elem} vs {t}"));
                            elem = Type::Any;
                            hetero = true;
                        }
                    }
                }
                Type::List(Box::new(elem))
            }
            Expr::Call(c) => {
                let target_ty = self.infer(&c.target, env);
                let class_name = match &target_ty {
                    Type::Ref(c) => *c,
                    Type::Any => return Type::Any,
                    other => {
                        self.err(format!(
                            "method call target must be an entity reference, found {other}"
                        ));
                        return Type::Any;
                    }
                };
                let Some(class) = self.program.class(class_name) else {
                    self.err(format!("call to method of undefined class `{class_name}`"));
                    return Type::Any;
                };
                let Some(m) = class.method(c.method) else {
                    self.err(format!("class `{class_name}` has no method `{}`", c.method));
                    return Type::Any;
                };
                self.calls.push((class_name, c.method));
                if m.params.len() != c.args.len() {
                    self.err(format!(
                        "`{class_name}.{}` expects {} argument(s), got {}",
                        c.method,
                        m.params.len(),
                        c.args.len()
                    ));
                }
                let ret = m.ret.clone();
                let params: Vec<(Symbol, Type)> =
                    m.params.iter().map(|p| (p.name, p.ty.clone())).collect();
                for (arg, (pname, pty)) in c.args.iter().zip(params) {
                    let at = self.infer(arg, env);
                    if !pty.compatible(&at) {
                        self.err(format!(
                            "argument `{pname}` of `{class_name}.{}` expects {pty}, got {at}",
                            c.method
                        ));
                    }
                }
                ret
            }
        }
    }

    fn infer_binop(&mut self, op: BinOp, lt: &Type, rt: &Type) -> Type {
        use BinOp::*;
        match op {
            And | Or => Type::Bool,
            Eq | Ne => Type::Bool,
            Lt | Le | Gt | Ge => {
                let ok = matches!(
                    (lt, rt),
                    (
                        Type::Int | Type::Float | Type::Any,
                        Type::Int | Type::Float | Type::Any
                    ) | (Type::Str, Type::Str)
                        | (Type::Str, Type::Any)
                        | (Type::Any, Type::Str)
                );
                if !ok {
                    self.err(format!("cannot compare {lt} with {rt}"));
                }
                Type::Bool
            }
            Add => match (lt, rt) {
                (Type::Str, Type::Str) => Type::Str,
                (Type::List(a), Type::List(b)) => match a.join(b) {
                    Some(j) => Type::List(Box::new(j)),
                    None => {
                        self.err(format!("cannot concatenate {lt} and {rt}"));
                        Type::Any
                    }
                },
                (Type::Bytes, Type::Bytes) => Type::Bytes,
                _ => self.numeric_result(op, lt, rt),
            },
            Sub | Mul | Div => self.numeric_result(op, lt, rt),
            Mod => {
                if !matches!((lt, rt), (Type::Int | Type::Any, Type::Int | Type::Any)) {
                    self.err(format!("`%` requires int operands, found {lt} and {rt}"));
                }
                Type::Int
            }
        }
    }

    fn numeric_result(&mut self, op: BinOp, lt: &Type, rt: &Type) -> Type {
        match (lt, rt) {
            (Type::Int, Type::Int) => Type::Int,
            (Type::Int | Type::Float, Type::Int | Type::Float) => Type::Float,
            (Type::Any, t) | (t, Type::Any) if matches!(t, Type::Int | Type::Float | Type::Any) => {
                t.clone()
            }
            _ => {
                self.err(format!(
                    "operator {op:?} requires numeric operands, found {lt} and {rt}"
                ));
                Type::Any
            }
        }
    }

    fn infer_builtin(&mut self, b: Builtin, args: &[Type]) -> Type {
        let arg = |i: usize| args.get(i).cloned().unwrap_or(Type::Any);
        match b {
            Builtin::Len => Type::Int,
            Builtin::Abs => arg(0),
            Builtin::Min | Builtin::Max => arg(0).join(&arg(1)).unwrap_or(Type::Any),
            Builtin::ToStr => Type::Str,
            Builtin::Append => match arg(0) {
                Type::List(e) => match e.join(&arg(1)) {
                    Some(j) => Type::List(Box::new(j)),
                    None => {
                        self.err(format!("append of {} to list[{e}]", arg(1)));
                        Type::Any
                    }
                },
                Type::Any => Type::Any,
                other => {
                    self.err(format!("append requires a list, found {other}"));
                    Type::Any
                }
            },
            Builtin::Contains => Type::Bool,
            Builtin::Get => match arg(0) {
                Type::Map(v) => *v,
                Type::Any => Type::Any,
                other => {
                    self.err(format!("get requires a map, found {other}"));
                    Type::Any
                }
            },
            Builtin::Put => match arg(0) {
                Type::Map(v) => Type::Map(Box::new(v.join(&arg(2)).unwrap_or(Type::Any))),
                Type::Any => Type::Any,
                other => {
                    self.err(format!("put requires a map, found {other}"));
                    Type::Any
                }
            },
            Builtin::Zeros => Type::Bytes,
        }
    }
}

/// The most precise static type of a runtime value.
pub fn type_of_value(v: &Value) -> Type {
    match v {
        Value::Unit => Type::Unit,
        Value::Bool(_) => Type::Bool,
        Value::Int(_) => Type::Int,
        Value::Float(_) => Type::Float,
        Value::Str(_) => Type::Str,
        Value::Bytes(_) => Type::Bytes,
        Value::List(items) => {
            Type::List(Box::new(join_value_types(items.iter().map(type_of_value))))
        }
        Value::Map(m) => Type::Map(Box::new(join_value_types(m.values().map(type_of_value)))),
        Value::Ref(r) => Type::Ref(r.class),
    }
}

/// Least upper bound of element types inferred *from values*.
///
/// Unlike [`Type::join`], which treats `Any` as a narrowing wildcard (an
/// unknown that unifies with the other side), here `Any` means "already
/// heterogeneous" and must absorb: joining `dict[str, Any]` with
/// `dict[str, str]` has to stay `dict[str, Any]`, or the inferred type would
/// reject the very elements it was derived from.
fn join_value_types(types: impl Iterator<Item = Type>) -> Type {
    let mut acc: Option<Type> = None;
    for t in types {
        acc = Some(match acc {
            None => t,
            Some(prev) => join_absorbing(prev, t),
        });
    }
    acc.unwrap_or(Type::Any)
}

fn join_absorbing(a: Type, b: Type) -> Type {
    match (a, b) {
        (Type::Any, _) | (_, Type::Any) => Type::Any,
        (Type::Int, Type::Float) | (Type::Float, Type::Int) => Type::Float,
        (Type::List(x), Type::List(y)) => Type::List(Box::new(join_absorbing(*x, *y))),
        (Type::Map(x), Type::Map(y)) => Type::Map(Box::new(join_absorbing(*x, *y))),
        (a, b) if a == b => a,
        _ => Type::Any,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::programs::{chain_program, counter_program, figure1_program};

    fn one_method_class(body: Vec<Stmt>, ret_ty: Type) -> Program {
        let c = ClassBuilder::new("T")
            .attr_default("id", Type::Str, Value::Str(String::new()))
            .attr_default("n", Type::Int, Value::Int(0))
            .key("id")
            .method(
                MethodBuilder::new("m")
                    .param("p", Type::Int)
                    .returns(ret_ty)
                    .body(body),
            )
            .build();
        Program::new(vec![c])
    }

    fn errs(p: &Program) -> Vec<String> {
        match check_program(p) {
            Ok(()) => vec![],
            Err(es) => es.into_iter().map(|e| e.to_string()).collect(),
        }
    }

    #[test]
    fn reference_programs_check_clean() {
        assert_eq!(errs(&figure1_program()), Vec::<String>::new());
        assert_eq!(errs(&counter_program()), Vec::<String>::new());
        assert_eq!(errs(&chain_program(3)), Vec::<String>::new());
    }

    #[test]
    fn key_must_be_declared_str() {
        let c = ClassBuilder::new("K")
            .attr_default("id", Type::Int, Value::Int(0))
            .key("id")
            .build();
        let es = errs(&Program::new(vec![c]));
        assert!(es.iter().any(|e| e.contains("must be str")), "{es:?}");

        let c2 = ClassBuilder::new("K")
            .attr("x", Type::Int)
            .key("missing")
            .build();
        let es = errs(&Program::new(vec![c2]));
        assert!(es.iter().any(|e| e.contains("not declared")), "{es:?}");
    }

    #[test]
    fn key_is_immutable() {
        let p = one_method_class(vec![attr_assign("id", lit("other"))], Type::Unit);
        let es = errs(&p);
        assert!(
            es.iter().any(|e| e.contains("keys are immutable")),
            "{es:?}"
        );
    }

    #[test]
    fn undefined_variable_and_attribute() {
        let p = one_method_class(vec![ret(var("ghost"))], Type::Any);
        assert!(errs(&p)
            .iter()
            .any(|e| e.contains("undefined variable `ghost`")));
        let p = one_method_class(vec![ret(attr("ghost"))], Type::Any);
        assert!(errs(&p).iter().any(|e| e.contains("undeclared attribute")));
    }

    #[test]
    fn annotation_mismatch() {
        let p = one_method_class(vec![assign_ty("x", Type::Str, int(3))], Type::Unit);
        assert!(errs(&p).iter().any(|e| e.contains("annotated str")));
    }

    #[test]
    fn return_type_enforced() {
        let p = one_method_class(vec![ret(lit("s"))], Type::Int);
        assert!(errs(&p).iter().any(|e| e.contains("returns str")));
    }

    #[test]
    fn missing_return_detected() {
        let p = one_method_class(
            vec![if_(lt(var("p"), int(0)), vec![ret(int(1))])],
            Type::Int,
        );
        assert!(errs(&p).iter().any(|e| e.contains("may fall through")));
        // Both branches returning is fine.
        let p = one_method_class(
            vec![if_else(
                lt(var("p"), int(0)),
                vec![ret(int(1))],
                vec![ret(int(2))],
            )],
            Type::Int,
        );
        assert_eq!(errs(&p), Vec::<String>::new());
    }

    #[test]
    fn remote_call_arg_types_checked() {
        // Calling Item.update_stock with a str argument must fail.
        let user = ClassBuilder::new("User")
            .attr_default("username", Type::Str, Value::Str(String::new()))
            .key("username")
            .method(
                MethodBuilder::new("bad")
                    .param("item", Type::entity("Item"))
                    .returns(Type::Unit)
                    .body(vec![expr_stmt(call(
                        var("item"),
                        "update_stock",
                        vec![lit("x")],
                    ))]),
            )
            .build();
        let mut p = figure1_program();
        p.classes.retain(|c| c.name == "Item");
        p.classes.push(user);
        let es = errs(&p);
        assert!(
            es.iter().any(|e| e.contains("expects int, got str")),
            "{es:?}"
        );
    }

    #[test]
    fn call_on_unknown_class_or_method() {
        let c = ClassBuilder::new("A")
            .attr_default("id", Type::Str, Value::Str(String::new()))
            .attr("other", Type::entity("Missing"))
            .key("id")
            .build();
        let es = errs(&Program::new(vec![c]));
        assert!(
            es.iter().any(|e| e.contains("undefined class `Missing`")),
            "{es:?}"
        );

        let p = figure1_program();
        let mut p2 = p.clone();
        p2.classes[0].methods.push(
            MethodBuilder::new("oops")
                .param("item", Type::entity("Item"))
                .returns(Type::Unit)
                .body(vec![expr_stmt(call(var("item"), "no_such", vec![]))])
                .build(),
        );
        assert!(errs(&p2).iter().any(|e| e.contains("no method `no_such`")));
    }

    #[test]
    fn for_loop_needs_list() {
        let p = one_method_class(vec![for_list("x", int(3), vec![])], Type::Unit);
        assert!(errs(&p).iter().any(|e| e.contains("must be a list")));
    }

    #[test]
    fn branch_defined_vars_visible_after_if() {
        let p = one_method_class(
            vec![
                if_else(
                    lt(var("p"), int(0)),
                    vec![assign("x", int(1))],
                    vec![assign("x", int(2))],
                ),
                ret(var("x")),
            ],
            Type::Int,
        );
        // `x` is defined in both arms; the only error should be the missing
        // guaranteed return (If arms don't return) — actually both arms
        // assign, and the trailing `ret` guarantees the return. Clean.
        assert_eq!(errs(&p), Vec::<String>::new());
    }

    #[test]
    fn incompatible_reassignment() {
        let p = one_method_class(vec![assign("x", int(1)), assign("x", lit("s"))], Type::Unit);
        assert!(errs(&p).iter().any(|e| e.contains("incompatible type")));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut p = counter_program();
        let dup = p.classes[0].clone();
        p.classes.push(dup);
        assert!(errs(&p).iter().any(|e| e.contains("duplicate class")));
    }

    #[test]
    fn type_of_value_covers_all() {
        assert_eq!(type_of_value(&Value::Int(1)), Type::Int);
        assert_eq!(
            type_of_value(&Value::List(vec![Value::Int(1), Value::Int(2)])),
            Type::list(Type::Int)
        );
        assert_eq!(
            type_of_value(&Value::Ref(crate::EntityRef::new("User", "a"))),
            Type::entity("User")
        );
    }
}
