//! Abstract syntax tree of the stateful-entity DSL.
//!
//! This mirrors the analyzed subset of Python from the paper (§2.2):
//! conditionals, `while` loops, `for` loops over lists, assignments to
//! locals and `self` attributes, arithmetic/boolean expressions, and method
//! calls on other entities (remote calls).

use serde::{Deserialize, Serialize};

use crate::symbol::Symbol;
use crate::types::Type;
use crate::value::{ClassName, Value};

/// A binary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BinOp {
    /// `+` (ints, floats, string/list concatenation)
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (integer division on two ints, like Python `//`)
    Div,
    /// `%`
    Mod,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `and` — short-circuiting
    And,
    /// `or` — short-circuiting
    Or,
}

impl BinOp {
    /// Whether the operator is a short-circuiting logical connective.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }
}

/// A unary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UnOp {
    /// `not`
    Not,
    /// `-`
    Neg,
}

/// A builtin function of the DSL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Builtin {
    /// `len(list | str | bytes | map)`
    Len,
    /// `abs(int | float)`
    Abs,
    /// `min(a, b)`
    Min,
    /// `max(a, b)`
    Max,
    /// `str(x)` — stringify
    ToStr,
    /// `append(list, x)` — returns a new list (values are immutable)
    Append,
    /// `contains(list | map | str, x)`
    Contains,
    /// `get(map, key)` — `Unit` if absent
    Get,
    /// `put(map, key, value)` — returns a new map
    Put,
    /// `zeros(n)` — a `bytes` value of n zero bytes (overhead experiment)
    Zeros,
}

impl Builtin {
    /// Number of arguments the builtin takes.
    pub fn arity(self) -> usize {
        match self {
            Builtin::Len | Builtin::Abs | Builtin::ToStr | Builtin::Zeros => 1,
            Builtin::Min | Builtin::Max | Builtin::Append | Builtin::Contains | Builtin::Get => 2,
            Builtin::Put => 3,
        }
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// A literal value.
    Lit(Value),
    /// A local variable or parameter read.
    Var(Symbol),
    /// `self.<attr>` — a read of the entity's own state.
    Attr(Symbol),
    /// A binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// A unary operation.
    Unary(UnOp, Box<Expr>),
    /// A builtin call.
    Builtin(Builtin, Vec<Expr>),
    /// `base[index]` for lists (int index) and maps (str index).
    Index(Box<Expr>, Box<Expr>),
    /// A list literal.
    ListLit(Vec<Expr>),
    /// A method call on another entity: `target.method(args…)`.
    ///
    /// `target` must have type `Type::Ref(_)`. In the dataflow translation a
    /// call is *remote*: it suspends the enclosing method (function
    /// splitting, §2.4) and sends an event to the operator owning the target
    /// entity's partition.
    Call(CallExpr),
}

/// The shape of a remote method call.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CallExpr {
    /// Expression yielding the target entity reference.
    pub target: Box<Expr>,
    /// Method name on the target class.
    pub method: Symbol,
    /// Argument expressions.
    pub args: Vec<Expr>,
}

impl Expr {
    /// Whether this expression tree contains a remote call anywhere.
    pub fn contains_call(&self) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if matches!(e, Expr::Call(_)) {
                found = true;
            }
        });
        found
    }

    /// Pre-order visit of the expression tree.
    pub fn visit(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Lit(_) | Expr::Var(_) | Expr::Attr(_) => {}
            Expr::Binary(_, l, r) => {
                l.visit(f);
                r.visit(f);
            }
            Expr::Unary(_, e) => e.visit(f),
            Expr::Builtin(_, args) | Expr::ListLit(args) => {
                for a in args {
                    a.visit(f);
                }
            }
            Expr::Index(b, i) => {
                b.visit(f);
                i.visit(f);
            }
            Expr::Call(c) => {
                c.target.visit(f);
                for a in &c.args {
                    a.visit(f);
                }
            }
        }
    }

    /// Collects the names of local variables this expression reads.
    pub fn referenced_vars(&self, out: &mut std::collections::BTreeSet<Symbol>) {
        self.visit(&mut |e| {
            if let Expr::Var(v) = e {
                out.insert(*v);
            }
        });
    }
}

/// A statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Stmt {
    /// `name: ty = value` — define or overwrite a local variable. The type
    /// annotation is optional on re-assignment; the checker infers it.
    Assign {
        /// Variable name.
        name: Symbol,
        /// Optional static annotation.
        ty: Option<Type>,
        /// Right-hand side.
        value: Expr,
    },
    /// `self.attr = value` — a write to the entity's own state.
    AttrAssign {
        /// Attribute name.
        attr: Symbol,
        /// Right-hand side.
        value: Expr,
    },
    /// `if cond: …  else: …`
    If {
        /// Branch condition.
        cond: Expr,
        /// Statements of the true arm.
        then_body: Vec<Stmt>,
        /// Statements of the false arm (possibly empty).
        else_body: Vec<Stmt>,
    },
    /// `while cond: …`
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `for var in iterable: …` — iterates a list (§2.2: "for-loops that
    /// iterate through Python lists").
    ForList {
        /// Loop variable bound to each element.
        var: Symbol,
        /// Expression yielding the list.
        iterable: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `return expr`
    Return(Expr),
    /// An expression evaluated for effect (e.g. a bare remote call).
    Expr(Expr),
}

impl Stmt {
    /// Whether this statement (including nested bodies) contains a remote
    /// call; such statements force function splitting.
    pub fn contains_call(&self) -> bool {
        match self {
            Stmt::Assign { value, .. } | Stmt::AttrAssign { value, .. } => value.contains_call(),
            Stmt::Return(e) | Stmt::Expr(e) => e.contains_call(),
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                cond.contains_call()
                    || then_body.iter().any(Stmt::contains_call)
                    || else_body.iter().any(Stmt::contains_call)
            }
            Stmt::While { cond, body } => {
                cond.contains_call() || body.iter().any(Stmt::contains_call)
            }
            Stmt::ForList { iterable, body, .. } => {
                iterable.contains_call() || body.iter().any(Stmt::contains_call)
            }
        }
    }
}

/// A method parameter: name plus required static type hint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Param {
    /// Parameter name.
    pub name: Symbol,
    /// Required type hint (§2.2 limitation).
    pub ty: Type,
}

/// A method of an entity class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Method {
    /// Method name.
    pub name: Symbol,
    /// Parameters (excluding the implicit `self`).
    pub params: Vec<Param>,
    /// Declared return type.
    pub ret: Type,
    /// Method body.
    pub body: Vec<Stmt>,
    /// Whether the method was annotated `@transactional` — i.e. its state
    /// effects across *multiple* entities must be atomic. On StateFlow every
    /// root invocation is a transaction anyway; the flag is carried as
    /// metadata so non-transactional runtimes can reject such methods.
    pub transactional: bool,
}

/// An attribute (instance variable) declaration of an entity class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttrDef {
    /// Attribute name.
    pub name: Symbol,
    /// Static type.
    pub ty: Type,
    /// Initial value when an instance is created.
    pub default: Value,
}

/// The reserved name of a class's state-migration method.
///
/// A class that declares a method with this name opts into live upgrades:
/// when a new program version is deployed, the *new* version's migration
/// method runs exactly once per existing entity at the switchover boundary,
/// rewriting state in place (e.g. defaulting a new attribute, re-deriving a
/// changed representation). Migration methods take no parameters, return
/// `Unit`, and must not make remote calls — they run inside the engine's
/// sealed upgrade window where no other traffic flows.
pub const MIGRATION_METHOD: &str = "__migrate__";

/// An entity class — the unit the paper annotates with `@entity`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EntityClass {
    /// Class name; becomes the dataflow operator name.
    pub name: ClassName,
    /// Declared instance attributes. The first pass of the paper's static
    /// analysis extracts exactly these (§2.1).
    pub attrs: Vec<AttrDef>,
    /// Name of the attribute the `__key__` function returns. Immutable for
    /// the entity's lifetime (§2.2 limitation).
    pub key_attr: Symbol,
    /// Methods of the class.
    pub methods: Vec<Method>,
}

impl EntityClass {
    /// Looks up a method by name.
    pub fn method(&self, name: impl Into<Symbol>) -> Option<&Method> {
        let name = name.into();
        self.methods.iter().find(|m| m.name == name)
    }

    /// Looks up an attribute declaration by name.
    pub fn attr(&self, name: impl Into<Symbol>) -> Option<&AttrDef> {
        let name = name.into();
        self.attrs.iter().find(|a| a.name == name)
    }

    /// The class's state-migration method ([`MIGRATION_METHOD`]), if it
    /// declares one.
    pub fn migration_method(&self) -> Option<&Method> {
        self.method(MIGRATION_METHOD)
    }

    /// Builds the initial state of a fresh instance: declared defaults,
    /// overridden by `init` entries, with the key attribute set to `key`.
    pub fn initial_state(
        &self,
        key: impl Into<Symbol>,
        init: impl IntoIterator<Item = (String, Value)>,
    ) -> crate::value::EntityState {
        let mut state: crate::value::EntityState = self
            .attrs
            .iter()
            .map(|a| (a.name, a.default.clone()))
            .collect();
        for (k, v) in init {
            state.insert(k, v);
        }
        let key = key.into();
        state.insert(self.key_attr, Value::Str(key.as_str().to_owned()));
        state
    }
}

/// A whole program: the set of entity classes deployed together.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Program {
    /// All entity classes, in declaration order.
    pub classes: Vec<EntityClass>,
}

impl Program {
    /// Creates a program from classes.
    pub fn new(classes: Vec<EntityClass>) -> Self {
        Self { classes }
    }

    /// Looks up a class by name.
    pub fn class(&self, name: impl Into<Symbol>) -> Option<&EntityClass> {
        let name = name.into();
        self.classes.iter().find(|c| c.name == name)
    }

    /// Looks up a class, erroring if absent.
    pub fn class_or_err(&self, name: impl Into<Symbol>) -> Result<&EntityClass, crate::LangError> {
        let name = name.into();
        self.class(name)
            .ok_or_else(|| crate::LangError::UndefinedClass(name.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(target: &str, method: &str) -> Expr {
        Expr::Call(CallExpr {
            target: Box::new(Expr::Var(target.into())),
            method: method.into(),
            args: vec![],
        })
    }

    #[test]
    fn contains_call_direct_and_nested() {
        let s = Stmt::Assign {
            name: "x".into(),
            ty: None,
            value: call("item", "price"),
        };
        assert!(s.contains_call());

        let nested = Stmt::If {
            cond: Expr::Lit(Value::Bool(true)),
            then_body: vec![Stmt::Expr(call("item", "update_stock"))],
            else_body: vec![],
        };
        assert!(nested.contains_call());

        let clean = Stmt::Assign {
            name: "x".into(),
            ty: None,
            value: Expr::Binary(
                BinOp::Add,
                Box::new(Expr::Var("a".into())),
                Box::new(Expr::Lit(Value::Int(1))),
            ),
        };
        assert!(!clean.contains_call());
    }

    #[test]
    fn call_inside_expression_detected() {
        // amount * item.price()  — the Figure 1 pattern.
        let e = Expr::Binary(
            BinOp::Mul,
            Box::new(Expr::Var("amount".into())),
            Box::new(call("item", "price")),
        );
        assert!(e.contains_call());
    }

    #[test]
    fn referenced_vars_collects() {
        let e = Expr::Binary(
            BinOp::Add,
            Box::new(Expr::Var("a".into())),
            Box::new(Expr::Index(
                Box::new(Expr::Var("xs".into())),
                Box::new(Expr::Var("i".into())),
            )),
        );
        let mut vars = std::collections::BTreeSet::new();
        e.referenced_vars(&mut vars);
        // Symbol sets iterate in interning order; compare name-sorted.
        let mut names: Vec<&str> = vars.iter().map(|s| s.as_str()).collect();
        names.sort_unstable();
        assert_eq!(names, vec!["a", "i", "xs"]);
    }

    #[test]
    fn initial_state_sets_key_and_defaults() {
        let class = EntityClass {
            name: "User".into(),
            attrs: vec![
                AttrDef {
                    name: "username".into(),
                    ty: Type::Str,
                    default: Value::Str("".into()),
                },
                AttrDef {
                    name: "balance".into(),
                    ty: Type::Int,
                    default: Value::Int(1),
                },
            ],
            key_attr: "username".into(),
            methods: vec![],
        };
        let st = class.initial_state("alice", [("balance".to_string(), Value::Int(10))]);
        assert_eq!(st["username"], Value::Str("alice".into()));
        assert_eq!(st["balance"], Value::Int(10));
    }

    #[test]
    fn builtin_arity() {
        assert_eq!(Builtin::Len.arity(), 1);
        assert_eq!(Builtin::Put.arity(), 3);
    }
}
