//! Fluent builders for authoring entity programs in Rust.
//!
//! The paper embeds its DSL in Python (decorated classes). The Rust
//! equivalent of that "internal DSL" is this builder module: free functions
//! build expressions/statements and [`ClassBuilder`]/[`MethodBuilder`] build
//! classes — producing exactly the AST that the Python `ast` analysis of the
//! paper would have produced.
//!
//! ```
//! use se_lang::builder::*;
//! use se_lang::{Type, Value};
//!
//! // def price(self) -> int: return self.price
//! let item = ClassBuilder::new("Item")
//!     .attr_default("item_id", Type::Str, Value::Str(String::new()))
//!     .attr_default("price", Type::Int, Value::Int(0))
//!     .key("item_id")
//!     .method(
//!         MethodBuilder::new("price")
//!             .returns(Type::Int)
//!             .body(vec![ret(attr("price"))]),
//!     )
//!     .build();
//! assert_eq!(item.methods.len(), 1);
//! ```

use crate::ast::{AttrDef, BinOp, Builtin, CallExpr, EntityClass, Expr, Method, Param, Stmt, UnOp};
use crate::symbol::Symbol;
use crate::types::Type;
use crate::value::Value;

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

/// Literal value.
pub fn lit(v: impl Into<Value>) -> Expr {
    Expr::Lit(v.into())
}

/// Integer literal.
pub fn int(v: i64) -> Expr {
    Expr::Lit(Value::Int(v))
}

/// Local variable / parameter read.
pub fn var(name: impl Into<Symbol>) -> Expr {
    Expr::Var(name.into())
}

/// `self.<attr>` read.
pub fn attr(name: impl Into<Symbol>) -> Expr {
    Expr::Attr(name.into())
}

fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
    Expr::Binary(op, Box::new(l), Box::new(r))
}

/// `l + r`
pub fn add(l: Expr, r: Expr) -> Expr {
    bin(BinOp::Add, l, r)
}
/// `l - r`
pub fn sub(l: Expr, r: Expr) -> Expr {
    bin(BinOp::Sub, l, r)
}
/// `l * r`
pub fn mul(l: Expr, r: Expr) -> Expr {
    bin(BinOp::Mul, l, r)
}
/// `l / r`
pub fn div(l: Expr, r: Expr) -> Expr {
    bin(BinOp::Div, l, r)
}
/// `l % r`
pub fn modulo(l: Expr, r: Expr) -> Expr {
    bin(BinOp::Mod, l, r)
}
/// `l == r`
pub fn eq(l: Expr, r: Expr) -> Expr {
    bin(BinOp::Eq, l, r)
}
/// `l != r`
pub fn ne(l: Expr, r: Expr) -> Expr {
    bin(BinOp::Ne, l, r)
}
/// `l < r`
pub fn lt(l: Expr, r: Expr) -> Expr {
    bin(BinOp::Lt, l, r)
}
/// `l <= r`
pub fn le(l: Expr, r: Expr) -> Expr {
    bin(BinOp::Le, l, r)
}
/// `l > r`
pub fn gt(l: Expr, r: Expr) -> Expr {
    bin(BinOp::Gt, l, r)
}
/// `l >= r`
pub fn ge(l: Expr, r: Expr) -> Expr {
    bin(BinOp::Ge, l, r)
}
/// `l and r` (short-circuiting)
pub fn and(l: Expr, r: Expr) -> Expr {
    bin(BinOp::And, l, r)
}
/// `l or r` (short-circuiting)
pub fn or(l: Expr, r: Expr) -> Expr {
    bin(BinOp::Or, l, r)
}
/// `not e`
pub fn not(e: Expr) -> Expr {
    Expr::Unary(UnOp::Not, Box::new(e))
}
/// `-e`
pub fn neg(e: Expr) -> Expr {
    Expr::Unary(UnOp::Neg, Box::new(e))
}
/// `base[index]`
pub fn index(base: Expr, idx: Expr) -> Expr {
    Expr::Index(Box::new(base), Box::new(idx))
}
/// `[e0, e1, …]`
pub fn list(items: Vec<Expr>) -> Expr {
    Expr::ListLit(items)
}
/// `len(e)`
pub fn len(e: Expr) -> Expr {
    Expr::Builtin(Builtin::Len, vec![e])
}
/// `min(a, b)`
pub fn min2(a: Expr, b: Expr) -> Expr {
    Expr::Builtin(Builtin::Min, vec![a, b])
}
/// `max(a, b)`
pub fn max2(a: Expr, b: Expr) -> Expr {
    Expr::Builtin(Builtin::Max, vec![a, b])
}
/// `abs(e)`
pub fn abs(e: Expr) -> Expr {
    Expr::Builtin(Builtin::Abs, vec![e])
}
/// `str(e)`
pub fn to_str(e: Expr) -> Expr {
    Expr::Builtin(Builtin::ToStr, vec![e])
}
/// `append(list, x)` — new list with `x` appended.
pub fn append(l: Expr, x: Expr) -> Expr {
    Expr::Builtin(Builtin::Append, vec![l, x])
}
/// `contains(coll, x)`
pub fn contains(coll: Expr, x: Expr) -> Expr {
    Expr::Builtin(Builtin::Contains, vec![coll, x])
}
/// `get(map, key)`
pub fn map_get(m: Expr, k: Expr) -> Expr {
    Expr::Builtin(Builtin::Get, vec![m, k])
}
/// `put(map, key, value)` — new map with entry set.
pub fn map_put(m: Expr, k: Expr, v: Expr) -> Expr {
    Expr::Builtin(Builtin::Put, vec![m, k, v])
}
/// `zeros(n)` — n zero bytes.
pub fn zeros(n: Expr) -> Expr {
    Expr::Builtin(Builtin::Zeros, vec![n])
}

/// Remote method call `target.method(args…)`.
pub fn call(target: Expr, method: impl Into<Symbol>, args: Vec<Expr>) -> Expr {
    Expr::Call(CallExpr {
        target: Box::new(target),
        method: method.into(),
        args,
    })
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

/// `name = value` (type inferred).
pub fn assign(name: impl Into<Symbol>, value: Expr) -> Stmt {
    Stmt::Assign {
        name: name.into(),
        ty: None,
        value,
    }
}

/// `name: ty = value`.
pub fn assign_ty(name: impl Into<Symbol>, ty: Type, value: Expr) -> Stmt {
    Stmt::Assign {
        name: name.into(),
        ty: Some(ty),
        value,
    }
}

/// `self.attr = value`.
pub fn attr_assign(attr: impl Into<Symbol>, value: Expr) -> Stmt {
    Stmt::AttrAssign {
        attr: attr.into(),
        value,
    }
}

/// `self.attr += value` (sugar).
pub fn attr_add(name: impl Into<Symbol>, value: Expr) -> Stmt {
    let name = name.into();
    attr_assign(name, add(attr(name), value))
}

/// `if cond: then_body` with no else.
pub fn if_(cond: Expr, then_body: Vec<Stmt>) -> Stmt {
    Stmt::If {
        cond,
        then_body,
        else_body: vec![],
    }
}

/// `if cond: then_body else: else_body`.
pub fn if_else(cond: Expr, then_body: Vec<Stmt>, else_body: Vec<Stmt>) -> Stmt {
    Stmt::If {
        cond,
        then_body,
        else_body,
    }
}

/// `while cond: body`.
pub fn while_(cond: Expr, body: Vec<Stmt>) -> Stmt {
    Stmt::While { cond, body }
}

/// `for var in iterable: body`.
pub fn for_list(var: impl Into<Symbol>, iterable: Expr, body: Vec<Stmt>) -> Stmt {
    Stmt::ForList {
        var: var.into(),
        iterable,
        body,
    }
}

/// `return expr`.
pub fn ret(expr: Expr) -> Stmt {
    Stmt::Return(expr)
}

/// `return` (unit).
pub fn ret_unit() -> Stmt {
    Stmt::Return(Expr::Lit(Value::Unit))
}

/// Expression statement (evaluate for effect).
pub fn expr_stmt(e: Expr) -> Stmt {
    Stmt::Expr(e)
}

// ---------------------------------------------------------------------------
// Classes & methods
// ---------------------------------------------------------------------------

/// Builder for a [`Method`].
#[derive(Debug, Clone)]
pub struct MethodBuilder {
    name: Symbol,
    params: Vec<Param>,
    ret: Type,
    body: Vec<Stmt>,
    transactional: bool,
}

impl MethodBuilder {
    /// Starts a method named `name` returning `Unit` by default.
    pub fn new(name: impl Into<Symbol>) -> Self {
        Self {
            name: name.into(),
            params: Vec::new(),
            ret: Type::Unit,
            body: Vec::new(),
            transactional: false,
        }
    }

    /// Adds a parameter with its (mandatory) type hint.
    pub fn param(mut self, name: impl Into<Symbol>, ty: Type) -> Self {
        self.params.push(Param {
            name: name.into(),
            ty,
        });
        self
    }

    /// Sets the return type hint.
    pub fn returns(mut self, ty: Type) -> Self {
        self.ret = ty;
        self
    }

    /// Marks the method `@transactional`.
    pub fn transactional(mut self) -> Self {
        self.transactional = true;
        self
    }

    /// Sets the method body.
    pub fn body(mut self, body: Vec<Stmt>) -> Self {
        self.body = body;
        self
    }

    /// Finishes the method.
    pub fn build(self) -> Method {
        Method {
            name: self.name,
            params: self.params,
            ret: self.ret,
            body: self.body,
            transactional: self.transactional,
        }
    }
}

impl From<MethodBuilder> for Method {
    fn from(b: MethodBuilder) -> Method {
        b.build()
    }
}

/// Builder for an [`EntityClass`] — the Rust spelling of `@entity`.
#[derive(Debug, Clone)]
pub struct ClassBuilder {
    name: Symbol,
    attrs: Vec<AttrDef>,
    key_attr: Option<Symbol>,
    methods: Vec<Method>,
}

impl ClassBuilder {
    /// Starts a class named `name`.
    pub fn new(name: impl Into<Symbol>) -> Self {
        Self {
            name: name.into(),
            attrs: Vec::new(),
            key_attr: None,
            methods: Vec::new(),
        }
    }

    /// Reopens an existing class for extension — the natural way to author
    /// a v2 for a live upgrade: start from the deployed class, add
    /// attributes, methods, and a `__migrate__` body. Methods left
    /// untouched stay byte-identical to the deployed ones.
    pub fn from_class(class: EntityClass) -> Self {
        Self {
            name: class.name,
            attrs: class.attrs,
            key_attr: Some(class.key_attr),
            methods: class.methods,
        }
    }

    /// Declares an attribute with the type's default initial value.
    pub fn attr(self, name: impl Into<Symbol>, ty: Type) -> Self {
        let default = ty.default_value();
        self.attr_default(name, ty, default)
    }

    /// Declares an attribute with an explicit initial value.
    pub fn attr_default(mut self, name: impl Into<Symbol>, ty: Type, default: Value) -> Self {
        self.attrs.push(AttrDef {
            name: name.into(),
            ty,
            default,
        });
        self
    }

    /// Declares which attribute the `__key__` function returns.
    pub fn key(mut self, attr: impl Into<Symbol>) -> Self {
        self.key_attr = Some(attr.into());
        self
    }

    /// Adds a method.
    pub fn method(mut self, m: impl Into<Method>) -> Self {
        self.methods.push(m.into());
        self
    }

    /// Declares the class's state-migration method
    /// ([`crate::ast::MIGRATION_METHOD`]): no parameters, `Unit` return,
    /// runs once per entity at a live-upgrade boundary.
    pub fn migration(self, body: Vec<Stmt>) -> Self {
        self.method(
            MethodBuilder::new(crate::ast::MIGRATION_METHOD)
                .returns(Type::Unit)
                .body(body),
        )
    }

    /// Finishes the class.
    ///
    /// # Panics
    /// Panics if no key attribute was declared — every stateful entity must
    /// define `__key__` (§2.2); the type checker re-validates this.
    pub fn build(self) -> EntityClass {
        let key_attr = self
            .key_attr
            .unwrap_or_else(|| panic!("class `{}` must declare a key attribute", self.name));
        EntityClass {
            name: self.name,
            attrs: self.attrs,
            key_attr,
            methods: self.methods,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_class_with_methods() {
        let c = ClassBuilder::new("Counter")
            .attr_default("id", Type::Str, Value::Str(String::new()))
            .attr_default("n", Type::Int, Value::Int(0))
            .key("id")
            .method(
                MethodBuilder::new("incr")
                    .param("by", Type::Int)
                    .returns(Type::Int)
                    .body(vec![attr_add("n", var("by")), ret(attr("n"))]),
            )
            .build();
        assert_eq!(c.name, "Counter");
        assert_eq!(c.key_attr, "id");
        let m = c.method("incr").unwrap();
        assert_eq!(m.params.len(), 1);
        assert_eq!(m.ret, Type::Int);
        assert!(!m.transactional);
    }

    #[test]
    #[should_panic(expected = "must declare a key attribute")]
    fn missing_key_panics() {
        ClassBuilder::new("NoKey").attr("x", Type::Int).build();
    }

    #[test]
    fn sugar_expands() {
        let s = attr_add("stock", var("amount"));
        match s {
            Stmt::AttrAssign { attr: a, value } => {
                assert_eq!(a, "stock");
                assert!(matches!(value, Expr::Binary(BinOp::Add, _, _)));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }
}
