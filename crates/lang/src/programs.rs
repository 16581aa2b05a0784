//! Reference entity programs used across tests, examples and benchmarks.

use crate::ast::Program;
use crate::builder::*;
use crate::types::Type;
use crate::value::Value;

/// The running example of the paper (Figure 1): a `User` entity buying units
/// of an `Item` entity, with a compensating stock update on failure.
///
/// ```python
/// @entity
/// class Item:
///     def __key__(self): return self.item_id
///     def price(self) -> int: return self.price
///     def update_stock(self, amount: int) -> bool:
///         self.stock += amount
///         return self.stock >= 0
///
/// @entity
/// class User:
///     def __key__(self): return self.username
///     @transactional
///     def buy_item(self, amount: int, item: Item) -> bool:
///         total_price: int = amount * item.price()
///         if self.balance < total_price: return False
///         available: bool = item.update_stock(-amount)
///         if not available:
///             item.update_stock(amount)   # compensate
///             return False
///         self.balance -= total_price
///         return True
/// ```
pub fn figure1_program() -> Program {
    let item = ClassBuilder::new("Item")
        .attr_default("item_id", Type::Str, Value::Str(String::new()))
        .attr_default("stock", Type::Int, Value::Int(0))
        .attr_default("price", Type::Int, Value::Int(0))
        .key("item_id")
        .method(
            MethodBuilder::new("price")
                .returns(Type::Int)
                .body(vec![ret(attr("price"))]),
        )
        .method(
            MethodBuilder::new("update_stock")
                .param("amount", Type::Int)
                .returns(Type::Bool)
                .body(vec![
                    attr_add("stock", var("amount")),
                    ret(ge(attr("stock"), int(0))),
                ]),
        )
        .build();

    let user = ClassBuilder::new("User")
        .attr_default("username", Type::Str, Value::Str(String::new()))
        .attr_default("balance", Type::Int, Value::Int(1))
        .key("username")
        .method(
            MethodBuilder::new("balance")
                .returns(Type::Int)
                .body(vec![ret(attr("balance"))]),
        )
        .method(
            MethodBuilder::new("deposit")
                .param("amount", Type::Int)
                .returns(Type::Int)
                .body(vec![
                    attr_add("balance", var("amount")),
                    ret(attr("balance")),
                ]),
        )
        .method(
            MethodBuilder::new("buy_item")
                .param("amount", Type::Int)
                .param("item", Type::entity("Item"))
                .returns(Type::Bool)
                .transactional()
                .body(vec![
                    // total_price: int = amount * item.price()
                    assign_ty(
                        "total_price",
                        Type::Int,
                        mul(var("amount"), call(var("item"), "price", vec![])),
                    ),
                    // if self.balance < total_price: return False
                    if_(
                        lt(attr("balance"), var("total_price")),
                        vec![ret(lit(false))],
                    ),
                    // available: bool = item.update_stock(-amount)
                    assign_ty(
                        "available",
                        Type::Bool,
                        call(var("item"), "update_stock", vec![neg(var("amount"))]),
                    ),
                    // if not available: item.update_stock(amount); return False
                    if_(
                        not(var("available")),
                        vec![
                            expr_stmt(call(var("item"), "update_stock", vec![var("amount")])),
                            ret(lit(false)),
                        ],
                    ),
                    // self.balance -= total_price; return True
                    attr_assign("balance", sub(attr("balance"), var("total_price"))),
                    ret(lit(true)),
                ]),
        )
        .build();

    Program::new(vec![user, item])
}

/// A single-entity counter: the smallest useful program (no remote calls, so
/// no function splitting happens — a one-block method).
pub fn counter_program() -> Program {
    let counter = ClassBuilder::new("Counter")
        .attr_default("counter_id", Type::Str, Value::Str(String::new()))
        .attr_default("count", Type::Int, Value::Int(0))
        .key("counter_id")
        .method(
            MethodBuilder::new("incr")
                .param("by", Type::Int)
                .returns(Type::Int)
                .body(vec![attr_add("count", var("by")), ret(attr("count"))]),
        )
        .method(
            MethodBuilder::new("get")
                .returns(Type::Int)
                .body(vec![ret(attr("count"))]),
        )
        .build();
    Program::new(vec![counter])
}

/// Version 2 of [`counter_program`] for live-upgrade tests.
///
/// Changes relative to v1:
/// - `incr` counts *double*: `count += by * 2` (observable switchover — a
///   post-upgrade `incr(3)` adds 6 where v1 added 3);
/// - a new `shadow` attribute plus a `get_shadow` reader;
/// - a `__migrate__` method that seeds `shadow = count * 10` exactly once
///   at the upgrade boundary (migrate-exactly-once tests assert that later
///   `incr` calls do not touch it);
/// - `get` is byte-identical to v1.
pub fn counter_v2_program() -> Program {
    let counter = ClassBuilder::new("Counter")
        .attr_default("counter_id", Type::Str, Value::Str(String::new()))
        .attr_default("count", Type::Int, Value::Int(0))
        .attr_default("shadow", Type::Int, Value::Int(0))
        .key("counter_id")
        .method(
            MethodBuilder::new("incr")
                .param("by", Type::Int)
                .returns(Type::Int)
                .body(vec![
                    attr_add("count", mul(var("by"), int(2))),
                    ret(attr("count")),
                ]),
        )
        .method(
            MethodBuilder::new("get")
                .returns(Type::Int)
                .body(vec![ret(attr("count"))]),
        )
        .method(
            MethodBuilder::new("get_shadow")
                .returns(Type::Int)
                .body(vec![ret(attr("shadow"))]),
        )
        .migration(vec![attr_assign("shadow", mul(attr("count"), int(10)))])
        .build();
    Program::new(vec![counter])
}

/// A linear call chain of `depth + 1` classes: `C0.relay(x)` calls
/// `C1.relay(x + 1)` via a `next` attribute, and so on; the last class
/// returns its argument.
///
/// Used by the function-to-function ablation benchmark: each extra hop is one
/// more remote call, i.e. one more broker round trip on StateFun-style
/// runtimes versus one internal channel hop on StateFlow.
///
/// Distinct classes keep the call graph acyclic — the model prohibits
/// recursion (§2.2), so a self-referential `Node.relay → Node.relay` would be
/// rejected by analysis.
pub fn chain_program(depth: usize) -> Program {
    let mut classes = Vec::with_capacity(depth + 1);
    for i in 0..=depth {
        let name = format!("C{i}");
        let mut builder = ClassBuilder::new(&name)
            .attr_default("node_id", Type::Str, Value::Str(String::new()))
            .attr_default("hops", Type::Int, Value::Int(0))
            .key("node_id");
        if i < depth {
            let next_class = format!("C{}", i + 1);
            builder = builder.attr("next", Type::entity(&next_class)).method(
                MethodBuilder::new("relay")
                    .param("x", Type::Int)
                    .returns(Type::Int)
                    .body(vec![
                        attr_add("hops", int(1)),
                        ret(call(attr("next"), "relay", vec![add(var("x"), int(1))])),
                    ]),
            );
        } else {
            builder = builder.method(
                MethodBuilder::new("relay")
                    .param("x", Type::Int)
                    .returns(Type::Int)
                    .body(vec![attr_add("hops", int(1)), ret(var("x"))]),
            );
        }
        classes.push(builder.build());
    }
    Program::new(classes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::LocalExecutor;
    use crate::value::{EntityRef, Value};

    #[test]
    fn figure1_classes_exist() {
        let p = figure1_program();
        assert!(p.class("User").is_some());
        assert!(p.class("Item").is_some());
        assert!(
            p.class("User")
                .unwrap()
                .method("buy_item")
                .unwrap()
                .transactional
        );
    }

    #[test]
    fn counter_increments() {
        let p = counter_program();
        let mut exec = LocalExecutor::new(&p);
        let c = exec.create("Counter", "c1", []).unwrap();
        assert_eq!(
            exec.invoke(&c, "incr", vec![Value::Int(3)]).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            exec.invoke(&c, "incr", vec![Value::Int(4)]).unwrap(),
            Value::Int(7)
        );
        assert_eq!(exec.invoke(&c, "get", vec![]).unwrap(), Value::Int(7));
    }

    #[test]
    fn chain_relays_end_to_end() {
        let depth = 4;
        let p = chain_program(depth);
        let mut exec = LocalExecutor::new(&p);
        // Wire C0 -> C1 -> ... -> C4.
        let mut refs = Vec::new();
        for i in (0..=depth).rev() {
            let class = format!("C{i}");
            let init: Vec<(String, Value)> = if i < depth {
                vec![(
                    "next".to_string(),
                    Value::Ref(EntityRef::new(format!("C{}", i + 1), "n")),
                )]
            } else {
                vec![]
            };
            refs.push(exec.create(&class, "n", init).unwrap());
        }
        let head = *refs.last().unwrap();
        let out = exec.invoke(&head, "relay", vec![Value::Int(100)]).unwrap();
        assert_eq!(out, Value::Int(100 + depth as i64));
        // Every node counted a hop.
        for r in &refs {
            assert_eq!(exec.store().state(r).unwrap()["hops"], Value::Int(1));
        }
    }
}
