//! A partial TPC-C authored in the entity DSL.
//!
//! "StateFlow is already able to execute transactional workloads (YCSB-T and
//! partly TPC-C)" (§3). This module implements that "partly": the
//! **Payment** and a simplified **NewOrder** transaction over Warehouse /
//! District / Customer / Stock entities. NewOrder iterates a list of stock
//! entities with a remote call inside the loop body — the control-flow +
//! remote-call combination that exercises the paper's loop-splitting rules
//! (§2.4) hardest.
//!
//! Simplifications vs. the full spec: no order
//! lines or carrier/delivery queues, integer money, and item prices folded
//! into stock entities. The *transactional shape* (multi-entity read/write
//! sets, per-district order-id sequencing, the 10%-remote-warehouse
//! cross-partition accesses) is preserved.

use se_lang::builder::*;
use se_lang::{Program, Type, Value};

/// The partial TPC-C entity program.
pub fn tpcc_program() -> Program {
    let warehouse = ClassBuilder::new("Warehouse")
        .attr_default("w_id", Type::Str, Value::Str(String::new()))
        .attr_default("w_ytd", Type::Int, Value::Int(0))
        .attr_default("w_tax", Type::Int, Value::Int(7))
        .key("w_id")
        .method(
            MethodBuilder::new("receive_payment")
                .param("amount", Type::Int)
                .returns(Type::Int)
                .body(vec![attr_add("w_ytd", var("amount")), ret(attr("w_ytd"))]),
        )
        .build();

    let district = ClassBuilder::new("District")
        .attr_default("d_id", Type::Str, Value::Str(String::new()))
        .attr_default("d_ytd", Type::Int, Value::Int(0))
        .attr_default("d_next_o_id", Type::Int, Value::Int(3000))
        .key("d_id")
        .method(
            MethodBuilder::new("receive_payment")
                .param("amount", Type::Int)
                .returns(Type::Int)
                .body(vec![attr_add("d_ytd", var("amount")), ret(attr("d_ytd"))]),
        )
        .method(
            MethodBuilder::new("next_order_id")
                .returns(Type::Int)
                .body(vec![
                    attr_add("d_next_o_id", int(1)),
                    ret(attr("d_next_o_id")),
                ]),
        )
        .build();

    let stock = ClassBuilder::new("Stock")
        .attr_default("s_id", Type::Str, Value::Str(String::new()))
        .attr_default("s_quantity", Type::Int, Value::Int(100))
        .attr_default("s_ytd", Type::Int, Value::Int(0))
        .attr_default("s_order_cnt", Type::Int, Value::Int(0))
        .key("s_id")
        // TPC-C stock update rule: restock by 91 when falling below 10.
        .method(
            MethodBuilder::new("take")
                .param("qty", Type::Int)
                .returns(Type::Int)
                .body(vec![
                    if_else(
                        ge(sub(attr("s_quantity"), var("qty")), int(10)),
                        vec![attr_assign(
                            "s_quantity",
                            sub(attr("s_quantity"), var("qty")),
                        )],
                        vec![attr_assign(
                            "s_quantity",
                            add(sub(attr("s_quantity"), var("qty")), int(91)),
                        )],
                    ),
                    attr_add("s_ytd", var("qty")),
                    attr_add("s_order_cnt", int(1)),
                    ret(attr("s_quantity")),
                ]),
        )
        .build();

    let customer = ClassBuilder::new("Customer")
        .attr_default("c_id", Type::Str, Value::Str(String::new()))
        .attr_default("c_balance", Type::Int, Value::Int(0))
        .attr_default("c_ytd_payment", Type::Int, Value::Int(0))
        .attr_default("c_payment_cnt", Type::Int, Value::Int(0))
        .attr_default("c_order_cnt", Type::Int, Value::Int(0))
        .key("c_id")
        .method(
            MethodBuilder::new("balance")
                .returns(Type::Int)
                .body(vec![ret(attr("c_balance"))]),
        )
        // TPC-C Payment: touches customer + warehouse + district atomically.
        .method(
            MethodBuilder::new("payment")
                .param("warehouse", Type::entity("Warehouse"))
                .param("district", Type::entity("District"))
                .param("amount", Type::Int)
                .returns(Type::Int)
                .transactional()
                .body(vec![
                    attr_assign("c_balance", sub(attr("c_balance"), var("amount"))),
                    attr_add("c_ytd_payment", var("amount")),
                    attr_add("c_payment_cnt", int(1)),
                    expr_stmt(call(
                        var("warehouse"),
                        "receive_payment",
                        vec![var("amount")],
                    )),
                    expr_stmt(call(
                        var("district"),
                        "receive_payment",
                        vec![var("amount")],
                    )),
                    ret(attr("c_balance")),
                ]),
        )
        // Simplified TPC-C NewOrder: sequence an order id at the district,
        // then decrement every ordered stock (remote call inside a loop).
        .method(
            MethodBuilder::new("new_order")
                .param("district", Type::entity("District"))
                .param("stocks", Type::list(Type::entity("Stock")))
                .param("qty", Type::Int)
                .returns(Type::Int)
                .transactional()
                .body(vec![
                    assign_ty(
                        "oid",
                        Type::Int,
                        call(var("district"), "next_order_id", vec![]),
                    ),
                    for_list(
                        "s",
                        var("stocks"),
                        vec![expr_stmt(call(var("s"), "take", vec![var("qty")]))],
                    ),
                    attr_add("c_order_cnt", int(1)),
                    ret(var("oid")),
                ]),
        )
        .build();

    Program::new(vec![warehouse, district, stock, customer])
}

/// Scale factors for loading.
#[derive(Debug, Clone, Copy)]
pub struct TpccScale {
    /// Number of warehouses.
    pub warehouses: usize,
    /// Districts per warehouse.
    pub districts_per_warehouse: usize,
    /// Customers per district.
    pub customers_per_district: usize,
    /// Stock items per warehouse.
    pub stock_per_warehouse: usize,
}

impl Default for TpccScale {
    fn default() -> Self {
        Self {
            warehouses: 2,
            districts_per_warehouse: 10,
            customers_per_district: 30,
            stock_per_warehouse: 100,
        }
    }
}

/// Entity key helpers.
pub mod keys {
    /// Warehouse `w`.
    pub fn warehouse(w: usize) -> String {
        format!("w{w}")
    }
    /// District `d` of warehouse `w`.
    pub fn district(w: usize, d: usize) -> String {
        format!("w{w}d{d}")
    }
    /// Customer `c` of district `d` of warehouse `w`.
    pub fn customer(w: usize, d: usize, c: usize) -> String {
        format!("w{w}d{d}c{c}")
    }
    /// Stock item `s` of warehouse `w`.
    pub fn stock(w: usize, s: usize) -> String {
        format!("w{w}s{s}")
    }
}

/// Creates all entities of the schema at the given scale.
pub fn load(rt: &dyn se_dataflow::EntityRuntime, scale: TpccScale) {
    std::thread::scope(|scope| {
        for w in 0..scale.warehouses {
            let rt = &rt;
            scope.spawn(move || {
                rt.create("Warehouse", &keys::warehouse(w), vec![])
                    .expect("create warehouse");
                for d in 0..scale.districts_per_warehouse {
                    rt.create("District", &keys::district(w, d), vec![])
                        .expect("create district");
                    for c in 0..scale.customers_per_district {
                        rt.create(
                            "Customer",
                            &keys::customer(w, d, c),
                            vec![("c_balance".to_string(), Value::Int(1_000))],
                        )
                        .expect("create customer");
                    }
                }
                for s in 0..scale.stock_per_warehouse {
                    rt.create("Stock", &keys::stock(w, s), vec![])
                        .expect("create stock");
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use se_core::{deploy, RuntimeChoice, StateflowConfig};
    use se_lang::EntityRef;

    #[test]
    fn program_typechecks_and_compiles() {
        let p = tpcc_program();
        se_lang::typecheck::check_program(&p).unwrap();
        let g = se_core::compile(&p).unwrap();
        // payment: 2 calls; new_order: 1 + in-loop call.
        assert_eq!(
            g.program
                .method_or_err("Customer", "payment")
                .unwrap()
                .suspension_points(),
            2
        );
        assert_eq!(
            g.program
                .method_or_err("Customer", "new_order")
                .unwrap()
                .suspension_points(),
            2
        );
    }

    #[test]
    fn payment_and_new_order_on_stateflow() {
        let p = tpcc_program();
        let rt = deploy(&p, RuntimeChoice::Stateflow(StateflowConfig::fast_test(3))).unwrap();
        let scale = TpccScale {
            warehouses: 1,
            districts_per_warehouse: 2,
            customers_per_district: 2,
            stock_per_warehouse: 5,
        };
        load(rt.as_ref(), scale);

        let cust = EntityRef::new("Customer", keys::customer(0, 0, 0));
        let w = EntityRef::new("Warehouse", keys::warehouse(0));
        let d = EntityRef::new("District", keys::district(0, 0));

        let bal = rt
            .call(
                cust,
                "payment",
                vec![Value::Ref(w), Value::Ref(d), Value::Int(100)],
            )
            .unwrap();
        assert_eq!(bal, Value::Int(900));
        assert_eq!(
            rt.call(w, "receive_payment", vec![Value::Int(0)]).unwrap(),
            Value::Int(100),
            "warehouse ytd accumulated"
        );

        let stocks = Value::List(vec![
            Value::Ref(EntityRef::new("Stock", keys::stock(0, 1))),
            Value::Ref(EntityRef::new("Stock", keys::stock(0, 2))),
            Value::Ref(EntityRef::new("Stock", keys::stock(0, 3))),
        ]);
        let oid = rt
            .call(
                cust,
                "new_order",
                vec![Value::Ref(d), stocks, Value::Int(7)],
            )
            .unwrap();
        assert_eq!(oid, Value::Int(3001));
        // Stock 1..=3 each lost 7 units.
        let q = rt
            .call(
                EntityRef::new("Stock", keys::stock(0, 2)),
                "take",
                vec![Value::Int(0)],
            )
            .unwrap();
        assert_eq!(q, Value::Int(93));
        rt.shutdown();
    }

    #[test]
    fn stock_restocks_below_threshold() {
        let p = tpcc_program();
        let rt = deploy(&p, RuntimeChoice::Local).unwrap();
        let s = rt
            .create("Stock", "s1", vec![("s_quantity".into(), Value::Int(12))])
            .unwrap();
        // 12 - 7 = 5 < 10 → restock: 12 - 7 + 91 = 96.
        assert_eq!(
            rt.call(s, "take", vec![Value::Int(7)]).unwrap(),
            Value::Int(96)
        );
    }
}
