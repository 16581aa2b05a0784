//! **Microbenchmark M3** — interpreter + state-store hot loop under churn.
//!
//! The three allocation sources this repository's perf work targets, measured
//! in isolation so regressions are attributable:
//!
//! * **interp** — steady-state interpretation: local-variable assignment
//!   churn and attribute read/write inside one method activation (the
//!   per-assignment key-clone cost of the environment map).
//! * **invoke** — `process_invocation` chains through the split-function
//!   protocol (environment construction, frame push/pop, state in/out).
//! * **snapshot** — wholesale `StateStore` clones at several entity-state
//!   sizes, plus per-invocation state extraction (`get_cloned`, the Aria
//!   execute-phase read). Copy-on-write state makes both O(1) in the size of
//!   *unmutated* entity state; the `_64k` variants exist to expose any
//!   size-dependence.
//! * **churn** — mutate a few entities, then snapshot: the steady-state cost
//!   of checkpointing under write load (write amplification should track the
//!   write set, not the store size).
//! * **vm** — the same split-method bodies executed by the tree-walking
//!   reference interpreter vs. the `se-vm` bytecode VM, through the
//!   identical invocation-event protocol, so the delta is pure dispatch cost.

use criterion::{criterion_group, criterion_main, Criterion};

use se_dataflow::StateStore;
use se_ir::{drive_chain, drive_chain_with, InterpBody, Invocation, RequestId};
use se_lang::builder::*;
use se_lang::{EntityRef, EntityState, LocalExecutor, Program, Type, Value};
use se_vm::VmProgram;

/// A method that churns method-local variables: `spin(n)` runs `n` loop
/// iterations, each performing four assignments and five variable reads.
fn churn_program() -> Program {
    let cell = ClassBuilder::new("Cell")
        .attr_default("cell_id", Type::Str, Value::Str(String::new()))
        .attr_default("acc", Type::Int, Value::Int(0))
        .key("cell_id")
        .method(
            MethodBuilder::new("spin")
                .param("n", Type::Int)
                .returns(Type::Int)
                .body(vec![
                    assign("i", int(0)),
                    assign("a", int(1)),
                    assign("b", int(2)),
                    while_(
                        lt(var("i"), var("n")),
                        vec![
                            assign("a", add(var("a"), var("b"))),
                            assign("b", add(var("b"), var("i"))),
                            assign("i", add(var("i"), int(1))),
                        ],
                    ),
                    attr_assign("acc", var("a")),
                    ret(var("a")),
                ]),
        )
        .build();
    Program::new(vec![cell])
}

fn bench_interp(c: &mut Criterion) {
    let mut group = c.benchmark_group("interp");
    let program = churn_program();
    se_lang::typecheck::check_program(&program).unwrap();

    let mut exec = LocalExecutor::new(&program);
    let cell = exec.create("Cell", "c", []).unwrap();
    group.bench_function("spin_256", |b| {
        b.iter(|| exec.invoke(&cell, "spin", vec![Value::Int(256)]).unwrap())
    });

    let fig1 = se_lang::programs::figure1_program();
    let mut exec = LocalExecutor::new(&fig1);
    let user = exec
        .create(
            "User",
            "u",
            [("balance".to_string(), Value::Int(1_000_000))],
        )
        .unwrap();
    let item = exec
        .create(
            "Item",
            "i",
            [
                ("price".to_string(), Value::Int(1)),
                ("stock".to_string(), Value::Int(1_000_000)),
            ],
        )
        .unwrap();
    group.bench_function("buy_item_local", |b| {
        b.iter(|| {
            exec.invoke(&user, "buy_item", vec![Value::Int(1), Value::Ref(item)])
                .unwrap()
        })
    });
    group.finish();
}

fn bench_invoke(c: &mut Criterion) {
    let mut group = c.benchmark_group("invoke");
    let fig1 = se_lang::programs::figure1_program();
    let graph = se_core::compile(&fig1).unwrap();
    let user = EntityRef::new("User", "u");
    let item = EntityRef::new("Item", "i");
    let mut store = StateStore::new();
    store.insert(
        user,
        graph
            .program
            .class("User")
            .unwrap()
            .class
            .initial_state("u", [("balance".to_string(), Value::Int(1_000_000))]),
    );
    store.insert(
        item,
        graph.program.class("Item").unwrap().class.initial_state(
            "i",
            [
                ("price".to_string(), Value::Int(1)),
                ("stock".to_string(), Value::Int(1_000_000)),
            ],
        ),
    );
    let store = std::cell::RefCell::new(store);
    group.bench_function("buy_item_chain", |b| {
        b.iter(|| {
            let root = Invocation::root(
                RequestId(1),
                user,
                "buy_item",
                vec![Value::Int(1), Value::Ref(item)],
            );
            let resp = drive_chain(
                &graph.program,
                root,
                |r| store.borrow().get_cloned(r),
                |r, s| store.borrow_mut().insert(*r, s),
                16,
            );
            resp.result.unwrap()
        })
    });
    group.finish();
}

/// Interp vs. VM on identical compiled bodies: the loop-heavy `spin` method
/// (dispatch-dominated) and the Figure-1 invocation chain (suspension +
/// resume protocol included).
fn bench_vm(c: &mut Criterion) {
    let mut group = c.benchmark_group("vm");

    // spin(256): one entity, no suspensions — pure body-execution cost.
    let churn = churn_program();
    let graph = se_core::compile(&churn).unwrap();
    let vm = VmProgram::compile(&graph.program);
    let cell = EntityRef::new("Cell", "c");
    let init = graph
        .program
        .class("Cell")
        .unwrap()
        .class
        .initial_state("c", []);
    let spin_root =
        |req: u64| Invocation::root(RequestId(req), cell, "spin", vec![Value::Int(256)]);
    {
        let state = std::cell::RefCell::new(init.clone());
        group.bench_function("spin_256_blocks_interp", |b| {
            b.iter(|| {
                drive_chain(
                    &graph.program,
                    spin_root(1),
                    |_| Ok(state.borrow().clone()),
                    |_, s| *state.borrow_mut() = s,
                    4,
                )
                .result
                .unwrap()
            })
        });
    }
    {
        let state = std::cell::RefCell::new(init.clone());
        group.bench_function("spin_256_vm", |b| {
            b.iter(|| {
                drive_chain_with(
                    &graph.program,
                    &vm,
                    spin_root(2),
                    |_| Ok(state.borrow().clone()),
                    |_, s| *state.borrow_mut() = s,
                    4,
                )
                .result
                .unwrap()
            })
        });
    }

    // Figure-1 buy_item: a 5-hop suspension/resume chain across two
    // entities, per backend.
    let fig1 = se_lang::programs::figure1_program();
    let graph = se_core::compile(&fig1).unwrap();
    let vm = VmProgram::compile(&graph.program);
    let user = EntityRef::new("User", "u");
    let item = EntityRef::new("Item", "i");
    // Each backend gets its own freshly seeded store so balance/stock
    // drift from the earlier bench cannot flip later iterations onto the
    // short-circuit (insufficient funds) path.
    let mk_store = || {
        let mut store = StateStore::new();
        store.insert(
            user,
            graph
                .program
                .class("User")
                .unwrap()
                .class
                .initial_state("u", [("balance".to_string(), Value::Int(1_000_000))]),
        );
        store.insert(
            item,
            graph.program.class("Item").unwrap().class.initial_state(
                "i",
                [
                    ("price".to_string(), Value::Int(1)),
                    ("stock".to_string(), Value::Int(1_000_000)),
                ],
            ),
        );
        std::cell::RefCell::new(store)
    };
    let buy_root = |req: u64| {
        Invocation::root(
            RequestId(req),
            user,
            "buy_item",
            vec![Value::Int(1), Value::Ref(item)],
        )
    };
    {
        let store = mk_store();
        group.bench_function("buy_item_chain_interp", |b| {
            b.iter(|| {
                drive_chain_with(
                    &graph.program,
                    &InterpBody,
                    buy_root(3),
                    |r| store.borrow().get_cloned(r),
                    |r, s| store.borrow_mut().insert(*r, s),
                    16,
                )
                .result
                .unwrap()
            })
        });
    }
    {
        let store = mk_store();
        group.bench_function("buy_item_chain_vm", |b| {
            b.iter(|| {
                drive_chain_with(
                    &graph.program,
                    &vm,
                    buy_root(4),
                    |r| store.borrow().get_cloned(r),
                    |r, s| store.borrow_mut().insert(*r, s),
                    16,
                )
                .result
                .unwrap()
            })
        });
    }
    group.finish();
}

/// A store of `n` accounts, each carrying a payload of `payload` bytes.
fn store_with(n: usize, payload: usize) -> StateStore {
    let mut store = StateStore::new();
    for i in 0..n {
        let mut st = EntityState::new();
        st.insert("balance".to_string(), Value::Int(i as i64));
        st.insert("data".to_string(), Value::Bytes(vec![7u8; payload]));
        store.insert(EntityRef::new("Account", format!("a{i}")), st);
    }
    store
}

fn bench_snapshot(c: &mut Criterion) {
    let mut group = c.benchmark_group("snapshot");
    for (name, payload) in [("small", 64usize), ("64k", 64 * 1024)] {
        let store = store_with(1000, payload);
        group.bench_function(format!("clone_1k_{name}"), |b| {
            b.iter(|| store.clone().len())
        });
        let hot = EntityRef::new("Account", "a500");
        group.bench_function(format!("get_cloned_{name}"), |b| {
            b.iter(|| store.get_cloned(&hot).unwrap().len())
        });
    }
    group.finish();

    let mut group = c.benchmark_group("churn");
    // Steady-state checkpointing: mutate 10 of 1000 entities, then snapshot.
    let mut store = store_with(1000, 4096);
    let keys: Vec<EntityRef> = (0..10)
        .map(|i| EntityRef::new("Account", format!("a{}", i * 97)))
        .collect();
    group.bench_function("write10_snapshot_1k_4k", |b| {
        let mut v = 0i64;
        b.iter(|| {
            v += 1;
            for k in &keys {
                store.apply_write(k, "balance", Value::Int(v)).unwrap();
            }
            store.clone().len()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_interp,
    bench_invoke,
    bench_vm,
    bench_snapshot
);
criterion_main!(benches);
