//! **Microbenchmark M2** — substrate operation costs.
//!
//! Criterion measurements of the building blocks every end-to-end number is
//! made of: broker produce/fetch, state-store access, Zipfian sampling,
//! Aria reservation + conflict analysis, invocation processing, and
//! event-size estimation.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use se_aria::{CommitRule, ReservationTable, TxnBuffer};
use se_broker::Broker;
use se_dataflow::{NetConfig, StateStore};
use se_ir::{process_invocation, Invocation, RequestId};
use se_lang::{EntityRef, EntityState, Value};
use se_workloads::{KeyChooser, Uniform, Zipfian};

fn bench_broker(c: &mut Criterion) {
    let mut group = c.benchmark_group("broker");
    let net = NetConfig {
        broker_hop: std::time::Duration::ZERO,
        ..NetConfig::fast_test()
    };
    let broker: Broker<u64> = Broker::new(net);
    broker.create_topic("t", 4);
    group.bench_function("produce", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            broker.produce("t", "key", i, 64).unwrap()
        })
    });
    for _ in 0..10_000 {
        broker.produce("t", "warm", 1, 64).unwrap();
    }
    let p = se_ir::partition_for("warm", 4);
    group.bench_function("fetch_32", |b| {
        b.iter(|| broker.fetch("t", p, 0, 32).unwrap())
    });
    group.finish();
}

fn bench_state_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("state_store");
    let mut store = StateStore::new();
    for i in 0..10_000 {
        let mut st = EntityState::new();
        st.insert("balance", Value::Int(i));
        store.insert(EntityRef::new("Account", format!("a{i}")), st);
    }
    let hot = EntityRef::new("Account", "a5000");
    group.bench_function("get", |b| b.iter(|| store.get(std::hint::black_box(&hot))));
    group.bench_function("apply_write", |b| {
        b.iter(|| store.apply_write(&hot, "balance", Value::Int(1)).unwrap())
    });
    group.bench_function("snapshot_clone_10k", |b| b.iter(|| store.clone().len()));
    group.finish();
}

fn bench_distributions(c: &mut Criterion) {
    let mut group = c.benchmark_group("key_choosers");
    let mut rng = StdRng::seed_from_u64(1);
    let mut zipf = Zipfian::new(1_000_000);
    let mut uni = Uniform::new(1_000_000);
    group.bench_function("zipfian", |b| b.iter(|| zipf.next_key(&mut rng)));
    group.bench_function("uniform", |b| b.iter(|| uni.next_key(&mut rng)));
    group.finish();
}

fn bench_aria(c: &mut Criterion) {
    let mut group = c.benchmark_group("aria");
    // Build a batch of 64 transfer-shaped buffers over 1000 keys.
    let buffers: Vec<(u64, TxnBuffer)> = (0..64u64)
        .map(|i| {
            let mut buf = TxnBuffer::new();
            let from = EntityRef::new("Account", format!("a{}", i % 50));
            let to = EntityRef::new("Account", format!("a{}", (i * 7) % 50));
            let before = EntityState::from([("balance".to_string(), Value::Int(100))]);
            let after = EntityState::from([("balance".to_string(), Value::Int(99))]);
            buf.overlay_read(&from, &before);
            buf.record_effects(&from, &before, &after);
            buf.overlay_read(&to, &before);
            buf.record_effects(&to, &before, &after);
            (i, buf)
        })
        .collect();
    group.bench_function("reserve_batch_64", |b| {
        b.iter(|| {
            let mut table = ReservationTable::new();
            for (id, buf) in &buffers {
                table.reserve(*id, buf);
            }
            table
        })
    });
    let mut table = ReservationTable::new();
    for (id, buf) in &buffers {
        table.reserve(*id, buf);
    }
    group.bench_function("decide_batch_64", |b| {
        b.iter(|| {
            buffers
                .iter()
                .filter(|(id, buf)| {
                    table.decide(*id, buf, CommitRule::Reordering) == se_aria::Decision::Commit
                })
                .count()
        })
    });
    group.finish();
}

fn bench_invocation(c: &mut Criterion) {
    let mut group = c.benchmark_group("invocation");
    let program = se_lang::programs::figure1_program();
    let graph = se_core::compile(&program).unwrap();
    let item_class = &graph.program.class("Item").unwrap().class;
    let state_template = item_class.initial_state("i", [("price".to_string(), Value::Int(30))]);

    group.bench_function("simple_getter", |b| {
        b.iter(|| {
            let inv = Invocation::root(RequestId(1), EntityRef::new("Item", "i"), "price", vec![]);
            let mut state = state_template.clone();
            process_invocation(&graph.program, inv, &mut state)
        })
    });

    let inv_template = Invocation::root(
        RequestId(1),
        EntityRef::new("User", "u"),
        "buy_item",
        vec![Value::Int(2), Value::Ref(EntityRef::new("Item", "i"))],
    );
    let user_state = graph
        .program
        .class("User")
        .unwrap()
        .class
        .initial_state("u", [("balance".to_string(), Value::Int(100))]);
    group.bench_function("split_first_block", |b| {
        b.iter(|| {
            let mut state = user_state.clone();
            process_invocation(&graph.program, inv_template.clone(), &mut state)
        })
    });
    group.bench_function("approx_size", |b| {
        b.iter(|| std::hint::black_box(&inv_template).approx_size())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_broker,
    bench_state_store,
    bench_distributions,
    bench_aria,
    bench_invocation
);
criterion_main!(benches);
