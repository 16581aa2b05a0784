//! End-to-end tests of the StateFun-style runtime: functional correctness,
//! per-key serialization, exactly-once under transactional checkpoints with
//! failure injection — and the multi-entity race the paper warns about.

use std::sync::Arc;
use std::time::Duration;

use se_chaos::ChaosPlan;
use se_compiler::compile;
use se_dataflow::EntityRuntime;
use se_lang::{EntityRef, Program, Value};
use se_statefun::{CheckpointMode, StatefunConfig, StatefunRuntime};

const WAIT: Duration = Duration::from_secs(30);

fn deploy(program: &Program, cfg: StatefunConfig) -> StatefunRuntime {
    let graph = compile(program).expect("program compiles");
    StatefunRuntime::deploy(graph, cfg)
}

#[test]
fn counter_single_entity() {
    let program = se_lang::programs::counter_program();
    let rt = deploy(&program, StatefunConfig::fast_test(3));
    let c = rt.create("Counter", "c1", vec![]).unwrap();
    for i in 1..=5 {
        assert_eq!(
            rt.call(c, "incr", vec![Value::Int(1)]).unwrap(),
            Value::Int(i)
        );
    }
    rt.shutdown();
}

#[test]
fn figure1_split_chain_through_loopback() {
    let program = se_lang::programs::figure1_program();
    let rt = deploy(&program, StatefunConfig::fast_test(3));
    let user = rt
        .create("User", "alice", vec![("balance".into(), Value::Int(100))])
        .unwrap();
    let item = rt
        .create(
            "Item",
            "laptop",
            vec![
                ("price".into(), Value::Int(30)),
                ("stock".into(), Value::Int(5)),
            ],
        )
        .unwrap();
    let ok = rt
        .call(user, "buy_item", vec![Value::Int(2), Value::Ref(item)])
        .unwrap();
    assert_eq!(ok, Value::Bool(true));
    assert_eq!(rt.call(user, "balance", vec![]).unwrap(), Value::Int(40));
    assert_eq!(
        rt.call(item, "update_stock", vec![Value::Int(0)]).unwrap(),
        Value::Bool(true),
        "stock is 3, still non-negative"
    );
    rt.shutdown();
}

#[test]
fn chain_program_multi_hop() {
    let depth = 3;
    let program = se_lang::programs::chain_program(depth);
    let rt = deploy(&program, StatefunConfig::fast_test(2));
    // Wire the chain back-to-front.
    for i in (0..=depth).rev() {
        let init = if i < depth {
            vec![(
                "next".to_string(),
                Value::Ref(EntityRef::new(format!("C{}", i + 1), "n")),
            )]
        } else {
            vec![]
        };
        rt.create(&format!("C{i}"), "n", init).unwrap();
    }
    let out = rt
        .call(EntityRef::new("C0", "n"), "relay", vec![Value::Int(5)])
        .unwrap();
    assert_eq!(out, Value::Int(5 + depth as i64));
    rt.shutdown();
}

#[test]
fn per_key_serialization_no_lost_updates() {
    // Single-entity updates are serialized per key: concurrent increments
    // must all apply (Statefun's guarantee; the race only affects
    // *multi-entity* chains).
    let program = se_lang::programs::counter_program();
    let rt = Arc::new(deploy(&program, StatefunConfig::fast_test(2)));
    rt.create("Counter", "hot", vec![]).unwrap();
    let waiters: Vec<_> = (0..100)
        .map(|_| {
            rt.call_async(
                EntityRef::new("Counter", "hot"),
                "incr",
                vec![Value::Int(1)],
            )
        })
        .collect();
    for w in waiters {
        w.wait_timeout(WAIT).expect("completes").expect("no error");
    }
    assert_eq!(
        rt.call(EntityRef::new("Counter", "hot"), "get", vec![])
            .unwrap(),
        Value::Int(100)
    );
    rt.shutdown();
}

#[test]
fn unknown_entity_and_method_error() {
    let program = se_lang::programs::counter_program();
    let rt = deploy(&program, StatefunConfig::fast_test(2));
    let err = rt
        .call(EntityRef::new("Counter", "ghost"), "get", vec![])
        .unwrap_err();
    assert!(err.to_string().contains("unknown entity"), "{err}");
    rt.create("Counter", "c", vec![]).unwrap();
    let err = rt
        .call(EntityRef::new("Counter", "c"), "nope", vec![])
        .unwrap_err();
    assert!(err.to_string().contains("no method"), "{err}");
    let err = rt.create("Nope", "x", vec![]).unwrap_err();
    assert!(err.to_string().contains("undefined class"), "{err}");
    rt.shutdown();
}

/// The race the paper acknowledges (§3): "when an event reenters a dataflow
/// to reach the next function block of a split function, race conditions …
/// could lead to state inconsistencies". Two interleaved `buy_item` chains
/// can both pass the balance check before either deducts — a write skew
/// that StateFlow's transactions prevent (see se-stateflow's tests).
#[test]
fn documented_race_multi_entity_chains_can_overspend() {
    let program = se_lang::programs::figure1_program();
    let mut cfg = StatefunConfig::fast_test(2);
    // Widen the suspension window so the interleaving is reliable.
    cfg.net.broker_hop = Duration::from_millis(3);
    let rt = Arc::new(deploy(&program, cfg));

    let mut anomalies = 0;
    for round in 0..10 {
        let user = rt
            .create(
                "User",
                &format!("u{round}"),
                vec![("balance".into(), Value::Int(60))],
            )
            .unwrap();
        let item = rt
            .create(
                "Item",
                &format!("i{round}"),
                vec![
                    ("price".into(), Value::Int(30)),
                    ("stock".into(), Value::Int(100)),
                ],
            )
            .unwrap();
        // Two concurrent purchases of 60 each against a balance of 60.
        let w1 = rt.call_async(user, "buy_item", vec![Value::Int(2), Value::Ref(item)]);
        let w2 = rt.call_async(user, "buy_item", vec![Value::Int(2), Value::Ref(item)]);
        let r1 = w1.wait_timeout(WAIT).unwrap().unwrap();
        let r2 = w2.wait_timeout(WAIT).unwrap().unwrap();
        let balance = rt.call(user, "balance", vec![]).unwrap().as_int().unwrap();
        let both_succeeded = r1 == Value::Bool(true) && r2 == Value::Bool(true);
        if both_succeeded || balance < 0 {
            anomalies += 1;
            assert!(
                balance < 0,
                "double success must have overspent, got {balance}"
            );
        }
    }
    assert!(
        anomalies > 0,
        "expected at least one write-skew anomaly across 10 rounds — \
         StateFun has no transactions, interleaved chains race"
    );
    rt.shutdown();
}

/// Without checkpoints nothing can be restored, and each task frees its
/// ingress as soon as it has read it: a crash script must be refused at
/// deploy, before any task runs.
#[test]
#[should_panic(expected = "crash injection requires CheckpointMode::Transactional")]
fn crash_script_without_checkpoints_is_refused() {
    let mut cfg = StatefunConfig::fast_test(2);
    cfg.chaos = ChaosPlan::single_crash("task0", 1);
    assert_eq!(cfg.checkpoint, CheckpointMode::None);
    deploy(&se_lang::programs::counter_program(), cfg);
}

/// Exactly-once with transactional checkpoints: kill a partition task
/// mid-stream; replay from the last complete epoch must yield every deposit
/// exactly once.
#[test]
fn exactly_once_with_transactional_checkpoints_and_failure() {
    let program = se_lang::programs::counter_program();
    let mut cfg = StatefunConfig::fast_test(3);
    cfg.checkpoint = CheckpointMode::Transactional {
        interval: Duration::from_millis(25),
    };
    cfg.chaos = ChaosPlan::single_crash("task0", 15);
    let rt = Arc::new(deploy(&program, cfg.clone()));

    let n = 6usize;
    for i in 0..n {
        rt.create("Counter", &format!("c{i}"), vec![]).unwrap();
    }
    let mut expected = vec![0i64; n];
    let mut waiters = Vec::new();
    for i in 0..90 {
        let c = i % n;
        let amount = (i % 7 + 1) as i64;
        expected[c] += amount;
        waiters.push(rt.call_async(
            EntityRef::new("Counter", format!("c{c}")),
            "incr",
            vec![Value::Int(amount)],
        ));
        if i % 15 == 0 {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    for w in waiters {
        w.wait_timeout(WAIT)
            .expect("increment must complete after recovery")
            .expect("no error");
    }
    assert_eq!(cfg.chaos.crashes_fired(), 1, "failure must fire");
    assert!(rt.recoveries() >= 1, "recovery must run");

    for (i, want) in expected.iter().enumerate() {
        let got = rt
            .call(EntityRef::new("Counter", format!("c{i}")), "get", vec![])
            .unwrap()
            .as_int()
            .unwrap();
        assert_eq!(got, *want, "c{i}: exactly-once violated");
    }
    rt.shutdown();
}

/// Runs `calls` increments and shuts down, so no timer records after the
/// caller reads the report.
fn timed_increments(cfg: StatefunConfig, calls: usize) -> StatefunRuntime {
    let rt = deploy(&se_lang::programs::counter_program(), cfg);
    let c = rt.create("Counter", "c", vec![]).unwrap();
    for _ in 0..calls {
        rt.call(c, "incr", vec![Value::Int(1)]).unwrap();
    }
    rt.shutdown();
    rt
}

#[test]
fn overhead_timers_cover_components() {
    let rt = timed_increments(StatefunConfig::fast_test(2), 10);
    let report = rt.timers().report();
    let names: Vec<&str> = report.iter().map(|(n, _, _)| *n).collect();
    for expect in [
        "state_serialization",
        "state_deserialization",
        "object_construction",
        "function_execution",
        "split_overhead",
        "state_storage",
    ] {
        assert!(
            names.contains(&expect),
            "missing component {expect}: {names:?}"
        );
    }
    // The report is a read of the registry's `timer.*` histograms.
    for (component, total, count) in &report {
        let hist = rt.obs().histogram(&format!("timer.{component}"));
        assert_eq!(
            (total.as_nanos() as u64, *count),
            (hist.sum(), hist.count()),
            "{component}"
        );
    }
    let bodies = report.iter().find(|r| r.0 == "function_execution");
    let invocations = rt.obs().counter("statefun.invocations").get();
    assert_eq!(bodies.map(|r| r.2), Some(invocations));
}

#[test]
fn overhead_timers_record_with_observability_off() {
    let mut cfg = StatefunConfig::fast_test(2);
    cfg.obs.mode = se_obs::ObsMode::Off;
    let rt = timed_increments(cfg, 2);
    assert!(!rt.timers().report().is_empty());
}
