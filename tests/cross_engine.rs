//! Cross-engine portability: the same compiled program must behave
//! identically on Local, StateFun and StateFlow — "the choice of a runtime
//! system is completely independent of the application layer" (§1).

use stateful_entities::prelude::*;
use stateful_entities::{StateflowConfig, StatefunConfig};

fn engines() -> Vec<Box<dyn EntityRuntime>> {
    let program = stateful_entities::programs::figure1_program();
    vec![
        deploy(&program, RuntimeChoice::Local).unwrap(),
        deploy(
            &program,
            RuntimeChoice::Statefun(StatefunConfig::fast_test(3)),
        )
        .unwrap(),
        deploy(
            &program,
            RuntimeChoice::Stateflow(StateflowConfig::fast_test(3)),
        )
        .unwrap(),
    ]
}

#[test]
fn figure1_identical_across_engines() {
    for rt in engines() {
        let name = rt.name().to_owned();
        let user = rt
            .create("User", "u", vec![("balance".into(), Value::Int(100))])
            .unwrap();
        let item = rt
            .create(
                "Item",
                "i",
                vec![
                    ("price".into(), Value::Int(30)),
                    ("stock".into(), Value::Int(3)),
                ],
            )
            .unwrap();

        // Purchase 1: 2×30 = 60 ≤ 100 → ok, stock 3→1, balance 40.
        assert_eq!(
            rt.call(user, "buy_item", vec![Value::Int(2), Value::Ref(item)])
                .unwrap(),
            Value::Bool(true),
            "[{name}]"
        );
        // Purchase 2: 1×30 = 30 ≤ 40 but stock 1−2 < 0 → compensated reject.
        assert_eq!(
            rt.call(user, "buy_item", vec![Value::Int(2), Value::Ref(item)])
                .unwrap(),
            Value::Bool(false),
            "[{name}]"
        );
        // Balance unchanged by the rejected purchase; stock restored to 1.
        assert_eq!(
            rt.call(user, "balance", vec![]).unwrap(),
            Value::Int(40),
            "[{name}]"
        );
        assert_eq!(
            rt.call(item, "update_stock", vec![Value::Int(0)]).unwrap(),
            Value::Bool(true),
            "[{name}] stock must be non-negative after compensation"
        );
        rt.shutdown();
    }
}

#[test]
fn chain_program_identical_across_engines() {
    let depth = 3;
    let program = stateful_entities::programs::chain_program(depth);
    for choice in [
        RuntimeChoice::Local,
        RuntimeChoice::Statefun(StatefunConfig::fast_test(2)),
        RuntimeChoice::Stateflow(StateflowConfig::fast_test(2)),
    ] {
        let rt = deploy(&program, choice).unwrap();
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
        assert_eq!(
            rt.call(EntityRef::new("C0", "n"), "relay", vec![Value::Int(10)])
                .unwrap(),
            Value::Int(10 + depth as i64),
            "[{}]",
            rt.name()
        );
        rt.shutdown();
    }
}

#[test]
fn errors_are_consistent_across_engines() {
    for rt in engines() {
        let name = rt.name().to_owned();
        // Unknown entity.
        let err = rt
            .call(EntityRef::new("User", "ghost"), "balance", vec![])
            .unwrap_err();
        assert!(err.to_string().contains("unknown entity"), "[{name}] {err}");
        // Unknown method.
        rt.create("User", "u2", vec![]).unwrap();
        let err = rt
            .call(EntityRef::new("User", "u2"), "frobnicate", vec![])
            .unwrap_err();
        assert!(err.to_string().contains("no method"), "[{name}] {err}");
        // Wrong arity.
        let err = rt
            .call(EntityRef::new("User", "u2"), "buy_item", vec![])
            .unwrap_err();
        assert!(err.to_string().contains("argument"), "[{name}] {err}");
        rt.shutdown();
    }
}

/// Churn workload over copy-on-write state: a completed snapshot epoch must
/// stay frozen while the live store keeps mutating (entity state shares
/// storage with snapshots until a write diverges them), and the final state
/// must agree with the Local serial oracle. The test holds its own clones of
/// the frozen epoch's per-worker stores, so retention pruning the epoch out
/// of the snapshot store during phase 2 cannot hide a leak.
#[test]
fn snapshot_epochs_stay_frozen_under_cow_churn() {
    let program = stateful_entities::programs::counter_program();
    let mut cfg = StateflowConfig::fast_test(3);
    cfg.snapshot_every_batches = 1;
    let graph = stateful_entities::compile(&program).unwrap();
    let rt = stateful_entities::StateflowRuntime::deploy(graph, cfg.clone());
    let oracle = deploy(&program, RuntimeChoice::Local).unwrap();

    let n = 6;
    for i in 0..n {
        rt.create("Counter", &format!("c{i}"), vec![]).unwrap();
        oracle.create("Counter", &format!("c{i}"), vec![]).unwrap();
    }
    let incr = |engine: &dyn EntityRuntime, i: usize, by: i64| {
        engine
            .call(
                EntityRef::new("Counter", format!("c{i}")),
                "incr",
                vec![Value::Int(by)],
            )
            .unwrap()
    };

    // Phase 1: churn, then let a snapshot complete at a quiescent point.
    let mut expected_phase1 = 0i64;
    for round in 0..4 {
        for i in 0..n {
            let by = (round * n + i) as i64 % 7 + 1;
            expected_phase1 += by;
            incr(&rt, i, by);
            incr(oracle.as_ref(), i, by);
        }
    }
    std::thread::sleep(std::time::Duration::from_millis(60));
    let frozen_epoch = rt
        .snapshots()
        .latest_complete()
        .expect("snapshot completed after quiescence");
    // The epoch's per-worker stores, cloned out (an O(1) share of the
    // snapshot's copy-on-write storage) while the epoch is still retained.
    let frozen: Vec<_> = (0..cfg.workers)
        .map(|w| {
            rt.snapshots()
                .get(frozen_epoch, &format!("worker{w}"))
                .expect("every worker contributed to the completed epoch")
        })
        .collect();
    let frozen_sum = || {
        let mut sum = 0i64;
        for store in &frozen {
            for (_, state) in store.iter() {
                sum += state["count"].as_int().unwrap();
            }
        }
        sum
    };
    assert_eq!(frozen_sum(), expected_phase1);

    // Phase 2: mutate every entity *after* the snapshot. Under copy-on-write
    // the live store initially shares storage with the frozen epoch; the
    // writes must copy-before-diverge, never leak backwards.
    let mut expected_final = expected_phase1;
    for i in 0..n {
        for by in [3i64, 11] {
            expected_final += by;
            incr(&rt, i, by);
            incr(oracle.as_ref(), i, by);
        }
    }
    assert_eq!(
        frozen_sum(),
        expected_phase1,
        "mutations after the cut leaked into the frozen epoch"
    );

    // Cross-engine equivalence of the final state against the serial oracle.
    for i in 0..n {
        let sf_count = incr(&rt, i, 0);
        let oracle_count = incr(oracle.as_ref(), i, 0);
        assert_eq!(sf_count, oracle_count, "counter c{i} diverged");
    }
    let final_sum: i64 = (0..n)
        .map(|i| incr(&rt, i, 0).as_int().unwrap())
        .sum::<i64>();
    assert_eq!(final_sum, expected_final);
    rt.shutdown();
    oracle.shutdown();
}

/// With the default retention policy the snapshot store must stay bounded no
/// matter how many epochs complete — only the last K complete epochs (plus
/// any in-flight one) survive, and recovery's target (the latest complete
/// epoch) is always among them.
#[test]
fn snapshot_retention_bounds_epoch_memory() {
    let program = stateful_entities::programs::counter_program();
    let mut cfg = StateflowConfig::fast_test(2);
    cfg.snapshot_every_batches = 1; // snapshot as often as possible
    let retention = se_dataflow::DEFAULT_SNAPSHOT_RETENTION;
    assert!(retention > 0, "default retention must bound memory");
    let graph = stateful_entities::compile(&program).unwrap();
    let rt = stateful_entities::StateflowRuntime::deploy(graph, cfg);
    rt.create("Counter", "c", vec![]).unwrap();
    for round in 0..30 {
        rt.call(
            EntityRef::new("Counter", "c"),
            "incr",
            vec![Value::Int(round)],
        )
        .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    std::thread::sleep(std::time::Duration::from_millis(60));
    let latest = rt
        .snapshots()
        .latest_complete()
        .expect("snapshots completed");
    assert!(
        latest > retention as u64,
        "enough epochs to make pruning observable (latest = {latest})"
    );
    assert!(
        rt.snapshots().epoch_count() <= retention + 1,
        "epoch count {} exceeds retention {retention} (+1 in-flight)",
        rt.snapshots().epoch_count()
    );
    // The recovery target is retained.
    assert!(rt.snapshots().get(latest, "worker0").is_some());
    rt.shutdown();
}

/// Pipelined StateFlow must stay byte-equivalent to the serial Local
/// oracle, at every pipeline depth: a mix of contended
/// transfers (which exercise abort/solo-fallback/retry across
/// overlapping batches) and deposits must land on identical final state.
#[test]
fn stateflow_pipelined_matches_local_oracle() {
    let program = se_workloads::ycsb_program();
    let n = 5usize;
    let key = |i: usize| EntityRef::new("Account", se_workloads::key_name(i % n));

    // The oracle executes the same operation sequence serially.
    let oracle = deploy(&program, RuntimeChoice::Local).unwrap();
    se_workloads::load_accounts(oracle.as_ref(), n, 8, 100);
    for i in 0..60 {
        if i % 3 == 0 {
            oracle
                .call(key(i), "deposit", vec![Value::Int((i % 7) as i64 + 1)])
                .unwrap();
        } else {
            oracle
                .call(
                    key(i),
                    "transfer",
                    vec![Value::Ref(key(i + 1)), Value::Int(2)],
                )
                .unwrap();
        }
    }
    let expected: Vec<i64> = (0..n)
        .map(|i| {
            oracle
                .call(key(i), "balance", vec![])
                .unwrap()
                .as_int()
                .unwrap()
        })
        .collect();
    oracle.shutdown();

    for pipeline_depth in [1usize, 2, 4] {
        let mut cfg = StateflowConfig::fast_test(3);
        cfg.pipeline_depth = pipeline_depth;
        let rt = deploy(&program, RuntimeChoice::Stateflow(cfg)).unwrap();
        se_workloads::load_accounts(rt.as_ref(), n, 8, 100);
        // Issue the ops one at a time (awaiting each) so the commit
        // order matches the oracle's serial order; the pipeline still
        // overlaps the protocol phases underneath.
        for i in 0..60 {
            if i % 3 == 0 {
                rt.call(key(i), "deposit", vec![Value::Int((i % 7) as i64 + 1)])
                    .unwrap();
            } else {
                rt.call(
                    key(i),
                    "transfer",
                    vec![Value::Ref(key(i + 1)), Value::Int(2)],
                )
                .unwrap();
            }
        }
        for (i, want) in expected.iter().enumerate() {
            let got = rt
                .call(key(i), "balance", vec![])
                .unwrap()
                .as_int()
                .unwrap();
            assert_eq!(
                got, *want,
                "[depth {pipeline_depth}] \
                 account {i} diverged from oracle"
            );
        }
        rt.shutdown();
    }
}

/// Concurrent contended transfers at every depth: serializability
/// (conservation + all-success) with real batch overlap — unlike the oracle
/// test above, requests are issued concurrently so batches genuinely
/// pipeline and aborted transactions drain through the fallback path.
#[test]
fn pipelined_concurrent_transfers_conserve_money_all_backends() {
    let program = se_workloads::ycsb_program();
    let n = 4usize;
    let key = |i: usize| EntityRef::new("Account", se_workloads::key_name(i % n));
    for pipeline_depth in [1usize, 2, 4] {
        let mut cfg = StateflowConfig::fast_test(3);
        cfg.pipeline_depth = pipeline_depth;
        let rt = deploy(&program, RuntimeChoice::Stateflow(cfg)).unwrap();
        se_workloads::load_accounts(rt.as_ref(), n, 8, 1000);
        let waiters: Vec<_> = (0..80)
            .map(|i| {
                rt.call_async(
                    key(i),
                    "transfer",
                    vec![Value::Ref(key(i + 1)), Value::Int(1)],
                )
            })
            .collect();
        for w in waiters {
            assert_eq!(
                w.wait_timeout(std::time::Duration::from_secs(60))
                    .expect("completes")
                    .expect("no error"),
                Value::Bool(true),
                "[depth {pipeline_depth}]"
            );
        }
        let total: i64 = (0..n)
            .map(|i| {
                rt.call(key(i), "balance", vec![])
                    .unwrap()
                    .as_int()
                    .unwrap()
            })
            .sum();
        assert_eq!(
            total,
            1000 * n as i64,
            "[depth {pipeline_depth}] conservation"
        );
        rt.shutdown();
    }
}

/// History-recorded run under real contention: the recorded event log must
/// pass the serializability checker (decisions justified by the recorded
/// access sets, exactly-once, retry monotonicity), and replaying its
/// equivalent serial order through the single-threaded Local oracle must
/// reproduce both every committed response and the final state.
#[test]
fn recorded_history_is_serializable_and_replays_to_oracle() {
    use se_chaos::{check_history, serial_order, History};
    let program = se_workloads::ycsb_program();
    let n = 4usize;
    let key = |i: usize| EntityRef::new("Account", se_workloads::key_name(i % n));
    for pipeline_depth in [1usize, 4] {
        let mut cfg = StateflowConfig::fast_test(3);
        cfg.pipeline_depth = pipeline_depth;
        let history = History::new();
        cfg.history = Some(history.clone());
        let rule = cfg.commit_rule;
        let rt = deploy(&program, RuntimeChoice::Stateflow(cfg)).unwrap();
        se_workloads::load_accounts(rt.as_ref(), n, 8, 1000);
        let waiters: Vec<_> = (0..60)
            .map(|i| {
                rt.call_async(
                    key(i),
                    "transfer",
                    vec![Value::Ref(key(i + 1)), Value::Int(1)],
                )
            })
            .collect();
        for w in waiters {
            w.wait_timeout(std::time::Duration::from_secs(60))
                .expect("completes")
                .expect("no error");
        }
        let events = history.events();
        let summary = check_history(&events, rule)
            .unwrap_or_else(|e| panic!("[depth {pipeline_depth}] history check: {e}"));
        assert_eq!(
            summary.surviving_commits, 60,
            "[depth {pipeline_depth}] \
             every transfer commits exactly once"
        );

        // Replay the equivalent serial order through the Local oracle.
        let order = serial_order(&events).unwrap();
        assert_eq!(order.len(), 60);
        let oracle = deploy(&program, RuntimeChoice::Local).unwrap();
        se_workloads::load_accounts(oracle.as_ref(), n, 8, 1000);
        for op in &order {
            let got = oracle
                .call(op.target, &op.method, op.args.clone())
                .map_err(|e| e.to_string());
            assert_eq!(
                got,
                op.result.clone(),
                "[depth {pipeline_depth}] \
                 txn {} response diverged in serial replay",
                op.txn
            );
        }
        for i in 0..n {
            assert_eq!(
                rt.call(key(i), "balance", vec![]).unwrap(),
                oracle.call(key(i), "balance", vec![]).unwrap(),
                "[depth {pipeline_depth}] \
                 account {i} final state diverged"
            );
        }
        rt.shutdown();
        oracle.shutdown();
    }
}

#[test]
fn ycsb_program_runs_on_all_engines() {
    let program = se_workloads::ycsb_program();
    for choice in [
        RuntimeChoice::Local,
        RuntimeChoice::Statefun(StatefunConfig::fast_test(2)),
        RuntimeChoice::Stateflow(StateflowConfig::fast_test(2)),
    ] {
        let rt = deploy(&program, choice).unwrap();
        let a = rt
            .create("Account", "a", vec![("balance".into(), Value::Int(10))])
            .unwrap();
        let payload = Value::Bytes(vec![9u8; 256]);
        assert_eq!(
            rt.call(a, "update", vec![payload.clone()]).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            rt.call(a, "read", vec![]).unwrap(),
            payload,
            "[{}]",
            rt.name()
        );
        if rt.supports_transactions() {
            let b = rt.create("Account", "b", vec![]).unwrap();
            assert_eq!(
                rt.call(a, "transfer", vec![Value::Ref(b), Value::Int(4)])
                    .unwrap(),
                Value::Bool(true)
            );
            assert_eq!(rt.call(b, "balance", vec![]).unwrap(), Value::Int(4));
        }
        rt.shutdown();
    }
}

/// Observability is read-path-only: tracing every probe in the stack must
/// not change one byte of the recorded logical history. Runs a
/// deterministic burst workload at pipeline depth 4 with the WAL on — so
/// batch-lifecycle, WAL *and* VM probes are all live — once with
/// `SE_OBS=off` and once with `SE_OBS=trace`, and compares the canonical
/// history serializations byte for byte.
#[test]
fn obs_trace_vs_off_histories_are_byte_identical() {
    use se_chaos::History;
    use stateful_entities::DurabilityMode;
    let n = 8usize;
    let run = |mode: se_obs::ObsMode| {
        let program = se_workloads::ycsb_program();
        let mut cfg = StateflowConfig::fast_test(3);
        cfg.pipeline_depth = 4;
        cfg.durability.mode = DurabilityMode::Wal;
        cfg.snapshot_every_batches = 0;
        cfg.obs = se_obs::ObsConfig {
            mode,
            dir: std::env::temp_dir().join(format!("se-obs-identity-{}", std::process::id())),
            label: "identity".into(),
            ..Default::default()
        };
        let history = History::new();
        cfg.history = Some(history.clone());
        let rt = deploy(&program, RuntimeChoice::Stateflow(cfg)).unwrap();
        for i in 0..n {
            rt.create(
                "Account",
                &se_workloads::key_name(i),
                vec![("balance".into(), Value::Int(100))],
            )
            .unwrap();
        }
        // Bursts of disjoint cross-partition transfers: conflict-free
        // multi-hop chains, so the schedule is fully pinned and any
        // divergence is an obs write-path leak, not retry noise.
        for round in 0..2i64 {
            let waiters: Vec<_> = (0..n / 2)
                .map(|p| {
                    rt.call_async(
                        EntityRef::new("Account", se_workloads::key_name(2 * p)),
                        "transfer",
                        vec![
                            Value::Ref(EntityRef::new(
                                "Account",
                                se_workloads::key_name(2 * p + 1),
                            )),
                            Value::Int((round + p as i64) % 5 + 1),
                        ],
                    )
                })
                .collect();
            for w in waiters {
                w.wait_timeout(std::time::Duration::from_secs(60))
                    .expect("completes")
                    .expect("no error");
            }
        }
        rt.shutdown();
        history.to_json_canonical()
    };
    let off = run(se_obs::ObsMode::Off);
    let trace = run(se_obs::ObsMode::Trace);
    assert_eq!(off, trace, "obs trace mode leaked into logical execution");
    let _ = std::fs::remove_dir_all(
        std::env::temp_dir().join(format!("se-obs-identity-{}", std::process::id())),
    );
}
