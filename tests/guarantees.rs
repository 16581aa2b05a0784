//! System-level guarantee tests: serializability on StateFlow, the
//! documented non-transactional race on StateFun, and exactly-once state
//! updates under failure on both engines — the paper's core claims,
//! exercised through the public facade.
//!
//! Fault injection runs through `ChaosPlan` scripts (the single injection
//! path).

use std::sync::Arc;
use std::time::Duration;

use se_chaos::{ChaosPlan, CrashFault, CrashPoint, FaultScript};
use stateful_entities::prelude::*;
use stateful_entities::{CheckpointMode, StateflowConfig, StatefunConfig};

const WAIT: Duration = Duration::from_secs(60);

/// Flash-sale scenario: every user affords exactly one purchase.
fn run_flash_sale(rt: &dyn EntityRuntime, users: usize) -> (i64, usize) {
    let program_item = rt
        .create(
            "Item",
            "gpu",
            vec![
                ("price".into(), Value::Int(30)),
                ("stock".into(), Value::Int(10_000)),
            ],
        )
        .unwrap();
    let user_refs: Vec<EntityRef> = (0..users)
        .map(|i| {
            rt.create(
                "User",
                &format!("u{i}"),
                vec![("balance".into(), Value::Int(60))],
            )
            .unwrap()
        })
        .collect();
    let waiters: Vec<_> = user_refs
        .iter()
        .flat_map(|u| {
            (0..2).map(|_| {
                rt.call_async(
                    *u,
                    "buy_item",
                    vec![Value::Int(2), Value::Ref(program_item)],
                )
            })
        })
        .collect();
    let successes = waiters
        .into_iter()
        .filter(|w| w.wait_timeout(WAIT).unwrap().unwrap() == Value::Bool(true))
        .count() as i64;
    let negative = user_refs
        .iter()
        .filter(|u| rt.call(*(*u), "balance", vec![]).unwrap().as_int().unwrap() < 0)
        .count();
    (successes, negative)
}

#[test]
fn stateflow_serializability_holds_under_contention() {
    // The guarantee must hold for every pipeline window: one batch in
    // flight or several.
    let program = stateful_entities::programs::figure1_program();
    for pipeline_depth in [1usize, 2, 4] {
        let mut cfg = StateflowConfig::fast_test(4);
        cfg.pipeline_depth = pipeline_depth;
        let rt = deploy(&program, RuntimeChoice::Stateflow(cfg)).unwrap();
        let users = 20;
        let (successes, negative) = run_flash_sale(rt.as_ref(), users);
        assert_eq!(
            successes, users as i64,
            "[depth {pipeline_depth}] exactly one purchase per user must commit"
        );
        assert_eq!(
            negative, 0,
            "[depth {pipeline_depth}] serializable execution never overdrafts"
        );
        rt.shutdown();
    }
}

#[test]
fn statefun_documented_race_violates_invariants() {
    let program = stateful_entities::programs::figure1_program();
    let mut cfg = StatefunConfig::fast_test(2);
    // Widen the suspension window (price-call round trip) so the
    // interleaving is deterministic enough for CI.
    cfg.net.broker_hop = Duration::from_millis(3);
    let rt = deploy(&program, RuntimeChoice::Statefun(cfg)).unwrap();
    let users = 10;
    let (successes, negative) = run_flash_sale(rt.as_ref(), users);
    assert!(
        successes > users as i64 || negative > 0,
        "expected the §3 write-skew race on an engine without transactions \
         (got {successes} successes, {negative} negative balances)"
    );
    rt.shutdown();
}

/// Commutative deposits + a worker crash: the final balances detect any
/// lost or duplicated effect.
fn deposits_with_failure(rt: &dyn EntityRuntime, n_accounts: usize, ops: usize) -> Vec<i64> {
    for i in 0..n_accounts {
        rt.create("Account", &se_workloads::key_name(i), vec![])
            .unwrap();
    }
    let mut expected = vec![0i64; n_accounts];
    let mut waiters = Vec::new();
    for i in 0..ops {
        let k = i % n_accounts;
        let amount = (i % 11 + 1) as i64;
        expected[k] += amount;
        waiters.push(rt.call_async(
            EntityRef::new("Account", se_workloads::key_name(k)),
            "deposit",
            vec![Value::Int(amount)],
        ));
        if i % 12 == 0 {
            std::thread::sleep(Duration::from_millis(4));
        }
    }
    for w in waiters {
        w.wait_timeout(WAIT)
            .expect("completes after recovery")
            .expect("no error");
    }
    let got: Vec<i64> = (0..n_accounts)
        .map(|i| {
            rt.call(
                EntityRef::new("Account", se_workloads::key_name(i)),
                "balance",
                vec![],
            )
            .unwrap()
            .as_int()
            .unwrap()
        })
        .collect();
    assert_eq!(got, expected, "exactly-once violated");
    got
}

#[test]
fn exactly_once_stateflow_through_facade() {
    let program = se_workloads::ycsb_program();
    let mut cfg = StateflowConfig::fast_test(3);
    cfg.snapshot_every_batches = 3;
    cfg.chaos = ChaosPlan::single_crash("worker1", 40);
    let chaos = cfg.chaos.clone();
    let rt = deploy(&program, RuntimeChoice::Stateflow(cfg)).unwrap();
    deposits_with_failure(rt.as_ref(), 5, 100);
    assert_eq!(chaos.crashes_fired(), 1);
    rt.shutdown();
}

#[test]
fn exactly_once_statefun_through_facade() {
    let program = se_workloads::ycsb_program();
    let mut cfg = StatefunConfig::fast_test(3);
    cfg.checkpoint = CheckpointMode::Transactional {
        interval: Duration::from_millis(20),
    };
    cfg.chaos = ChaosPlan::single_crash("task1", 25);
    let chaos = cfg.chaos.clone();
    let rt = deploy(&program, RuntimeChoice::Statefun(cfg)).unwrap();
    deposits_with_failure(rt.as_ref(), 5, 100);
    assert_eq!(chaos.crashes_fired(), 1);
    rt.shutdown();
}

/// Cross-account transfers with a mid-stream worker crash: money must be
/// conserved at every pipeline depth (the crash lands while batches are in
/// flight, so recovery must fence and replay an overlapping window).
fn transfers_with_crash_conserve_money(cfg: StateflowConfig) {
    let program = se_workloads::ycsb_program();
    let rt = Arc::new(deploy(&program, RuntimeChoice::Stateflow(cfg)).unwrap());
    let n = 6;
    se_workloads::load_accounts(rt.as_ref().as_ref(), n, 16, 500);
    let waiters: Vec<_> = (0..90)
        .map(|i| {
            rt.call_async(
                EntityRef::new("Account", se_workloads::key_name(i % n)),
                "transfer",
                vec![
                    Value::Ref(EntityRef::new(
                        "Account",
                        se_workloads::key_name((i + 2) % n),
                    )),
                    Value::Int(3),
                ],
            )
        })
        .collect();
    for w in waiters {
        w.wait_timeout(WAIT).expect("completes").expect("no error");
    }
    let total: i64 = (0..n)
        .map(|i| {
            rt.call(
                EntityRef::new("Account", se_workloads::key_name(i)),
                "balance",
                vec![],
            )
            .unwrap()
            .as_int()
            .unwrap()
        })
        .sum();
    assert_eq!(total, 500 * n as i64);
    rt.shutdown();
}

#[test]
fn transactional_transfers_with_crash_conserve_money() {
    let mut cfg = StateflowConfig::fast_test(3);
    cfg.snapshot_every_batches = 2;
    cfg.chaos = ChaosPlan::single_crash("worker0", 30);
    transfers_with_crash_conserve_money(cfg);
}

/// Crash/restore while several batches are in flight: tiny batches + depth
/// 4 keep the pipeline saturated (the 90 transfers arrive at once and seal
/// into ≥ 20 overlapping batches), and the worker dies mid-window — the
/// generation fence must discard every half-committed batch and the replay
/// must land exactly once.
#[test]
fn pipelined_crash_with_batches_in_flight_conserves_money() {
    let mut cfg = StateflowConfig::fast_test(3);
    cfg.pipeline_depth = 4;
    cfg.max_batch = 4;
    cfg.snapshot_every_batches = 3;
    cfg.chaos = ChaosPlan::single_crash("worker1", 35);
    let chaos = cfg.chaos.clone();
    transfers_with_crash_conserve_money(cfg);
    assert_eq!(chaos.crashes_fired(), 1, "the crash must land mid-pipeline");
}

/// Asserts a recorded StateFlow history is serializable and that replaying
/// its equivalent serial order through a `Local` oracle (entities created by
/// `load`) reproduces every committed response; returns the summary.
fn assert_serializable_and_replays(
    label: &str,
    events: &[se_chaos::HistoryEvent],
    rule: stateful_entities::CommitRule,
    program: &se_lang::Program,
    load: impl Fn(&dyn EntityRuntime),
) -> se_chaos::CheckSummary {
    let summary = se_chaos::check_history(events, rule)
        .unwrap_or_else(|e| panic!("[{label}] history check: {e}"));
    let order = se_chaos::serial_order(events).unwrap();
    let oracle = deploy(program, RuntimeChoice::Local).unwrap();
    load(oracle.as_ref());
    for op in &order {
        let got = oracle
            .call(op.target, &op.method, op.args.clone())
            .map_err(|e| e.to_string());
        assert_eq!(
            got, op.result,
            "[{label}] txn {} ({} on {}) diverged in serial replay",
            op.txn, op.method, op.target
        );
    }
    summary
}

/// A three-entity relay: `head.forward(mid, tail, n)` calls
/// `mid.pass(tail, n)`, which calls `tail.add(n)`. Every node adds `n` to its
/// own `total` and the response sums the totals down the chain, so a hop
/// executed twice changes that response and every later one.
fn relay_program() -> se_lang::Program {
    use se_lang::builder::*;
    use se_lang::Type;
    let below = |callee: se_lang::Expr| {
        vec![
            attr_add("total", var("n")),
            assign_ty("below", Type::Int, callee),
            ret(add(attr("total"), var("below"))),
        ]
    };
    let node = ClassBuilder::new("Node")
        .attr_default("id", Type::Str, Value::Str(String::new()))
        .attr_default("total", Type::Int, Value::Int(0))
        .key("id")
        .method(
            MethodBuilder::new("add")
                .param("n", Type::Int)
                .returns(Type::Int)
                .body(vec![attr_add("total", var("n")), ret(attr("total"))]),
        )
        .method(
            MethodBuilder::new("pass")
                .param("tail", Type::entity("Node"))
                .param("n", Type::Int)
                .returns(Type::Int)
                .body(below(call(var("tail"), "add", vec![var("n")]))),
        )
        .method(
            MethodBuilder::new("forward")
                .param("mid", Type::entity("Node"))
                .param("tail", Type::entity("Node"))
                .param("n", Type::Int)
                .returns(Type::Int)
                .transactional()
                .body(below(call(var("mid"), "pass", vec![var("tail"), var("n")]))),
        )
        .build();
    se_lang::Program::new(vec![node])
}

/// Hop dedup around the one segment runner: `mid` and `tail` share a
/// partition that `head` does not, so the worker-to-worker `Exec` that
/// enters `mid` at hop 1 starts a segment that continues locally through
/// `tail` (hop 2) and back into `mid` (hop 3) before the chain returns to
/// `head` at hop 4. Scripted duplicates
/// of those worker-to-worker messages — on time and late — must all land
/// below the dedup position; re-running one would double-apply `total += n`
/// through the buffer overlay and diverge from the oracle.
#[test]
fn duplicated_hop_into_a_local_continuation_is_dropped() {
    use se_chaos::{History, MessageFault, MsgFaultKind, Seam};
    let workers = 3usize;
    let program = relay_program();
    // Keys by partition: `head` alone, `mid` and `tail` together elsewhere.
    let key_on = |partition: usize, skip: usize| {
        (0..)
            .map(|i| format!("n{i}"))
            .filter(|k| se_ir::partition_for(k, workers) == partition)
            .nth(skip)
            .unwrap()
    };
    let (head, mid, tail) = (key_on(0, 0), key_on(1, 0), key_on(1, 1));
    let node = |key: &str| EntityRef::new("Node", key);
    let load = |rt: &dyn EntityRuntime| {
        for key in [&head, &mid, &tail] {
            rt.create("Node", key, vec![]).unwrap();
        }
    };
    let mut cfg = StateflowConfig::fast_test(workers);
    cfg.max_batch = 4;
    // Each chain sends two worker-to-worker messages (hop 1 in, hop 4
    // back); duplicate a few of each, on time and late.
    cfg.chaos = ChaosPlan::from_script(FaultScript {
        messages: [(0, 0), (1, 300), (4, 5_000), (7, 50)]
            .into_iter()
            .map(|(nth, gap_us)| MessageFault {
                seam: Seam::WorkerToWorker,
                nth,
                kind: MsgFaultKind::Duplicate { gap_us },
            })
            .collect(),
        ..FaultScript::default()
    });
    let chaos = cfg.chaos.clone();
    let history = History::new();
    cfg.history = Some(history.clone());
    let rule = cfg.commit_rule;
    let rt = deploy(&program, RuntimeChoice::Stateflow(cfg)).unwrap();
    load(rt.as_ref());
    // Concurrent forwards over one chain: every pair conflicts, so the
    // run also drains retries through solo batches.
    let waiters: Vec<_> = (1..=12i64)
        .map(|n| {
            let args = vec![
                Value::Ref(node(&mid)),
                Value::Ref(node(&tail)),
                Value::Int(n),
            ];
            rt.call_async(node(&head), "forward", args)
        })
        .collect();
    for w in waiters {
        w.wait_timeout(WAIT).expect("completes").expect("no error");
    }
    rt.shutdown();
    assert_eq!(
        chaos.msg_faults_fired(),
        4,
        "every scripted duplicate must fire"
    );
    let summary = assert_serializable_and_replays("relay", &history.events(), rule, &program, load);
    assert_eq!(summary.surviving_commits, 12);
}

/// Serial-fallback batches are solo at every pipeline depth: a depth-1
/// hot-key run (Zipfian transfers, `FallbackPolicy::Serial`) must drain its
/// retries through `Solo` batches — one transaction each, committed at the
/// final hop (the only non-regular kind there is) — and stay serializable
/// and oracle-equal.
#[test]
fn depth_one_hot_key_retries_drain_through_solo_batches() {
    use rand::SeedableRng;
    use se_chaos::{BatchKindTag, History, HistoryEvent};
    use se_workloads::KeyChooser;
    let program = se_workloads::ycsb_program();
    let n = 6usize;
    let mut cfg = StateflowConfig::fast_test(3);
    cfg.pipeline_depth = 1;
    cfg.fallback = stateful_entities::FallbackPolicy::Serial;
    cfg.max_batch = 8;
    let history = History::new();
    cfg.history = Some(history.clone());
    let rule = cfg.commit_rule;
    let rt = deploy(&program, RuntimeChoice::Stateflow(cfg)).unwrap();
    let load = |rt: &dyn EntityRuntime| se_workloads::load_accounts(rt, n, 8, 1000);
    load(rt.as_ref());
    let acct = |i: usize| EntityRef::new("Account", se_workloads::key_name(i));
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5010);
    let mut zipf = se_workloads::Zipfian::new(n);
    let waiters: Vec<_> = (0..80)
        .map(|_| {
            let from = zipf.next_key(&mut rng);
            let to = (from + 1 + zipf.next_key(&mut rng) % (n - 1)) % n;
            rt.call_async(
                acct(from),
                "transfer",
                vec![Value::Ref(acct(to)), Value::Int(1)],
            )
        })
        .collect();
    for w in waiters {
        w.wait_timeout(WAIT).expect("completes").expect("no error");
    }
    rt.shutdown();
    let events = history.events();
    let mut solo_batches = 0;
    for event in &events {
        if let HistoryEvent::Sealed { batch, txns, kind } = event {
            if *kind == BatchKindTag::Solo {
                assert_eq!(txns.len(), 1, "batch {batch}: solo batches hold one txn");
                solo_batches += 1;
            }
        }
    }
    let summary = assert_serializable_and_replays("depth 1", &events, rule, &program, load);
    assert_eq!(summary.surviving_commits, 80);
    assert!(summary.retries > 0, "the hot key must force retries");
    assert_eq!(
        solo_batches, summary.retries,
        "every retry runs as its own solo batch"
    );
}

/// Regression for the snapshot pipeline-drain barrier at depth 4: the crash
/// is scripted at a *commit-application* point, so it lands while the
/// coordinator is draining toward a snapshot cut — batches decided, commit
/// records in flight, commit acks only partially collected (the one timing
/// window a crash counted in exec events cannot pin down). Recovery must
/// fence the half-committed window and replay to the oracle state.
#[test]
fn crash_while_snapshot_barrier_drains_replays_to_oracle_state() {
    let mut cfg = StateflowConfig::fast_test(3);
    cfg.pipeline_depth = 4;
    cfg.max_batch = 4;
    // Snapshot after every batch: the drain barrier (in-flight empty + all
    // commit acks) is armed almost continuously.
    cfg.snapshot_every_batches = 1;
    cfg.chaos = ChaosPlan::from_script(FaultScript {
        crashes: vec![CrashFault {
            node: "worker1".into(),
            point: CrashPoint::Commit,
            // Dies applying its 6th commit record: by then several batches
            // are in flight and peers' acks for the current batch are
            // already (or not yet) at the coordinator — a partial drain.
            after_events: 6,
        }],
        ..FaultScript::default()
    });
    let chaos = cfg.chaos.clone();
    let snapshots_seen;
    {
        let program = se_workloads::ycsb_program();
        let graph = stateful_entities::compile(&program).unwrap();
        let rt = stateful_entities::StateflowRuntime::deploy(graph, cfg);
        let oracle = deploy(&program, RuntimeChoice::Local).unwrap();
        let n = 6usize;
        se_workloads::load_accounts(&rt, n, 16, 500);
        se_workloads::load_accounts(oracle.as_ref(), n, 16, 500);
        let key = |i: usize| EntityRef::new("Account", se_workloads::key_name(i % n));
        // Deposits are commutative, so the oracle state is schedule-
        // independent; the crash mid-drain must lose or duplicate nothing.
        // Bursts with short pauses let the pipeline drain repeatedly, so
        // snapshot cuts (and their ack-draining windows) happen mid-run.
        let waiters: Vec<_> = (0..90)
            .map(|i| {
                let amount = (i % 7 + 1) as i64;
                oracle
                    .call(key(i), "deposit", vec![Value::Int(amount)])
                    .unwrap();
                if i % 12 == 0 {
                    std::thread::sleep(Duration::from_millis(4));
                }
                rt.call_async(key(i), "deposit", vec![Value::Int(amount)])
            })
            .collect();
        for w in waiters {
            w.wait_timeout(WAIT)
                .expect("completes after recovery")
                .expect("no error");
        }
        assert_eq!(chaos.crashes_fired(), 1, "the commit-point crash must fire");
        assert_eq!(rt.stats().recoveries.get(), 1);
        // Let the final batch's commit acks land so the trailing snapshot
        // completes before the count is read.
        std::thread::sleep(Duration::from_millis(60));
        snapshots_seen = rt.stats().snapshots.get();
        for i in 0..n {
            let got = rt.call(key(i), "balance", vec![]).unwrap();
            let want = oracle.call(key(i), "balance", vec![]).unwrap();
            assert_eq!(got, want, "account {i} diverged from the oracle");
        }
        rt.shutdown();
        oracle.shutdown();
    }
    assert!(
        snapshots_seen >= 1,
        "per-batch snapshots must complete around the crash window"
    );
}
