//! End-to-end tests of the StateFlow runtime: functional correctness against
//! the Local oracle, transactional guarantees under contention, and
//! exactly-once state updates under injected worker failures.

use std::sync::Arc;
use std::time::Duration;

use se_chaos::{ChaosPlan, CrashFault, CrashPoint, FaultScript, MessageFault, MsgFaultKind, Seam};
use se_compiler::compile;
use se_dataflow::EntityRuntime;
use se_lang::builder::*;
use se_lang::{EntityRef, Program, Type, Value};
use se_stateflow::{StateflowConfig, StateflowRuntime};

const WAIT: Duration = Duration::from_secs(30);

/// Bank accounts with a transactional transfer (the YCSB+T transaction:
/// two reads and two writes across two entities).
fn account_program() -> Program {
    let account = ClassBuilder::new("Account")
        .attr_default("account_id", Type::Str, Value::Str(String::new()))
        .attr_default("balance", Type::Int, Value::Int(0))
        .key("account_id")
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
            MethodBuilder::new("transfer")
                .param("other", Type::entity("Account"))
                .param("amount", Type::Int)
                .returns(Type::Bool)
                .transactional()
                .body(vec![
                    assign_ty("b", Type::Int, attr("balance")),
                    if_(lt(var("b"), var("amount")), vec![ret(lit(false))]),
                    attr_assign("balance", sub(var("b"), var("amount"))),
                    expr_stmt(call(var("other"), "deposit", vec![var("amount")])),
                    ret(lit(true)),
                ]),
        )
        .build();
    Program::new(vec![account])
}

/// Delays the first `n` messages the workers send the coordinator by
/// `HOLD`. Those messages are what frees a pipeline slot (`SoloDone`, the
/// last `Flags`) or lets a regular batch enter its reservation round (the
/// last `ExecDone`), so once the first batches hold them the window stays
/// closed, and the requests appended meanwhile queue and seal together. At
/// `pipeline_depth` N, holding the first N closes it within the first N
/// batches, solo or regular.
fn hold_window(n: usize) -> ChaosPlan {
    const HOLD: Duration = Duration::from_millis(50);
    let messages = (0..n as u64)
        .map(|nth| MessageFault {
            seam: Seam::WorkerToCoord,
            nth,
            kind: MsgFaultKind::Delay {
                extra_us: HOLD.as_micros() as u64,
            },
        })
        .collect();
    ChaosPlan::from_script(FaultScript {
        messages,
        ..FaultScript::default()
    })
}

fn deploy(program: &Program, cfg: StateflowConfig) -> StateflowRuntime {
    let graph = compile(program).expect("program compiles");
    StateflowRuntime::deploy(graph, cfg)
}

fn get_balance(rt: &StateflowRuntime, key: &str) -> i64 {
    rt.call(EntityRef::new("Account", key), "balance", vec![])
        .unwrap_or_else(|e| panic!("balance({key}): {e}"))
        .as_int()
        .unwrap()
}

#[test]
fn counter_single_entity() {
    let program = se_lang::programs::counter_program();
    let rt = deploy(&program, StateflowConfig::fast_test(3));
    let c = rt.create("Counter", "c1", vec![]).unwrap();
    for i in 1..=10 {
        let v = rt.call(c, "incr", vec![Value::Int(1)]).unwrap();
        assert_eq!(v, Value::Int(i));
    }
    assert_eq!(rt.call(c, "get", vec![]).unwrap(), Value::Int(10));
    rt.shutdown();
}

#[test]
fn figure1_buy_item_matches_local_oracle() {
    let program = se_lang::programs::figure1_program();
    let rt = deploy(&program, StateflowConfig::fast_test(3));
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

    // Insufficient balance: rejected, nothing changes.
    let ok = rt
        .call(user, "buy_item", vec![Value::Int(2), Value::Ref(item)])
        .unwrap();
    assert_eq!(ok, Value::Bool(false));
    assert_eq!(rt.call(user, "balance", vec![]).unwrap(), Value::Int(40));
    rt.shutdown();
}

#[test]
fn unknown_method_and_entity_error() {
    let program = account_program();
    let rt = deploy(&program, StateflowConfig::fast_test(2));
    rt.create("Account", "a", vec![]).unwrap();
    let err = rt
        .call(EntityRef::new("Account", "a"), "no_such", vec![])
        .unwrap_err();
    assert!(err.to_string().contains("no method"), "{err}");
    let err = rt
        .call(EntityRef::new("Account", "ghost"), "balance", vec![])
        .unwrap_err();
    assert!(err.to_string().contains("unknown entity"), "{err}");
    rt.shutdown();
}

#[test]
fn concurrent_transfers_conserve_total_balance() {
    let program = account_program();
    let rt = Arc::new(deploy(&program, StateflowConfig::fast_test(4)));
    let n_accounts = 8;
    for i in 0..n_accounts {
        rt.create(
            "Account",
            &format!("a{i}"),
            vec![("balance".into(), Value::Int(1000))],
        )
        .unwrap();
    }

    // Fire 200 concurrent transfers between random-ish pairs.
    let waiters: Vec<_> = (0..200)
        .map(|i| {
            let from = EntityRef::new("Account", format!("a{}", i % n_accounts));
            let to = EntityRef::new("Account", format!("a{}", (i * 7 + 3) % n_accounts));
            rt.call_async(
                from,
                "transfer",
                vec![Value::Ref(to), Value::Int((i % 13) as i64 + 1)],
            )
        })
        .collect();
    for w in waiters {
        w.wait_timeout(WAIT)
            .expect("transfer must complete")
            .expect("no runtime error");
    }

    let total: i64 = (0..n_accounts)
        .map(|i| get_balance(&rt, &format!("a{i}")))
        .sum();
    assert_eq!(total, 1000 * n_accounts as i64, "money is conserved");
    rt.shutdown();
}

#[test]
fn contention_causes_aborts_but_everything_commits() {
    let program = account_program();
    let mut cfg = StateflowConfig::fast_test(4);
    // The held window lets batches fill up.
    cfg.chaos = hold_window(cfg.pipeline_depth);
    let rt = Arc::new(deploy(&program, cfg));
    // Everyone hammers the same two accounts: WAW conflicts guaranteed.
    rt.create(
        "Account",
        "hot",
        vec![("balance".into(), Value::Int(1_000_000))],
    )
    .unwrap();
    rt.create("Account", "cold", vec![("balance".into(), Value::Int(0))])
        .unwrap();

    let waiters: Vec<_> = (0..100)
        .map(|_| {
            rt.call_async(
                EntityRef::new("Account", "hot"),
                "transfer",
                vec![Value::Ref(EntityRef::new("Account", "cold")), Value::Int(1)],
            )
        })
        .collect();
    for w in waiters {
        assert_eq!(
            w.wait_timeout(WAIT).expect("completes").expect("no error"),
            Value::Bool(true)
        );
    }
    assert_eq!(get_balance(&rt, "hot"), 1_000_000 - 100);
    assert_eq!(get_balance(&rt, "cold"), 100);
    let aborts = rt.stats().aborts.get();
    assert!(
        aborts > 0,
        "same-key transfers in one batch must conflict (got {aborts} aborts)"
    );
    rt.shutdown();
}

/// Regression: an errored chain can never commit, so its buffered writes
/// must not reserve — an errored writer used to WAW-abort healthy higher-id
/// transactions on the same key into a pointless retry round.
#[test]
fn errored_chain_does_not_abort_healthy_transactions() {
    let program = account_program();
    let mut cfg = StateflowConfig::fast_test(3);
    // Both transactions land in one batch: a read of src holds the one
    // slot while they queue behind it.
    cfg.pipeline_depth = 1;
    cfg.chaos = hold_window(1);
    let rt = deploy(&program, cfg);
    let src = rt
        .create("Account", "src", vec![("balance".into(), Value::Int(100))])
        .unwrap();
    assert_eq!(rt.call(src, "balance", vec![]).unwrap(), Value::Int(100));
    let committed_before = rt.stats().commits.get();
    // t0 (lower id): withdraws from src (a buffered write), then errors on
    // the unknown transfer target. t1 (higher id): deposits into src — a
    // WAW on src against the errored t0.
    let w0 = rt.call_async(
        EntityRef::new("Account", "src"),
        "transfer",
        vec![
            Value::Ref(EntityRef::new("Account", "ghost")),
            Value::Int(5),
        ],
    );
    let w1 = rt.call_async(
        EntityRef::new("Account", "src"),
        "deposit",
        vec![Value::Int(7)],
    );
    let err = w0.wait_timeout(WAIT).expect("completes").unwrap_err();
    assert!(err.to_string().contains("unknown entity"), "{err}");
    assert_eq!(
        w1.wait_timeout(WAIT).expect("completes").expect("no error"),
        Value::Int(107),
        "the deposit must see src untouched by the errored withdraw"
    );
    let stats = rt.stats();
    assert_eq!(
        stats.aborts.get(),
        0,
        "an errored writer must not conflict-abort healthy transactions"
    );
    assert_eq!(stats.failed.get(), 1, "the errored chain counts as failed");
    assert_eq!(
        stats.batches.get() - stats.solo_batches.get(),
        1,
        "the two transactions shared one regular batch (the read was solo)"
    );
    assert_eq!(
        stats.commits.get() - committed_before,
        1,
        "only the deposit commits — hard failures must not inflate commits"
    );
    rt.shutdown();
}

/// Hot-key contention at pipeline depth 4: aborted transactions drain
/// through solo fallback batches (committed at their final hop, pipelined
/// by the coordinator) and must still apply exactly once, in order.
#[test]
fn pipelined_hot_key_contention_commits_exactly_once() {
    let program = account_program();
    let mut cfg = StateflowConfig::fast_test(4);
    cfg.pipeline_depth = 4;
    cfg.chaos = hold_window(cfg.pipeline_depth); // let batches fill up
    let rt = Arc::new(deploy(&program, cfg));
    rt.create(
        "Account",
        "hot",
        vec![("balance".into(), Value::Int(1_000_000))],
    )
    .unwrap();
    rt.create("Account", "cold", vec![("balance".into(), Value::Int(0))])
        .unwrap();
    let waiters: Vec<_> = (0..100)
        .map(|_| {
            rt.call_async(
                EntityRef::new("Account", "hot"),
                "transfer",
                vec![Value::Ref(EntityRef::new("Account", "cold")), Value::Int(1)],
            )
        })
        .collect();
    for w in waiters {
        assert_eq!(
            w.wait_timeout(WAIT).expect("completes").expect("no error"),
            Value::Bool(true)
        );
    }
    assert_eq!(get_balance(&rt, "hot"), 1_000_000 - 100);
    assert_eq!(get_balance(&rt, "cold"), 100);
    let aborts = rt.stats().aborts.get();
    assert!(aborts > 0, "hot-key batches must conflict (got {aborts})");
    rt.shutdown();
}

#[test]
fn snapshots_are_taken_periodically() {
    let program = account_program();
    let mut cfg = StateflowConfig::fast_test(2);
    cfg.snapshot_every_batches = 1;
    let rt = deploy(&program, cfg);
    rt.create("Account", "a", vec![("balance".into(), Value::Int(10))])
        .unwrap();
    for _ in 0..5 {
        rt.call(
            EntityRef::new("Account", "a"),
            "deposit",
            vec![Value::Int(1)],
        )
        .unwrap();
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        rt.stats().snapshots.get() >= 1,
        "periodic snapshots must complete"
    );
    assert!(rt.snapshots().latest_complete().is_some());
    rt.shutdown();
}

/// The exactly-once experiment: kill a worker mid-stream and verify that
/// post-recovery state reflects every request exactly once.
fn exactly_once_scenario(snapshot_every: u64, fail_after: u64) {
    let program = account_program();
    let mut cfg = StateflowConfig::fast_test(3);
    cfg.snapshot_every_batches = snapshot_every;
    cfg.chaos = ChaosPlan::single_crash("worker0", fail_after);
    let rt = Arc::new(deploy(&program, cfg.clone()));

    let n_accounts = 6usize;
    for i in 0..n_accounts {
        rt.create(
            "Account",
            &format!("a{i}"),
            vec![("balance".into(), Value::Int(0))],
        )
        .unwrap();
    }

    // Deterministic, commutative workload: deposits only, so the expected
    // final state is independent of commit order — any lost or duplicated
    // effect is detectable.
    let mut expected = vec![0i64; n_accounts];
    let mut waiters = Vec::new();
    for i in 0..120 {
        let acct = i % n_accounts;
        let amount = (i % 9 + 1) as i64;
        expected[acct] += amount;
        waiters.push(rt.call_async(
            EntityRef::new("Account", format!("a{acct}")),
            "deposit",
            vec![Value::Int(amount)],
        ));
        // Spread arrivals across batches so the failure lands mid-stream.
        if i % 10 == 0 {
            std::thread::sleep(Duration::from_millis(3));
        }
    }
    for w in waiters {
        w.wait_timeout(WAIT)
            .expect("deposit must complete after recovery")
            .expect("no error");
    }

    assert_eq!(
        cfg.chaos.crashes_fired(),
        1,
        "the injected failure must actually fire"
    );
    assert_eq!(rt.stats().recoveries.get(), 1);

    for (i, want) in expected.iter().enumerate() {
        let got = get_balance(&rt, &format!("a{i}"));
        assert_eq!(
            got, *want,
            "a{i}: exactly-once violated (lost or duplicated deposits)"
        );
    }
    rt.shutdown();
}

#[test]
fn exactly_once_failure_before_any_snapshot() {
    // Recovery falls back to full replay from offset 0 (creates included).
    exactly_once_scenario(1_000_000, 20);
}

#[test]
fn exactly_once_failure_after_snapshots() {
    // worker0 owns 2 of the 6 accounts (40 root executions); the trigger
    // must sit well below that so it fires at every pipeline depth — deeper
    // pipelines seal smaller batches, which legitimately produces fewer
    // conflict re-executions to pad the count.
    exactly_once_scenario(2, 25);
}

#[test]
fn transfers_survive_failure_with_conservation() {
    let program = account_program();
    let mut cfg = StateflowConfig::fast_test(3);
    cfg.snapshot_every_batches = 3;
    cfg.chaos = ChaosPlan::single_crash("worker1", 25);
    let rt = Arc::new(deploy(&program, cfg.clone()));
    for i in 0..4 {
        rt.create(
            "Account",
            &format!("a{i}"),
            vec![("balance".into(), Value::Int(10_000))],
        )
        .unwrap();
    }
    let waiters: Vec<_> = (0..80)
        .map(|i| {
            let from = EntityRef::new("Account", format!("a{}", i % 4));
            let to = EntityRef::new("Account", format!("a{}", (i + 1) % 4));
            rt.call_async(from, "transfer", vec![Value::Ref(to), Value::Int(5)])
        })
        .collect();
    for w in waiters {
        w.wait_timeout(WAIT)
            .expect("transfer completes")
            .expect("no error");
    }
    assert_eq!(cfg.chaos.crashes_fired(), 1);
    let total: i64 = (0..4).map(|i| get_balance(&rt, &format!("a{i}"))).sum();
    assert_eq!(total, 40_000, "conservation across failure + replay");
    // Every account sent 20×5 and received 20×5: net zero.
    for i in 0..4 {
        assert_eq!(get_balance(&rt, &format!("a{i}")), 10_000);
    }
    rt.shutdown();
}

/// A multi-crash script kills the *same* worker twice: the first recovery
/// must not exhaust the plan, and the second incarnation's countdown starts
/// from zero. Exactly-once must hold across both replays.
#[test]
fn same_worker_crashes_twice_and_recovers_twice() {
    let program = account_program();
    let mut cfg = StateflowConfig::fast_test(3);
    cfg.snapshot_every_batches = 2;
    cfg.chaos = ChaosPlan::from_script(FaultScript {
        crashes: vec![
            CrashFault {
                node: "worker0".into(),
                point: CrashPoint::Exec,
                after_events: 15,
            },
            CrashFault {
                node: "worker0".into(),
                point: CrashPoint::Exec,
                after_events: 10,
            },
        ],
        ..FaultScript::default()
    });
    let rt = Arc::new(deploy(&program, cfg.clone()));

    let n_accounts = 6usize;
    for i in 0..n_accounts {
        rt.create("Account", &format!("a{i}"), vec![]).unwrap();
    }
    let mut expected = vec![0i64; n_accounts];
    let mut waiters = Vec::new();
    for i in 0..150 {
        let acct = i % n_accounts;
        let amount = (i % 9 + 1) as i64;
        expected[acct] += amount;
        waiters.push(rt.call_async(
            EntityRef::new("Account", format!("a{acct}")),
            "deposit",
            vec![Value::Int(amount)],
        ));
        if i % 10 == 0 {
            std::thread::sleep(Duration::from_millis(3));
        }
    }
    for w in waiters {
        w.wait_timeout(WAIT)
            .expect("deposit must complete after both recoveries")
            .expect("no error");
    }
    assert_eq!(
        cfg.chaos.crashes_fired(),
        2,
        "both scripted crashes of worker0 must fire"
    );
    assert_eq!(rt.stats().recoveries.get(), 2);
    for (i, want) in expected.iter().enumerate() {
        assert_eq!(
            get_balance(&rt, &format!("a{i}")),
            *want,
            "a{i}: exactly-once violated across a double crash"
        );
    }
    rt.shutdown();
}

/// Runs `calls` single-hop calls (alternating reads and deposits) and
/// shuts down, so no timer records after the caller reads the report.
fn timed_calls(cfg: StateflowConfig, calls: i64) -> StateflowRuntime {
    let rt = deploy(&account_program(), cfg);
    let a = rt
        .create("Account", "a", vec![("balance".into(), Value::Int(1))])
        .unwrap();
    for i in 0..calls {
        let (method, args) = match i % 2 {
            0 => ("balance", vec![]),
            _ => ("deposit", vec![Value::Int(1)]),
        };
        rt.call(a, method, args).unwrap();
    }
    rt.shutdown();
    rt
}

#[test]
fn overhead_timers_populated() {
    let rt = timed_calls(StateflowConfig::fast_test(2), 6);
    let report = rt.timers().report();
    let names: Vec<&str> = report.iter().map(|(n, _, _)| *n).collect();
    for expect in [
        "function_execution",
        "state_read",
        "state_store",
        "state_write_buffer",
    ] {
        assert!(names.contains(&expect), "missing {expect}: {names:?}");
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
    assert_eq!(bodies.map(|r| r.2), Some(6), "one body per call");
}

#[test]
fn overhead_timers_record_with_observability_off() {
    let mut cfg = StateflowConfig::fast_test(2);
    cfg.obs.mode = se_obs::ObsMode::Off;
    let rt = timed_calls(cfg, 2);
    assert!(!rt.timers().report().is_empty());
}

/// A coordinator alone on its engine thread with the test thread playing
/// both workers, each behind an inbox of its own: StateFlow's layout at
/// 1 + W threads, the coordinator's inbox 0 and worker *i*'s inbox 1 + *i*
/// of one post. Every step is a channel handshake. The coordinator's
/// thread blocks with no timeout, so whatever a test expects of it either
/// happens because something woke it or never happens (`WAIT` turns
/// "never" into a failure).
struct CoordRig {
    source: se_dataflow::ReplayableSource<se_stateflow::msg::ClientRequest>,
    waiters: Arc<se_dataflow::WaiterMap>,
    snapshots: Arc<se_dataflow::SnapshotStore<se_dataflow::StateStore>>,
    stats: Arc<se_stateflow::coordinator::CoordStats>,
    post: se_dataflow::Post<se_stateflow::msg::Envelope>,
    coord_waker: se_dataflow::Waker,
    workers: Vec<se_dataflow::DelayReceiver<se_stateflow::msg::Envelope>>,
    shutdown: Arc<std::sync::atomic::AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
    /// The coordinator thread's `/proc` task directory (Linux only).
    task_dir: Option<std::path::PathBuf>,
}

impl CoordRig {
    fn start(cfg: StateflowConfig) -> CoordRig {
        use se_dataflow::{Layout, Post, ReplayableSource, SnapshotStore, SourceReader};
        use se_stateflow::coordinator::{CoordStats, Coordinator};
        use se_stateflow::shell::Shell;
        let source = ReplayableSource::new();
        let waiters = Arc::new(se_dataflow::WaiterMap::default());
        let snapshots = Arc::new(SnapshotStore::new());
        let stats = Arc::new(CoordStats::default());
        let shutdown = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let layout = Layout::new(1 + cfg.workers, 1);
        let (post, mut workers) = Post::new(layout.threads(), cfg.chaos.clone(), cfg.net.clone());
        let coord_rx = workers.remove(0);
        let coord_waker = coord_rx.waker();
        source.wake_on_append(coord_waker.clone());
        let coordinator = Coordinator::new(
            cfg,
            SourceReader::at(&source, 0),
            Arc::clone(&snapshots),
            Arc::clone(&stats),
            se_obs::Obs::noop(),
            Arc::clone(&shutdown),
        );
        let shell = Shell::new(
            post.clone(),
            layout,
            Arc::clone(&waiters),
            Some(coordinator),
            Vec::new(),
        );
        let (dir_tx, dir_rx) = std::sync::mpsc::channel();
        let thread = std::thread::spawn(move || {
            let dir = std::fs::read_link("/proc/thread-self").ok();
            dir_tx
                .send(dir.map(|d| std::path::Path::new("/proc").join(d)))
                .unwrap();
            se_dataflow::shell::run(coord_rx, shell)
        });
        CoordRig {
            source,
            waiters,
            snapshots,
            stats,
            post,
            coord_waker,
            workers,
            shutdown,
            thread: Some(thread),
            task_dir: dir_rx.recv().unwrap(),
        }
    }

    fn send(&self, msg: se_stateflow::msg::CoordMsg) {
        let at_once = se_dataflow::Address {
            thread: 0,
            seam: None,
            faultable: false,
            bytes: 0,
        };
        self.post
            .send(at_once, se_stateflow::msg::Envelope::Coord(msg));
    }

    /// The next message to worker `id` within `within`, checked to be
    /// addressed to that worker.
    fn recv(&self, id: usize, within: Duration) -> Option<se_stateflow::msg::WorkerMsg> {
        match self.workers[id].recv_timeout(within)? {
            se_stateflow::msg::Envelope::Worker(to, msg) if to == id => Some(msg),
            other => panic!("worker {id}'s inbox got {other:?}"),
        }
    }

    /// Appends a root invocation of `Account(key).balance()`.
    fn invoke(&self, request: u64, key: &str) {
        use se_ir::{Invocation, RequestId};
        use se_stateflow::msg::{ClientOp, ClientRequest};
        let target = EntityRef::new("Account", key);
        self.source.append(ClientRequest {
            request: RequestId(request),
            op: ClientOp::Invoke(Invocation::root(
                RequestId(request),
                target,
                "balance",
                vec![],
            )),
        });
    }

    /// Every worker receives one message matching `matcher` (a broadcast).
    fn expect_all(&self, what: &str, matcher: &dyn Fn(&se_stateflow::msg::WorkerMsg) -> bool) {
        for id in 0..self.workers.len() {
            let msg = self.recv(id, WAIT).unwrap_or_else(|| panic!("no {what}"));
            assert!(matcher(&msg), "expected {what}, got {msg:?}");
        }
    }

    /// The `Exec` of the next sealed single-key batch, from `key`'s owner.
    fn expect_exec(&self, key: &str) -> se_stateflow::msg::WorkerMsg {
        let owner = se_ir::partition_for(key, self.workers.len());
        let msg = self.recv(owner, WAIT).expect("a sealed batch");
        assert!(
            matches!(msg, se_stateflow::msg::WorkerMsg::Exec { .. }),
            "expected Exec, got {msg:?}"
        );
        msg
    }

    /// Asserts that no worker hears anything for `window` — and, on Linux,
    /// that the coordinator spends that window parked rather than spinning
    /// on whatever it is deliberately not consuming: `schedstat` counts the
    /// thread's on-CPU nanoseconds and its timeslices.
    fn assert_quiet(&self, window: Duration) {
        let sched = |dir: &std::path::Path| -> Option<(u64, u64)> {
            let text = std::fs::read_to_string(dir.join("schedstat")).ok()?;
            let mut fields = text.split_whitespace().map(|f| f.parse::<u64>().ok());
            let cpu_ns = fields.next()??;
            Some((cpu_ns, fields.nth(1)??))
        };
        let before = self.task_dir.as_deref().and_then(sched);
        for id in 0..self.workers.len() {
            let msg = self.recv(id, window / self.workers.len() as u32);
            assert!(msg.is_none(), "unexpected {msg:?}");
        }
        let after = self.task_dir.as_deref().and_then(sched);
        if let (Some((cpu0, slices0)), Some((cpu1, slices1))) = (before, after) {
            assert!(
                cpu1 - cpu0 < window.as_nanos() as u64 / 10 && slices1 - slices0 < 10,
                "the coordinator is not parked: {} ns on CPU, {} timeslices in {window:?}",
                cpu1 - cpu0,
                slices1 - slices0
            );
        }
    }

    /// Stops the coordinator: it blocks with no timeout, so the flag alone
    /// would never be seen — firing its inbox's waker is what wakes it, as
    /// `StateflowRuntime::shutdown` does.
    fn stop(&mut self) {
        self.shutdown
            .store(true, std::sync::atomic::Ordering::SeqCst);
        self.coord_waker.wake();
        self.thread.take().expect("stopped once").join().unwrap();
    }
}

/// Coordinator-level test of the quiesce round: a worker
/// failure lands *inside* the `Cut → Migrate` chain, the restore round that
/// replaces it ends below its target (one "disk" fell short) and re-opens at
/// the floor, and the coordinator still comes back to `Running` with the
/// upgrade committed exactly once on the surviving lineage. No step sleeps
/// and no timer exists anywhere in it: the coordinator is parked between
/// steps, and each append from the test thread is what produces the next
/// broadcast or `Exec`.
#[test]
fn crash_inside_cut_migrate_chain_and_two_round_restore_commit_upgrade_once() {
    use se_chaos::{History, HistoryEvent};
    use se_dataflow::StateStore;
    use se_ir::RequestId;
    use se_stateflow::msg::{ClientOp, ClientRequest, CoordMsg, WorkerMsg};

    let mut cfg = StateflowConfig::fast_test(2);
    // The test thread plays the crashing worker, so the deployment must
    // declare a crash: only then does it keep the requests a restore
    // replays. The rig has no real worker, so this one never fires.
    cfg.chaos = ChaosPlan::single_crash("worker1", u64::MAX);
    cfg.snapshot_every_batches = 0; // only the upgrade cuts epochs
    let history = History::new();
    cfg.history = Some(history.clone());
    let mut rig = CoordRig::start(cfg);
    let cut = |gen: u64, epoch: u64| {
        rig.expect_all(
            "Snapshot",
            &|m| matches!(m, WorkerMsg::Snapshot { gen: g, epoch: e, .. } if (*g, *e) == (gen, epoch)),
        );
        for worker in 0..2 {
            rig.snapshots
                .put(epoch, &format!("worker{worker}"), StateStore::new());
            rig.send(CoordMsg::SnapshotAck {
                gen,
                epoch,
                worker,
                durable: None,
            });
        }
        // The chain: the cut's last ack opens the migration pass at once.
        rig.expect_all(
            "Migrate",
            &|m| matches!(m, WorkerMsg::Migrate { gen: g, version: 2, epoch: e } if (*g, *e) == (gen, epoch)),
        );
    };

    let (request, redeployed) = rig.waiters.register();
    assert_eq!(request, RequestId(1));
    rig.source.append(ClientRequest {
        request,
        op: ClientOp::Redeploy { version: 2 },
    });
    cut(0, 1);
    // Appended behind the pending `Redeploy`: must wait for the new version
    // — unread, without the coordinator spinning on it, and not forgotten.
    rig.invoke(2, "a");
    rig.assert_quiet(Duration::from_millis(100));
    // Worker 0 finishes its pass; worker 1 dies in the middle of its own.
    rig.send(CoordMsg::MigrateAck {
        gen: 0,
        version: 2,
        worker: 0,
    });
    rig.send(CoordMsg::WorkerFailed { gen: 0, worker: 1 });
    // Round 1 targets the pre-upgrade cut, but worker 1's disk has nothing.
    rig.expect_all("Restore to the cut", &|m| {
        matches!(
            m,
            WorkerMsg::Restore {
                gen: 1,
                epoch: Some(1),
                ..
            }
        )
    });
    // A straggler from the dead round must stay fenced.
    rig.send(CoordMsg::MigrateAck {
        gen: 0,
        version: 2,
        worker: 1,
    });
    // Appended during the `Restore` round: same rule.
    rig.invoke(3, "b");
    rig.assert_quiet(Duration::from_millis(100));
    for (worker, reached) in [(0, Some(1)), (1, None)] {
        rig.send(CoordMsg::RestoreAck {
            gen: 1,
            worker,
            reached,
        });
    }
    // Round 2 rejoins everyone at the floor: a full restart.
    rig.expect_all("Restore to the floor", &|m| {
        matches!(
            m,
            WorkerMsg::Restore {
                gen: 2,
                epoch: None,
                ..
            }
        )
    });
    for worker in 0..2 {
        rig.send(CoordMsg::RestoreAck {
            gen: 2,
            worker,
            reached: None,
        });
    }
    // Running again: the `Redeploy` record replays from the source and the
    // whole chain runs a second time, this time to completion.
    cut(2, 2);
    assert!(redeployed.wait_timeout(Duration::ZERO).is_none());
    for worker in 0..2 {
        rig.send(CoordMsg::MigrateAck {
            gen: 2,
            version: 2,
            worker,
        });
    }
    redeployed
        .wait_timeout(WAIT)
        .expect("the upgrade commits")
        .expect("without error");
    // Sealing resumed, on the new version: the two requests that waited
    // behind the upgrade and the restore go out as one batch.
    let (ids, answered): (Vec<_>, Vec<_>) = (0..2).map(|_| rig.waiters.register()).unzip();
    assert_eq!(ids, [RequestId(2), RequestId(3)]);
    for (key, request) in [("a", 2), ("b", 3)] {
        let WorkerMsg::Exec {
            gen: 2,
            batch: 0,
            txn,
            inv,
            ..
        } = rig.expect_exec(key)
        else {
            panic!("expected a gen-2 Exec of batch 0");
        };
        assert_eq!((inv.version, inv.request), (2, RequestId(request)));
        rig.send(CoordMsg::ExecDone {
            gen: 2,
            batch: 0,
            txn,
            response: se_ir::Response {
                request: inv.request,
                result: Ok(Value::Int(request as i64)),
            },
        });
    }
    rig.expect_all(
        "Reserve",
        &|m| matches!(m, WorkerMsg::Reserve { gen: 2, batch: 0, txns, .. } if txns.len() == 2),
    );
    // Batch 0 is in its reservation round and the coordinator has nothing
    // to do: an append is what seals batch 1.
    rig.invoke(4, "a");
    match rig.expect_exec("a") {
        WorkerMsg::Exec {
            gen: 2, batch, inv, ..
        } => assert_eq!((batch, inv.version), (1, 2)),
        other => panic!("expected a gen-2 Exec, got {other:?}"),
    }
    // Both clients of batch 0 are answered from one pass over the waiter
    // table, after the decision is counted.
    for worker in 0..2 {
        rig.send(CoordMsg::Flags {
            gen: 2,
            batch: 0,
            worker,
            flags: Vec::new(),
        });
    }
    for (request, waiter) in [2, 3].into_iter().zip(answered) {
        let answer = waiter.wait_timeout(WAIT).expect("batch 0 is decided");
        assert_eq!(answer.unwrap(), Value::Int(request));
        assert_eq!(rig.stats.commits.get(), 2, "counted before any answer");
    }
    assert!(rig.waiters.is_empty());
    rig.stop();

    let events = history.events();
    let count = |f: &dyn Fn(&HistoryEvent) -> bool| events.iter().filter(|e| f(e)).count();
    assert_eq!(
        count(&|e| matches!(e, HistoryEvent::UpgradeStarted { .. })),
        2
    );
    assert_eq!(
        count(&|e| matches!(
            e,
            HistoryEvent::UpgradeCommitted {
                version: 2,
                epoch: 2
            }
        )),
        1,
        "committed once, at the surviving lineage's cut"
    );
    assert_eq!(
        count(&|e| matches!(e, HistoryEvent::UpgradeCommitted { .. })),
        1
    );
    assert_eq!(rig.stats.recoveries.get(), 2);
    assert_eq!(rig.stats.snapshots.get(), 2);
}

/// With no crash scripted the coordinator frees each request once polled,
/// so no restore could replay it. A `WorkerFailed` there (no worker of such
/// a deployment sends one) stops the coordinator at a named invariant on
/// the spot, not at a read below the source's floor once a restore round
/// re-opens consumption.
#[test]
fn worker_failed_without_a_scripted_crash_is_an_invariant_violation() {
    use se_stateflow::msg::{CoordMsg, WorkerMsg};

    let mut cfg = StateflowConfig::fast_test(2);
    cfg.snapshot_every_batches = 0;
    let mut rig = CoordRig::start(cfg);
    rig.invoke(1, "a");
    assert!(matches!(
        rig.expect_exec("a"),
        WorkerMsg::Exec {
            gen: 0,
            batch: 0,
            ..
        }
    ));
    assert_eq!(rig.stats.log_truncated.get(), 1, "freed once polled");
    rig.send(CoordMsg::WorkerFailed { gen: 0, worker: 1 });
    let panic = rig.thread.take().unwrap().join().expect_err("stops");
    let msg = (panic.downcast_ref::<&str>().copied())
        .or(panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or_default();
    assert_eq!(
        msg,
        "invariant: a deployment with no scripted crash never recovers"
    );
    assert_eq!(rig.stats.recoveries.get(), 0);
}

/// A batch is solo iff it holds one transaction. A lone request goes out as
/// a solo `Exec`, and its final-hop worker answers it: the coordinator
/// never completes a solo request's waiter nor counts its decision. The
/// worker's `SoloDone` only frees the slot — the epoch cut opens as the
/// batch closes, no worker acknowledges a commit, and a duplicate notice
/// finds no batch. The `Snapshot` carries `through: 1`, so each worker
/// contributes once it has applied batch 0. Two requests queued together
/// remain one regular batch that reserves.
#[test]
fn a_lone_request_is_a_solo_batch_and_two_queued_requests_reserve() {
    use se_ir::Response;
    use se_stateflow::msg::{CoordMsg, WorkerMsg};

    let mut cfg = StateflowConfig::fast_test(2);
    cfg.snapshot_every_batches = 1; // cut an epoch after every batch
    let mut rig = CoordRig::start(cfg);
    let done = |batch, txn, request: u64| CoordMsg::ExecDone {
        gen: 0,
        batch,
        txn,
        response: Response {
            request: se_ir::RequestId(request),
            result: Ok(Value::Int(request as i64)),
        },
    };
    let solo_done = CoordMsg::SoloDone {
        gen: 0,
        batch: 0,
        txn: 0,
    };

    let (request, answer) = rig.waiters.register();
    rig.invoke(request.0, "a");
    match rig.expect_exec("a") {
        WorkerMsg::Exec {
            batch: 0,
            txn: 0,
            hop: 0,
            solo: true,
            ..
        } => {}
        other => panic!("expected a solo Exec of batch 0 at hop 0, got {other:?}"),
    }
    // No `Reserve` (nor anything else) follows a lone transaction's `Exec`.
    rig.assert_quiet(Duration::from_millis(50));
    rig.send(solo_done.clone());

    // The notice frees the slot, so the cut opens as the solo batch closes,
    // with nothing acknowledged: the workers hold it until their
    // watermarks pass batch 0.
    rig.expect_all("Snapshot", &|m| {
        matches!(
            m,
            WorkerMsg::Snapshot {
                gen: 0,
                epoch: 1,
                through: 1,
                ..
            }
        )
    });
    // The answer, and its count, are the worker's.
    assert!(answer.wait_timeout(Duration::ZERO).is_none());
    assert_eq!(rig.stats.commits.get(), 0);
    assert_eq!(rig.stats.batches.get(), 0);
    assert_eq!(rig.stats.solo_batches.get(), 0);
    assert!(!rig.waiters.is_empty(), "the waiter is left to the worker");
    // A duplicate notice finds no batch.
    rig.send(solo_done);

    // Appended while the cut holds sealing: both queue, and seal together
    // once the round completes.
    let (first, _) = rig.waiters.register();
    let (second, _) = rig.waiters.register();
    rig.invoke(first.0, "a");
    rig.invoke(second.0, "b");
    for worker in 0..2 {
        rig.snapshots.put(
            1,
            &format!("worker{worker}"),
            se_dataflow::StateStore::new(),
        );
        rig.send(CoordMsg::SnapshotAck {
            gen: 0,
            epoch: 1,
            worker,
            durable: None,
        });
    }
    for (key, request) in [("a", first), ("b", second)] {
        let WorkerMsg::Exec {
            batch: 1,
            txn,
            hop: 0,
            solo: false,
            ..
        } = rig.expect_exec(key)
        else {
            panic!("expected a regular Exec of batch 1");
        };
        rig.send(done(1, txn, request.0));
    }
    rig.expect_all(
        "Reserve",
        &|m| matches!(m, WorkerMsg::Reserve { gen: 0, batch: 1, txns, .. } if txns.len() == 2),
    );
    assert!(answer.wait_timeout(Duration::ZERO).is_none());
    rig.stop();
}

/// The worker that decides a solo batch answers it, and counts and records
/// the decision first: the moment a lone call returns, its commit is in
/// `coord.commits` and `coord.solo_batches` and its `Decided` is in the
/// history — no settle loop, no wait for the coordinator's notice.
#[test]
fn a_solo_answer_arrives_counted_and_recorded() {
    use se_chaos::{BatchKindTag, History, HistoryEvent};

    let mut cfg = StateflowConfig::fast_test(2);
    let history = History::new();
    cfg.history = Some(history.clone());
    let rt = deploy(&account_program(), cfg);
    let accounts = ["a", "b"].map(|k| rt.create("Account", k, vec![]).unwrap());
    for i in 0..200u64 {
        let account = accounts[i as usize % 2];
        let got = if i % 2 == 0 {
            rt.call(account, "deposit", vec![Value::Int(1)])
        } else {
            rt.call(account, "balance", vec![])
        };
        let got = got.unwrap();
        let stats = rt.stats();
        assert_eq!(stats.commits.get(), i + 1, "call {i} answered uncounted");
        assert_eq!(stats.solo_batches.get(), i + 1, "call {i}: not solo");
        assert_eq!(stats.batches.get(), i + 1);
        let events = history.events();
        let decided = events
            .iter()
            .rev()
            .find_map(|e| match e {
                HistoryEvent::Decided {
                    kind, committed, ..
                } => Some((*kind, committed.clone())),
                _ => None,
            })
            .unwrap_or_else(|| panic!("call {i} answered before its decision was recorded"));
        assert_eq!(decided.0, BatchKindTag::Solo);
        assert_eq!(decided.1.len(), 1);
        assert_eq!(
            decided.1[0].result,
            Ok(got),
            "call {i}: recorded != answered"
        );
        let decisions = events
            .iter()
            .filter(|e| matches!(e, HistoryEvent::Decided { .. }))
            .count();
        assert_eq!(decisions as u64, i + 1, "call {i}");
    }
    assert_eq!(get_balance(&rt, "a") + get_balance(&rt, "b"), 100);
    rt.shutdown();
}
