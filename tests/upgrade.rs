//! Live-code-upgrade acceptance tests (tentpole): a v2 class deployed while
//! v1 serves traffic must switch at an epoch boundary — new roots route to
//! v2, entity state migrates exactly once via `__migrate__`, in-flight v1
//! work drains on v1 — on both engines, across crashes, and without leaking
//! any version machinery into the recorded history of runs that never
//! upgrade.

use std::time::Duration;

use proptest::prelude::*;

use se_chaos::{check_history, ChaosPlan, CrashFault, CrashPoint, FaultScript, History};
use se_lang::arb;
use stateful_entities::prelude::*;
use stateful_entities::{BugLever, DurabilityMode, StateflowConfig, StateflowRuntime};

const WAIT: Duration = Duration::from_secs(60);

fn counter(i: usize) -> EntityRef {
    EntityRef::new("Counter", se_workloads::key_name(i))
}

/// Deploys counter v1, drives `per_counter` incr(1) calls per counter, live
/// upgrades to v2 (incr doubles; `__migrate__` seeds `shadow = count * 10`),
/// drives the same load again, and returns the runtime for assertions.
///
/// The arithmetic is fully deterministic: every pre-upgrade root is appended
/// to the source before the `Redeploy` record and therefore seals at v1
/// (count = k per counter), migration snapshots shadow = 10k, and every
/// post-upgrade root seals at v2 (count = k + 2k = 3k, shadow untouched).
fn upgraded_counter_run(
    cfg: StateflowConfig,
    counters: usize,
    per_counter: usize,
) -> StateflowRuntime {
    let graph = stateful_entities::compile(&se_lang::programs::counter_program()).unwrap();
    let rt = StateflowRuntime::deploy(graph, cfg);
    assert_eq!(rt.active_version(), 1, "fresh deploys start at version 1");
    for i in 0..counters {
        rt.create("Counter", &se_workloads::key_name(i), vec![])
            .unwrap();
    }
    let phase = |rt: &StateflowRuntime| {
        let waiters: Vec<_> = (0..counters * per_counter)
            .map(|i| rt.call_async(counter(i % counters), "incr", vec![Value::Int(1)]))
            .collect();
        for w in waiters {
            w.wait_timeout(WAIT).expect("completes").expect("no error");
        }
    };
    phase(&rt);
    let v2 = rt
        .redeploy(&se_lang::programs::counter_v2_program())
        .expect("v2 compiles and commits");
    assert_eq!(v2, 2, "one upgrade after the initial deploy");
    assert_eq!(
        rt.active_version(),
        2,
        "new roots route to v2 after redeploy"
    );
    phase(&rt);
    rt
}

/// Tentpole acceptance on StateFlow: the switchover routes new roots to v2
/// (post-upgrade incrs count double), migration runs exactly once per entity
/// (shadow reflects the *pre-upgrade* count and no later incr touches it),
/// and the recorded history passes the version-atomicity checker with
/// exactly one committed upgrade.
#[test]
fn redeploy_routes_new_roots_and_migrates_exactly_once() {
    let mut cfg = StateflowConfig::fast_test(3);
    let history = History::new();
    cfg.history = Some(history.clone());
    let rule = cfg.commit_rule;
    let (counters, per) = (3usize, 8usize);
    let rt = upgraded_counter_run(cfg, counters, per);
    for i in 0..counters {
        assert_eq!(
            rt.call(counter(i), "get", vec![]).unwrap(),
            Value::Int(3 * per as i64),
            "counter {i}: k v1 incrs + k doubled v2 incrs"
        );
        assert_eq!(
            rt.call(counter(i), "get_shadow", vec![]).unwrap(),
            Value::Int(10 * per as i64),
            "counter {i}: shadow must reflect the pre-upgrade count exactly \
             once — v2 incrs must not re-migrate"
        );
    }
    rt.shutdown();
    let summary = check_history(&history.events(), rule).expect("upgraded run stays serializable");
    assert_eq!(summary.upgrades, 1, "exactly one committed upgrade");
}

/// Version pinning is visible in the history: every batch sealed before the
/// upgrade window carries version 1 and every batch after it version 2 —
/// no batch inside the window, no version other than {1, 2}.
#[test]
fn batches_never_straddle_the_upgrade_window() {
    use se_chaos::HistoryEvent;
    let mut cfg = StateflowConfig::fast_test(3);
    let history = History::new();
    cfg.history = Some(history.clone());
    let rt = upgraded_counter_run(cfg, 2, 6);
    rt.shutdown();
    let mut committed = false;
    for event in history.events() {
        match event {
            HistoryEvent::UpgradeCommitted { version, .. } => {
                assert_eq!(version, 2);
                committed = true;
            }
            HistoryEvent::BatchVersion { batch, version } => {
                let expected = if committed { 2 } else { 1 };
                assert_eq!(
                    version, expected,
                    "batch {batch} sealed on the wrong side of the upgrade"
                );
            }
            _ => {}
        }
    }
    assert!(committed, "the upgrade must commit");
}

/// Runs that never upgrade must leave zero trace of the version machinery:
/// the canonical history JSON contains no version or upgrade event at all,
/// so it stays byte-comparable with histories recorded before this feature
/// existed.
#[test]
fn histories_without_upgrade_carry_no_version_events() {
    let program = se_lang::programs::counter_program();
    let mut cfg = StateflowConfig::fast_test(3);
    cfg.net.time_scale = 0.0;
    let history = History::new();
    cfg.history = Some(history.clone());
    let rule = cfg.commit_rule;
    let rt = deploy(&program, RuntimeChoice::Stateflow(cfg)).unwrap();
    rt.create("Counter", &se_workloads::key_name(0), vec![])
        .unwrap();
    for _ in 0..6 {
        rt.call(counter(0), "incr", vec![Value::Int(1)]).unwrap();
    }
    rt.shutdown();
    check_history(&history.events(), rule).expect("serializable");
    let json = history.to_json_canonical();
    for marker in [
        "BatchVersion",
        "UpgradeStarted",
        "UpgradeCommitted",
        "SfUpgrade",
    ] {
        assert!(
            !json.contains(marker),
            "an upgrade-free run leaked `{marker}` into its history"
        );
    }
}

/// Two upgrades back to back: v1 → v2 → v2-again (recompiled as v3). The
/// second redeploy exercises registry eviction of the fully-drained v1 and
/// incremental recompilation against v2 as the baseline.
#[test]
fn double_redeploy_keeps_serving() {
    let cfg = StateflowConfig::fast_test(2);
    let rt = upgraded_counter_run(cfg, 2, 4);
    let v3 = rt
        .redeploy(&se_lang::programs::counter_v2_program())
        .expect("idempotent program redeploy");
    assert_eq!(v3, 3);
    assert_eq!(rt.active_version(), 3);
    // v3's migration re-runs over the v2 state: shadow = count * 10 again.
    assert_eq!(
        rt.call(counter(0), "incr", vec![Value::Int(1)]).unwrap(),
        Value::Int(3 * 4 + 2),
        "v3 still doubles increments"
    );
    assert_eq!(
        rt.call(counter(1), "get_shadow", vec![]).unwrap(),
        Value::Int(10 * 3 * 4),
        "the second migration pass resnapshots shadow from the v2 count"
    );
    rt.shutdown();
}

/// Crash-mid-upgrade chaos: a scripted worker crash landing before, around
/// and inside the upgrade window, with the WAL on. Recovery must replay the
/// upgrade from the log (`VersionCut`), the upgrade must still commit
/// exactly once per redeploy, the checker must stay clean, and the final
/// arithmetic must be exactly the no-crash outcome.
#[test]
fn crash_near_upgrade_replays_from_wal_and_commits() {
    for after_events in [3u64, 9, 14] {
        let mut cfg = StateflowConfig::fast_test(3);
        cfg.durability.mode = DurabilityMode::Wal;
        cfg.durability.full_snapshot_every = 2;
        cfg.snapshot_every_batches = 2;
        cfg.chaos = ChaosPlan::from_script(FaultScript {
            crashes: vec![CrashFault {
                node: "worker1".into(),
                point: CrashPoint::Exec,
                after_events,
            }],
            ..FaultScript::default()
        });
        let chaos = cfg.chaos.clone();
        let history = History::new();
        cfg.history = Some(history.clone());
        let rule = cfg.commit_rule;
        let (counters, per) = (3usize, 8usize);
        let rt = upgraded_counter_run(cfg, counters, per);
        assert_eq!(
            chaos.crashes_fired(),
            1,
            "[after {after_events}] the scripted crash must fire"
        );
        assert!(
            rt.stats().recoveries.get() >= 1,
            "[after {after_events}] the crash must trigger a restore round"
        );
        for i in 0..counters {
            assert_eq!(
                rt.call(counter(i), "get", vec![]).unwrap(),
                Value::Int(3 * per as i64),
                "[after {after_events}] counter {i} diverged after crash recovery"
            );
            assert_eq!(
                rt.call(counter(i), "get_shadow", vec![]).unwrap(),
                Value::Int(10 * per as i64),
                "[after {after_events}] counter {i} migration not exactly-once \
                 across the crash"
            );
        }
        rt.shutdown();
        let summary = check_history(&history.events(), rule)
            .unwrap_or_else(|e| panic!("[after {after_events}] history check: {e}"));
        assert!(
            summary.upgrades >= 1,
            "[after {after_events}] the upgrade must survive recovery"
        );
    }
}

/// The seeded torn-upgrade bug — flipping the active version while the
/// migration pass is still racing — must be caught by the history checker.
/// The bug needs traffic inside the (normally sealed) upgrade window to
/// manifest, so a writer thread streams incrs while the redeploy runs; a
/// few attempts bound scheduling luck. The identical harness with the lever
/// off must stay clean every time.
#[test]
fn injected_torn_upgrade_is_caught_by_checker() {
    fn attempt(inject: bool) -> Result<(), String> {
        let mut cfg = StateflowConfig::fast_test(3);
        cfg.bug = inject.then_some(BugLever::TornUpgrade);
        // Slow control-plane hops stretch the migration round trip
        // (Migrate out, MigrateAck back) to ~10 ms, so the bug's illegally
        // resumed sealing has room to cut batches *inside* the upgrade
        // window — with test-speed hops the window is a few µs wide and the
        // race almost never materializes.
        cfg.net.f2f_hop = Duration::from_millis(5);
        cfg.batch_interval = Duration::from_millis(1);
        let history = History::new();
        cfg.history = Some(history.clone());
        let rule = cfg.commit_rule;
        let graph = stateful_entities::compile(&se_lang::programs::counter_program()).unwrap();
        let rt = std::sync::Arc::new(StateflowRuntime::deploy(graph, cfg));
        for i in 0..3 {
            rt.create("Counter", &se_workloads::key_name(i), vec![])
                .unwrap();
        }
        // Stream traffic so records queue up behind the Redeploy record —
        // under the bug they seal inside the open upgrade window.
        let writer = {
            let rt = std::sync::Arc::clone(&rt);
            std::thread::spawn(move || {
                let waiters: Vec<_> = (0..40)
                    .map(|i| {
                        std::thread::sleep(Duration::from_micros(300));
                        rt.call_async(counter(i % 3), "incr", vec![Value::Int(1)])
                    })
                    .collect();
                for w in waiters {
                    w.wait_timeout(WAIT).expect("completes").expect("no error");
                }
            })
        };
        std::thread::sleep(Duration::from_millis(2));
        rt.redeploy(&se_lang::programs::counter_v2_program())
            .expect("redeploy completes even under the bug");
        writer.join().unwrap();
        rt.shutdown();
        check_history(&history.events(), rule)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }
    for round in 0..2 {
        match attempt(false) {
            Ok(()) => {}
            Err(e) => panic!("control round {round} must stay clean, got: {e}"),
        }
    }
    let caught = (0..5).any(|_| match attempt(true) {
        Err(e) => {
            assert!(
                e.contains("torn upgrade"),
                "the violation must be attributed to the torn upgrade, got: {e}"
            );
            true
        }
        Ok(()) => false,
    });
    assert!(
        caught,
        "five attempts with the torn-upgrade lever never produced a checker \
         violation — the seeded bug is not observable"
    );
}

/// The request stream both sides of the lockstep test drive: two `go`
/// chains and a `poke` per phase.
fn arb_requests(n: i64) -> [(EntityRef, &'static str, Vec<Value>); 3] {
    let caller = EntityRef::new("ArbCaller", "a1");
    let callee = EntityRef::new("ArbCallee", "b1");
    [
        (caller, "go", vec![Value::Int(n), Value::Ref(callee)]),
        (caller, "go", vec![Value::Int(n + 1), Value::Ref(callee)]),
        (callee, "poke", vec![Value::Int(n)]),
    ]
}

/// Drives one upgraded StateFlow run (VM bodies) of an arbitrary
/// caller/callee program pair and returns every response plus the committed
/// upgrade count.
fn arb_upgrade_responses(v1: &Program, v2: &Program) -> (Vec<Result<Value, String>>, usize) {
    let mut cfg = StateflowConfig::fast_test(2);
    cfg.net.time_scale = 0.0;
    let history = History::new();
    cfg.history = Some(history.clone());
    let rule = cfg.commit_rule;
    let graph = stateful_entities::compile(v1).unwrap();
    let rt = StateflowRuntime::deploy(graph, cfg);
    rt.create("ArbCaller", "a1", vec![]).unwrap();
    rt.create("ArbCallee", "b1", vec![]).unwrap();
    let mut out = Vec::new();
    let mut drive = |rt: &StateflowRuntime, n: i64| {
        for (target, method, args) in arb_requests(n) {
            out.push(rt.call(target, method, args).map_err(|e| e.to_string()));
        }
    };
    drive(&rt, 3);
    rt.redeploy(v2).expect("generated v2 must redeploy");
    drive(&rt, 7);
    rt.shutdown();
    let summary = check_history(&history.events(), rule).expect("serializable");
    (out, summary.upgrades)
}

/// The same upgraded run on the tree-walk interpreter oracle
/// ([`se_lang::LocalExecutor`]): serial execution, a call that errors
/// leaves no effects (the engine aborts it), and the switchover runs
/// `__migrate__` once on the callee — a failing migration keeps the
/// pre-migration shape, as on the engine.
fn arb_upgrade_oracle(v1: &Program, v2: &Program) -> Vec<Result<Value, String>> {
    use se_lang::{LocalExecutor, LocalStore};
    let mut store = LocalStore::new();
    store.create(v1, "ArbCaller", "a1", vec![]).unwrap();
    store.create(v1, "ArbCallee", "b1", vec![]).unwrap();
    let call = |program: &Program, store: &mut LocalStore, (target, method, args)| {
        let mut exec = LocalExecutor::with_store(program, store.clone());
        let result = exec.invoke(&target, method, args);
        if result.is_ok() {
            *store = exec.into_store();
        }
        result.map_err(|e| e.to_string())
    };
    let mut out = Vec::new();
    out.extend(arb_requests(3).map(|req| call(v1, &mut store, req)));
    let callee = EntityRef::new("ArbCallee", "b1");
    let _ = call(v2, &mut store, (callee, se_lang::MIGRATION_METHOD, vec![]));
    out.extend(arb_requests(7).map(|req| call(v2, &mut store, req)));
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, max_shrink_iters: 0 })]

    /// Interp-vs-VM lockstep across the switchover: for arbitrary (v1, v2)
    /// program pairs — v2 changes `poke`, keeps `bump`/`go` byte-identical
    /// (incremental-recompile reuse) and adds a `__migrate__` body — the
    /// full response stream of an upgraded engine run (VM bodies) must be
    /// identical to the interpreter oracle's, with exactly one committed
    /// upgrade.
    #[test]
    fn upgrade_lockstep_interp_vs_vm((v1, v2, _, _) in arb::arb_upgrade_pair()) {
        let (vm, upgrades) = arb_upgrade_responses(&v1, &v2);
        prop_assert_eq!(arb_upgrade_oracle(&v1, &v2), vm, "engine diverged from the oracle");
        prop_assert_eq!(upgrades, 1);
    }
}

/// StateFun half of the tentpole: the same counter upgrade on the
/// remote-function engine. Each partition applies the switch at its aligned
/// drain boundary, migrates its slice of the store, and stamps later roots
/// with v2 — same deterministic arithmetic as the StateFlow run, plus the
/// per-task `SfUpgrade` events passing the statefun checker.
#[test]
fn statefun_redeploy_routes_and_migrates_exactly_once() {
    use se_chaos::check_statefun_history;
    use stateful_entities::{StatefunConfig, StatefunRuntime};
    let mut cfg = StatefunConfig::fast_test(3);
    let history = History::new();
    cfg.history = Some(history.clone());
    let partitions = cfg.partitions;
    let graph = stateful_entities::compile(&se_lang::programs::counter_program()).unwrap();
    let rt = StatefunRuntime::deploy(graph, cfg);
    assert_eq!(rt.active_version(), 1);
    let (counters, per) = (3usize, 8usize);
    for i in 0..counters {
        rt.create("Counter", &se_workloads::key_name(i), vec![])
            .unwrap();
    }
    let phase = |rt: &StatefunRuntime| {
        let waiters: Vec<_> = (0..counters * per)
            .map(|i| rt.call_async(counter(i % counters), "incr", vec![Value::Int(1)]))
            .collect();
        for w in waiters {
            w.wait_timeout(WAIT).expect("completes").expect("no error");
        }
    };
    phase(&rt);
    let v2 = rt
        .redeploy(&se_lang::programs::counter_v2_program())
        .expect("v2 redeploys on statefun");
    assert_eq!(v2, 2);
    assert_eq!(rt.active_version(), 2);
    phase(&rt);
    for i in 0..counters {
        assert_eq!(
            rt.call(counter(i), "get", vec![]).unwrap(),
            Value::Int(3 * per as i64),
            "counter {i}: k v1 incrs + k doubled v2 incrs"
        );
        assert_eq!(
            rt.call(counter(i), "get_shadow", vec![]).unwrap(),
            Value::Int(10 * per as i64),
            "counter {i}: migration must run exactly once"
        );
    }
    rt.shutdown();
    let events = history.events();
    check_statefun_history(&events).expect("upgraded statefun run passes the checker");
    let upgrades = events
        .iter()
        .filter(|e| matches!(e, se_chaos::HistoryEvent::SfUpgrade { .. }))
        .count();
    assert_eq!(
        upgrades, partitions,
        "every partition records exactly one switch"
    );
}

/// Crash-mid-upgrade on StateFun: a scripted task crash with transactional
/// checkpoints on. Recovery restores the latest aligned snapshot and
/// replays the ingress log — re-delivering the `Upgrade` marker when the
/// snapshot predates it — so the switch still lands exactly once per
/// incarnation and the arithmetic still holds.
#[test]
fn statefun_crash_near_upgrade_recovers_and_commits() {
    use se_chaos::check_statefun_history;
    use stateful_entities::{CheckpointMode, StatefunConfig, StatefunRuntime};
    for after_events in [4u64, 10] {
        let mut cfg = StatefunConfig::fast_test(3);
        cfg.checkpoint = CheckpointMode::Transactional {
            interval: Duration::from_millis(10),
        };
        cfg.chaos = ChaosPlan::single_crash("task1", after_events);
        let chaos = cfg.chaos.clone();
        let history = History::new();
        cfg.history = Some(history.clone());
        let graph = stateful_entities::compile(&se_lang::programs::counter_program()).unwrap();
        let rt = StatefunRuntime::deploy(graph, cfg);
        let (counters, per) = (3usize, 8usize);
        for i in 0..counters {
            rt.create("Counter", &se_workloads::key_name(i), vec![])
                .unwrap();
        }
        let phase = |rt: &StatefunRuntime| {
            let waiters: Vec<_> = (0..counters * per)
                .map(|i| rt.call_async(counter(i % counters), "incr", vec![Value::Int(1)]))
                .collect();
            for w in waiters {
                w.wait_timeout(WAIT).expect("completes").expect("no error");
            }
        };
        phase(&rt);
        let v2 = rt
            .redeploy(&se_lang::programs::counter_v2_program())
            .expect("upgrade survives the crash");
        assert_eq!(v2, 2);
        phase(&rt);
        assert_eq!(
            chaos.crashes_fired(),
            1,
            "[after {after_events}] the scripted crash must fire"
        );
        assert!(
            rt.recoveries() >= 1,
            "[after {after_events}] the crash must trigger a restore"
        );
        for i in 0..counters {
            assert_eq!(
                rt.call(counter(i), "get", vec![]).unwrap(),
                Value::Int(3 * per as i64),
                "[after {after_events}] counter {i} diverged after recovery"
            );
            assert_eq!(
                rt.call(counter(i), "get_shadow", vec![]).unwrap(),
                Value::Int(10 * per as i64),
                "[after {after_events}] counter {i} migration not exactly-once"
            );
        }
        rt.shutdown();
        check_statefun_history(&history.events())
            .unwrap_or_else(|e| panic!("[after {after_events}] statefun checker: {e}"));
    }
}

/// Reads across the switchover: heavy pre-upgrade traffic runs the v1
/// bytecode, the upgrade's `__migrate__` pass then rewrites every entity's
/// state (inserting `shadow` changes each state map's layout), and `get` is
/// carried over to v2 unchanged. Every post-migration read — repeated and
/// interleaved across entities — must return the exact migrated values on
/// both engines.
#[test]
fn post_migration_reads_return_migrated_values_on_both_engines() {
    let (counters, per) = (4usize, 12usize);
    // StateFlow engine.
    {
        let rt = upgraded_counter_run(StateflowConfig::fast_test(3), counters, per);
        for round in 0..3 {
            for i in 0..counters {
                assert_eq!(
                    rt.call(counter(i), "get", vec![]).unwrap(),
                    Value::Int(3 * per as i64),
                    "[stateflow round {round}] counter {i}: `get` did not return \
                     the migrated `count`"
                );
                assert_eq!(
                    rt.call(counter(i), "get_shadow", vec![]).unwrap(),
                    Value::Int(10 * per as i64),
                    "[stateflow round {round}] counter {i}: `get_shadow` did not \
                     return the migrated `shadow`"
                );
            }
        }
        rt.shutdown();
    }
    // StateFun engine.
    {
        use stateful_entities::{StatefunConfig, StatefunRuntime};
        let graph = stateful_entities::compile(&se_lang::programs::counter_program()).unwrap();
        let rt = StatefunRuntime::deploy(graph, StatefunConfig::fast_test(3));
        for i in 0..counters {
            rt.create("Counter", &se_workloads::key_name(i), vec![])
                .unwrap();
        }
        let phase = |rt: &StatefunRuntime| {
            let waiters: Vec<_> = (0..counters * per)
                .map(|i| rt.call_async(counter(i % counters), "incr", vec![Value::Int(1)]))
                .collect();
            for w in waiters {
                w.wait_timeout(WAIT).expect("completes").expect("no error");
            }
        };
        phase(&rt);
        rt.redeploy(&se_lang::programs::counter_v2_program())
            .expect("v2 redeploys on statefun");
        phase(&rt);
        for round in 0..3 {
            for i in 0..counters {
                assert_eq!(
                    rt.call(counter(i), "get", vec![]).unwrap(),
                    Value::Int(3 * per as i64),
                    "[statefun round {round}] counter {i}: `get` did not return \
                     the migrated `count`"
                );
                assert_eq!(
                    rt.call(counter(i), "get_shadow", vec![]).unwrap(),
                    Value::Int(10 * per as i64),
                    "[statefun round {round}] counter {i}: `get_shadow` did not \
                     return the migrated `shadow`"
                );
            }
        }
        rt.shutdown();
    }
}

/// Incremental redeploy cost model: compiling v2 against a live v1 graph
/// recompiles only the changed/new methods and reuses the rest verbatim
/// (the paper's "deploy costs O(changed methods)" claim in miniature).
#[test]
fn incremental_recompile_reuses_unchanged_methods() {
    let v1 = se_compiler::compile(&se_lang::programs::counter_program()).unwrap();
    let (v2, stats) = se_compiler::compile_upgrade(
        &v1,
        &se_lang::programs::counter_v2_program(),
        &se_compiler::CompileOptions::default(),
    )
    .unwrap();
    assert_eq!(v2.version, v1.version + 1);
    assert!(
        stats.methods_reused >= 1,
        "`get` is byte-identical in v2 and must be reused, got {stats:?}"
    );
    assert!(
        stats.methods_recompiled >= 2,
        "`incr` changed and `get_shadow`/`__migrate__` are new, got {stats:?}"
    );
    assert_eq!(
        stats.methods_total,
        stats.methods_reused + stats.methods_recompiled
    );
}
