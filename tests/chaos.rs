//! Chaos-plan and history-checker integration tests through the public
//! facade: seeded-script byte-reproducibility (the property the scenario
//! driver's replay depends on), the deliberately-injected reservation bug
//! being caught by the checker, and message weather on both engines.

use std::time::Duration;

use proptest::prelude::*;

use se_chaos::{
    check_history, check_statefun_history, ChaosPlan, FaultScript, History, MessageFault,
    MsgFaultKind, ScriptConfig, Seam,
};
use stateful_entities::prelude::*;
use stateful_entities::{StateflowConfig, StatefunConfig};

const WAIT: Duration = Duration::from_secs(60);

fn acct(i: usize) -> EntityRef {
    EntityRef::new("Account", se_workloads::key_name(i))
}

/// One logically deterministic run: zero time scale ("SE_TIME_SCALE=0
/// service times"), requests issued strictly one at a time, a fault script
/// restricted to duplicates and delays. Returns the canonical history JSON.
fn serial_history_run(script: &FaultScript) -> String {
    let program = se_workloads::ycsb_program();
    let mut cfg = StateflowConfig::fast_test(3);
    cfg.net.time_scale = 0.0;
    cfg.chaos = ChaosPlan::from_script(script.clone());
    let history = History::new();
    cfg.history = Some(history.clone());
    let rule = cfg.commit_rule;
    let rt = deploy(&program, RuntimeChoice::Stateflow(cfg)).unwrap();
    let n = 3usize;
    for i in 0..n {
        // Serial creates (load_accounts parallelizes, which would make
        // request-id assignment racy).
        rt.create(
            "Account",
            &se_workloads::key_name(i),
            vec![("balance".into(), Value::Int(100))],
        )
        .unwrap();
    }
    for i in 0..10 {
        if i % 3 == 0 {
            rt.call(acct(i % n), "deposit", vec![Value::Int((i % 5) as i64 + 1)])
                .unwrap();
        } else {
            rt.call(
                acct(i % n),
                "transfer",
                vec![Value::Ref(acct((i + 1) % n)), Value::Int(2)],
            )
            .unwrap();
        }
    }
    rt.shutdown();
    // A deterministic weather run must still be a valid serializable
    // history — duplicates and delays change nothing observable.
    check_history(&history.events(), rule).expect("weathered serial run stays serializable");
    history.to_json_canonical()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, max_shrink_iters: 0 })]

    /// Satellite: any seeded `ChaosPlan` is byte-reproducible — the same
    /// seed yields the identical fault script, and (for the deterministic
    /// fault classes) the identical recorded history.
    #[test]
    fn seeded_chaos_plan_is_byte_reproducible(seed in any::<u64>()) {
        let cfg = ScriptConfig::stateflow(3).deterministic_only();
        let script_a = FaultScript::generate(seed, &cfg);
        let script_b = FaultScript::generate(seed, &cfg);
        prop_assert_eq!(&script_a, &script_b, "seed {} script not reproducible", seed);
        let history_a = serial_history_run(&script_a);
        let history_b = serial_history_run(&script_b);
        prop_assert_eq!(
            history_a, history_b,
            "seed {} recorded history not byte-identical", seed
        );
    }
}

/// Builds the contended scenario the reservation regression needs: an
/// errored transfer (ghost target) whose buffered write shares a key with a
/// healthy deposit in the same batch. Returns the recorded events and the
/// configured commit rule.
fn errored_plus_healthy_batch(
    inject_bug: bool,
) -> (Vec<se_chaos::HistoryEvent>, stateful_entities::CommitRule) {
    let program = se_workloads::ycsb_program();
    let mut cfg = StateflowConfig::fast_test(3);
    // Generous interval so both transactions land in one batch.
    cfg.batch_interval = Duration::from_millis(30);
    cfg.bug = inject_bug.then_some(stateful_entities::BugLever::ReserveErrored);
    let history = History::new();
    cfg.history = Some(history.clone());
    let rule = cfg.commit_rule;
    let rt = deploy(&program, RuntimeChoice::Stateflow(cfg)).unwrap();
    rt.create("Account", "src", vec![("balance".into(), Value::Int(100))])
        .unwrap();
    // t0 (lower id): withdraws from src (a buffered write), then errors on
    // the unknown transfer target. t1 (higher id): deposits into src.
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
        "the deposit lands either way — the bug only costs a retry round"
    );
    rt.shutdown();
    (history.events(), rule)
}

/// Acceptance: reverting the errored-txn reservation fix behind the
/// test-only flag is caught by the history checker as an unjustified abort
/// (the final state converges, so state comparison alone would miss it).
#[test]
fn injected_reserve_bug_is_caught_by_history_checker() {
    // Control: the fixed protocol records a clean, serializable history.
    let (events, rule) = errored_plus_healthy_batch(false);
    let summary = check_history(&events, rule).expect("fixed protocol passes the checker");
    assert_eq!(summary.failed, 1, "the ghost transfer hard-fails");
    assert_eq!(summary.retries, 0, "no retry without the bug");

    // Bugged: the errored writer reserves, WAW-aborting the healthy
    // deposit — a decision the recorded access sets cannot justify.
    let (events, rule) = errored_plus_healthy_batch(true);
    let err = check_history(&events, rule)
        .expect_err("the checker must flag the regressed reservation path");
    assert!(
        err.message
            .contains("aborted without a justifying conflict"),
        "unexpected violation: {err}"
    );
}

/// Message weather on the StateFlow seams — duplicates and delays on every
/// data-plane channel plus a quarantined commit record — must leave the
/// run serializable and exactly-once; the quarantined record exercises the
/// watermark's in-order buffering.
#[test]
fn stateflow_message_weather_stays_serializable() {
    let program = se_workloads::ycsb_program();
    let mut cfg = StateflowConfig::fast_test(3);
    cfg.pipeline_depth = 4;
    cfg.max_batch = 8;
    let script = FaultScript {
        messages: vec![
            MessageFault {
                seam: Seam::CoordToWorker,
                nth: 3,
                kind: MsgFaultKind::Duplicate { gap_us: 10_000 },
            },
            MessageFault {
                seam: Seam::CoordToWorker,
                nth: 9,
                kind: MsgFaultKind::Drop {
                    quarantine_us: 200_000,
                },
            },
            MessageFault {
                seam: Seam::WorkerToCoord,
                nth: 5,
                kind: MsgFaultKind::Duplicate { gap_us: 0 },
            },
            MessageFault {
                seam: Seam::WorkerToCoord,
                nth: 11,
                kind: MsgFaultKind::Delay { extra_us: 50_000 },
            },
            MessageFault {
                seam: Seam::WorkerToWorker,
                nth: 2,
                kind: MsgFaultKind::Duplicate { gap_us: 5_000 },
            },
        ],
        ..FaultScript::default()
    };
    cfg.chaos = ChaosPlan::from_script(script);
    let chaos = cfg.chaos.clone();
    let history = History::new();
    cfg.history = Some(history.clone());
    let rule = cfg.commit_rule;
    let rt = deploy(&program, RuntimeChoice::Stateflow(cfg)).unwrap();
    let n = 4usize;
    se_workloads::load_accounts(rt.as_ref(), n, 8, 1000);
    let waiters: Vec<_> = (0..60)
        .map(|i| {
            rt.call_async(
                acct(i % n),
                "transfer",
                vec![Value::Ref(acct((i + 1) % n)), Value::Int(1)],
            )
        })
        .collect();
    for w in waiters {
        assert_eq!(
            w.wait_timeout(WAIT).expect("completes").expect("no error"),
            Value::Bool(true)
        );
    }
    assert!(
        chaos.msg_faults_fired() >= 4,
        "the weather must actually hit ({} faults fired)",
        chaos.msg_faults_fired()
    );
    let summary = check_history(&history.events(), rule).expect("weathered run serializable");
    assert_eq!(summary.surviving_commits, 60);
    let total: i64 = (0..n)
        .map(|i| {
            rt.call(acct(i), "balance", vec![])
                .unwrap()
                .as_int()
                .unwrap()
        })
        .sum();
    assert_eq!(total, 1000 * n as i64, "conservation under message weather");
    rt.shutdown();
}

/// Message weather on the StateFun remote seams plus a broker outage: the
/// engine's per-key serialization guarantee must survive duplicated and
/// quarantined remote round trips (the dispatch sequence numbers are what
/// make installs idempotent).
#[test]
fn statefun_weather_preserves_per_key_serialization() {
    let program = se_workloads::ycsb_program();
    let mut cfg = StatefunConfig::fast_test(2);
    let script = FaultScript {
        messages: vec![
            MessageFault {
                seam: Seam::RemoteRequest,
                nth: 2,
                kind: MsgFaultKind::Duplicate { gap_us: 20_000 },
            },
            MessageFault {
                seam: Seam::RemoteResponse,
                nth: 4,
                kind: MsgFaultKind::Duplicate { gap_us: 0 },
            },
            MessageFault {
                seam: Seam::RemoteResponse,
                nth: 7,
                kind: MsgFaultKind::Delay { extra_us: 40_000 },
            },
        ],
        outages: vec![se_chaos::BrokerOutage {
            after_produces: 10,
            produces: 5,
            extra_us: 50_000,
        }],
        ..FaultScript::default()
    };
    cfg.chaos = ChaosPlan::from_script(script);
    let chaos = cfg.chaos.clone();
    let history = History::new();
    cfg.history = Some(history.clone());
    let rt = deploy(&program, RuntimeChoice::Statefun(cfg)).unwrap();
    let n = 3usize;
    for i in 0..n {
        rt.create("Account", &se_workloads::key_name(i), vec![])
            .unwrap();
    }
    let mut expected = vec![0i64; n];
    let mut waiters = Vec::new();
    for i in 0..40 {
        let k = i % n;
        let amount = (i % 6 + 1) as i64;
        expected[k] += amount;
        waiters.push(rt.call_async(acct(k), "deposit", vec![Value::Int(amount)]));
    }
    for w in waiters {
        w.wait_timeout(WAIT).expect("completes").expect("no error");
    }
    assert!(chaos.msg_faults_fired() >= 3, "weather must hit");
    let installs = check_statefun_history(&history.events())
        .expect("per-key serialization must hold under weather");
    assert!(
        installs >= 40,
        "every deposit dispatch installs ({installs})"
    );
    for (i, want) in expected.iter().enumerate() {
        assert_eq!(
            rt.call(acct(i), "balance", vec![])
                .unwrap()
                .as_int()
                .unwrap(),
            *want,
            "account {i}: a duplicated remote round trip must not double-apply"
        );
    }
    rt.shutdown();
}
