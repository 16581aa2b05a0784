//! Durability acceptance tests: with `SE_DURABILITY=wal` semantics turned
//! on in the config, every post-crash restore rebuilds partition state from
//! the on-disk WAL + base snapshots instead of the in-memory snapshot store
//! — and the runs must still pass the serializability checker and land on
//! oracle-equal state, even when the crash is paired with scripted disk
//! damage (torn/lost tails, bit flips, missing snapshot files).

use std::time::Duration;

use se_chaos::{
    check_history, ChaosPlan, CrashFault, CrashPoint, DiskFault, DiskFaultKind, FaultScript,
    History, MessageFault, MsgFaultKind, Seam,
};
use stateful_entities::prelude::*;
use stateful_entities::{DurabilityMode, FsyncPolicy, ResponseWaiter, StateflowConfig};

const WAIT: Duration = Duration::from_secs(60);

fn acct(i: usize) -> EntityRef {
    EntityRef::new("Account", se_workloads::key_name(i))
}

fn durable_cfg(workers: usize) -> StateflowConfig {
    let mut cfg = StateflowConfig::fast_test(workers);
    cfg.durability.mode = DurabilityMode::Wal;
    // Small incremental-snapshot period so base rewrites happen mid-run.
    cfg.durability.full_snapshot_every = 2;
    cfg.snapshot_every_batches = 2;
    cfg
}

/// `durable_cfg` where a crash finds the log's tail handed to the kernel
/// but not synced, so a scripted tail or bit-flip fault has bytes to
/// damage. Under the default `on-epoch` policy frames reach the kernel only
/// at a cut, which fsyncs them too: a crash finds exactly the synced prefix
/// and those faults change nothing. Under `never` only the log's first
/// frame is synced, as long as no base snapshot is written: a base raises
/// the cluster durable floor, and the compaction that follows fsyncs the
/// log it rewrites.
fn unsynced_tail_cfg(workers: usize) -> StateflowConfig {
    let mut cfg = durable_cfg(workers);
    cfg.durability.fsync = FsyncPolicy::Never;
    cfg.durability.full_snapshot_every = u64::MAX;
    cfg
}

/// Waits for every response in `waiters`, which must all succeed.
fn settle(waiters: &mut Vec<ResponseWaiter>) {
    for w in waiters.drain(..) {
        w.wait_timeout(WAIT)
            .expect("completes after recovery")
            .expect("no error");
    }
}

/// Commutative deposits against a Local-runtime oracle, a scripted crash,
/// history recording, and a post-run audit: crash fired, at least one
/// recovery ran, the history is serializable, and every balance equals the
/// oracle's. Returns the restore rounds the run took.
///
/// The client sends in tens: a stream with a 4 ms pause before each ten, or
/// with `waves`, each ten only once the previous ten have answered.
fn crashed_durable_run_matches_oracle(cfg: StateflowConfig, ops: usize, waves: bool) -> u64 {
    let chaos = cfg.chaos.clone();
    let history = History::new();
    let mut cfg = cfg;
    cfg.history = Some(history.clone());
    let program = se_workloads::ycsb_program();
    let graph = stateful_entities::compile(&program).unwrap();
    let rt = stateful_entities::StateflowRuntime::deploy(graph, cfg);
    let oracle = deploy(&program, RuntimeChoice::Local).unwrap();
    let n = 5usize;
    se_workloads::load_accounts(&rt, n, 8, 200);
    se_workloads::load_accounts(oracle.as_ref(), n, 8, 200);
    let mut waiters = Vec::new();
    for i in 0..ops {
        let amount = (i % 9 + 1) as i64;
        oracle
            .call(acct(i % n), "deposit", vec![Value::Int(amount)])
            .unwrap();
        // Pauses, or waits for the previous ten, spread the batches out so
        // the crash lands while snapshots (and WAL epoch cuts) are
        // interleaved with commits.
        if i % 10 == 0 {
            if waves {
                settle(&mut waiters);
            } else {
                std::thread::sleep(Duration::from_millis(4));
            }
        }
        waiters.push(rt.call_async(acct(i % n), "deposit", vec![Value::Int(amount)]));
    }
    settle(&mut waiters);
    assert_eq!(chaos.crashes_fired(), 1, "the scripted crash must fire");
    let rounds = rt.stats().recoveries.get();
    assert!(
        rounds >= 1,
        "the crash must trigger at least one restore round"
    );
    check_history(&history.events()).expect("post-crash disk recovery stays serializable");
    for i in 0..n {
        assert_eq!(
            rt.call(acct(i), "balance", vec![]).unwrap(),
            oracle.call(acct(i), "balance", vec![]).unwrap(),
            "account {i} diverged from the oracle after disk recovery"
        );
    }
    rt.shutdown();
    oracle.shutdown();
    rounds
}

/// Tentpole acceptance: a worker crash at each of the three protocol points
/// (execution, reservation, commit application) with durability on — the
/// partition must come back from its own disk and the run must stay
/// serializable and oracle-equal.
#[test]
fn crash_at_each_protocol_point_recovers_from_disk() {
    for point in [CrashPoint::Exec, CrashPoint::Reserve, CrashPoint::Commit] {
        let mut cfg = durable_cfg(3);
        // The first `pipeline_depth` messages to the coordinator are held
        // for 200 ms, far beyond the ≈ 40 ms the client takes to append:
        // the window closes within the first batches (those messages free
        // their slots or end their execution), every later request queues
        // meanwhile, and it drains in at least 9 regular batches of 8
        // whatever the scheduler does. So the fifth reservation round — the
        // scripted crash — always exists (a lone transaction is a solo
        // batch and reserves nothing).
        cfg.max_batch = 8;
        let hold = (0..cfg.pipeline_depth as u64).map(|nth| MessageFault {
            seam: Seam::WorkerToCoord,
            nth,
            kind: MsgFaultKind::Delay { extra_us: 200_000 },
        });
        cfg.chaos = ChaosPlan::from_script(FaultScript {
            crashes: vec![CrashFault {
                node: "worker1".into(),
                point,
                after_events: 5,
            }],
            messages: hold.collect(),
            ..FaultScript::default()
        });
        crashed_durable_run_matches_oracle(cfg, 80, false);
    }
}

/// Power-loss faults: the crashed worker's unsynced WAL tail is torn
/// mid-record or lost entirely. Recovery must replay the last durable
/// prefix and rejoin cleanly — zero checker violations, money conserved.
///
/// The fault must cost the crashed worker the restore target's cut, the
/// last frame its log handed to the kernel, so the cluster needs a second
/// restore round at a lower epoch. The client sends waves of twelve, each
/// once the previous one has answered. `worker1` owns `user1`, `user2` and
/// `user4`, and a transfer runs on its source, its target, then its source
/// again, so every six transfers run nine hops on `worker1`: at least 135
/// over the run and at most 36 in the first wave, where each transfer runs
/// at most twice (a retry is a solo batch). Each wave seals at least two
/// batches (transfers `i` and `i + 6` share a source account, so they
/// conflict if they share a batch), so an epoch cuts before the next wave
/// is read, and the 60th hop falls after a cut in every run.
#[test]
fn torn_and_lost_tails_recover_to_last_durable_prefix() {
    for kind in [
        DiskFaultKind::TornTail { bytes: 37 },
        DiskFaultKind::LostTail,
    ] {
        let mut cfg = unsynced_tail_cfg(3);
        cfg.pipeline_depth = 2;
        cfg.chaos = ChaosPlan::from_script(FaultScript {
            crashes: vec![CrashFault {
                node: "worker1".into(),
                point: CrashPoint::Exec,
                after_events: 60,
            }],
            disk: vec![DiskFault {
                node: "worker1".into(),
                kind,
            }],
            ..FaultScript::default()
        });
        let chaos = cfg.chaos.clone();
        let history = History::new();
        cfg.history = Some(history.clone());
        let program = se_workloads::ycsb_program();
        let graph = stateful_entities::compile(&program).unwrap();
        let rt = stateful_entities::StateflowRuntime::deploy(graph, cfg);
        let n = 6usize;
        se_workloads::load_accounts(&rt, n, 16, 500);
        let mut waiters = Vec::new();
        for i in 0..90 {
            if i % 12 == 0 {
                settle(&mut waiters);
            }
            waiters.push(rt.call_async(
                acct(i % n),
                "transfer",
                vec![Value::Ref(acct((i + 2) % n)), Value::Int(3)],
            ));
        }
        settle(&mut waiters);
        assert_eq!(chaos.crashes_fired(), 1, "[{kind:?}] crash must fire");
        assert_eq!(
            chaos.disk_faults_fired(),
            1,
            "[{kind:?}] the disk fault must be consumed at crash time"
        );
        assert!(
            rt.stats().recoveries.get() >= 2,
            "[{kind:?}] the fault left the crashed worker's newest cut intact"
        );
        check_history(&history.events())
            .unwrap_or_else(|e| panic!("[{kind:?}] recovery violated serializability: {e}"));
        let total: i64 = (0..n)
            .map(|i| {
                rt.call(acct(i), "balance", vec![])
                    .unwrap()
                    .as_int()
                    .unwrap()
            })
            .sum();
        assert_eq!(total, 500 * n as i64, "[{kind:?}] money not conserved");
        rt.shutdown();
    }
}

/// Silent corruption: one bit flips inside the last unsynced WAL data
/// record. The CRC must catch it, recovery truncates at the damaged frame,
/// which precedes the restore target's cut, so the cluster falls back in a
/// second restore round, and the replayed run still matches the oracle.
///
/// `worker0` owns only `user0`, which gets two deposits in each wave of
/// ten, so it runs 16 to 32 execs (a transaction retries at most once, as a
/// solo batch). Each wave seals at least two batches (its two deposits on
/// one account conflict if they share one), so an epoch cuts before the
/// next wave is read: the first wave runs at most four of `worker0`'s execs,
/// and the tenth falls after a cut in every run.
#[test]
fn bitflipped_wal_record_is_caught_by_checksum() {
    let mut cfg = unsynced_tail_cfg(3);
    cfg.chaos = ChaosPlan::from_script(FaultScript {
        crashes: vec![CrashFault {
            node: "worker0".into(),
            point: CrashPoint::Exec,
            after_events: 10,
        }],
        disk: vec![DiskFault {
            node: "worker0".into(),
            kind: DiskFaultKind::BitFlip,
        }],
        ..FaultScript::default()
    });
    let chaos = cfg.chaos.clone();
    let rounds = crashed_durable_run_matches_oracle(cfg, 80, true);
    assert_eq!(
        chaos.disk_faults_fired(),
        1,
        "the bit flip must be consumed"
    );
    assert!(
        rounds >= 2,
        "the flip left the crashed worker's newest cut intact"
    );
}

/// Missing-base fault plus fsync weather: the newest base snapshot file is
/// gone at recovery time (recovery falls back to an older base or full log
/// replay), while one fsync fails outright and another is slowed — the
/// synced prefix lags, but nothing observable may change.
#[test]
fn missing_snapshot_and_fsync_weather_still_recover() {
    let mut cfg = durable_cfg(3);
    cfg.chaos = ChaosPlan::from_script(FaultScript {
        crashes: vec![CrashFault {
            node: "worker2".into(),
            point: CrashPoint::Commit,
            after_events: 5,
        }],
        disk: vec![
            DiskFault {
                node: "worker2".into(),
                kind: DiskFaultKind::MissingSnapshot,
            },
            DiskFault {
                node: "worker2".into(),
                kind: DiskFaultKind::FailedFsync { nth: 1 },
            },
            DiskFault {
                node: "worker0".into(),
                kind: DiskFaultKind::SlowFsync {
                    nth: 2,
                    extra_us: 20_000,
                },
            },
        ],
        ..FaultScript::default()
    });
    crashed_durable_run_matches_oracle(cfg, 80, false);
}

/// One logically deterministic serial run, parameterized by durability
/// mode; returns the canonical history JSON.
fn serial_history_run(mode: DurabilityMode) -> String {
    let program = se_workloads::ycsb_program();
    let mut cfg = StateflowConfig::fast_test(3);
    cfg.net.time_scale = 0.0;
    cfg.durability.mode = mode;
    cfg.snapshot_every_batches = 2;
    let history = History::new();
    cfg.history = Some(history.clone());
    let rt = deploy(&program, RuntimeChoice::Stateflow(cfg)).unwrap();
    let n = 3usize;
    for i in 0..n {
        rt.create(
            "Account",
            &se_workloads::key_name(i),
            vec![("balance".into(), Value::Int(100))],
        )
        .unwrap();
    }
    for i in 0..12 {
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
    check_history(&history.events()).expect("serial run serializable");
    history.to_json_canonical()
}

/// Durability is write-path-only: turning the WAL on must not change one
/// byte of the recorded logical history relative to the volatile default.
#[test]
fn durability_on_vs_off_histories_are_byte_identical() {
    assert_eq!(
        serial_history_run(DurabilityMode::Off),
        serial_history_run(DurabilityMode::Wal),
        "the WAL write path leaked into logical execution"
    );
}

/// Total on-disk `wal.log` bytes across every worker subdirectory.
fn wal_bytes(dir: &std::path::Path) -> u64 {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).expect("read durability dir") {
        let wal = entry.expect("dir entry").path().join("wal.log");
        if let Ok(meta) = std::fs::metadata(&wal) {
            total += meta.len();
        }
    }
    total
}

/// Drives `WAVES` waves of deposits against a fresh durable deployment in
/// `dir` and returns the WAL bytes left on disk at shutdown.
///
/// With `snapshot_rounds`, every wave is followed by a live redeploy of the
/// unchanged program. `redeploy` is the one client call that blocks on a
/// *completed* snapshot round (its epoch boundary), so the run holds exactly
/// one finished round per wave wherever the scheduler put the batches — no
/// sleeping or polling for the coordinator to find a drained pipeline.
/// Without it, snapshots are off and the log keeps every commit.
fn wal_bytes_after_deposit_waves(dir: &std::path::Path, snapshot_rounds: bool) -> u64 {
    const WAVES: usize = 8;
    const PER_WAVE: usize = 25;
    let mut cfg = durable_cfg(3);
    cfg.max_batch = 8;
    cfg.durability.dir = Some(dir.to_path_buf());
    if !snapshot_rounds {
        cfg.snapshot_every_batches = 0;
    }
    let program = se_workloads::ycsb_program();
    let graph = stateful_entities::compile(&program).unwrap();
    let rt = stateful_entities::StateflowRuntime::deploy(graph, cfg);
    se_workloads::load_accounts(&rt, 5, 8, 200);
    for wave in 0..WAVES {
        let waiters: Vec<_> = (0..PER_WAVE)
            .map(|i| rt.call_async(acct(i % 5), "deposit", vec![Value::Int((i % 9 + 1) as i64)]))
            .collect();
        for w in waiters {
            w.wait_timeout(WAIT).expect("completes").expect("no error");
        }
        if snapshot_rounds {
            rt.redeploy(&program)
                .unwrap_or_else(|e| panic!("wave {wave}: barrier redeploy failed: {e:?}"));
        }
    }
    rt.shutdown();
    wal_bytes(dir)
}

/// WAL reclamation: every completed snapshot round advances the cluster
/// durable floor, and the next snapshot marker compacts each worker's log
/// below it — so however long the run, the on-disk WAL only reaches back to
/// the newest base at or below the floor (with a base every 2 cuts: the
/// last two epochs), a fraction of the never-compacted control's. A second
/// compacting run takes a *late* crash, proving a partition can still
/// rejoin from its rewritten log and stay oracle-equal.
#[test]
fn snapshots_reclaim_wal_space() {
    let stamp = format!(
        "se-wal-reclaim-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    );
    let dir = |name: &str| {
        let dir = std::env::temp_dir().join(format!("{stamp}-{name}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    };
    let (crashed_dir, compacted_dir, control_dir) =
        (dir("crashed"), dir("compacted"), dir("control"));

    // Crashed run: snapshots every 2 batches, crash after the floor has
    // had time to advance past several compactions. The batch size is
    // capped well below the request count: `fast_test`'s 256-txn batches
    // can swallow the whole run in one or two seals on a quiet host, so no
    // snapshot round completes and the durable floor never advances.
    let mut cfg = durable_cfg(3);
    cfg.max_batch = 8;
    cfg.durability.dir = Some(crashed_dir.clone());
    cfg.chaos = ChaosPlan::from_script(FaultScript {
        crashes: vec![CrashFault {
            node: "worker1".into(),
            point: CrashPoint::Exec,
            after_events: 40,
        }],
        ..FaultScript::default()
    });
    crashed_durable_run_matches_oracle(cfg, 200, false);
    assert!(
        wal_bytes(&crashed_dir) > 0,
        "crashed run must leave a WAL behind"
    );

    // What the size comparison must not depend on is where a run stops
    // relative to its last snapshot marker, so both sides run the same
    // waves and the compacting side ends on a completed round. After the
    // last of its 8 rounds the log holds at most the last two waves'
    // commits; the control holds all eight.
    let compacted = wal_bytes_after_deposit_waves(&compacted_dir, true);
    let control = wal_bytes_after_deposit_waves(&control_dir, false);
    assert!(control > 0, "control run must leave a WAL behind");
    assert!(compacted > 0, "compacted run must leave a WAL behind");
    assert!(
        compacted * 2 < control,
        "snapshots must reclaim WAL space: compacted {compacted} bytes \
         vs never-compacted {control} bytes"
    );
    for dir in [crashed_dir, compacted_dir, control_dir] {
        std::fs::remove_dir_all(dir).ok();
    }
}
