//! `chaos_explore` — randomized, seed-reproducible chaos scenarios against
//! the StateFlow engine, with script shrinking on failure.
//!
//! Each scenario samples a point in {workload A/T, zipfian/uniform key
//! popularity, pipeline depth 1/2/4/8, durability off/wal, live upgrade
//! on/off, seeded fault script} — a 64-cell matrix (seed bits 0, 1, 2–3, 4,
//! 5 in that order) — and runs a contended workload (plus,
//! for T, a slice of transfers to a nonexistent "ghost" account, so errored
//! transactions share batches with healthy ones). Durable scenarios
//! additionally sample an fsync policy and arm disk-fault generation
//! (torn/lost WAL tails, bit flips, missing base snapshots, slow/failed
//! fsyncs), so recovery runs from damaged disks. Upgrade scenarios redeploy
//! a semantics-preserving v2 of the account class mid-stream, so the
//! epoch-boundary switchover and its migration pass race the fault script.
//! The run records its execution history; a scenario passes only if
//!
//! 1. every request completes (liveness — quarantined messages and scripted
//!    crashes must never wedge the system),
//! 2. the history passes the serializability checker (decisions justified,
//!    exactly-once across recoveries, retries monotone),
//! 3. replaying the history's equivalent serial order through the
//!    single-threaded Local oracle reproduces every committed response and
//!    the distributed run's final state.
//!
//! On failure the driver *shrinks*: it removes scripted faults one at a
//! time, re-running after each removal and keeping it when the failure
//! still reproduces, then reports `(seed, minimized script)` as JSON under
//! `chaos_results/` and exits non-zero.
//!
//! Knobs: `SE_CHAOS_SEED` (master seed), `SE_CHAOS_SCENARIOS` (count,
//! default 20; `--scenarios N` wins), `SE_TIME_SCALE` (applied to the
//! simulated network), `SE_CHAOS_INJECT_BUG` (pair with `--expect-bug`):
//! `reserve-errored` reverts the errored-transaction reservation fix — the
//! self-test proving the harness catches a real historical bug;
//! `wal-no-crc` disables WAL checksum validation at recovery while forcing
//! durable scenarios with bit-flip disk faults, proving the harness catches
//! silently corrupted recovery state; `torn-upgrade` makes the coordinator
//! resume sealing batches while a live upgrade's migration pass is still in
//! flight, proving the checker catches a non-atomic version switchover.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use se_chaos::{CrashFault, CrashPoint};
use stateful_entities::prelude::*;
use stateful_entities::{
    check_history, serial_order, BugLever, ChaosPlan, DiskFault, DiskFaultKind, DurabilityMode,
    FaultScript, FsyncPolicy, History, ScriptConfig, StateflowConfig, StateflowRuntime,
};

const WORKERS: usize = 3;
const KEYS: usize = 8;
/// One extra account normal ops never touch: each ghost transfer draws
/// from it and is chased by a healthy deposit to it, so the pair shares a
/// key with *no other writer* — an abort of that deposit can never be
/// justified by a natural conflict, which is exactly the signature of the
/// errored-reservation regression the harness must be able to catch.
const FRAGILE: usize = KEYS;
const ACCOUNTS: usize = KEYS + 1;
const OPS: usize = 120;
const INITIAL_BALANCE: i64 = 500;
const VALUE_SIZE: usize = 16;
const WAIT: Duration = Duration::from_secs(60);

fn env_or(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// One sampled scenario (everything needed to reproduce it).
#[derive(Debug, Clone, Serialize)]
struct Scenario {
    seed: u64,
    workload: &'static str,
    dist: &'static str,
    depth: usize,
    durability: &'static str,
    /// Fsync policy string for durable scenarios (`"-"` with durability
    /// off): `every-commit`, `on-epoch`, `every-3` or `never`.
    fsync: String,
    /// Whether a semantics-preserving v2 of the account class is
    /// live-redeployed halfway through the request stream.
    upgrade: bool,
    script: FaultScript,
}

impl Scenario {
    fn sample(seed: u64) -> Scenario {
        // The workload point comes from the seed's low bits, so the
        // sequential seeds of one run sweep the whole 64-cell matrix
        // (A/T × zipfian/uniform × depth {1,2,4,8} × durability off/wal ×
        // upgrade off/on) deterministically; the fault script comes from
        // the full seed.
        let workload = if seed & 1 == 0 { "A" } else { "T" };
        let dist = if seed & 2 == 0 { "zipfian" } else { "uniform" };
        let depth = [1usize, 2, 4, 8][(seed >> 2) as usize % 4];
        let durability = if seed & 16 == 0 { "off" } else { "wal" };
        let upgrade = seed & 32 != 0;
        let mut script_cfg = ScriptConfig::stateflow(WORKERS);
        let fsync = if durability == "wal" {
            // Disk faults only make sense against a WAL; the fsync policy
            // moves the durable/unsynced boundary the faults play against.
            script_cfg = script_cfg.with_disk_faults(2);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xD15C_F517_AB1E_5EED);
            ["every-commit", "on-epoch", "every-3", "never"][rng.gen_range(0..4)].to_string()
        } else {
            "-".to_string()
        };
        let script = FaultScript::generate(seed, &script_cfg);
        Scenario {
            seed,
            workload,
            dist,
            depth,
            durability,
            fsync,
            upgrade,
            script,
        }
    }
}

/// One operation of the generated request sequence.
#[derive(Debug, Clone)]
enum Op {
    Read(usize),
    Update(usize, u8),
    Deposit(usize, i64),
    Transfer(usize, usize, i64),
    /// Transfer to the nonexistent ghost account: errors mid-chain with a
    /// buffered write — the shape that exercises the errored-reservation
    /// path.
    GhostTransfer(usize),
}

fn ops_for(sc: &Scenario) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(sc.seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut chooser: Box<dyn se_workloads::KeyChooser> = match sc.dist {
        "zipfian" => Box::new(se_workloads::Zipfian::new(KEYS)),
        _ => Box::new(se_workloads::Uniform::new(KEYS)),
    };
    let mut ops = Vec::with_capacity(OPS + OPS / 9 + 1);
    for i in 0..OPS {
        let k = chooser.next_key(&mut rng);
        match sc.workload {
            "A" => {
                if rng.gen_bool(0.5) {
                    ops.push(Op::Read(k));
                } else {
                    ops.push(Op::Update(k, rng.gen::<u8>()));
                }
            }
            _ => {
                if i % 9 == 8 {
                    // The errored writer and a healthy higher-id deposit
                    // on the same otherwise-untouched account, issued
                    // back-to-back so they usually share a batch: the
                    // deposit may only ever abort if the errored chain's
                    // buffered write reserves — the regression signature.
                    ops.push(Op::GhostTransfer(FRAGILE));
                    ops.push(Op::Deposit(FRAGILE, rng.gen_range(1..5)));
                } else {
                    let mut to = chooser.next_key(&mut rng);
                    if to == k {
                        to = (to + 1) % KEYS;
                    }
                    ops.push(Op::Transfer(k, to, rng.gen_range(1..5)));
                }
            }
        }
    }
    ops
}

fn acct(i: usize) -> EntityRef {
    EntityRef::new("Account", se_workloads::key_name(i))
}

fn invocation(op: &Op) -> (EntityRef, &'static str, Vec<Value>) {
    match op {
        Op::Read(k) => (acct(*k), "read", vec![]),
        Op::Update(k, fill) => (
            acct(*k),
            "update",
            vec![Value::Bytes(vec![*fill; VALUE_SIZE])],
        ),
        Op::Deposit(k, amount) => (acct(*k), "deposit", vec![Value::Int(*amount)]),
        Op::Transfer(from, to, amount) => (
            acct(*from),
            "transfer",
            vec![Value::Ref(acct(*to)), Value::Int(*amount)],
        ),
        Op::GhostTransfer(from) => (
            acct(*from),
            "transfer",
            vec![
                Value::Ref(EntityRef::new("Account", "ghost")),
                Value::Int(3),
            ],
        ),
    }
}

/// Runs one scenario under `script`; `Ok` carries a short stats line.
/// `obs_dir`, when set, arms full span tracing and dumps the run's
/// `metrics.json` + `trace.jsonl` under it (used to re-run a failing
/// scenario with the flight recorder on).
fn run_scenario(
    sc: &Scenario,
    script: &FaultScript,
    time_scale: f64,
    bug: Option<BugLever>,
    obs_dir: Option<&std::path::Path>,
) -> Result<String, String> {
    let program = se_workloads::ycsb_program();
    let upgrading = sc.upgrade || bug == Some(BugLever::TornUpgrade);
    let mut cfg = StateflowConfig::fast_test(WORKERS);
    if let Some(dir) = obs_dir {
        cfg.obs = se_obs::ObsConfig {
            mode: se_obs::ObsMode::Trace,
            dir: dir.to_path_buf(),
            label: format!("chaos-{:#x}", sc.seed),
            ..se_obs::ObsConfig::default()
        };
    }
    cfg.net.time_scale = time_scale;
    cfg.pipeline_depth = sc.depth;
    cfg.snapshot_every_batches = 4;
    if sc.durability == "wal" {
        cfg.durability.mode = DurabilityMode::Wal;
        cfg.durability.fsync = FsyncPolicy::parse(&sc.fsync).expect("sampled fsync policy");
    }
    if bug == Some(BugLever::WalNoCrc) {
        // Maximize the odds that the flipped record lands inside the
        // replayed prefix: lockstep batches, a cut after every batch, and
        // nothing fsynced (so the bit flip may target any data record).
        cfg.durability.mode = DurabilityMode::Wal;
        cfg.durability.fsync = FsyncPolicy::Never;
        cfg.pipeline_depth = 1;
        cfg.snapshot_every_batches = 1;
    }
    if bug == Some(BugLever::TornUpgrade) {
        // The lever only manifests when a batch seals *inside* the open
        // upgrade window; at test-speed hops the window is microseconds
        // wide. Real-time slow control-plane hops (the directed scenario
        // overrides the ambient time scale) stretch the migration round
        // trip to ~10 ms, and records keep sealing through it.
        cfg.net.time_scale = 1.0;
        cfg.net.f2f_hop = Duration::from_millis(5);
    }
    cfg.chaos = ChaosPlan::from_script(script.clone());
    cfg.bug = bug;
    let history = History::new();
    cfg.history = Some(history.clone());
    let chaos = cfg.chaos.clone();

    let graph =
        stateful_entities::compile(&program).map_err(|e| format!("deploy failed: {e:?}"))?;
    let rt = std::sync::Arc::new(StateflowRuntime::deploy(graph, cfg));
    se_workloads::load_accounts(&*rt, ACCOUNTS, VALUE_SIZE, INITIAL_BALANCE);

    let ops = ops_for(sc);
    let mut waiters = Vec::with_capacity(ops.len());
    // The no-CRC self-test paces harder: epoch cuts must exist before the
    // scripted crash for the corrupted record to land in a replayed prefix.
    let (pause_every, pause) = if bug == Some(BugLever::WalNoCrc) {
        // Long enough for a full pipeline drain, so nearly every pause
        // completes a snapshot epoch: each batch is then preceded by an
        // epoch cut, and a mid-execution bit flip lands on the *previous*
        // batch's commit record — inside the replayed prefix.
        (5, Duration::from_millis(12))
    } else if bug == Some(BugLever::TornUpgrade) {
        // Space requests out so records keep arriving while the redeploy's
        // migration round trip is in flight — under the lever those seal
        // inside the open upgrade window.
        (1, Duration::from_micros(300))
    } else {
        (15, Duration::from_millis(2))
    };
    // Upgrade scenarios redeploy the semantics-preserving v2 from a side
    // thread at the stream's halfway point, so the switchover races both
    // in-flight traffic and any scripted faults.
    let mut redeployer: Option<std::thread::JoinHandle<Result<u64, String>>> = None;
    for (i, op) in ops.iter().enumerate() {
        if upgrading && i == ops.len() / 2 {
            let rt2 = std::sync::Arc::clone(&rt);
            redeployer = Some(std::thread::spawn(move || {
                rt2.redeploy(&se_workloads::ycsb_program_v2())
                    .map_err(|e| format!("redeploy failed: {e:?}"))
            }));
        }
        let (target, method, args) = invocation(op);
        waiters.push((op.clone(), rt.call_async(target, method, args)));
        if i % pause_every == pause_every - 1 {
            // Short pauses let the pipeline drain now and then, so
            // snapshot cuts (and their barriers) happen mid-run.
            std::thread::sleep(pause);
        }
    }
    // Liveness: every request must complete, whatever the weather.
    for (i, (op, w)) in waiters.into_iter().enumerate() {
        let outcome = w
            .wait_timeout(WAIT)
            .ok_or_else(|| format!("op {i} ({op:?}) did not complete within {WAIT:?}"))?;
        match (&op, outcome) {
            (Op::GhostTransfer(_), Err(e)) if e.to_string().contains("unknown entity") => {}
            (Op::GhostTransfer(_), other) => {
                return Err(format!(
                    "op {i} (ghost transfer) expected an unknown-entity error, got {other:?}"
                ));
            }
            (_, Err(e)) => return Err(format!("op {i} ({op:?}) errored: {e}")),
            (_, Ok(_)) => {}
        }
    }
    if let Some(handle) = redeployer {
        let v2 = handle
            .join()
            .map_err(|_| "redeploy thread panicked".to_string())??;
        if v2 != 2 {
            return Err(format!(
                "the mid-run redeploy must produce version 2, got {v2}"
            ));
        }
    }

    // Quiesce before judging. A scripted crash near the end of the client
    // stream leaves a post-recovery replay still re-executing requests whose
    // waiters were answered in the previous lineage; capturing the history
    // mid-replay fabricates dangling retries and truncated serial orders.
    // The probes double as barriers — the source replays in order, so each
    // answer proves every earlier record re-decided — and the settle loop
    // covers the short tail of fallback retries sealed after the last
    // probe's own batch.
    let mut probed = Vec::new();
    for k in 0..ACCOUNTS {
        for probe in ["balance", "read"] {
            let got = rt.call(acct(k), probe, vec![]).map_err(|e| e.to_string());
            probed.push((k, probe, got));
        }
    }
    let settle_deadline = std::time::Instant::now() + WAIT;
    let mut last_len = history.events().len();
    let mut stable = 0;
    while stable < 3 {
        std::thread::sleep(Duration::from_millis(40));
        let len = history.events().len();
        if len == last_len {
            stable += 1;
            continue;
        }
        if std::time::Instant::now() >= settle_deadline {
            return Err(format!(
                "history kept growing while settling ({last_len} -> {len} events)"
            ));
        }
        (last_len, stable) = (len, 0);
    }

    // Verify: history checker, then serial replay through the Local oracle.
    let events = history.events();
    if std::env::var("SE_CHAOS_DUMP_HISTORY").is_ok() {
        for e in events.iter().rev().take(40).rev() {
            eprintln!("HIST {e:?}");
        }
    }
    let summary = check_history(&events).map_err(|e| format!("history check: {e}"))?;
    // At least one committed upgrade must survive; a crash that rewinds
    // past the upgrade's epoch cut legitimately re-arms and re-commits it
    // in the new lineage, so the count may exceed one.
    if upgrading && bug.is_none() && summary.upgrades == 0 {
        return Err("the mid-run redeploy never committed an upgrade".to_string());
    }
    let order = serial_order(&events).map_err(|e| format!("serial order: {e}"))?;
    let oracle =
        deploy(&program, RuntimeChoice::Local).map_err(|e| format!("oracle deploy: {e:?}"))?;
    se_workloads::load_accounts(oracle.as_ref(), ACCOUNTS, VALUE_SIZE, INITIAL_BALANCE);
    for sop in &order {
        let got = oracle
            .call(sop.target, &sop.method, sop.args.clone())
            .map_err(|e| e.to_string());
        if got != sop.result {
            return Err(format!(
                "serial replay diverged at txn {} (batch {}, {} on {}): \
                 distributed run answered {:?}, oracle answered {:?}",
                sop.txn, sop.batch, sop.method, sop.target, sop.result, got
            ));
        }
    }
    for (k, probe, got) in &probed {
        let want = oracle
            .call(acct(*k), probe, vec![])
            .map_err(|e| e.to_string());
        if *got != want {
            return Err(format!(
                "final state diverged on account {k} ({probe}): {got:?} != {want:?}"
            ));
        }
    }
    let line = format!(
        "{} commits ({} surviving), {} retries, {} failed, {} recoveries, \
         {} upgrades, {} crashes + {} msg + {} disk faults fired",
        summary.commits,
        summary.surviving_commits,
        summary.retries,
        summary.failed,
        summary.recoveries,
        summary.upgrades,
        chaos.crashes_fired(),
        chaos.msg_faults_fired(),
        chaos.disk_faults_fired(),
    );
    rt.shutdown();
    oracle.shutdown();
    Ok(line)
}

/// Delta-debugs a failing script down to a locally minimal one: repeatedly
/// remove single faults, keeping any removal under which the failure still
/// reproduces. Bounded by `max_runs` re-executions.
fn shrink(
    sc: &Scenario,
    time_scale: f64,
    bug: Option<BugLever>,
    max_runs: usize,
) -> (FaultScript, String) {
    let mut script = sc.script.clone();
    let mut last_error = String::new();
    let mut runs = 0;
    let mut progress = true;
    while progress && runs < max_runs {
        progress = false;
        for i in 0..script.fault_count() {
            if runs >= max_runs {
                break;
            }
            let candidate = script.without_fault(i);
            runs += 1;
            match run_scenario(sc, &candidate, time_scale, bug, None) {
                Ok(_) => {} // fault i is load-bearing; keep it
                Err(e) => {
                    script = candidate;
                    last_error = e;
                    progress = true;
                    break; // indices shifted; restart the sweep
                }
            }
        }
    }
    (script, last_error)
}

// Owned fields: the vendored serde derive does not support generic types.
#[derive(Debug, Serialize)]
struct FailureReport {
    scenario: Scenario,
    minimized_script: FaultScript,
    error: String,
    reproduce: String,
    /// Run directory of the trace-armed re-run (`metrics.json` +
    /// `trace.jsonl`); empty if the re-run produced no dump.
    obs_trace: String,
    /// `obs_report --last-batches 8` over that dump: the last batches'
    /// waterfall plus stage latencies and protocol counters at failure.
    obs_summary: String,
}

/// Re-runs a failing (minimized) scenario with span tracing armed and
/// renders its flight-recorder summary. Best-effort: a pass on the re-run
/// (faults can be timing-sensitive) still yields the trace of a clean run,
/// which is itself informative.
fn trace_failure(
    sc: &Scenario,
    script: &FaultScript,
    time_scale: f64,
    bug: Option<BugLever>,
) -> (String, String) {
    let dir = std::path::Path::new("chaos_results").join(format!("obs_{:#x}", sc.seed));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = run_scenario(sc, script, time_scale, bug, Some(&dir));
    // The runtime dumps at shutdown into a unique subdirectory of `dir`;
    // find it (one re-run — there is at most one, plus oracle noise-free).
    let run_dir = std::fs::read_dir(&dir)
        .ok()
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .find(|p| p.join("metrics.json").is_file());
    let Some(run_dir) = run_dir else {
        return (String::new(), String::new());
    };
    let summary = match se_obs::report::RunData::load(&run_dir) {
        Ok(run) => se_obs::report::render_text(&run, 8),
        Err(e) => format!("(obs dump unreadable: {e})"),
    };
    (run_dir.display().to_string(), summary)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut scenarios = env_or("SE_CHAOS_SCENARIOS", 20) as usize;
    let mut seed = env_or("SE_CHAOS_SEED", 0xC1A0_5EED);
    let mut expect_bug = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scenarios" => {
                i += 1;
                scenarios = args[i].parse().expect("--scenarios N");
            }
            "--seed" => {
                i += 1;
                seed = args[i].parse().expect("--seed S");
            }
            "--expect-bug" => expect_bug = true,
            other => panic!("unknown argument {other:?}"),
        }
        i += 1;
    }
    let time_scale = std::env::var("SE_TIME_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0);
    let bug_name = std::env::var("SE_CHAOS_INJECT_BUG").unwrap_or_default();
    let bug = match bug_name.as_str() {
        "" => None,
        "reserve-errored" => Some(BugLever::ReserveErrored),
        "wal-no-crc" => Some(BugLever::WalNoCrc),
        "torn-upgrade" => Some(BugLever::TornUpgrade),
        other => panic!("unknown SE_CHAOS_INJECT_BUG={other:?}"),
    };
    println!(
        "chaos_explore: {scenarios} scenarios, master seed {seed:#x}, \
         time scale {time_scale}{}{}",
        if bug.is_none() {
            ""
        } else {
            ", INJECTED BUG: "
        },
        bug_name
    );

    let mut failures = 0usize;
    for k in 0..scenarios {
        let scenario_seed = seed.wrapping_add(k as u64);
        let mut sc = Scenario::sample(scenario_seed);
        if bug == Some(BugLever::WalNoCrc) {
            // The no-CRC self-test needs a corrupted record inside the
            // replayed prefix, so the sampled script is replaced with a
            // directed one: an early-execution crash paired with a bit flip
            // in the crashed worker's unsynced WAL region. Workload T is
            // forced (multi-hop transfers feed the crash countdown) and the
            // driver paces requests so snapshots — which need a drained
            // pipeline — complete; without a completed epoch, recovery
            // restarts from scratch and masks the corruption.
            sc.workload = "T";
            sc.durability = "wal";
            sc.fsync = "never".into();
            // Keep the corruption self-test focused on the WAL path.
            sc.upgrade = false;
            sc.script = FaultScript {
                crashes: vec![CrashFault {
                    node: "worker1".into(),
                    point: CrashPoint::Exec,
                    // Mid-run, while batches are paced one per pause: the
                    // crashed worker's WAL tail is then Commit(b−1)
                    // followed by an epoch cut, so the flipped last data
                    // record (that commit) lands inside the replayed
                    // prefix. Flipping a record from an epoch that never
                    // cut would be useless — recovery truncates it with or
                    // without checksums.
                    after_events: 10 + scenario_seed % 20,
                }],
                disk: vec![DiskFault {
                    node: "worker1".into(),
                    kind: DiskFaultKind::BitFlip,
                }],
                ..FaultScript::default()
            };
        }
        if bug == Some(BugLever::TornUpgrade) {
            // Directed shape: the lever only matters when an upgrade
            // happens, and the single-entity workload A keeps the
            // slow-control-plane run short. No scripted faults — the
            // seeded bug alone must trip the checker.
            sc.workload = "A";
            sc.durability = "off";
            sc.fsync = "-".into();
            sc.upgrade = true;
            sc.script = FaultScript::default();
        }
        let label = format!(
            "[{k:>3}] seed {scenario_seed:#x} {}-{} depth {} dur {}/{}{} ({} faults)",
            sc.workload,
            sc.dist,
            sc.depth,
            sc.durability,
            sc.fsync,
            if sc.upgrade { " upg" } else { "" },
            sc.script.fault_count()
        );
        match run_scenario(&sc, &sc.script, time_scale, bug, None) {
            Ok(stats) => println!("{label}: ok — {stats}"),
            Err(error) => {
                failures += 1;
                println!("{label}: FAILED — {error}");
                println!("      shrinking the fault script…");
                let (minimized, shrunk_error) = shrink(&sc, time_scale, bug, 30);
                let final_error = if shrunk_error.is_empty() {
                    error
                } else {
                    shrunk_error
                };
                println!(
                    "      minimized to {} fault(s):\n{}",
                    minimized.fault_count(),
                    minimized
                );
                println!("      re-running with SE_OBS=trace for the flight recorder…");
                let (obs_trace, obs_summary) = trace_failure(&sc, &minimized, time_scale, bug);
                if !obs_summary.is_empty() {
                    println!("      obs summary (last 8 batches):");
                    for line in obs_summary.lines() {
                        println!("        {line}");
                    }
                }
                let report = FailureReport {
                    scenario: sc.clone(),
                    minimized_script: minimized,
                    error: final_error,
                    // Embed the exact environment of the failing run:
                    // fault triggers are count-based, but real-time
                    // interplay (quarantine vs. recovery, crash countdown
                    // vs. batch sealing) shifts with the time scale.
                    reproduce: format!(
                        "SE_TIME_SCALE={time_scale} {}SE_CHAOS_SEED={scenario_seed} \
                         cargo run --release --bin chaos_explore -- --scenarios 1",
                        if bug.is_none() {
                            String::new()
                        } else {
                            format!("SE_CHAOS_INJECT_BUG={bug_name} ")
                        }
                    ),
                    obs_trace,
                    obs_summary,
                };
                let dir = std::path::Path::new("chaos_results");
                let _ = std::fs::create_dir_all(dir);
                let path = dir.join(format!("failure_{scenario_seed:#x}.json"));
                let json = serde_json::to_string_pretty(&report).expect("report serializes");
                if std::fs::write(&path, json + "\n").is_ok() {
                    println!("      report written to {}", path.display());
                }
            }
        }
    }

    if expect_bug {
        if failures == 0 {
            println!("expected the injected bug to be caught, but every scenario passed");
            std::process::exit(1);
        }
        println!(
            "injected bug caught by {failures}/{scenarios} scenarios (expected) — \
             the harness detects a real regression"
        );
        return;
    }
    if failures > 0 {
        println!("{failures}/{scenarios} scenarios failed");
        std::process::exit(1);
    }
    println!("all {scenarios} scenarios passed");
}
