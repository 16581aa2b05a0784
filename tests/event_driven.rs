//! The request path is event-driven: an engine thread blocks until something
//! it reacts to happens, so an idle engine does not run at all, shutdown
//! does not wait out anybody's poll interval, and a StateFun task picks a
//! record up when it becomes visible — not when it is produced, and not at
//! the next tick of a poll. Once shut down, an engine answers every new
//! request with an error at once instead of queueing it where no thread
//! reads.
//!
//! An engine thread polls for a moment before it parks (the adaptive window
//! of `se_dataflow::delay`), so back-to-back requests find it on its core,
//! while an idle one stops polling and spends no CPU. A client blocked on
//! an answer polls the same way, for its own thread's window.
//!
//! The Linux tests read the kernel's own count of how often a thread was
//! put on a CPU, and of its time on a CPU
//! (`/proc/self/task/<tid>/schedstat`, third and first field; a client
//! reads its own in `/proc/thread-self/schedstat`). Engine threads are told
//! apart by name, and the tests take turns, so the count is of one
//! deployment. Each bound on timeslices also reports the same threads'
//! wait on a run queue over the same window (the second field): a host
//! busy with other work shows there, and an engine that wakes too often
//! does not.

use std::sync::Arc;
use std::time::{Duration, Instant};

use stateful_entities::prelude::*;
use stateful_entities::{StateflowConfig, StatefunConfig};

mod one_cpu;

/// One deployment at a time: thread names do not say whose they are.
static ONE_ENGINE: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn one_engine() -> std::sync::MutexGuard<'static, ()> {
    ONE_ENGINE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Schedstat field `field` (0: nanoseconds on a CPU, 1: nanoseconds
/// waiting on a run queue, 2: timeslices run) of each of this process's
/// threads named `prefix*`.
#[cfg(target_os = "linux")]
fn threads_schedstat(prefix: &str, field: usize) -> Vec<u64> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
    tasks
        .filter_map(|task| {
            let dir = task.ok()?.path();
            let name = std::fs::read_to_string(dir.join("comm")).ok()?;
            let stat = std::fs::read_to_string(dir.join("schedstat")).ok()?;
            let value = stat.split_whitespace().nth(field)?.parse::<u64>().ok()?;
            name.starts_with(prefix).then_some(value)
        })
        .collect()
}

/// Timeslices run so far by each of this process's threads named
/// `prefix*`.
#[cfg(target_os = "linux")]
fn threads_timeslices(prefix: &str) -> Vec<u64> {
    threads_schedstat(prefix, 2)
}

/// Timeslices run, and time spent runnable but waiting for a CPU: what a
/// bound on timeslices reports, so that a failure tells a busy host from
/// an engine that wakes too often.
#[cfg(target_os = "linux")]
#[derive(Clone, Copy)]
struct Sched {
    slices: u64,
    waited: Duration,
}

#[cfg(target_os = "linux")]
impl std::ops::Sub for Sched {
    type Output = Sched;

    fn sub(self, before: Sched) -> Sched {
        Sched {
            slices: self.slices - before.slices,
            waited: self.waited.saturating_sub(before.waited),
        }
    }
}

#[cfg(target_os = "linux")]
impl std::fmt::Display for Sched {
    fn fmt(&self, f: &mut std::fmt::Formatter) -> std::fmt::Result {
        let (slices, waited) = (self.slices, self.waited);
        write!(f, "{slices} timeslices ({waited:?} waiting on a run queue)")
    }
}

/// What this process's threads named `prefix*` have run and waited so far.
#[cfg(target_os = "linux")]
fn sched(prefix: &str) -> Sched {
    Sched {
        slices: threads_timeslices(prefix).iter().sum(),
        waited: Duration::from_nanos(threads_schedstat(prefix, 1).iter().sum()),
    }
}

/// CPU time used so far by this process's threads named `prefix*`.
#[cfg(target_os = "linux")]
fn cpu_time(prefix: &str) -> Duration {
    Duration::from_nanos(threads_schedstat(prefix, 0).iter().sum())
}

/// Deploys, serves one create and one call, then watches the engine's
/// threads do nothing for half a second and leave promptly when told to.
/// Nothing to do also means no polling: a thread polls for at most 200 µs
/// after its last message before it parks.
#[cfg(target_os = "linux")]
fn idle_engine_does_not_run(choice: RuntimeChoice, threads: &str) {
    let _turn = one_engine();
    let program = se_workloads::ycsb_program();
    let rt = deploy(&program, choice).unwrap();
    let account = rt.create("Account", "idle", vec![]).unwrap();
    rt.call(account, "read", vec![]).unwrap();
    // Let the trailing commit record of that request land.
    std::thread::sleep(Duration::from_millis(50));

    assert!(sched(threads).slices > 0, "no thread is named {threads}*");
    let before = sched(threads);
    let cpu_before = cpu_time(threads);
    std::thread::sleep(Duration::from_millis(500));
    let ran = sched(threads) - before;
    let cpu = cpu_time(threads) - cpu_before;
    // A thread polling every 500 µs alone would run a thousand times.
    assert!(
        ran.slices < 50,
        "{threads}* threads ran {ran} in 500 ms of idleness"
    );
    // One that kept polling would use the whole half second.
    assert!(
        cpu <= Duration::from_millis(2),
        "{threads}* threads used {cpu:?} of CPU in 500 ms of idleness"
    );

    let asked = Instant::now();
    rt.shutdown();
    let took = asked.elapsed();
    assert!(
        took < Duration::from_millis(50),
        "an idle engine took {took:?} to shut down"
    );
}

#[cfg(target_os = "linux")]
#[test]
fn idle_stateflow_does_not_run() {
    let cfg = StateflowConfig::fast_test(2);
    idle_engine_does_not_run(RuntimeChoice::Stateflow(cfg), "stateflow-");
}

#[cfg(target_os = "linux")]
#[test]
fn idle_statefun_does_not_run() {
    let cfg = StatefunConfig::fast_test(2);
    idle_engine_does_not_run(RuntimeChoice::Statefun(cfg), "statefun-");
}

/// A lone request is a solo batch: its final-hop worker commits and
/// answers it, with no reservation round behind it, then sends the
/// coordinator a `SoloDone` that only frees the slot, and the peer applies
/// the commit record without a word back. With a thread per role, as on
/// three or more cores, sequential calls cost the coordinator's thread
/// about two timeslices each (the append, the `SoloDone`, which is off the
/// answer path) and the worker threads about two between them (the owner's
/// `Exec`, the peer's commit record). Where workers share a thread, the
/// record to a co-located peer is a push onto the running thread and costs
/// no timeslice, and on one core the coordinator's thread runs every role
/// and the worker rows read 0: neither side then exceeds its two. A
/// `Reserve`/`Flags`/`Commit` round per call puts the coordinator above
/// three and the workers above four.
#[cfg(target_os = "linux")]
#[test]
fn sequential_stateflow_calls_run_each_side_about_twice_per_call() {
    let _turn = one_engine();
    let mut cfg = StateflowConfig::fast_test(2);
    // No simulated hop and no snapshot round: every timeslice counted
    // below is a message of the request path.
    cfg.net.time_scale = 0.0;
    cfg.snapshot_every_batches = 0;
    let program = se_workloads::ycsb_program();
    let rt = deploy(&program, RuntimeChoice::Stateflow(cfg)).unwrap();
    let accounts = [
        rt.create("Account", "left", vec![]).unwrap(),
        rt.create("Account", "right", vec![]).unwrap(),
    ];
    rt.call(accounts[0], "read", vec![]).unwrap();
    std::thread::sleep(Duration::from_millis(50));

    const CALLS: u64 = 200;
    let coord_before = sched("stateflow-coord");
    let workers_before = sched("stateflow-worke");
    for i in 0..CALLS {
        let account = accounts[i as usize % 2];
        match i % 4 {
            0 | 1 => rt.call(account, "read", vec![]).unwrap(),
            _ => rt.call(account, "deposit", vec![Value::Int(1)]).unwrap(),
        };
    }
    // Let the last call's trailing commit record land.
    std::thread::sleep(Duration::from_millis(50));
    let coord = sched("stateflow-coord") - coord_before;
    let workers = sched("stateflow-worke") - workers_before;
    let per_call = |ran: Sched| ran.slices as f64 / CALLS as f64;
    assert!(
        per_call(coord) <= 2.5,
        "the coordinator ran {coord} for {CALLS} calls"
    );
    assert!(
        per_call(workers) <= 2.5,
        "the workers ran {workers} for {CALLS} calls"
    );
    rt.shutdown();
}

/// Deployed from a thread pinned to one CPU, StateFlow runs one engine
/// thread, which hosts the coordinator and both workers. A sequential call
/// then wakes it once, for the append: the `Exec`, the `SoloDone` and the
/// peer's commit record are pushes onto the running thread's own queue, and
/// each is handled in the same turn. With a thread per role the same calls
/// cost about five timeslices each.
#[cfg(target_os = "linux")]
#[test]
fn a_one_core_stateflow_runs_one_timeslice_per_call() {
    let _turn = one_engine();
    let mut cfg = StateflowConfig::fast_test(2);
    // No simulated hop, no snapshot round (as above).
    cfg.net.time_scale = 0.0;
    cfg.snapshot_every_batches = 0;
    let program = se_workloads::ycsb_program();
    // The engine thread keeps the pin; this thread gets its mask back.
    let rt = one_cpu::on_one_cpu(|| deploy(&program, RuntimeChoice::Stateflow(cfg))).unwrap();
    let accounts = [
        rt.create("Account", "left", vec![]).unwrap(),
        rt.create("Account", "right", vec![]).unwrap(),
    ];
    rt.call(accounts[0], "read", vec![]).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    // Counted once the engine has run: a thread names itself when it starts.
    let threads = threads_timeslices("stateflow-").len();
    assert_eq!(threads, 1, "a one-core deployment runs {threads} threads");

    const CALLS: u64 = 200;
    let before = sched("stateflow-");
    for i in 0..CALLS {
        let account = accounts[i as usize % 2];
        match i % 4 {
            0 | 1 => rt.call(account, "read", vec![]).unwrap(),
            _ => rt.call(account, "deposit", vec![Value::Int(1)]).unwrap(),
        };
    }
    std::thread::sleep(Duration::from_millis(50));
    let ran = sched("stateflow-") - before;
    assert!(
        ran.slices as f64 / CALLS as f64 <= 1.5,
        "the engine ran {ran} for {CALLS} calls"
    );
    rt.shutdown();
}

/// Deployed from a thread pinned to one CPU, the engine runs one thread on
/// that CPU, and a client calling back to back from the other CPUs answers
/// each response with the next request within microseconds. The engine
/// thread, alone on its CPU, polls its inbox between requests instead of
/// parking (its window grows to 200 µs over the first calls), so it stays
/// on its core: it takes
/// each append's wake without being woken, and is switched in far less than
/// once per call. Without the poll a call wakes it about once, less the
/// calls that find it still busy with the previous one's trailing work
/// (≈ 0.35 per call for StateFlow, ≈ 0.9 for StateFun on a 2-vCPU host). A
/// shared host can stall the client past the window (steal on its vCPU),
/// which resets the window and costs a few timeslices while it regrows, so
/// the bound holds for three rounds of up to ten, not for every one.
/// Skipped when this thread may run only on the engine's CPU (e.g. under
/// `taskset -c 0`), where the one-core tests above hold instead. `who`
/// names what `slices` counts the timeslices of: the engine, or the client.
#[cfg(target_os = "linux")]
fn back_to_back_calls_keep_on_core(
    choice: RuntimeChoice,
    threads: &str,
    who: &str,
    slices: impl Fn() -> Sched,
) {
    let _turn = one_engine();
    let program = se_workloads::ycsb_program();
    // The engine thread keeps the pin; this thread gets its mask back.
    let rt = one_cpu::on_one_cpu(|| deploy(&program, choice)).unwrap();
    let ran = one_cpu::off_that_cpu(|| back_to_back_calls(&*rt, threads, slices));
    rt.shutdown();
    let Some(rounds) = ran else {
        eprintln!("skipped: the client may run only on the engine's CPU");
        return;
    };
    let kept = rounds.iter().filter(|&&ran| kept_its_core(ran)).count();
    let rounds: Vec<String> = rounds.iter().map(Sched::to_string).collect();
    assert!(
        kept >= 3,
        "{who} ({threads}*) ran, in rounds of {ROUND_CALLS} back-to-back calls: {}",
        rounds.join(", ")
    );
}

/// What the calling thread has run and waited so far.
#[cfg(target_os = "linux")]
fn own_sched() -> Sched {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").expect("procfs");
    let field = |i: usize| -> u64 {
        let field = stat.split_whitespace().nth(i).expect("three fields");
        field.parse().expect("a count")
    };
    Sched {
        slices: field(2),
        waited: Duration::from_nanos(field(1)),
    }
}

/// Calls per round of [`back_to_back_calls`].
#[cfg(target_os = "linux")]
const ROUND_CALLS: u64 = 100;

/// Whether a round of [`ROUND_CALLS`] calls ran the engine, or the
/// client, at most 0.2 timeslices per call.
#[cfg(target_os = "linux")]
fn kept_its_core(ran: Sched) -> bool {
    ran.slices as f64 / ROUND_CALLS as f64 <= 0.2
}

/// Makes rounds of back-to-back calls on `rt`, whose threads are named
/// `threads*`, until three of them kept their core by `slices` or ten
/// ran; returns what `slices` grew by in each round.
#[cfg(target_os = "linux")]
fn back_to_back_calls(
    rt: &dyn EntityRuntime,
    threads: &str,
    slices: impl Fn() -> Sched,
) -> Vec<Sched> {
    let accounts = [
        rt.create("Account", "left", vec![]).unwrap(),
        rt.create("Account", "right", vec![]).unwrap(),
    ];
    let call = |i: u64| {
        let account = accounts[i as usize % 2];
        match i % 4 {
            0 | 1 => rt.call(account, "read", vec![]).unwrap(),
            _ => rt.call(account, "deposit", vec![Value::Int(1)]).unwrap(),
        };
    };
    // Warm-up: the engine's and the client's windows grow while the calls
    // come.
    (0..50).for_each(call);
    let threads_now = threads_timeslices(threads).len();
    assert_eq!(
        threads_now, 1,
        "a one-core deployment runs {threads_now} threads"
    );

    let mut rounds = Vec::new();
    while rounds.len() < 10 && rounds.iter().filter(|&&ran| kept_its_core(ran)).count() < 3 {
        let before = slices();
        (0..ROUND_CALLS).for_each(call);
        rounds.push(slices() - before);
    }
    rounds
}

#[cfg(target_os = "linux")]
#[test]
fn back_to_back_stateflow_calls_keep_the_engine_on_its_core() {
    let mut cfg = StateflowConfig::fast_test(2);
    // No simulated hop, no snapshot round (as above).
    cfg.net.time_scale = 0.0;
    cfg.snapshot_every_batches = 0;
    back_to_back_calls_keep_on_core(
        RuntimeChoice::Stateflow(cfg),
        "stateflow-",
        "the engine",
        || sched("stateflow-"),
    );
}

#[cfg(target_os = "linux")]
#[test]
fn back_to_back_statefun_calls_keep_the_engine_on_its_core() {
    let mut cfg = StatefunConfig::fast_test(2);
    // No broker hop, no remote hop, no service time (as above).
    cfg.net.time_scale = 0.0;
    back_to_back_calls_keep_on_core(
        RuntimeChoice::Statefun(cfg),
        "statefun-",
        "the engine",
        || sched("statefun-"),
    );
}

/// The client's twin of the two tests above. A client that calls back to
/// back waits for each answer polling for its own thread's window, as the
/// engine thread polls for its next request, so once the window has grown
/// over the warm-up the calling thread takes each answer on its core, and
/// is switched in far less than once per call. A client that parks for
/// every answer is switched in about once per call, when the engine wakes
/// it. Counted from the calling thread's own schedstat, with the bound,
/// the rounds and the skip of the engine's tests, on both engines.
#[cfg(target_os = "linux")]
#[test]
fn back_to_back_blocking_calls_keep_the_client_on_its_core() {
    let mut stateflow = StateflowConfig::fast_test(2);
    // No simulated hop, no snapshot round, no service time (as above).
    stateflow.net.time_scale = 0.0;
    stateflow.snapshot_every_batches = 0;
    let mut statefun = StatefunConfig::fast_test(2);
    statefun.net.time_scale = 0.0;
    let engines = [
        (RuntimeChoice::Stateflow(stateflow), "stateflow-"),
        (RuntimeChoice::Statefun(statefun), "statefun-"),
    ];
    for (choice, threads) in engines {
        back_to_back_calls_keep_on_core(choice, threads, "the client", own_sched);
    }
}

/// With checkpoints on, an idle StateFun deployment keeps exactly one timer:
/// the controller's barrier interval. Deployed from a thread pinned to one
/// CPU, every role shares the one engine thread, which per barrier runs
/// about twice — the controller's timer, then the barrier records turning
/// visible to the tasks — and nothing else: an idle barrier gives the
/// egress reader nothing to answer. The bound allows half a timeslice per
/// barrier above that, for a stray wake-up on a shared host. Shutdown is as
/// prompt as without checkpoints.
#[cfg(target_os = "linux")]
#[test]
fn idle_statefun_with_checkpoints_runs_per_barrier() {
    let _turn = one_engine();
    let interval = Duration::from_millis(20);
    let mut cfg = StatefunConfig::fast_test(2);
    cfg.checkpoint = stateful_entities::CheckpointMode::Transactional { interval };
    let program = se_workloads::ycsb_program();
    // The engine thread keeps the pin; this thread gets its mask back.
    let rt = one_cpu::on_one_cpu(|| deploy(&program, RuntimeChoice::Statefun(cfg))).unwrap();
    let account = rt.create("Account", "idle", vec![]).unwrap();
    rt.call(account, "read", vec![]).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let threads = threads_timeslices("statefun-").len();
    assert_eq!(threads, 1, "a one-core deployment runs {threads} threads");

    let idle = Duration::from_millis(500);
    let barriers = (idle.as_millis() / interval.as_millis()) as u64;
    let before = sched("statefun-");
    std::thread::sleep(idle);
    let ran = sched("statefun-") - before;
    assert!(
        2 * ran.slices <= 5 * barriers,
        "the engine ran {ran} for {barriers} barriers"
    );

    let asked = Instant::now();
    rt.shutdown();
    let took = asked.elapsed();
    assert!(
        took < Duration::from_millis(50),
        "an idle engine with checkpoints took {took:?} to shut down"
    );
}

/// Deployed from a thread pinned to one CPU, StateFun runs one engine
/// thread, which hosts both partition tasks, both remote workers, the
/// egress reader and the controller. A sequential call then wakes it once,
/// for the produce: the remote request and its response are pushes onto
/// the running thread's own queue, and the egress record's produce finds
/// the thread running. With a thread per role the same calls cost about
/// five timeslices each.
#[cfg(target_os = "linux")]
#[test]
fn a_one_core_statefun_runs_one_timeslice_per_call() {
    let _turn = one_engine();
    let mut cfg = StatefunConfig::fast_test(2);
    // No broker hop, no remote hop, no service time: every timeslice
    // counted below is a message of the request path.
    cfg.net.time_scale = 0.0;
    let program = se_workloads::ycsb_program();
    // The engine thread keeps the pin; this thread gets its mask back.
    let rt = one_cpu::on_one_cpu(|| deploy(&program, RuntimeChoice::Statefun(cfg))).unwrap();
    let accounts = [
        rt.create("Account", "left", vec![]).unwrap(),
        rt.create("Account", "right", vec![]).unwrap(),
    ];
    rt.call(accounts[0], "read", vec![]).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    // Counted once the engine has run: a thread names itself when it starts.
    let threads = threads_timeslices("statefun-").len();
    assert_eq!(threads, 1, "a one-core deployment runs {threads} threads");

    const CALLS: u64 = 200;
    let before = sched("statefun-");
    for i in 0..CALLS {
        let account = accounts[i as usize % 2];
        match i % 4 {
            0 | 1 => rt.call(account, "read", vec![]).unwrap(),
            _ => rt.call(account, "deposit", vec![Value::Int(1)]).unwrap(),
        };
    }
    std::thread::sleep(Duration::from_millis(50));
    let ran = sched("statefun-") - before;
    assert!(
        ran.slices as f64 / CALLS as f64 <= 1.5,
        "the engine ran {ran} for {CALLS} calls"
    );
    rt.shutdown();
}

/// With a broker hop, a record is produced well before it may be consumed.
/// The produce wakes the partition task, which must then sleep until the
/// record's `visible_at` — handling it then, neither earlier nor a poll
/// interval later, and without ticking in between.
#[test]
fn statefun_task_wakes_when_the_record_becomes_visible() {
    let _turn = one_engine();
    let hop = Duration::from_millis(10);
    let mut cfg = StatefunConfig::fast_test(1);
    cfg.net.broker_hop = hop;
    // A record shows after a produce hop and a consume hop, on the way in
    // (ingress) and on the way out (egress).
    let floor = 4 * hop;
    let program = se_workloads::ycsb_program();
    let rt = deploy(&program, RuntimeChoice::Statefun(cfg)).unwrap();
    let account = rt.create("Account", "hop", vec![]).unwrap();

    #[cfg(target_os = "linux")]
    let ran_before = sched("statefun-task");
    const CALLS: u32 = 5;
    let latencies: Vec<Duration> = (0..CALLS)
        .map(|_| {
            let sent = Instant::now();
            rt.call(account, "read", vec![]).unwrap();
            sent.elapsed()
        })
        .collect();
    let fastest = *latencies.iter().min().unwrap();
    assert!(
        fastest >= floor,
        "answered in {fastest:?}: a record was consumed before it was visible ({floor:?})"
    );
    // On a shared host any single call can be late; the fastest of five
    // shows what the engine adds when it gets the CPU on time.
    assert!(
        fastest < floor + hop,
        "fastest of {CALLS} calls took {fastest:?}, {:?} beyond the hops",
        fastest - floor
    );
    // Per call the task has three reasons to run: the produce, the record
    // turning visible, the remote response. A 500 µs poll would tick some
    // forty times while the record is on its way.
    #[cfg(target_os = "linux")]
    {
        let ran = sched("statefun-task") - ran_before;
        assert!(
            ran.slices <= u64::from(CALLS) * 6,
            "the task ran {ran} for {CALLS} calls"
        );
    }
    rt.shutdown();
}

/// How long a request made after `shutdown` may take to fail.
const REFUSAL_BOUND: Duration = Duration::from_secs(3);

/// Runs `op` on a side thread and waits up to [`REFUSAL_BOUND`] for its
/// result, so a blocking call that hangs fails the test instead of hanging
/// it.
fn within<T: Send + 'static>(what: &str, op: impl FnOnce() -> T + Send + 'static) -> T {
    use std::sync::mpsc::RecvTimeoutError;
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(op());
    });
    match rx.recv_timeout(REFUSAL_BOUND) {
        Ok(got) => {
            handle
                .join()
                .expect("a thread that sent its result did not panic");
            got
        }
        // The request panicked before answering: surface that panic.
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(handle.join().expect_err("no result means a panic"))
        }
        // Left detached: joining a request that hangs would hang the test.
        Err(RecvTimeoutError::Timeout) => {
            panic!("{what} after shutdown still blocked after {REFUSAL_BOUND:?}")
        }
    }
}

/// `call_async`, `call` and `create` after `shutdown` each fail with an
/// error within the bound.
fn requests_after_shutdown_fail(choice: RuntimeChoice) {
    let _turn = one_engine();
    let program = se_workloads::ycsb_program();
    let rt = Arc::new(deploy(&program, choice).unwrap());
    let account = rt.create("Account", "early", vec![]).unwrap();
    rt.shutdown();

    let got = rt
        .call_async(account, "read", vec![])
        .wait_timeout(REFUSAL_BOUND)
        .expect("call_async after shutdown never completed");
    let err = got.expect_err("call_async after shutdown must fail");
    assert!(err.to_string().contains("shut down"), "{err}");
    let called = Arc::clone(&rt);
    within("call", move || called.call(account, "read", vec![]))
        .expect_err("call after shutdown must fail");
    let created = Arc::clone(&rt);
    within("create", move || created.create("Account", "late", vec![]))
        .expect_err("create after shutdown must fail");
}

#[test]
fn stateflow_requests_after_shutdown_fail() {
    let cfg = StateflowConfig::fast_test(2);
    requests_after_shutdown_fail(RuntimeChoice::Stateflow(cfg));
}

#[test]
fn statefun_requests_after_shutdown_fail() {
    let cfg = StatefunConfig::fast_test(2);
    requests_after_shutdown_fail(RuntimeChoice::Statefun(cfg));
}

/// Starts a live upgrade on `rt`, shuts the engine down while the upgrade
/// waits for its switchover, and requires the upgrade to fail within the
/// bound: no engine thread is left to acknowledge the switch.
fn redeploy_racing_shutdown<R: EntityRuntime + 'static>(
    rt: R,
    redeploy: fn(&R, &Program) -> Result<u64, Vec<se_lang::LangError>>,
) {
    let rt = Arc::new(rt);
    let upgrading = Arc::clone(&rt);
    let upgrade = std::thread::spawn(move || {
        redeploy(
            &upgrading,
            &stateful_entities::programs::counter_v2_program(),
        )
    });
    // Long enough to compile v2 and hand the switch to the engine, which
    // the configs below keep from completing it for far longer. Were the
    // shutdown first, the upgrade would be refused at submit instead.
    std::thread::sleep(Duration::from_millis(100));
    rt.shutdown();
    let got = within("redeploy", move || {
        upgrade.join().expect("redeploy panicked")
    });
    let err = got.expect_err("a redeploy cut off by shutdown must fail");
    assert!(err[0].to_string().contains("shut down"), "{err:?}");
}

#[test]
fn redeploy_racing_shutdown_fails_promptly() {
    let _turn = one_engine();
    let program = stateful_entities::programs::counter_program;
    // Every control message to a worker (the upgrade's epoch cut, and the
    // shutdown) takes 300 ms, so the cut cannot finish before shutdown.
    let mut cfg = StateflowConfig::fast_test(2);
    cfg.net.f2f_hop = Duration::from_millis(300);
    let graph = stateful_entities::compile(&program()).unwrap();
    let rt = stateful_entities::StateflowRuntime::deploy(graph, cfg);
    redeploy_racing_shutdown(rt, stateful_entities::StateflowRuntime::redeploy);
    // A produced `Upgrade` marker stays invisible to the partition tasks
    // for the whole test, so they leave at shutdown without reading it.
    let mut cfg = StatefunConfig::fast_test(2);
    cfg.net.broker_hop = Duration::from_secs(30);
    let graph = stateful_entities::compile(&program()).unwrap();
    let rt = stateful_entities::StatefunRuntime::deploy(graph, cfg);
    redeploy_racing_shutdown(rt, stateful_entities::StatefunRuntime::redeploy);
}
