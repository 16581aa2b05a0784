//! The request path is event-driven: an engine thread blocks until something
//! it reacts to happens, so an idle engine does not run at all, shutdown
//! does not wait out anybody's poll interval, and a StateFun task picks a
//! record up when it becomes visible — not when it is produced, and not at
//! the next tick of a poll. Once shut down, an engine answers every new
//! request with an error at once instead of queueing it where no thread
//! reads.
//!
//! The Linux tests read the kernel's own count of how often a thread was
//! put on a CPU (`/proc/self/task/<tid>/schedstat`, third field). Engine
//! threads are told apart by name, and the tests take turns, so the count
//! is of one deployment.

use std::sync::Arc;
use std::time::{Duration, Instant};

use stateful_entities::prelude::*;
use stateful_entities::{StateflowConfig, StatefunConfig};

/// One deployment at a time: thread names do not say whose they are.
static ONE_ENGINE: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn one_engine() -> std::sync::MutexGuard<'static, ()> {
    ONE_ENGINE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Timeslices run so far by this process's threads named `prefix*`.
#[cfg(target_os = "linux")]
fn timeslices(prefix: &str) -> u64 {
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
    tasks
        .filter_map(|task| {
            let dir = task.ok()?.path();
            let name = std::fs::read_to_string(dir.join("comm")).ok()?;
            let stat = std::fs::read_to_string(dir.join("schedstat")).ok()?;
            let slices = stat.split_whitespace().nth(2)?.parse::<u64>().ok()?;
            name.starts_with(prefix).then_some(slices)
        })
        .sum()
}

/// Deploys, serves one create and one call, then watches the engine's
/// threads do nothing for half a second and leave promptly when told to.
#[cfg(target_os = "linux")]
fn idle_engine_does_not_run(choice: RuntimeChoice, threads: &str) {
    let _turn = one_engine();
    let program = se_workloads::ycsb_program();
    let rt = deploy(&program, choice).unwrap();
    let account = rt.create("Account", "idle", vec![]).unwrap();
    rt.call(account, "read", vec![]).unwrap();
    // Let the trailing commit acks of that request land.
    std::thread::sleep(Duration::from_millis(50));

    assert!(timeslices(threads) > 0, "no thread is named {threads}*");
    let before = timeslices(threads);
    std::thread::sleep(Duration::from_millis(500));
    let ran = timeslices(threads) - before;
    // A thread polling every 500 µs alone would run a thousand times.
    assert!(
        ran < 50,
        "{threads}* threads ran {ran} timeslices in 500 ms of idleness"
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
    let ran_before = timeslices("statefun-task");
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
        let ran = timeslices("statefun-task") - ran_before;
        assert!(
            ran <= u64::from(CALLS) * 6,
            "the task ran {ran} timeslices for {CALLS} calls"
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
