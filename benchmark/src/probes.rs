//! Single-threaded probes: each layer crate's hot public functions timed in
//! isolation, with no runtime around them. A probe's number is the cost of
//! the call on an idle machine — what a layer change should move — and its
//! share of `p50_us` / `driver.sat_cpu_us_per_req` says how much it can buy.
//!
//! Only functions already pinned by `crates/bench/benches/micro_*.rs` (or
//! listed in `README.md`) are called.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::{Duration, Instant};

use se_aria::{CommitRule, ReservationTable, TxnBuffer};
use se_broker::Broker;
use se_core::{NetConfig, RuntimeChoice};
use se_dataflow::{delay_channel, ReplayableSource, ResponseWaiter, StateStore};
use se_ir::{drive_chain_with, DataflowGraph, Invocation, RequestId};
use se_lang::{EntityState, LocalExecutor, Value};
use se_vm::VmProgram;
use se_workloads::{key_name, ycsb_program};

use crate::driver::Clock;
use crate::stats::{median, quantile_sorted};
use crate::trace::Spans;
use crate::workload::{account_init, account_refs, OpStream, KEYS, VALUE_SIZE};
use crate::Metric;

/// Measured time per probe loop; ≈ 25 loops make the ≈ 3 s probe pass.
const LOOP_TIME: Duration = Duration::from_millis(80);
/// Cross-thread wake-ups sampled per wake probe.
const WAKES: usize = 1_000;
/// Operations replayed for `core.local_ns_per_op`.
const LOCAL_OPS: usize = 50_000;

/// Runs `f` in growing batches for [`LOOP_TIME`] and returns ns per call.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let mut batch = 64u64;
    let (mut calls, mut spent) = (0u64, Duration::ZERO);
    while spent < LOOP_TIME {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        spent += t.elapsed();
        calls += batch;
        batch = (batch * 2).min(1 << 16);
    }
    spent.as_nanos() as f64 / calls as f64
}

/// Collects probe metrics, wrapping each in a `probe.<metric>` span.
struct Probes<'a> {
    clock: Clock,
    spans: &'a mut Spans,
    out: Vec<Metric>,
}

impl Probes<'_> {
    fn run(&mut self, name: &str, unit: &'static str, f: impl FnOnce() -> f64) {
        let start = self.clock.now();
        let value = f();
        self.spans
            .push(&format!("probe.{name}"), start, self.clock.now(), None);
        self.out.push(Metric::new(name, unit, value));
    }
}

/// A state store holding the benchmark's accounts.
fn account_store(graph: &DataflowGraph) -> StateStore {
    let class = &graph.program.class("Account").expect("Account class").class;
    let mut store = StateStore::new();
    for (i, r) in account_refs(KEYS).into_iter().enumerate() {
        store.insert(r, class.initial_state(key_name(i), account_init()));
    }
    store
}

/// Time from `send` on one thread to the return of a parked `recv_timeout`
/// on another, ns, ascending.
fn delay_wake_latencies(clock: Clock) -> Vec<u64> {
    let (tx, rx) = delay_channel::<u64>();
    let receiver = std::thread::spawn(move || {
        let mut lat = Vec::with_capacity(WAKES);
        while !rx.is_closed() {
            if let Some(sent) = rx.recv_timeout(Duration::from_millis(50)) {
                lat.push(clock.now() - sent);
            }
        }
        lat
    });
    for _ in 0..WAKES {
        // Long enough for the receiver to park again.
        std::thread::sleep(Duration::from_micros(50));
        tx.send(clock.now());
    }
    std::thread::sleep(Duration::from_millis(1));
    drop(tx);
    let mut lat = receiver.join().expect("receiver thread");
    lat.sort_unstable();
    lat
}

/// Time from `ResponseCompleter::complete` to the return of a parked
/// `ResponseWaiter::wait` on another thread, ns, ascending.
fn waiter_wake_latencies(clock: Clock) -> Vec<u64> {
    let (completers, waiters): (Vec<_>, Vec<_>) = (0..WAKES).map(|_| ResponseWaiter::new()).unzip();
    let waiter = std::thread::spawn(move || {
        waiters
            .into_iter()
            .map(|w| {
                let _ = w.wait();
                clock.now()
            })
            .collect::<Vec<u64>>()
    });
    let mut sent = Vec::with_capacity(WAKES);
    for c in &completers {
        std::thread::sleep(Duration::from_micros(50));
        sent.push(clock.now());
        c.complete(Ok(Value::Unit));
    }
    let woke = waiter.join().expect("waiter thread");
    let mut lat: Vec<u64> = woke
        .iter()
        .zip(&sent)
        .map(|(w, s)| w.saturating_sub(*s))
        .collect();
    lat.sort_unstable();
    lat
}

/// Runs every probe. `stream` supplies the operations replayed for the
/// single-threaded baseline.
pub fn run_all(stream: &OpStream, clock: Clock, spans: &mut Spans) -> Vec<Metric> {
    let mut p = Probes {
        clock,
        spans,
        out: Vec::new(),
    };
    let program = ycsb_program();
    let graph = se_core::compile(&program).expect("the YCSB program compiles");
    let refs = account_refs(KEYS);
    let us = |ns: u64| ns as f64 / 1e3;

    // --- se-dataflow -----------------------------------------------------
    p.run("dataflow.delay_send_recv_ns", "ns", || {
        let (tx, rx) = delay_channel::<u64>();
        ns_per_call(|| {
            tx.send(1);
            black_box(rx.try_recv());
        })
    });
    let mut wakes = Vec::new();
    p.run("dataflow.delay_wake_p50_us", "us", || {
        wakes = delay_wake_latencies(clock);
        us(quantile_sorted(&wakes, 0.5))
    });
    p.run("dataflow.delay_wake_p99_us", "us", || {
        us(quantile_sorted(&wakes, 0.99))
    });
    p.run("dataflow.waiter_wake_p50_us", "us", || {
        us(quantile_sorted(&waiter_wake_latencies(clock), 0.5))
    });
    {
        let mut store = account_store(&graph);
        let mut i = 0;
        p.run("dataflow.state_get_ns", "ns", || {
            ns_per_call(|| {
                i = (i + 1) % KEYS;
                black_box(store.get(&refs[i]));
            })
        });
        p.run("dataflow.state_apply_write_ns", "ns", || {
            ns_per_call(|| {
                i = (i + 1) % KEYS;
                store
                    .apply_write(&refs[i], "balance", Value::Int(1))
                    .expect("account exists");
            })
        });
    }
    p.run("dataflow.source_append_ns", "ns", || {
        // A fixed count: the log never trims, so a timed loop would grow it
        // by a different amount on every run.
        let source = ReplayableSource::<u64>::new();
        let t = Instant::now();
        for i in 0..1_000_000u64 {
            black_box(source.append(i));
        }
        t.elapsed().as_nanos() as f64 / 1e6
    });

    // --- se-aria ---------------------------------------------------------
    {
        // 64 transfer-shaped buffers over 50 hot accounts, as in
        // micro_substrate's `aria` group.
        let before = EntityState::from([("balance".to_string(), Value::Int(100))]);
        let after = EntityState::from([("balance".to_string(), Value::Int(99))]);
        let buffers: Vec<(u64, TxnBuffer)> = (0..64u64)
            .map(|i| {
                let mut buf = TxnBuffer::new();
                for r in [refs[(i % 50) as usize], refs[((i * 7) % 50) as usize]] {
                    buf.overlay_read(&r, &before);
                    buf.record_effects(&r, &before, &after);
                }
                (i, buf)
            })
            .collect();
        let reserve_all = || {
            let mut table = ReservationTable::new();
            for (id, buf) in &buffers {
                table.reserve(*id, buf);
            }
            table
        };
        p.run("aria.reserve_ns_per_txn", "ns", || {
            ns_per_call(|| {
                black_box(reserve_all());
            }) / 64.0
        });
        let table = reserve_all();
        p.run("aria.decide_ns_per_txn", "ns", || {
            ns_per_call(|| {
                for (id, buf) in &buffers {
                    black_box(table.decide(*id, buf, CommitRule::Reordering));
                }
            }) / 64.0
        });
    }

    // --- se-broker -------------------------------------------------------
    {
        let broker: Broker<u64> = Broker::new(NetConfig {
            broker_hop: Duration::ZERO,
            per_kib: Duration::ZERO,
            ..NetConfig::default()
        });
        broker.create_topic("t", 1);
        p.run("broker.produce_ns", "ns", || {
            // Fixed count for the same reason as `source_append_ns`.
            let t = Instant::now();
            for i in 0..200_000u64 {
                broker.produce("t", "key", i, 64).expect("topic exists");
            }
            t.elapsed().as_nanos() as f64 / 2e5
        });
        p.run("broker.fetch_ns", "ns", || {
            let mut offset = 0;
            ns_per_call(|| {
                offset = (offset + 32) % 190_000;
                black_box(broker.fetch("t", 0, offset, 32).expect("topic exists"));
            }) / 32.0
        });
    }

    // --- se-ir / se-vm / se-lang ----------------------------------------
    {
        let vm = VmProgram::compile(&graph.program);
        let store = RefCell::new(account_store(&graph));
        let mut i = 0;
        let mut chain = |method: &'static str, args: &dyn Fn(usize) -> Vec<Value>| {
            ns_per_call(|| {
                i = (i + 1) % KEYS;
                let root = Invocation::root(RequestId(1), refs[i], method, args(i));
                let response = drive_chain_with(
                    &graph.program,
                    &vm,
                    root,
                    |r| store.borrow().get_cloned(r),
                    |r, s| store.borrow_mut().insert(*r, s),
                    16,
                );
                black_box(response.result.expect("probe invocation succeeds"));
            })
        };
        p.run("ir.invoke_read_ns", "ns", || chain("read", &|_| vec![]));
        p.run("ir.invoke_update_ns", "ns", || {
            chain("update", &|i| vec![Value::Bytes(vec![i as u8; VALUE_SIZE])])
        });
        p.run("ir.chain_transfer_ns", "ns", || {
            chain("transfer", &|i| {
                vec![Value::Ref(refs[(i + 1) % KEYS]), Value::Int(1)]
            })
        });
    }
    p.run("vm.lower_ms", "ms", || {
        let runs: Vec<f64> = (0..15)
            .map(|_| {
                let t = Instant::now();
                black_box(VmProgram::compile(&graph.program));
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        median(&runs)
    });
    p.run("lang.interp_transfer_ns", "ns", || {
        let mut exec = LocalExecutor::new(&program);
        let a = exec.create("Account", "a", account_init()).expect("create");
        let b = exec.create("Account", "b", account_init()).expect("create");
        ns_per_call(|| {
            // One each way, so neither balance drifts.
            for (from, to) in [(a, b), (b, a)] {
                exec.invoke(&from, "transfer", vec![Value::Ref(to), Value::Int(1)])
                    .expect("transfer");
            }
        }) / 2.0
    });

    // --- se-core ---------------------------------------------------------
    p.run("core.local_ns_per_op", "ns", || {
        let rt = se_core::deploy(&program, RuntimeChoice::Local).expect("Local deploys");
        for i in 0..KEYS {
            rt.create("Account", &key_name(i), account_init())
                .expect("create");
        }
        let n = LOCAL_OPS.min(stream.ops.len());
        let t = Instant::now();
        for i in 0..n {
            let (target, method, args) = stream.invocation(i);
            black_box(rt.call(target, method, args).expect("local call"));
        }
        t.elapsed().as_nanos() as f64 / n as f64
    });

    // --- se-obs ----------------------------------------------------------
    p.run("obs.hist_record_ns", "ns", || {
        let hist = se_obs::Histogram::new();
        let mut v = 1u64;
        ns_per_call(|| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            hist.record(v >> 40);
        })
    });
    p.out
}
