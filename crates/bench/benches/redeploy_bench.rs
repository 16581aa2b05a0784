//! # redeploy_bench — live-upgrade cost: recompile and switchover latency
//!
//! Two questions the live-upgrade design must answer with numbers:
//!
//! * **Compile cost** — a redeploy recompiles only the methods whose source
//!   changed ([`se_compiler::compile_upgrade`]); everything else reuses the
//!   previous version's split artifacts. The bench times a full from-scratch
//!   compile of the v2 program against the incremental path and reports the
//!   reuse ratio alongside.
//! * **Switchover latency** — a live `redeploy()` seals the pipeline, cuts
//!   the pre-upgrade epoch, runs the per-entity `__migrate__` pass on every
//!   partition, and only then routes new roots to v2. The bench measures
//!   that client-observed wall time on both engines across an entity-count
//!   ladder, with a light open-loop load running so the drain is realistic.
//!
//! Env knobs:
//!   SE_REDEPLOY_ENTITIES  comma ladder of entity counts   (default 64,512,4096)
//!   SE_REDEPLOY_REPS      switchovers timed per cell      (default 3)
//!   SE_REDEPLOY_COMPILE_REPS  compile timings per mode    (default 20)
//!
//! Output: `bench_results/redeploy_bench.json`, uniform bench row schema.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use se_bench::{emit, Row};
use se_core::{StateflowConfig, StateflowRuntime, StatefunConfig, StatefunRuntime};
use se_dataflow::EntityRuntime;
use se_lang::{EntityRef, Value};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

fn env_ladder(name: &str, default: &[usize]) -> Vec<usize> {
    match std::env::var(name) {
        Ok(v) => v.split(',').filter_map(|s| s.trim().parse().ok()).collect(),
        Err(_) => default.to_vec(),
    }
}

fn acct(i: usize) -> EntityRef {
    EntityRef::new("Account", se_workloads::key_name(i))
}

fn stats_ms(samples: &[f64]) -> (f64, f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mean = sorted.iter().sum::<f64>() / sorted.len().max(1) as f64;
    let p50 = sorted.get(sorted.len() / 2).copied().unwrap_or(0.0);
    let max = sorted.last().copied().unwrap_or(0.0);
    (mean, p50, max)
}

fn row(label: String, system: &str, samples: &[f64]) -> Row {
    let (mean, p50, max) = stats_ms(samples);
    Row {
        bench: String::new(),
        label,
        system: system.into(),
        params: Default::default(),
        rps: 0.0,
        mean_ms: mean,
        p50_ms: p50,
        p99_ms: max,
        tput_rps: 0.0,
        count: samples.len(),
        errors: 0,
        fsync_p99_ms: 0.0,
        commit: String::new(),
    }
}

/// Times the from-scratch compile of v2 against the incremental redeploy
/// path (v1 graph + v2 source), returning both sample sets and the reuse
/// stats of the incremental path.
fn compile_cells(reps: usize) -> Vec<Row> {
    let v1 = se_workloads::ycsb_program();
    let v2 = se_workloads::ycsb_program_v2();
    let opts = se_compiler::CompileOptions::default();
    let base = se_compiler::compile_with(&v1, &opts).expect("v1 compiles");

    let mut full_ms = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        se_compiler::compile_with(&v2, &opts).expect("v2 compiles");
        full_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let mut incr_ms = Vec::with_capacity(reps);
    let mut stats = None;
    for _ in 0..reps {
        let t = Instant::now();
        let (_, recompile) = se_compiler::compile_upgrade(&base, &v2, &opts).expect("upgrade");
        incr_ms.push(t.elapsed().as_secs_f64() * 1e3);
        stats = Some(recompile);
    }
    let stats = stats.expect("at least one rep");
    eprintln!(
        "  compile: full {:.3} ms, incremental {:.3} ms ({}/{} methods reused)",
        stats_ms(&full_ms).0,
        stats_ms(&incr_ms).0,
        stats.methods_reused,
        stats.methods_total,
    );
    vec![
        row("compile-full".into(), "se-compiler", &full_ms).with_param("reps", reps),
        row("compile-incremental".into(), "se-compiler", &incr_ms)
            .with_param("reps", reps)
            .with_param("methods_total", stats.methods_total)
            .with_param("methods_reused", stats.methods_reused)
            .with_param("methods_recompiled", stats.methods_recompiled),
    ]
}

/// The two live-upgrade-capable engines, held concretely so the bench can
/// reach each one's `redeploy` (not part of the shared `EntityRuntime`
/// surface).
enum Engine {
    Flow(Arc<StateflowRuntime>),
    Fun(Arc<StatefunRuntime>),
}

impl Engine {
    fn rt(&self) -> Arc<dyn EntityRuntime> {
        match self {
            Engine::Flow(rt) => Arc::clone(rt) as Arc<dyn EntityRuntime>,
            Engine::Fun(rt) => Arc::clone(rt) as Arc<dyn EntityRuntime>,
        }
    }

    fn redeploy(&self, program: &se_lang::Program) -> u64 {
        match self {
            Engine::Flow(rt) => rt.redeploy(program).expect("redeploy commits"),
            Engine::Fun(rt) => rt.redeploy(program).expect("redeploy commits"),
        }
    }
}

/// One switchover cell: deploy v1, create `entities` accounts, keep a light
/// open-loop deposit stream running, then time `reps` consecutive
/// redeploys (each bumps the version once more; every switchover drains the
/// pipeline, cuts an epoch, and migrates all `entities`).
fn switchover_cell(engine: &str, entities: usize, reps: usize) -> Row {
    let program = se_workloads::ycsb_program();
    let v2 = se_workloads::ycsb_program_v2();
    let graph = se_core::compile(&program).expect("v1 compiles");
    let eng = match engine {
        "stateflow" => Engine::Flow(Arc::new(StateflowRuntime::deploy(
            graph,
            StateflowConfig::fast_test(3),
        ))),
        "statefun" => Engine::Fun(Arc::new(StatefunRuntime::deploy(
            graph,
            StatefunConfig::fast_test(3),
        ))),
        _ => unreachable!("engine {engine}"),
    };
    let rt = eng.rt();
    se_workloads::load_accounts(rt.as_ref(), entities, 8, 100);

    let stop = Arc::new(AtomicBool::new(false));
    let driver = {
        let rt = Arc::clone(&rt);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut waiters = Vec::new();
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                waiters.push(rt.call_async(acct(i % 16), "deposit", vec![Value::Int(1)]));
                i += 1;
                std::thread::sleep(Duration::from_micros(500));
            }
            for w in waiters {
                let _ = w.wait_timeout(Duration::from_secs(60));
            }
        })
    };

    let mut ms = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let v = eng.redeploy(&v2);
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        assert!(v >= 2, "each rep must land a newer version");
    }
    stop.store(true, Ordering::Relaxed);
    driver.join().expect("driver thread");
    rt.shutdown();

    let (mean, _, _) = stats_ms(&ms);
    eprintln!("  switchover {engine:>9}@{entities:>6}: {mean:8.2} ms");
    let mut r = row(format!("switchover-{engine}@{entities}"), engine, &ms)
        .with_param("entities", entities)
        .with_param("reps", reps);
    // Migration throughput: entities migrated per second of switchover.
    r.tput_rps = entities as f64 / (mean / 1e3).max(1e-9);
    r
}

fn main() {
    let ladder = env_ladder("SE_REDEPLOY_ENTITIES", &[64, 512, 4096]);
    let reps = env_usize("SE_REDEPLOY_REPS", 3).max(1);
    let compile_reps = env_usize("SE_REDEPLOY_COMPILE_REPS", 20).max(1);

    println!(
        "redeploy_bench: entities ladder {ladder:?}, {reps} switchovers/cell, \
         {compile_reps} compile reps"
    );
    let mut rows = compile_cells(compile_reps);
    for &entities in &ladder {
        for engine in ["stateflow", "statefun"] {
            rows.push(switchover_cell(engine, entities, reps));
        }
    }
    emit(
        "redeploy_bench",
        "Live-upgrade cost: incremental recompile vs full, and epoch-boundary switchover latency vs entity count",
        &rows,
    );
}
