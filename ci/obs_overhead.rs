//! **CI overhead gate** — proves `SE_OBS=metrics` is (nearly) free.
//!
//! Deploys the same invoke-chain workload twice per round — once with obs
//! off, once in metrics mode — on a fast-test StateFlow cluster, and
//! compares the median end-to-end invoke latency. Rounds interleave the two
//! modes so host-load drift hits both sides equally; samples are pooled
//! across rounds before taking the median.
//!
//! The assertion is `metrics_median ≤ off_median × (1 + PCT) + FLOOR_US`:
//! a relative bound of 5% plus an absolute floor of 750 µs, because 5% of a
//! sub-millisecond median is smaller than OS scheduling noise on a shared
//! CI host.
//!
//! Exit codes: 0 within budget, 1 over budget.

use std::process::ExitCode;
use std::time::Instant;

use se_core::{deploy, RuntimeChoice, StateflowConfig};
use se_lang::{EntityRef, Value};

// Chain depth, timed calls per mode and round, interleaved rounds, and the
// budget: relative, plus an absolute floor in µs.
const DEPTH: usize = 4;
const REPS: usize = 200;
const ROUNDS: usize = 3;
const PCT: f64 = 0.05;
const FLOOR_US: f64 = 750.0;

/// Runs one deployment in `mode` and returns per-call latencies in ns.
fn run_once(mode: se_obs::ObsMode, dump_dir: &std::path::Path) -> Vec<f64> {
    let program = se_lang::programs::chain_program(DEPTH);
    let mut cfg = StateflowConfig::fast_test(2);
    cfg.obs = se_obs::ObsConfig {
        mode,
        dir: dump_dir.to_path_buf(),
        label: "overhead".into(),
        ..Default::default()
    };
    let rt = deploy(&program, RuntimeChoice::Stateflow(cfg)).expect("deploy");
    for i in (0..=DEPTH).rev() {
        let init = if i < DEPTH {
            vec![(
                "next".to_string(),
                Value::Ref(EntityRef::new(format!("C{}", i + 1), "n")),
            )]
        } else {
            vec![]
        };
        rt.create(&format!("C{i}"), "n", init).expect("create");
    }
    let target = EntityRef::new("C0", "n");
    // Warmup: JIT nothing, but fill batches/queues to steady state.
    for _ in 0..REPS / 10 {
        rt.call(target, "relay", vec![Value::Int(1)])
            .expect("warmup call");
    }
    let mut samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t = Instant::now();
        rt.call(target, "relay", vec![Value::Int(1)])
            .expect("timed call");
        samples.push(t.elapsed().as_nanos() as f64);
    }
    rt.shutdown();
    samples
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn main() -> ExitCode {
    let dump_dir = std::env::temp_dir().join(format!("se-obs-overhead-{}", std::process::id()));
    println!(
        "obs_overhead: chain depth {DEPTH}, {REPS} calls x {ROUNDS} rounds per mode, \
         budget {:.1}% + {FLOOR_US:.0} us floor",
        PCT * 100.0
    );

    let mut off = Vec::new();
    let mut metrics = Vec::new();
    for round in 0..ROUNDS {
        // Interleave modes so slow-host drift cancels instead of biasing.
        off.extend(run_once(se_obs::ObsMode::Off, &dump_dir));
        metrics.extend(run_once(se_obs::ObsMode::Metrics, &dump_dir));
        eprintln!("  round {} done", round + 1);
    }
    let _ = std::fs::remove_dir_all(&dump_dir);

    let off_med = median(&mut off);
    let metrics_med = median(&mut metrics);
    let delta_pct = (metrics_med - off_med) / off_med * 100.0;
    let budget = off_med * (1.0 + PCT) + FLOOR_US * 1e3;
    println!(
        "  SE_OBS=off     median {:9.3} ms\n  SE_OBS=metrics median {:9.3} ms  ({:+.2}%)\n  budget {:9.3} ms",
        off_med / 1e6,
        metrics_med / 1e6,
        delta_pct,
        budget / 1e6
    );
    if metrics_med <= budget {
        println!("obs_overhead: OK — metrics mode within budget");
        ExitCode::SUCCESS
    } else {
        println!("obs_overhead: FAIL — metrics mode exceeds budget");
        ExitCode::FAILURE
    }
}
