//! **Scaling sweep** — StateFlow saturation throughput and p99 across
//! workers × pipeline_depth.
//!
//! Grown from the original pipeline-depth sweep into the repository's
//! scaling bench: every cell drives an open-loop load far above capacity so
//! completion throughput (completed requests / un-scaled wall-clock until
//! the last completion) measures the protocol, not the arrival process.
//!
//! Two regimes matter:
//!
//! * **Compute-bound, conflict-free** (workload C, uniform keys): bodies
//!   are loop-heavy `spin` calls with no writes, so Aria batches carry no
//!   conflicts and the partition count (`workers`) is the lever —
//!   throughput should scale with it until cores run out. StateFlow runs
//!   its roles on min(cores, `workers` + 1) engine threads; in the sleep
//!   mode this bench defaults to, cores counts a simulated core per role,
//!   so every partition keeps a thread of its own on any host. Under
//!   `SE_SERVICE_SLEEP=0` cores is the deploying thread's
//!   `available_parallelism()`, and past it partitions share threads.
//! * **Contended** (workloads A/T, Zipfian keys): serial-fallback retries
//!   dominate (solo batches commit at their final hop, overlapping up to
//!   `pipeline_depth` deep).
//!
//! Environment ladders (comma-separated lists):
//!
//! * `SE_SWEEP_WORKERS`      — worker counts            (default `5`)
//! * `SE_SWEEP_DEPTHS`       — pipeline depths          (default `1,2`)
//! * `SE_SWEEP_KEYS`         — key-space sizes          (default `SE_KEYS`,
//!   itself defaulting to 1000; the nightly ladder runs `1000,100000,1000000`)
//! * `SE_SWEEP_CELLS`        — workload-distribution cells
//!   (default `C-uniform,A-zipfian,T-zipfian,A-uniform`)
//! * `SE_PIPELINE_REQUESTS`  — requests per cell        (default 1200)
//! * `SE_SPIN_ITERS`         — loop turns per C spin    (default 256)
//! * `SE_SERVICE_SLEEP`      — service-time mode (default **1** here:
//!   sleep-based service so simulated cores stay independent on a
//!   core-starved host; `0` restores the spin burns the figure benches use)
//!
//! Rows are emitted in the workspace's uniform JSON schema (see
//! `se_bench::Row`) with labels like `C-uniform@w5d2`: workers 5, depth 2.

use se_bench::{emit, key_count, Row};
use se_core::{compile, EntityRuntime, StateflowRuntime};
use se_workloads::{load_accounts, run_open_loop, Distribution, DriverConfig, WorkloadSpec};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Parses a comma-separated usize ladder, falling back to `default`.
fn env_ladder(name: &str, default: &[usize]) -> Vec<usize> {
    let Ok(raw) = std::env::var(name) else {
        return default.to_vec();
    };
    let parsed: Vec<usize> = raw
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .filter_map(|s| s.parse().ok())
        .filter(|&v| v >= 1)
        .collect();
    if parsed.is_empty() {
        eprintln!("warning: ignoring unparseable {name}={raw:?}");
        return default.to_vec();
    }
    parsed
}

fn cell_of(name: &str) -> Option<(WorkloadSpec, Distribution)> {
    let (wl, dist) = name.split_once('-')?;
    let spec = match wl {
        "A" => WorkloadSpec::A,
        "B" => WorkloadSpec::B,
        "T" => WorkloadSpec::T,
        "M" => WorkloadSpec::M,
        "C" => WorkloadSpec::C,
        _ => return None,
    };
    let dist = match dist {
        "uniform" => Distribution::Uniform,
        "zipfian" => Distribution::Zipfian,
        _ => return None,
    };
    Some((spec, dist))
}

fn main() {
    // Scaling cells measure parallel capacity, so service time must behave
    // like independent simulated cores even when the host has fewer real
    // ones: default to sleep-based service (spin burns monopolize their
    // timeslice and serialize on an oversubscribed host, hiding exactly the
    // cross-partition overlap this bench exists to measure). Explicit
    // SE_SERVICE_SLEEP=0 restores spinning.
    if std::env::var("SE_SERVICE_SLEEP").is_err() {
        std::env::set_var("SE_SERVICE_SLEEP", "1");
    }
    let requests = env_usize("SE_PIPELINE_REQUESTS", 1200);
    let workers_ladder = env_ladder("SE_SWEEP_WORKERS", &[5]);
    let depth_ladder = env_ladder("SE_SWEEP_DEPTHS", &[1, 2]);
    let keys_ladder = env_ladder("SE_SWEEP_KEYS", &[key_count()]);
    let spin_iters = env_usize("SE_SPIN_ITERS", 256) as i64;
    let cells: Vec<(String, WorkloadSpec, Distribution)> = std::env::var("SE_SWEEP_CELLS")
        .unwrap_or_else(|_| "C-uniform,A-zipfian,T-zipfian,A-uniform".to_string())
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .filter_map(|name| {
            let cell = cell_of(name);
            if cell.is_none() {
                eprintln!("warning: ignoring unknown cell {name:?}");
            }
            cell.map(|(spec, dist)| (name.to_string(), spec, dist))
        })
        .collect();
    // Offered load far above capacity: the issue phase finishes fast and
    // completion throughput measures saturation.
    let offered = 50_000.0;

    println!(
        "pipeline_sweep: {requests} requests/cell, keys {keys_ladder:?}, \
         workers {workers_ladder:?}, depths {depth_ladder:?}, time_scale {}",
        se_bench::time_scale()
    );

    let mut rows = Vec::new();
    for (cell_name, spec, dist) in &cells {
        for &n_keys in &keys_ladder {
            for &workers in &workers_ladder {
                for &depth in &depth_ladder {
                    let mut cfg = se_bench::stateflow_bench_config();
                    cfg.workers = workers;
                    cfg.pipeline_depth = depth;
                    // The fsync column comes from the se-obs registry, so
                    // this bench records metrics even without SE_OBS set (an
                    // explicit SE_OBS=off|trace still wins).
                    if std::env::var("SE_OBS").is_err() {
                        cfg.obs.mode = se_obs::ObsMode::Metrics;
                    }
                    let program = se_workloads::ycsb_program();
                    let graph = compile(&program).expect("compile");
                    let rt = StateflowRuntime::deploy(graph, cfg);
                    load_accounts(&rt, n_keys, 1024, 1_000_000);
                    let driver = DriverConfig {
                        rps: offered,
                        requests,
                        seed: 0x51EE9,
                        value_size: 1024,
                        time_scale: se_bench::time_scale(),
                        spin_iters,
                        latency_hist: rt.obs().histogram("driver.latency"),
                    };
                    let report = run_open_loop(&rt, *spec, *dist, n_keys, &driver);
                    let mut label = format!("{cell_name}@w{workers}d{depth}");
                    if keys_ladder.len() > 1 {
                        label.push_str(&format!("-k{n_keys}"));
                    }
                    eprintln!(
                        "  {label:<34} tput {:>7.0} rps  p50 {:>7.2} ms  \
                         p99 {:>8.2} ms  (timeouts {})",
                        report.throughput_rps(),
                        se_bench::ms(report.latency.p50),
                        se_bench::ms(report.latency.p99),
                        report.timed_out,
                    );
                    rows.push(
                        Row::from_report(label, "stateflow", offered, &report)
                            .with_obs(rt.obs())
                            .with_param("workers", workers)
                            .with_param("depth", depth)
                            .with_param("keys", n_keys)
                            .with_param("workload", spec.name)
                            .with_param("dist", dist.label())
                            .with_param("spin_iters", spin_iters)
                            .with_param("requests", requests),
                    );
                    rt.shutdown();
                }
            }
        }
    }

    emit(
        "pipeline_sweep",
        "Scaling sweep — saturation throughput across workers × depth",
        &rows,
    );
}
