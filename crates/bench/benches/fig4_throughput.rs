//! **Figure 4** — "Average and 99th percentile latency for the M workload,
//! with increasing input throughput" (1000 → 4000 requests/s).
//!
//! Expected shape: StateFun saturates first — "the Statefun deployment uses
//! half its CPUs for messaging and state within the Apache Flink cluster and
//! the other half for execution in a remote stateless function runtime",
//! while "StateFlow is using more execution cores since it bundles
//! execution, state, and messaging" (§4). StateFlow's curves stay low
//! across the sweep; StateFun's p99 blows up once the offered load exceeds
//! its remote-runtime capacity.
//!
//! The paper's ladder suits its six system cores. Here the ladder follows
//! the host: it is a fixed set of multiples of StateFun's remote capacity
//! ([`se_bench::statefun_remote_capacity_rps`]), so the knee lies on the
//! curve however many cores the engine gets.
//!
//! Keys are drawn uniformly (the paper does not state M's distribution; at
//! 4000 req/s a Zipfian hot key would exceed any serial per-key commit
//! capacity under entity-granularity conflicts).

use se_bench::{emit, fig4_requests, key_count, statefun_remote_capacity_rps, Row};
use se_core::{deploy, RuntimeChoice};
use se_workloads::{load_accounts, run_open_loop, Distribution, DriverConfig, WorkloadSpec};

fn main() {
    let n_keys = key_count();
    let requests = fig4_requests();
    let knee = statefun_remote_capacity_rps(&se_bench::statefun_bench_config());
    let sweep = [0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0].map(|k: f64| (k * knee).round());

    println!(
        "fig4: workload M, {requests} requests/point, {n_keys} keys, sweep {sweep:?} \
         (StateFun's remote capacity {knee:.0} req/s), time_scale {}",
        se_bench::time_scale()
    );

    let mut rows = Vec::new();
    for system in ["statefun", "stateflow"] {
        for &rps in &sweep {
            let choice = if system == "statefun" {
                RuntimeChoice::Statefun(se_bench::statefun_bench_config())
            } else {
                RuntimeChoice::Stateflow(se_bench::stateflow_bench_config())
            };
            // Fresh deployment per point: saturation backlog must not leak
            // into the next measurement.
            let program = se_workloads::ycsb_program();
            let rt = deploy(&program, choice).expect("deploy");
            load_accounts(rt.as_ref(), n_keys, 1024, 1_000_000);
            let driver = DriverConfig {
                rps,
                requests,
                seed: 0xF164,
                value_size: 1024,
                time_scale: se_bench::time_scale(),
                spin_iters: 256,
                ..Default::default()
            };
            let report = run_open_loop(
                rt.as_ref(),
                WorkloadSpec::M,
                Distribution::Uniform,
                n_keys,
                &driver,
            );
            eprintln!(
                "  {system:<9} {rps:>6.0} rps  p50 {:.2} ms  p99 {:.2} ms (errors {}, timeouts {})",
                se_bench::ms(report.latency.p50),
                se_bench::ms(report.latency.p99),
                report.errors,
                report.timed_out
            );
            rows.push(Row::from_report(
                format!("M@{rps:.0}"),
                system,
                rps,
                &report,
            ));
            rt.shutdown();
        }
    }

    emit(
        "fig4",
        "Figure 4 — latency vs offered load, workload M",
        &rows,
    );

    // Shape check: StateFlow's curves stay below StateFun's at every load
    // point (the paper's figure), and StateFun's p99 blows up past its
    // remote-runtime capacity, which the ladder's top is three times.
    let p99_at = |sys: &str, rps: f64| {
        rows.iter()
            .find(|r| r.system == sys && r.rps == rps)
            .map(|r| r.p99_ms)
    };
    for &rps in &sweep {
        if let (Some(sf), Some(fl)) = (p99_at("statefun", rps), p99_at("stateflow", rps)) {
            if fl >= sf {
                eprintln!(
                    "WARN: expected StateFlow below StateFun at {rps} rps ({fl:.1} vs {sf:.1})"
                );
            }
        }
    }
    let (bottom, top) = (sweep[0], sweep[sweep.len() - 1]);
    if let (Some(lo), Some(hi)) = (p99_at("statefun", bottom), p99_at("statefun", top)) {
        if hi < 2.0 * lo {
            eprintln!("WARN: expected StateFun p99 to blow up at {top} rps ({lo:.1} → {hi:.1})");
        }
    }
}
