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
//! Keys are drawn uniformly (the paper does not state M's distribution; at
//! 4000 req/s a Zipfian hot key would exceed any serial per-key commit
//! capacity under entity-granularity conflicts).

use se_bench::{emit, fig4_requests, key_count, Row};
use se_core::{deploy, RuntimeChoice};
use se_workloads::{load_accounts, run_open_loop, Distribution, DriverConfig, WorkloadSpec};

fn main() {
    let n_keys = key_count();
    let requests = fig4_requests();
    let sweep = [1000.0, 1500.0, 2000.0, 2500.0, 3000.0, 3500.0, 4000.0];

    println!(
        "fig4: workload M, {requests} requests/point, {n_keys} keys, sweep {sweep:?}, time_scale {}",
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
    // remote-runtime capacity (~3000 req/s here).
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
    if let (Some(lo), Some(hi)) = (p99_at("statefun", 1000.0), p99_at("statefun", 4000.0)) {
        if hi < 2.0 * lo {
            eprintln!("WARN: expected StateFun p99 to blow up at 4000 rps ({lo:.1} → {hi:.1})");
        }
    }
}
