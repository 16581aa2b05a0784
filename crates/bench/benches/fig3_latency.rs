//! **Figure 3** — "Average latency at the 99th percentile, in YCSB (100 RPS)
//! with both Zipfian and uniform key distributions."
//!
//! Reproduces the six cells {A, B, T} × {zipfian, uniform} for StateFun and
//! StateFlow. StateFun skips T: "we did not run Statefun against
//! transactional workloads since it offers no support for transactions"
//! (§4).
//!
//! Expected shape (recorded in BENCH.md):
//! * both systems well under 200 ms p99 at 100 RPS;
//! * StateFun ≈ flat across A/B and zipf/uniform (no locking, every op pays
//!   the same broker + remote-runtime round trips);
//! * StateFlow below StateFun on A and B (internal f2f, no Kafka);
//! * StateFlow-T the highest cell, but the transactional overhead stays
//!   moderate for a 2-read + 2-write transaction.

use se_bench::{emit, fig3_requests, key_count, Row};
use se_core::{deploy, RuntimeChoice};
use se_workloads::{load_accounts, run_open_loop, Distribution, DriverConfig, WorkloadSpec};

fn main() {
    let n_keys = key_count();
    let requests = fig3_requests();
    let rps = 100.0;
    let driver = DriverConfig {
        rps,
        requests,
        seed: 0xF163,
        value_size: 1024,
        time_scale: se_bench::time_scale(),
        spin_iters: 256,
        ..Default::default()
    };

    println!(
        "fig3: {requests} requests/cell, {n_keys} keys, {rps} RPS, time_scale {}",
        se_bench::time_scale()
    );

    let mut rows = Vec::new();
    for (system, choice) in [
        (
            "statefun",
            RuntimeChoice::Statefun(se_bench::statefun_bench_config()),
        ),
        (
            "stateflow",
            RuntimeChoice::Stateflow(se_bench::stateflow_bench_config()),
        ),
    ] {
        let program = se_workloads::ycsb_program();
        let rt = deploy(&program, choice).expect("deploy");
        load_accounts(rt.as_ref(), n_keys, 1024, 1_000_000);
        for spec in [WorkloadSpec::A, WorkloadSpec::B, WorkloadSpec::T] {
            if spec.is_transactional() && !rt.supports_transactions() {
                continue; // the paper's Statefun × T omission
            }
            for dist in [Distribution::Zipfian, Distribution::Uniform] {
                let label = format!("{}-{}", spec.name, dist.label());
                let report = run_open_loop(rt.as_ref(), spec, dist, n_keys, &driver);
                eprintln!(
                    "  {system:<9} {label:<11} p99 {:.2} ms (errors {}, timeouts {})",
                    se_bench::ms(report.latency.p99),
                    report.errors,
                    report.timed_out
                );
                rows.push(Row::from_report(label, system, rps, &report));
            }
        }
        rt.shutdown();
    }

    emit("fig3", "Figure 3 — p99 latency, YCSB @ 100 RPS", &rows);

    // Shape checks (warnings, not failures: measurement noise happens).
    let p99 = |sys: &str, label: &str| {
        rows.iter()
            .find(|r| r.system == sys && r.label == label)
            .map(|r| r.p99_ms)
    };
    if let (Some(sf_a), Some(fl_a), Some(fl_t)) = (
        p99("statefun", "A-zipfian"),
        p99("stateflow", "A-zipfian"),
        p99("stateflow", "T-zipfian"),
    ) {
        if fl_a >= sf_a {
            eprintln!("WARN: expected StateFlow < StateFun on A-zipfian ({fl_a:.2} vs {sf_a:.2})");
        }
        if fl_t <= fl_a {
            eprintln!("WARN: expected T above A on StateFlow ({fl_t:.2} vs {fl_a:.2})");
        }
    }
}
