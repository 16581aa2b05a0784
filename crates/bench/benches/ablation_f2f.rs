//! **Ablation A2** — function-to-function transport: internal channels
//! (StateFlow) vs broker loopback (StateFun).
//!
//! The paper attributes StateFlow's latency win to exactly this: "StateFlow
//! outperforms Statefun because it allows for internal function-to-function
//! communication and does not require the roundtrips to Kafka" (§4). This
//! ablation isolates the effect by measuring call-chain latency as a
//! function of chain depth (each extra hop is one more remote call): on the
//! broker-loopback design every hop costs a produce+consume round trip plus
//! a remote-runtime round trip, on internal channels it costs one cheap f2f
//! hop.
//!
//! Expected shape: both lines grow linearly with depth; the broker-loopback
//! line has a much steeper slope (roughly (2×broker + 2×remote-fn) /
//! f2f-hop per additional call).

use std::io::Write as _;
use std::time::Duration;

use se_core::{deploy, RuntimeChoice};
use se_dataflow::LatencySummary;
use se_lang::{EntityRef, Value};

fn main() {
    let depths = [1usize, 2, 3, 4];
    let calls_per_depth = std::env::var("SE_F2F_CALLS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(150usize);

    println!("ablation_f2f: {calls_per_depth} sequential calls per depth\n");
    println!("| depth | system | mean ms | p99 ms |");
    println!("|---|---|---|---|");

    let mut json_rows: Vec<serde_json::Value> = Vec::new();
    for &depth in &depths {
        for system in ["statefun", "stateflow"] {
            let program = se_lang::programs::chain_program(depth);
            let choice = if system == "statefun" {
                RuntimeChoice::Statefun(se_bench::statefun_bench_config())
            } else {
                let mut cfg = se_bench::stateflow_bench_config();
                // Sequential closed-loop calls: a short batch interval keeps
                // the measurement about transport, not batching.
                cfg.batch_interval = Duration::from_millis(1).mul_f64(se_bench::time_scale());
                RuntimeChoice::Stateflow(cfg)
            };
            let rt = deploy(&program, choice).expect("deploy");
            // Wire C0 → C1 → … → Cdepth.
            for i in (0..=depth).rev() {
                let init = if i < depth {
                    vec![(
                        "next".to_string(),
                        Value::Ref(EntityRef::new(format!("C{}", i + 1), "n")),
                    )]
                } else {
                    vec![]
                };
                rt.create(&format!("C{i}"), "n", init).expect("create");
            }

            let latency = se_obs::Histogram::new();
            for i in 0..calls_per_depth {
                let out = latency.time(|| {
                    rt.call(
                        EntityRef::new("C0", "n"),
                        "relay",
                        vec![Value::Int(i as i64)],
                    )
                    .expect("relay")
                });
                assert_eq!(out, Value::Int(i as i64 + depth as i64));
            }
            let summary = LatencySummary::from_hist(&latency).unscale(se_bench::time_scale());
            println!(
                "| {depth} | {system} | {:.2} | {:.2} |",
                se_bench::ms(summary.mean),
                se_bench::ms(summary.p99)
            );
            json_rows.push(serde_json::json!({
                "depth": depth,
                "system": system,
                "mean_ms": se_bench::ms(summary.mean),
                "p99_ms": se_bench::ms(summary.p99),
            }));
            rt.shutdown();
        }
    }

    let _ = std::fs::create_dir_all("bench_results");
    if let Ok(mut f) = std::fs::File::create("bench_results/ablation_f2f.json") {
        let _ = writeln!(
            f,
            "{}",
            serde_json::to_string_pretty(&json_rows).expect("serialize")
        );
    }
}
