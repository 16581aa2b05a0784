//! **§4 "System overhead"** (described in prose, not plotted) — "We created
//! a synthetic workload in which we varied different state sizes from 50 to
//! 200kb. For each event, we measured the duration of different runtime
//! components. Some of the components, like object construction, are
//! attributed to program transformation overhead, whereas others, like
//! state storage, are attributed to the runtime. In short, function
//! splitting/instrumentation is only responsible for less than 1% of the
//! total overhead."
//!
//! Regenerates the per-component breakdown on the StateFun runtime (whose
//! remote deployment has the richest component set: state must be
//! (de)serialized and shipped on every call) across state sizes
//! {50, 100, 150, 200} KiB, and checks the < 1% claim.

use std::io::Write as _;
use std::time::Duration;

use se_core::{EntityRuntime, StatefunRuntime};
use se_lang::EntityRef;
use se_workloads::{key_name, load_accounts};

fn main() {
    let sizes_kib = [50usize, 100, 150, 200];
    let events_per_size = std::env::var("SE_OVERHEAD_EVENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300usize);
    let n_keys = 16;

    println!("overhead: {events_per_size} events per state size, sizes {sizes_kib:?} KiB\n");
    println!("| state KiB | component | total µs | per-event µs | share % |");
    println!("|---|---|---|---|---|");

    let mut json_rows: Vec<serde_json::Value> = Vec::new();
    let mut worst_split_share = 0.0f64;

    for &kib in &sizes_kib {
        let bytes = kib * 1024;
        let program = se_workloads::ycsb_program();
        let mut cfg = se_bench::statefun_bench_config();
        // The overhead experiment measures component *durations*, not
        // latency under load: shrink hop delays so the run is quick.
        cfg.net.time_scale = 0.05f64.min(se_bench::time_scale());
        let graph = se_core::compile(&program).expect("compile");
        let rt = StatefunRuntime::deploy(graph, cfg);
        load_accounts(&rt, n_keys, bytes, 0);
        let loaded = rt.timers().report();

        // Alternate reads and updates over the big-payload records.
        let payload = se_lang::Value::Bytes(vec![7u8; bytes]);
        for i in 0..events_per_size {
            let target = EntityRef::new("Account", key_name(i % n_keys));
            let result = if i % 2 == 0 {
                rt.call(target, "read", vec![])
            } else {
                rt.call(target, "update", vec![payload.clone()])
            };
            result.expect("op succeeds");
        }

        let report = since(&loaded, rt.timers().report());
        let total: Duration = report.iter().map(|(_, d, _)| *d).sum();
        for (component, dur, count) in &report {
            let share = dur.as_secs_f64() / total.as_secs_f64() * 100.0;
            let per_event = dur.as_secs_f64() * 1e6 / (*count as f64).max(1.0);
            println!(
                "| {kib} | {component} | {:.1} | {per_event:.2} | {share:.2} |",
                dur.as_secs_f64() * 1e6
            );
            json_rows.push(serde_json::json!({
                "state_kib": kib,
                "component": component,
                "total_us": dur.as_secs_f64() * 1e6,
                "per_event_us": per_event,
                "share_pct": share,
            }));
            if *component == "split_overhead" {
                worst_split_share = worst_split_share.max(share);
            }
        }
        rt.shutdown();
    }

    println!(
        "\nfunction splitting/instrumentation worst-case share: {worst_split_share:.3}% \
         (paper claims < 1%)"
    );
    if worst_split_share >= 1.0 {
        eprintln!("WARN: split overhead exceeded 1% — check calibration");
    }

    let _ = std::fs::create_dir_all("bench_results");
    if let Ok(mut f) = std::fs::File::create("bench_results/overhead.json") {
        let _ = writeln!(
            f,
            "{}",
            serde_json::to_string_pretty(&json_rows).expect("serialize")
        );
    }
}

/// The rows of `now` less what `before` had already counted: the timers
/// are cumulative over a deployment, so this is what the events between
/// the two reports cost.
fn since(
    before: &[(&'static str, Duration, u64)],
    now: Vec<(&'static str, Duration, u64)>,
) -> Vec<(&'static str, Duration, u64)> {
    now.into_iter()
        .map(|(component, total, count)| {
            let (t0, c0) = before
                .iter()
                .find(|(c, _, _)| *c == component)
                .map_or((Duration::ZERO, 0), |(_, t, c)| (*t, *c));
            (component, total - t0, count - c0)
        })
        .filter(|(_, _, count)| *count > 0)
        .collect()
}
