//! Shared harness utilities for the figure/table benchmarks.
//!
//! Every bench target regenerates one artifact of the paper's evaluation
//! (see BENCH.md). Absolute numbers depend on the simulated-network
//! calibration below; the *shapes* — who wins, by roughly what factor, where
//! saturation starts — are what BENCH.md records.
//!
//! Environment knobs:
//!
//! * `SE_TIME_SCALE` — multiply every simulated duration (default **1.0**).
//!   Smaller values speed wall-clock time but let OS scheduling noise
//!   (which does not scale) distort the small simulated delays; keep ≥ 0.5
//!   for publishable numbers.
//! * `SE_REQUESTS` — requests per Figure-3 cell (default 1200).
//! * `SE_FIG4_REQUESTS` — requests per Figure-4 point (default 2000).
//! * `SE_KEYS` — YCSB key-space size (default 1000).

use std::io::Write as _;
use std::time::Duration;

use serde::Serialize;

use se_core::{NetConfig, StateflowConfig, StatefunConfig};

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The global time scale for benches.
pub fn time_scale() -> f64 {
    env_f64("SE_TIME_SCALE", 1.0)
}

/// Requests per Figure-3 cell.
pub fn fig3_requests() -> usize {
    env_usize("SE_REQUESTS", 600)
}

/// Requests per Figure-4 point.
pub fn fig4_requests() -> usize {
    env_usize("SE_FIG4_REQUESTS", 1500)
}

/// YCSB key-space size ("1000 records" scale).
pub fn key_count() -> usize {
    env_usize("SE_KEYS", 1000)
}

/// The calibrated simulated network for benchmark runs.
///
/// Calibration rationale (paper §3–4): a Kafka produce/consume hop costs a
/// few ms; the remote-function HTTP hop slightly less; internal channels an
/// order of magnitude less. StateFun pays broker round trips on ingress,
/// loopback and egress plus remote-runtime round trips per function;
/// StateFlow pays internal hops plus its batch interval.
pub fn bench_net() -> NetConfig {
    NetConfig {
        broker_hop: Duration::from_micros(8_000),
        remote_fn_hop: Duration::from_micros(2_000),
        f2f_hop: Duration::from_micros(1_000),
        per_kib: Duration::from_micros(15),
        time_scale: time_scale(),
    }
}

/// StateFun deployment for benches: 3 partition tasks + 3 remote workers
/// (the paper's half/half split of 6 system cores), no checkpoints (lowest
/// latency, as the paper's latency figures imply).
pub fn statefun_bench_config() -> StatefunConfig {
    StatefunConfig {
        partitions: 3,
        remote_workers: 3,
        net: bench_net(),
        service_time: Duration::from_micros(900),
        obs: se_obs::ObsConfig::from_env("statefun-bench"),
        ..StatefunConfig::default()
    }
}

/// StateFlow deployment for benches: 1 coordinator + 5 workers (the paper's
/// split of 6 system cores), 10 ms batches, snapshots off during
/// measurement.
pub fn stateflow_bench_config() -> StateflowConfig {
    StateflowConfig {
        workers: 5,
        net: bench_net(),
        batch_interval: Duration::from_millis(10).mul_f64(time_scale()),
        snapshot_every_batches: 0,
        service_time: Duration::from_micros(300),
        obs: se_obs::ObsConfig::from_env("stateflow-bench"),
        ..StateflowConfig::default()
    }
}

/// One labeled measurement row, serialized into the bench report JSON.
///
/// Every bench target emits this exact schema — the CI artifact merge step
/// keys on it. `bench` and `commit` are stamped by [`emit`]; `params`
/// carries the sweep coordinates (workers, depth, …) so a row is
/// interpretable without parsing its label.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Bench target name (e.g. "pipeline_sweep"); stamped by [`emit`].
    pub bench: String,
    /// Row label (e.g. "A-zipfian"), unique within one bench's output.
    pub label: String,
    /// System name.
    pub system: String,
    /// Sweep coordinates for this cell, as stable key → value strings.
    pub params: std::collections::BTreeMap<String, String>,
    /// Offered load, requests/s.
    pub rps: f64,
    /// Mean latency, ms.
    pub mean_ms: f64,
    /// Median latency, ms.
    pub p50_ms: f64,
    /// 99th-percentile latency, ms.
    pub p99_ms: f64,
    /// Completion throughput, requests per second of un-scaled time (issue
    /// phase plus drain) — the metric for saturation/contention cells.
    pub tput_rps: f64,
    /// Samples measured.
    pub count: usize,
    /// Errored requests.
    pub errors: usize,
    /// p99 WAL fsync, ms of wall-clock time (`stage.wal_fsync` histogram).
    /// 0 for non-durable runs or SE_OBS=off.
    pub fsync_p99_ms: f64,
    /// `git rev-parse --short HEAD` at emit time; stamped by [`emit`].
    pub commit: String,
}

impl Row {
    /// Builds a row from a driver report.
    pub fn from_report(
        label: impl Into<String>,
        system: impl Into<String>,
        rps: f64,
        report: &se_workloads::RunReport,
    ) -> Self {
        Self {
            bench: String::new(),
            label: label.into(),
            system: system.into(),
            params: Default::default(),
            rps,
            mean_ms: ms(report.latency.mean),
            p50_ms: ms(report.latency.p50),
            p99_ms: ms(report.latency.p99),
            tput_rps: report.throughput_rps(),
            count: report.latency.count,
            errors: report.errors,
            fsync_p99_ms: 0.0,
            commit: String::new(),
        }
    }

    /// Attaches one sweep coordinate (builder-style).
    pub fn with_param(mut self, key: impl Into<String>, value: impl ToString) -> Self {
        self.params.insert(key.into(), value.to_string());
        self
    }

    /// Fills the fsync column from a deployment's `se-obs` registry
    /// (builder-style). The wall-clock stage timing is *not* time-scaled,
    /// unlike the request-latency columns, and stays 0 when the run was
    /// started with SE_OBS=off.
    pub fn with_obs(mut self, obs: &se_obs::Obs) -> Self {
        let h = obs.histogram("stage.wal_fsync");
        if h.count() > 0 {
            self.fsync_p99_ms = h.value_at(0.99) as f64 / 1e6;
        }
        self
    }
}

/// The workspace HEAD commit (short sha), or "unknown" outside a git
/// checkout. `SE_COMMIT` overrides — CI stamps the exact sha it checked out.
pub fn commit_sha() -> String {
    if let Ok(sha) = std::env::var("SE_COMMIT") {
        let sha = sha.trim().to_string();
        if !sha.is_empty() {
            return sha;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Prints a markdown table of rows and writes them as JSON under
/// `bench_results/<name>.json` for BENCH.md and the CI artifacts.
/// Stamps the bench name and commit sha into every row on the way out.
pub fn emit(name: &str, title: &str, rows: &[Row]) {
    let sha = commit_sha();
    let rows: Vec<Row> = rows
        .iter()
        .map(|r| {
            let mut r = r.clone();
            r.bench = name.to_string();
            r.commit = sha.clone();
            r
        })
        .collect();
    println!("\n## {title}\n");
    println!(
        "| label | system | offered rps | mean ms | p50 ms | p99 ms | tput rps | n | errors \
         | fsync p99 ms |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|");
    for r in &rows {
        println!(
            "| {} | {} | {:.0} | {:.2} | {:.2} | {:.2} | {:.0} | {} | {} | {:.2} |",
            r.label,
            r.system,
            r.rps,
            r.mean_ms,
            r.p50_ms,
            r.p99_ms,
            r.tput_rps,
            r.count,
            r.errors,
            r.fsync_p99_ms
        );
    }
    let dir = std::path::Path::new("bench_results");
    let _ = std::fs::create_dir_all(dir);
    if let Ok(mut f) = std::fs::File::create(dir.join(format!("{name}.json"))) {
        let _ = writeln!(
            f,
            "{}",
            serde_json::to_string_pretty(&rows).expect("serialize rows")
        );
    }
}

/// Formats a duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
