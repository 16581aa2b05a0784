//! `se-benchmark` — the raw-profile ledger benchmark.
//!
//! ```text
//! se-benchmark run [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--smoke]
//!                  [--out DIR]
//! se-benchmark selftest
//! se-benchmark compare <base set> <change set>
//! ```
//!
//! `run` measures one workload (all four, each in a process of its own,
//! without `--workload`), checks its output and prints every metric as
//! `name unit value`; the last line of standard output is the run's result
//! as one JSON object. See `README.md`.

mod compare;
mod driver;
mod probes;
mod procfs;
mod reference;
mod run;
mod selftest;
mod stats;
mod trace;
mod verify;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use serde_json::Value as Json;

use crate::procfs::Placement;
use crate::run::{RunArgs, RunResult};
use crate::workload::{Workload, WORKLOADS};

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

impl Metric {
    fn new(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_owned(),
            unit,
            value,
        }
    }
}

/// The benchmark's own directory: where `cargo run` says the manifest is,
/// else where it was when this binary was built.
fn home() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

const USAGE: &str = "usage: se-benchmark run [--workload W] [--seed S] [--seconds N] \
[--trace 0|1] [--smoke] [--out DIR]\n       se-benchmark selftest\n       \
se-benchmark compare <base set> <change set>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_command(&args[1..]),
        Some("selftest") => selftest::run(),
        Some("compare") => match &args[1..] {
            [base, change] => compare::run(&home(), Path::new(base), Path::new(change)),
            _ => Err(USAGE.to_owned()),
        },
        _ => Err(USAGE.to_owned()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

fn run_command(args: &[String]) -> Result<bool, String> {
    let mut workload = None;
    // 10 s is the `run_seconds` of `BENCHMARK.json`, which every baseline in
    // `README.md` was taken at.
    let (mut seed, mut seconds, mut traced, mut smoke) = (7u64, 10.0f64, false, false);
    let mut out = home().join("results");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(workload::by_name(name).ok_or_else(|| {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=60.0).contains(&seconds) {
                    return Err("--seconds must be between 1 and 60".to_owned());
                }
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => smoke = true,
            "--out" => out = PathBuf::from(value()?),
            _ => return Err(format!("unknown argument {flag:?}\n{USAGE}")),
        }
    }
    let Some(w) = workload else {
        return run_each_workload(args);
    };
    // A does-it-run check: 2 s phases and a tenth of the saturation count.
    // Its numbers are not comparable with a full run's, and `compare` skips
    // them.
    if smoke {
        seconds = 2.0;
    }

    workload::pin_environment(&out.join("obs"));
    let dir = out.join(format!(
        "{}-t{}-s{seed}{}",
        w.name,
        u8::from(traced),
        if smoke { "-smoke" } else { "" }
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let result = run::run(&RunArgs {
        workload: w,
        seed,
        seconds,
        traced,
        smoke,
        dir: dir.clone(),
        placement: Placement::split(),
    });
    let json = report(w, seed, seconds, traced, smoke, &result);
    std::fs::write(dir.join("result.json"), json.render_pretty())
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    check_declared(traced, &result)?;
    println!("{}", contract_line(traced, &result).render_compact());
    Ok(result.correct)
}

/// `run` without `--workload`: every workload in turn, each in a process of
/// its own, because what a run reads is kept per process — the peak resident
/// set is a high-water mark, the CPU split follows the main thread's
/// affinity, and `/proc/self/task` lists whatever an earlier deployment left
/// behind.
fn run_each_workload(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut all_correct = true;
    for w in &WORKLOADS {
        let status = std::process::Command::new(&exe)
            .arg("run")
            .args(args)
            .args(["--workload", w.name])
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        if !status.success() {
            eprintln!("{}: {status}", w.name);
            all_correct = false;
        }
    }
    Ok(all_correct)
}

/// The result line must carry exactly the metrics `BENCHMARK.json`
/// declares; a metric added or renamed on one side only is an error here,
/// not a surprise for whoever reads the file.
fn check_declared(traced: bool, r: &RunResult) -> Result<(), String> {
    let (end_to_end, per_layer) = compare::declared(&home())?;
    let (declared, measured) = if traced {
        (per_layer, &r.per_layer)
    } else {
        (end_to_end, &r.end_to_end)
    };
    let declared: Vec<String> = declared.into_iter().map(|m| m.name).collect();
    let measured: Vec<&str> = measured.iter().map(|m| m.name.as_str()).collect();
    let missing: Vec<&String> = declared
        .iter()
        .filter(|d| !measured.contains(&d.as_str()))
        .collect();
    let extra: Vec<&&str> = measured
        .iter()
        .filter(|m| !declared.iter().any(|d| d == *m))
        .collect();
    if missing.is_empty() && extra.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "BENCHMARK.json and the run disagree: declared but not measured {missing:?}, measured but not declared {extra:?}"
        ))
    }
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let fields = vec![
                    ("value".to_owned(), Json::Float(m.value)),
                    ("unit".to_owned(), Json::Str(m.unit.to_owned())),
                ];
                (m.name.clone(), Json::Obj(fields))
            })
            .collect(),
    )
}

/// Prints every metric as `name unit value` and returns what is stored as
/// `result.json`: everything measured, end-to-end and per-layer.
fn report(w: &Workload, seed: u64, seconds: f64, traced: bool, smoke: bool, r: &RunResult) -> Json {
    println!(
        "# {} seed {seed} seconds {seconds} trace {}{}",
        w.name,
        u8::from(traced),
        if smoke { " smoke" } else { "" }
    );
    for note in &r.notes {
        println!("# {note}");
    }
    for m in r.end_to_end.iter().chain(&r.per_layer) {
        println!("{} {} {}", m.name, m.unit, m.value);
    }
    Json::Obj(vec![
        ("workload".to_owned(), Json::Str(w.name.to_owned())),
        ("seed".to_owned(), Json::UInt(seed)),
        ("seconds".to_owned(), Json::Float(seconds)),
        ("trace".to_owned(), Json::Bool(traced)),
        ("smoke".to_owned(), Json::Bool(smoke)),
        ("correct".to_owned(), Json::Bool(r.correct)),
        ("attempted".to_owned(), Json::UInt(r.attempted)),
        ("failed".to_owned(), Json::UInt(r.failed)),
        ("end_to_end".to_owned(), metrics_json(&r.end_to_end)),
        ("per_layer".to_owned(), metrics_json(&r.per_layer)),
    ])
}

/// The result line the benchmark contract asks for: end-to-end metrics of
/// an untraced run, per-layer metrics of a traced one.
fn contract_line(traced: bool, r: &RunResult) -> Json {
    let metrics = if traced { &r.per_layer } else { &r.end_to_end };
    Json::Obj(vec![
        ("correct".to_owned(), Json::Bool(r.correct)),
        ("attempted".to_owned(), Json::UInt(r.attempted)),
        ("failed".to_owned(), Json::UInt(r.failed)),
        ("metrics".to_owned(), metrics_json(metrics)),
    ])
}
