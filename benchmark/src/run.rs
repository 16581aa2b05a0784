//! One run of one workload: set-up → warm-up → fixed-rate phase →
//! saturation phase → verify, and the metrics derived from it.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

use se_obs::{ObsMode, Stage};

use crate::driver::{run_closed_loop, run_fixed_rate, Clock, PhaseLog, Rec};
use crate::procfs::{self, IoSample, Placement, ThreadSample};
use crate::reference;
use crate::stats::{median, quantile_sorted, HistSnap};
use crate::trace::Spans;
use crate::workload::{
    set_up, Deployed, Engine, Op, OpStream, SetupTimes, Workload, KEYS, OUTSTANDING, VALUE_SIZE,
};
use crate::{probes, verify, Metric};

/// Windows of the fixed-rate phase: a host stall spoils one window, not the
/// run. `p50_us` is the median of the window medians.
const WINDOWS: usize = 5;
/// Chunks of the saturation phase, each a closed loop of its own;
/// `driver.sat_rps` is the median chunk's throughput.
const CHUNKS: usize = 5;
/// Set-ups of an untraced run: the measured deployment's and two more after
/// it; `setup_s` is the median one, its parts the `compiler.`/`core.` rows.
const SETUPS: usize = 3;
/// Share of the run length the traced run spends on its untraced baseline
/// (the denominator of `obs.overhead_pct`).
const BASELINE_SHARE: f64 = 0.4;

/// `comm` prefixes (the kernel keeps 15 bytes) of the engines' threads:
/// StateFlow's two groups, then StateFun's four.
const ENGINE_THREADS: [&str; 6] = [
    "stateflow-coord",
    "stateflow-worke",
    "statefun-task",
    "statefun-remote",
    "statefun-egress",
    "statefun-contro",
];

/// Stage histograms read from `rt.obs()`, in [`Snapshot::stages`] order.
const STAGES: [Stage; 8] = [
    Stage::BatchSeal,
    Stage::BatchExec,
    Stage::BatchDecide,
    Stage::BatchCommit,
    Stage::WalAppend,
    Stage::WalFsync,
    Stage::EpochCut,
    Stage::Invoke,
];
/// Counters read from `rt.obs()`, in [`Snapshot::counters`] order.
const COUNTERS: [&str; 5] = [
    "coord.batches",
    "coord.commits",
    "coord.aborts",
    "coord.snapshots",
    "statefun.invocations",
];

/// What to run.
pub struct RunArgs {
    /// The workload.
    pub workload: &'static Workload,
    /// Seed of the operation stream.
    pub seed: u64,
    /// Length of the fixed-rate phase, seconds; the warm-up is a tenth of
    /// it. A traced run halves both.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// Does-it-run check: a tenth of the workload's saturation count.
    pub smoke: bool,
    /// Directory this run's files go to.
    pub dir: PathBuf,
    /// Who runs where; split once per process, by the caller.
    pub placement: &'static Placement,
}

/// What a run found.
pub struct RunResult {
    /// Verify passed.
    pub correct: bool,
    /// Requests sent through `call_async` in the measured deployment.
    pub attempted: u64,
    /// Of those, how many errored, were refused or timed out.
    pub failed: u64,
    /// End-to-end metrics (untraced run only).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics: all of them in a traced run, the free ones
    /// (`/proc`, counters, driver) in an untraced run.
    pub per_layer: Vec<Metric>,
    /// Lines for the human reader: sample counts, verify problems.
    pub notes: Vec<String>,
}

/// Request counts of the phases.
#[derive(Clone, Copy)]
struct Plan {
    rate: f64,
    warm: usize,
    fixed: usize,
    sat: usize,
}

impl Plan {
    /// The saturation count is the workload's own whatever the run length
    /// (the engines retain every request, so memory, batch and abort counts
    /// compare across runs only at one count); a smoke run sends a tenth.
    fn new(w: &Workload, seconds: f64, smoke: bool) -> Plan {
        let warm_s = (seconds / 10.0).max(0.5);
        let sat = if smoke { w.sat_count / 10 } else { w.sat_count };
        Plan {
            rate: w.rate,
            warm: (w.rate * warm_s) as usize,
            fixed: (w.rate * seconds) as usize,
            sat: sat / CHUNKS * CHUNKS,
        }
    }

    fn total(&self) -> usize {
        self.warm + self.fixed + self.sat
    }
}

/// Everything readable from outside the engines at one instant.
struct Snapshot {
    threads: HashMap<u64, ThreadSample>,
    io: IoSample,
    host_ticks: (u64, u64),
    counters: Vec<u64>,
    stages: Vec<HistSnap>,
    timers: HashMap<&'static str, Duration>,
}

impl Snapshot {
    fn take(dep: &Deployed) -> Snapshot {
        let obs = dep.obs();
        Snapshot {
            threads: procfs::threads(),
            io: procfs::io(),
            host_ticks: procfs::host_ticks(),
            counters: COUNTERS.iter().map(|c| obs.counter(c).get()).collect(),
            stages: STAGES
                .iter()
                .map(|s| HistSnap::take(obs.stage_hist(*s)))
                .collect(),
            timers: dep
                .timers()
                .report()
                .into_iter()
                .map(|(name, total, _)| (name, total))
                .collect(),
        }
    }
}

/// The change between two snapshots.
struct Delta<'a> {
    before: &'a Snapshot,
    after: &'a Snapshot,
}

impl Delta<'_> {
    fn counter(&self, name: &str) -> f64 {
        let i = COUNTERS
            .iter()
            .position(|c| *c == name)
            .expect("listed counter");
        (self.after.counters[i] - self.before.counters[i]) as f64
    }

    fn stage_us(&self, stage: Stage, q: f64) -> f64 {
        let i = STAGES
            .iter()
            .position(|s| *s == stage)
            .expect("listed stage");
        self.after.stages[i].quantile_since(&self.before.stages[i], q) as f64 / 1e3
    }

    fn timer_us(&self, name: &str) -> f64 {
        let get = |s: &Snapshot| s.timers.get(name).copied().unwrap_or_default();
        get(self.after)
            .saturating_sub(get(self.before))
            .as_secs_f64()
            * 1e6
    }
}

/// The measured part of a deployment's life.
struct Measured {
    fixed: PhaseLog,
    sat: PhaseLog,
    /// Throughput of each chunk of the saturation phase, in order: completed
    /// requests per second from the chunk's first send to its last
    /// completion.
    chunk_rps: Vec<f64>,
    /// The reference round trip (see [`reference`]) before the first chunk
    /// and after every chunk, ns.
    roundtrips_ns: Vec<f64>,
    /// Records of every request in issue order (warm-up, fixed, saturation),
    /// aligned with the operation stream.
    all: Vec<Rec>,
    /// Updates completed in the two measured phases.
    updates: usize,
    snaps: [Snapshot; 3],
}

impl Measured {
    fn fixed_delta(&self) -> Delta<'_> {
        Delta {
            before: &self.snaps[0],
            after: &self.snaps[1],
        }
    }

    fn sat_delta(&self) -> Delta<'_> {
        Delta {
            before: &self.snaps[1],
            after: &self.snaps[2],
        }
    }

    fn whole_delta(&self) -> Delta<'_> {
        Delta {
            before: &self.snaps[0],
            after: &self.snaps[2],
        }
    }

    /// On-CPU µs per request of every thread except the generator over the
    /// whole saturation phase.
    fn sat_cpu_us_per_req(&self, generator: u64) -> f64 {
        let sat = self.sat_delta();
        let (_, engine) =
            procfs::group_deltas(&sat.before.threads, &sat.after.threads, generator, &[]);
        engine.run_ns as f64 / 1e3 / completed(&self.sat)
    }
}

/// Warm-up (discarded), fixed-rate phase and saturation phase against `dep`,
/// with a snapshot around each measured phase.
fn measure(
    dep: &Deployed,
    stream: &OpStream,
    plan: &Plan,
    clock: Clock,
    placement: &Placement,
) -> Measured {
    let rt = dep.rt();
    let mut ignore = |_: usize, _| {};
    let warm = run_fixed_rate(
        rt,
        clock,
        plan.rate,
        plan.warm,
        &|i| stream.invocation(i),
        &mut ignore,
    );
    let s0 = Snapshot::take(dep);
    let fixed = run_fixed_rate(
        rt,
        clock,
        plan.rate,
        plan.fixed,
        &|i| stream.invocation(plan.warm + i),
        &mut ignore,
    );
    let s1 = Snapshot::take(dep);
    // The reference's partner thread has exited by the time `s2` is taken,
    // so its CPU time is in no thread row; the reference's own side runs on
    // the generator's thread, which every row leaves out.
    let roundtrip = || placement.on_engine(reference::wake_roundtrip_ns);
    let chunk_count = CHUNKS.min(plan.sat);
    let mut roundtrips_ns = Vec::new();
    if chunk_count > 0 {
        roundtrips_ns.push(roundtrip());
    }
    let mut sat = PhaseLog::default();
    let mut chunk_rps = Vec::new();
    let chunk_len = plan.sat / CHUNKS;
    for _ in 0..chunk_count {
        let base = plan.warm + plan.fixed + sat.recs.len();
        let log = run_closed_loop(
            rt,
            clock,
            OUTSTANDING,
            chunk_len,
            &|i| stream.invocation(base + i),
            &mut ignore,
        );
        let span_ns = log.recs.iter().map(|r| r.done).max().unwrap_or(0)
            - log.recs.first().map_or(0, |r| r.issue);
        chunk_rps.push(completed(&log) * 1e9 / span_ns.max(1) as f64);
        roundtrips_ns.push(roundtrip());
        sat.recs.extend(log.recs);
        sat.first_error = sat.first_error.or(log.first_error);
    }
    let s2 = Snapshot::take(dep);
    let all = [&warm.recs[..], &fixed.recs[..], &sat.recs[..]].concat();
    let updates = (plan.warm..all.len())
        .filter(|&i| matches!(stream.ops[i], Op::Update { .. }) && all[i].succeeded())
        .count();
    Measured {
        fixed,
        sat,
        chunk_rps,
        roundtrips_ns,
        all,
        updates,
        snaps: [s0, s1, s2],
    }
}

/// Latency statistics of a fixed-rate phase.
struct FixedStats {
    /// Median of the window medians.
    p50_us: f64,
    /// The quietest window's median.
    p50_quiet_us: f64,
    p95_us: f64,
    p99_us: f64,
    p999_us: f64,
    samples_per_window: usize,
    window_p50s_us: Vec<f64>,
    window_p95s_us: Vec<f64>,
    window_p99s_us: Vec<f64>,
    late_p99_us: f64,
    submit_p50_us: f64,
    slo_miss_ratio: f64,
    achieved_rps: f64,
}

fn fixed_stats(log: &PhaseLog, limit_us: f64) -> FixedStats {
    let latency = |r: &Rec| r.done - r.due;
    let sorted = |it: &mut dyn Iterator<Item = u64>| {
        let mut v: Vec<u64> = it.collect();
        v.sort_unstable();
        v
    };
    let us = |ns: u64| ns as f64 / 1e3;
    let window_len = log.recs.len().div_ceil(WINDOWS).max(1);
    let (mut p50s, mut p95s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    for window in log.recs.chunks(window_len) {
        let lat = sorted(&mut window.iter().filter(|r| r.succeeded()).map(latency));
        if lat.is_empty() {
            continue;
        }
        p50s.push(us(quantile_sorted(&lat, 0.5)));
        p95s.push(us(quantile_sorted(&lat, 0.95)));
        p99s.push(us(quantile_sorted(&lat, 0.99)));
    }
    let all = sorted(&mut log.recs.iter().filter(|r| r.succeeded()).map(latency));
    let late = sorted(&mut log.recs.iter().map(|r| r.issue - r.due));
    let submit = sorted(&mut log.recs.iter().map(|r| r.submitted - r.issue));
    let within = all.partition_point(|&ns| us(ns) <= limit_us);
    let span_ns = match (log.recs.first(), log.recs.last()) {
        (Some(first), Some(last)) if log.recs.len() > 1 => last.issue - first.due,
        _ => 0,
    };
    FixedStats {
        p50_us: median(&p50s),
        p50_quiet_us: lowest(&p50s),
        p95_us: median(&p95s),
        p99_us: median(&p99s),
        window_p95s_us: p95s,
        window_p99s_us: p99s,
        window_p50s_us: p50s,
        p999_us: us(quantile_sorted(&all, 0.999)),
        samples_per_window: window_len.min(log.recs.len()),
        late_p99_us: us(quantile_sorted(&late, 0.99)),
        submit_p50_us: us(quantile_sorted(&submit, 0.5)),
        slo_miss_ratio: 1.0 - within as f64 / log.recs.len().max(1) as f64,
        achieved_rps: (log.recs.len().saturating_sub(1)) as f64 * 1e9 / span_ns.max(1) as f64,
    }
}

/// The smallest value; 0 for none (a phase in which nothing succeeded).
fn lowest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

fn completed(log: &PhaseLog) -> f64 {
    log.recs.iter().filter(|r| r.done != 0).count().max(1) as f64
}

/// Metrics that cost the engines nothing: `/proc` deltas, always-on
/// counters and timers, and the driver's own records. Both engines' rows are
/// always present; the threads of the one not deployed do not exist, so its
/// thread rows read 0 by themselves, and its timer rows are set to 0.
fn free_metrics(w: &Workload, m: &Measured, fs: &FixedStats, generator: u64) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut push = |name: &str, unit: &'static str, value: f64| {
        out.push(Metric::new(name, unit, value));
    };
    let (n_fixed, n_sat) = (completed(&m.fixed), completed(&m.sat));
    let (fixed, sat, whole) = (m.fixed_delta(), m.sat_delta(), m.whole_delta());
    let us = |ns: u64| ns as f64 / 1e3;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let on = |engine: Engine, v: f64| if w.engine == engine { v } else { 0.0 };

    push("driver.late_p99_us", "us", fs.late_p99_us);
    push("driver.submit_p50_us", "us", fs.submit_p50_us);
    push("driver.p50_quiet_us", "us", fs.p50_quiet_us);
    push("driver.p95_us", "us", fs.p95_us);
    push("driver.p99_us", "us", fs.p99_us);
    push("driver.p999_us", "us", fs.p999_us);
    push("driver.slo_miss_ratio", "ratio", fs.slo_miss_ratio);
    push("driver.achieved_rps", "1/s", fs.achieved_rps);
    push("driver.poll_gap_p99_us", "us", us(m.fixed.poll_gap_p99));
    let failed = m.all.iter().filter(|r| !r.succeeded()).count();
    push(
        "driver.fail_ratio",
        "ratio",
        ratio(failed as f64, m.all.len() as f64),
    );
    let (stolen, total) = (
        whole.after.host_ticks.0 - whole.before.host_ticks.0,
        whole.after.host_ticks.1 - whole.before.host_ticks.1,
    );
    push(
        "driver.host_steal_pct",
        "%",
        100.0 * ratio(stolen as f64, total as f64),
    );
    push(
        "driver.wake_roundtrip_us",
        "us",
        median(&m.roundtrips_ns) / 1e3,
    );
    push("driver.sat_rps", "1/s", median(&m.chunk_rps));
    push(
        "driver.sat_cpu_us_per_req",
        "us",
        m.sat_cpu_us_per_req(generator),
    );

    // CPU and run-queue rows come from the whole saturation phase (so the
    // CPU rows sum to `driver.sat_cpu_us_per_req`), wake-up rows from the whole
    // fixed-rate phase.
    let (cpu, other) = procfs::group_deltas(
        &sat.before.threads,
        &sat.after.threads,
        generator,
        &ENGINE_THREADS,
    );
    let (wake, _) = procfs::group_deltas(
        &fixed.before.threads,
        &fixed.after.threads,
        generator,
        &ENGINE_THREADS,
    );
    push("other.cpu_us_per_req", "us", us(other.run_ns) / n_sat);
    for (i, part) in ["coord", "worker"].into_iter().enumerate() {
        push(
            &format!("stateflow.{part}_cpu_us_per_req"),
            "us",
            us(cpu[i].run_ns) / n_sat,
        );
        push(
            &format!("stateflow.{part}_runq_us_per_req"),
            "us",
            us(cpu[i].runq_ns) / n_sat,
        );
        push(
            &format!("stateflow.{part}_wakeups_per_req"),
            "1/req",
            wake[i].wakeups as f64 / n_fixed,
        );
    }
    let (commits, aborts) = (sat.counter("coord.commits"), sat.counter("coord.aborts"));
    push(
        "stateflow.txn_per_batch",
        "count",
        ratio(commits, sat.counter("coord.batches")),
    );
    for (name, timer) in [
        ("function_execution", "function_execution"),
        ("state_store", "state_store"),
        ("write_buffer", "state_write_buffer"),
    ] {
        let v = on(Engine::Stateflow, sat.timer_us(timer) / n_sat);
        push(&format!("stateflow.{name}_us_per_req"), "us", v);
    }
    push("aria.abort_ratio", "ratio", ratio(aborts, commits + aborts));

    let fun = 2..ENGINE_THREADS.len();
    for (i, part) in fun.clone().zip(["task", "remote", "egress", "control"]) {
        push(
            &format!("statefun.{part}_cpu_us_per_req"),
            "us",
            us(cpu[i].run_ns) / n_sat,
        );
    }
    let runq: u64 = cpu[fun.clone()].iter().map(|g| g.runq_ns).sum();
    let wakeups: u64 = wake[fun].iter().map(|g| g.wakeups).sum();
    push("statefun.runq_us_per_req", "us", us(runq) / n_sat);
    push(
        "statefun.wakeups_per_req",
        "1/req",
        wakeups as f64 / n_fixed,
    );
    push(
        "statefun.invocations_per_req",
        "count",
        sat.counter("statefun.invocations") / n_sat,
    );
    let serde = sat.timer_us("state_deserialization") + sat.timer_us("state_serialization");
    push(
        "statefun.state_serde_us_per_req",
        "us",
        on(Engine::Statefun, serde / n_sat),
    );
    for name in ["function_execution", "state_storage"] {
        let v = on(Engine::Statefun, sat.timer_us(name) / n_sat);
        push(&format!("statefun.{name}_us_per_req"), "us", v);
    }

    push(
        "dataflow.epoch_cuts",
        "count",
        fixed.counter("coord.snapshots"),
    );
    let io = |f: fn(&IoSample) -> u64| (f(&whole.after.io) - f(&whole.before.io)) as f64;
    push(
        "dataflow.write_bytes_per_user_byte",
        "ratio",
        ratio(io(|s| s.write_bytes), (m.updates * VALUE_SIZE) as f64),
    );
    push(
        "dataflow.write_syscalls_per_commit",
        "count",
        ratio(io(|s| s.write_calls), whole.counter("coord.commits")),
    );
    out
}

/// Metrics that need `obs.mode = Metrics`: the engines' stage histograms
/// over the fixed-rate phase, and what of the traced `p50_us` they leave
/// unattributed.
fn stage_metrics(w: &Workload, m: &Measured, fs: &FixedStats) -> Vec<Metric> {
    let fixed = m.fixed_delta();
    let mut out = Vec::new();
    let mut push = |name: &str, unit: &'static str, value: f64| {
        out.push(Metric::new(name, unit, value));
    };
    let on = |engine: Engine, v: f64| if w.engine == engine { v } else { 0.0 };

    let mut covered = 0.0;
    for (name, stage) in [
        ("seal", Stage::BatchSeal),
        ("exec", Stage::BatchExec),
        ("decide", Stage::BatchDecide),
        ("commit", Stage::BatchCommit),
    ] {
        let p50 = fixed.stage_us(stage, 0.5);
        covered += p50;
        push(&format!("stateflow.batch_{name}_p50_us"), "us", p50);
    }
    push(
        "stateflow.batch_commit_p99_us",
        "us",
        fixed.stage_us(Stage::BatchCommit, 0.99),
    );
    push(
        "stateflow.unattributed_p50_us",
        "us",
        on(Engine::Stateflow, fs.p50_us - covered),
    );
    let invoke_p50 = fixed.stage_us(Stage::Invoke, 0.5);
    push("statefun.invoke_p50_us", "us", invoke_p50);
    push(
        "statefun.invoke_p99_us",
        "us",
        fixed.stage_us(Stage::Invoke, 0.99),
    );
    push(
        "statefun.unattributed_p50_us",
        "us",
        on(Engine::Statefun, fs.p50_us - invoke_p50),
    );
    push(
        "dataflow.wal_append_p50_us",
        "us",
        fixed.stage_us(Stage::WalAppend, 0.5),
    );
    push(
        "dataflow.wal_fsync_p99_us",
        "us",
        fixed.stage_us(Stage::WalFsync, 0.99),
    );
    push(
        "dataflow.epoch_cut_p50_ms",
        "ms",
        fixed.stage_us(Stage::EpochCut, 0.5) / 1e3,
    );
    push(
        "dataflow.epoch_cut_p99_ms",
        "ms",
        fixed.stage_us(Stage::EpochCut, 0.99) / 1e3,
    );
    out
}

fn setup_metrics(t: &SetupTimes) -> Vec<Metric> {
    vec![
        Metric::new("compiler.compile_ms", "ms", t.compile_s * 1e3),
        Metric::new("core.deploy_ms", "ms", t.deploy_s * 1e3),
        Metric::new("core.load_ms", "ms", t.load_s * 1e3),
    ]
}

/// Final state against the oracle, every request accounted for and, for the
/// durable workload, recovery from disk. Shuts the deployment down and
/// returns whether all of it held, with the metrics only readable now.
fn verify_and_stop(
    w: &Workload,
    dep: Deployed,
    stream: &OpStream,
    m: &Measured,
    wal_dir: &Path,
    clock: Clock,
    notes: &mut Vec<String>,
) -> (bool, Vec<Metric>) {
    let mut problems = Vec::new();
    let pending = m.all.iter().filter(|r| r.done == 0).count();
    if pending > 0 {
        problems.push(format!("{pending} requests never completed"));
    }
    for log in [&m.fixed, &m.sat] {
        if let Some(e) = &log.first_error {
            problems.push(format!("request failed: {e}"));
        }
    }
    match verify::read_back(dep.rt(), clock) {
        Ok(actual) => {
            let expected = verify::oracle(stream, m.all.len());
            let verdict = verify::check(w, &expected, &actual, stream, &m.all);
            notes.push(format!(
                "verify: {KEYS} keys against a Local replay of {} operations; {} keys settled by an overlapping update",
                m.all.len(),
                verdict.reordered_keys
            ));
            problems.extend(verdict.problems);
        }
        Err(e) => problems.push(e),
    }
    dep.rt().shutdown();
    let vm_compile_ms = dep.obs().stage_hist(Stage::VmCompile).sum() as f64 / 1e6;
    let trace_dropped = dep.obs().counter("obs.trace_dropped").get() as f64;
    drop(dep);

    let (mut disk_bytes_per_live_byte, mut recover_ms) = (0.0, 0.0);
    if w.durable {
        match verify::check_durable(wal_dir) {
            Ok(report) => {
                disk_bytes_per_live_byte = report.dir_bytes as f64 / (KEYS * VALUE_SIZE) as f64;
                recover_ms = report.recover_ms;
            }
            Err(e) => problems.push(e),
        }
    }
    let after_stop = vec![
        Metric::new("vm.compile_ms", "ms", vm_compile_ms),
        Metric::new("obs.trace_dropped", "count", trace_dropped),
        Metric::new(
            "dataflow.disk_bytes_per_live_byte",
            "ratio",
            disk_bytes_per_live_byte,
        ),
        Metric::new("dataflow.recover_ms", "ms", recover_ms),
    ];
    for p in &problems {
        notes.push(format!("VERIFY FAILED: {p}"));
    }
    (problems.is_empty(), after_stop)
}

fn fresh_dir(dir: &Path) -> PathBuf {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create directory under the results directory");
    dir.to_path_buf()
}

/// Runs the workload once and derives its metrics.
pub fn run(args: &RunArgs) -> RunResult {
    let w = args.workload;
    let placement = args.placement;
    let clock = Clock::start();
    let generator = procfs::current_tid();
    let mut spans = Spans::new(args.traced);
    let mut notes = Vec::new();
    // A traced run fits two deployments and the probe pass into the time of
    // an untraced one by halving its fixed-rate phase.
    let seconds = if args.traced {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plan = Plan::new(w, seconds, args.smoke);
    let stream = OpStream::generate(w, args.seed, plan.total());
    let wal_root = args.dir.join("wal");

    // Traced run: first a short untraced deployment, whose `p50_us` is the
    // base of `obs.overhead_pct`.
    let baseline_p50 = args.traced.then(|| {
        let no_spans = &mut Spans::new(false);
        let (dep, _) = set_up(
            w,
            ObsMode::Off,
            &fresh_dir(&wal_root),
            placement,
            clock,
            no_spans,
        );
        let short = Plan {
            fixed: (plan.fixed as f64 * BASELINE_SHARE) as usize,
            sat: 0,
            ..plan
        };
        let m = measure(&dep, &stream, &short, clock, placement);
        dep.rt().shutdown();
        fixed_stats(&m.fixed, w.p99_limit_us).p50_us
    });
    let mode = if args.traced {
        ObsMode::Metrics
    } else {
        ObsMode::Off
    };
    let (dep, setup) = set_up(w, mode, &fresh_dir(&wal_root), placement, clock, &mut spans);

    let m = measure(&dep, &stream, &plan, clock, placement);
    // Before verify, whose oracle and read-back are the benchmark's memory.
    let peak_rss_mib = procfs::peak_rss_mib();
    let fs = fixed_stats(&m.fixed, w.p99_limit_us);
    spans.push_requests(&m.fixed.recs);
    let mut per_layer = free_metrics(w, &m, &fs, generator);
    notes.push(format!(
        "{} of {} available; {} loader threads",
        placement.describe(),
        placement.cpus(),
        placement.cpus()
    ));
    notes.push(format!(
        "fixed-rate phase: {} requests at {} rps, {} samples per window, {} windows; saturation phase: {} requests, {OUTSTANDING} outstanding",
        m.fixed.recs.len(),
        w.rate,
        fs.samples_per_window,
        WINDOWS,
        m.sat.recs.len()
    ));
    notes.push(format!(
        "window p50s {:.0?} us, p95s {:.0?} us, p99s {:.0?} us",
        fs.window_p50s_us, fs.window_p95s_us, fs.window_p99s_us
    ));
    notes.push(format!(
        "chunks {:.0?} rps; reference round trips {:.2?} us",
        m.chunk_rps,
        m.roundtrips_ns
            .iter()
            .map(|ns| ns / 1e3)
            .collect::<Vec<_>>()
    ));

    let (correct, after_stop) = verify_and_stop(w, dep, &stream, &m, &wal_root, clock, &mut notes);

    // Full untraced run: set up twice more and shut down at once. They come after
    // the measured deployment so that it runs in a process nothing else has
    // run in, as in a traced run.
    let mut setups = vec![setup];
    while !args.traced && !args.smoke && setups.len() < SETUPS {
        let (dep, times) = set_up(w, mode, &fresh_dir(&wal_root), placement, clock, &mut spans);
        dep.rt().shutdown();
        setups.push(times);
    }
    let _ = std::fs::remove_dir_all(&wal_root);
    notes.push(format!(
        "set-ups {:.3?} s",
        setups.iter().map(SetupTimes::total_s).collect::<Vec<_>>()
    ));
    setups.sort_by(|a, b| a.total_s().total_cmp(&b.total_s()));
    let setup = setups[setups.len() / 2];
    per_layer.extend(setup_metrics(&setup));

    let mut end_to_end = Vec::new();
    if args.traced {
        per_layer.extend(stage_metrics(w, &m, &fs));
        per_layer.extend(after_stop);
        let base = baseline_p50.unwrap_or(fs.p50_us);
        per_layer.push(Metric::new(
            "obs.overhead_pct",
            "%",
            (fs.p50_us / base - 1.0) * 100.0,
        ));
        per_layer.extend(placement.on_engine(|| probes::run_all(&stream, clock, &mut spans)));
        if let Err(e) = spans.write(&args.dir.join("trace.jsonl")) {
            notes.push(format!("could not write trace.jsonl: {e}"));
        }
    } else {
        end_to_end = vec![
            Metric::new("p50_us", "us", fs.p50_us),
            Metric::new("setup_s", "s", setup.total_s()),
            Metric::new("peak_rss_mb", "MiB", peak_rss_mib),
        ];
    }
    RunResult {
        correct,
        attempted: m.all.len() as u64,
        failed: m.all.iter().filter(|r| !r.succeeded()).count() as u64,
        end_to_end,
        per_layer,
        notes,
    }
}
