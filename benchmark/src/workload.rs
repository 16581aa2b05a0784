//! The four workloads, the raw measurement profile, and set-up.
//!
//! Raw profile: every simulated cost the public configs expose is zero —
//! network hops, per-KiB cost, service burns, batch timers — so a number
//! here is what this code costs, not what the simulation is configured to
//! cost. Configs are built by struct update from `Default`, assigning only
//! the fields listed in `README.md` ("API surface").

use std::path::Path;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use se_core::{
    CheckpointMode, DurabilityMode, FsyncPolicy, NetConfig, StateflowConfig, StateflowRuntime,
    StatefunConfig, StatefunRuntime,
};
use se_dataflow::{ComponentTimers, EntityRuntime};
use se_lang::{EntityRef, Value};
use se_obs::{Obs, ObsMode};
use se_workloads::{key_name, ycsb_program, Distribution, OpGenerator, Operation, WorkloadSpec};

use crate::driver::{Clock, Invocation};
use crate::procfs::Placement;
use crate::trace::Spans;

/// Records loaded before every run.
pub const KEYS: usize = 10_000;
/// Payload bytes of a record and of every update.
pub const VALUE_SIZE: usize = 1024;
/// Starting balance; large enough that no generated transfer can overdraw,
/// so transfers commute and no operation fails.
pub const BALANCE: i64 = 1_000_000;
/// Requests outstanding in the saturation phase.
pub const OUTSTANDING: usize = 64;
/// Partition threads per engine (StateFlow workers; StateFun partition
/// tasks and remote-function workers): the host has 2 vCPUs.
pub const PARTITIONS: usize = 2;
/// Durable workload: an epoch cut every this many batches.
pub const SNAPSHOT_EVERY_BATCHES: u64 = 256;
/// Durable workload: a full base snapshot every this many cuts.
pub const FULL_SNAPSHOT_EVERY: u64 = 4;

/// Which engine a workload deploys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `se-stateflow`.
    Stateflow,
    /// `se-statefun`.
    Statefun,
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Engine under test.
    pub engine: Engine,
    /// Operation mix.
    pub spec: WorkloadSpec,
    /// Key popularity.
    pub dist: Distribution,
    /// Requests per second of the fixed-rate phase.
    pub rate: f64,
    /// Requests of the saturation phase, whatever the run length.
    pub sat_count: usize,
    /// WAL + snapshots under the state.
    pub durable: bool,
    /// Latency limit on the 99th percentile, µs.
    pub p99_limit_us: f64,
}

/// The workloads, in the order `run` executes them. Why each exists is
/// recorded in `BENCHMARK.json` and `README.md`.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "point_uniform",
        engine: Engine::Stateflow,
        spec: WorkloadSpec::A,
        dist: Distribution::Uniform,
        rate: 5_000.0,
        sat_count: 400_000,
        durable: false,
        p99_limit_us: 5_000.0,
    },
    Workload {
        name: "transfer_zipfian",
        engine: Engine::Stateflow,
        spec: WorkloadSpec::T,
        dist: Distribution::Zipfian,
        rate: 10_000.0,
        sat_count: 150_000,
        durable: false,
        p99_limit_us: 5_000.0,
    },
    Workload {
        name: "durable_update",
        engine: Engine::Stateflow,
        spec: WorkloadSpec::A,
        dist: Distribution::Uniform,
        rate: 5_000.0,
        sat_count: 300_000,
        durable: true,
        p99_limit_us: 100_000.0,
    },
    Workload {
        name: "statefun_point",
        engine: Engine::Statefun,
        spec: WorkloadSpec::A,
        dist: Distribution::Uniform,
        rate: 5_000.0,
        // StateFun's CPU per request nearly doubles once ≈ 270 000 requests
        // are retained in its broker (a finding, see README.md); the count
        // keeps every chunk of the phase on the near side of that cliff.
        sat_count: 160_000,
        durable: false,
        p99_limit_us: 5_000.0,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A generated operation, 16 bytes: the 1 KiB payload of an update is one
/// byte repeated, materialised when the request is sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `read()`.
    Read { key: u32 },
    /// `update(payload)`, payload = `fill` × [`VALUE_SIZE`].
    Update { key: u32, fill: u8 },
    /// `transfer(to, amount)`.
    Transfer { from: u32, to: u32, amount: i64 },
}

/// Everything the program will be sent, generated from the seed before any
/// clock starts.
pub struct OpStream {
    /// The operations, in issue order.
    pub ops: Vec<Op>,
    refs: Vec<EntityRef>,
}

impl OpStream {
    /// Draws `count` operations of `w`'s mix from `seed`.
    pub fn generate(w: &Workload, seed: u64, count: usize) -> OpStream {
        let mut rng = StdRng::seed_from_u64(seed);
        // Payload size 1: the generator's payload is one random byte
        // repeated, and only that byte is kept.
        let mut gen = OpGenerator::new(w.spec, w.dist.chooser(KEYS), 1);
        let ops = (0..count)
            .map(|_| match gen.next_op(&mut rng) {
                Operation::Read { key } => Op::Read { key: key as u32 },
                Operation::Update { key, value } => Op::Update {
                    key: key as u32,
                    fill: value[0],
                },
                Operation::Transfer { from, to, amount } => Op::Transfer {
                    from: from as u32,
                    to: to as u32,
                    amount,
                },
                Operation::Spin { .. } => unreachable!("no benchmark mix contains spins"),
            })
            .collect();
        OpStream {
            ops,
            refs: account_refs(KEYS),
        }
    }

    /// The `call_async` arguments of operation `i`.
    pub fn invocation(&self, i: usize) -> Invocation {
        match self.ops[i] {
            Op::Read { key } => (self.refs[key as usize], "read", vec![]),
            Op::Update { key, fill } => (
                self.refs[key as usize],
                "update",
                vec![Value::Bytes(vec![fill; VALUE_SIZE])],
            ),
            Op::Transfer { from, to, amount } => (
                self.refs[from as usize],
                "transfer",
                vec![Value::Ref(self.refs[to as usize]), Value::Int(amount)],
            ),
        }
    }
}

/// References to the first `n` accounts.
pub fn account_refs(n: usize) -> Vec<EntityRef> {
    (0..n)
        .map(|i| EntityRef::new("Account", key_name(i)))
        .collect()
}

/// Initial attributes of every account.
pub fn account_init() -> Vec<(String, Value)> {
    vec![
        ("balance".to_string(), Value::Int(BALANCE)),
        ("data".to_string(), Value::Bytes(vec![0u8; VALUE_SIZE])),
    ]
}

/// Pins the measured-fast execution path through the process environment
/// (read by the configs' `Default`), not through struct fields, so a later
/// change may flip those defaults or delete the knobs without breaking this
/// build or showing a false gain. Also routes engine `se-obs` dumps into
/// the benchmark's own directory. Call before any thread is spawned.
pub fn pin_environment(obs_dir: &Path) {
    std::env::set_var("SE_PIPELINE_DEPTH", "4");
    std::env::set_var("SE_EXEC_BACKEND", "vm");
    std::env::set_var("SE_EXEC_THREADS", "1");
    std::env::set_var("SE_OBS_DIR", obs_dir);
    for unset in [
        "SE_SERVICE_SLEEP",
        "SE_OBS",
        "SE_OBS_SNAPSHOT_MS",
        "SE_DURABILITY",
        "SE_VM_OPT",
    ] {
        std::env::remove_var(unset);
    }
}

fn raw_net() -> NetConfig {
    NetConfig {
        broker_hop: Duration::ZERO,
        remote_fn_hop: Duration::ZERO,
        f2f_hop: Duration::ZERO,
        per_kib: Duration::ZERO,
        time_scale: 1.0,
    }
}

/// A deployed engine, with the accessors the trait object hides.
pub enum Deployed {
    /// StateFlow.
    Stateflow(StateflowRuntime),
    /// StateFun.
    Statefun(StatefunRuntime),
}

impl Deployed {
    /// The client API.
    pub fn rt(&self) -> &dyn EntityRuntime {
        match self {
            Deployed::Stateflow(rt) => rt,
            Deployed::Statefun(rt) => rt,
        }
    }

    /// Counters and stage histograms.
    pub fn obs(&self) -> &Obs {
        match self {
            Deployed::Stateflow(rt) => rt.obs(),
            Deployed::Statefun(rt) => rt.obs(),
        }
    }

    /// Per-component timers.
    pub fn timers(&self) -> &ComponentTimers {
        match self {
            Deployed::Stateflow(rt) => rt.timers(),
            Deployed::Statefun(rt) => rt.timers(),
        }
    }
}

/// Durations of the three parts of one set-up, seconds.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// `se_core::compile` of the YCSB program.
    pub compile_s: f64,
    /// `deploy` of the compiled graph.
    pub deploy_s: f64,
    /// Creating [`KEYS`] accounts.
    pub load_s: f64,
}

impl SetupTimes {
    /// Compile + deploy + load.
    pub fn total_s(&self) -> f64 {
        self.compile_s + self.deploy_s + self.load_s
    }
}

/// Compiles the YCSB program, deploys it as `w` prescribes and loads the
/// keys, timing each part as a child span of `setup`. `wal_dir` is used by
/// the durable workload only and must be empty.
pub fn set_up(
    w: &Workload,
    mode: ObsMode,
    wal_dir: &Path,
    placement: &Placement,
    clock: Clock,
    spans: &mut Spans,
) -> (Deployed, SetupTimes) {
    let t0 = clock.now();
    let graph = se_core::compile(&ycsb_program()).expect("the YCSB program compiles");
    let t1 = clock.now();
    let deployed = placement.on_engine(|| match w.engine {
        Engine::Stateflow => {
            let mut cfg = StateflowConfig {
                workers: PARTITIONS,
                net: raw_net(),
                service_time: Duration::ZERO,
                batch_interval: Duration::ZERO,
                max_batch: 512,
                snapshot_every_batches: if w.durable { SNAPSHOT_EVERY_BATCHES } else { 0 },
                ..StateflowConfig::default()
            };
            cfg.obs.mode = mode;
            cfg.durability.mode = DurabilityMode::Off;
            if w.durable {
                cfg.durability.mode = DurabilityMode::Wal;
                cfg.durability.dir = Some(wal_dir.to_path_buf());
                cfg.durability.fsync = FsyncPolicy::OnEpoch;
                cfg.durability.full_snapshot_every = FULL_SNAPSHOT_EVERY;
            }
            Deployed::Stateflow(StateflowRuntime::deploy(graph, cfg))
        }
        Engine::Statefun => {
            let mut cfg = StatefunConfig {
                partitions: PARTITIONS,
                remote_workers: PARTITIONS,
                net: raw_net(),
                service_time: Duration::ZERO,
                checkpoint: CheckpointMode::None,
                ..StatefunConfig::default()
            };
            cfg.obs.mode = mode;
            Deployed::Statefun(StatefunRuntime::deploy(graph, cfg))
        }
    });
    let t2 = clock.now();
    load_accounts(deployed.rt(), placement.cpus());
    let t3 = clock.now();

    let setup = spans.push("setup", t0, t3, None);
    spans.push("compile", t0, t1, Some(setup));
    spans.push("deploy", t1, t2, Some(setup));
    spans.push("load", t2, t3, Some(setup));
    let secs = |a: u64, b: u64| (b - a) as f64 / 1e9;
    (
        deployed,
        SetupTimes {
            compile_s: secs(t0, t1),
            deploy_s: secs(t1, t2),
            load_s: secs(t2, t3),
        },
    )
}

/// Creates the accounts with blocking `create` calls from `threads` (at most
/// `nproc`) threads; `se_workloads::load_accounts` uses 16, which on a
/// 2-vCPU host measures the scheduler.
pub fn load_accounts(rt: &dyn EntityRuntime, threads: usize) {
    std::thread::scope(|scope| {
        let loaders: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    for i in (t..KEYS).step_by(threads) {
                        rt.create("Account", &key_name(i), account_init())
                            .expect("create account");
                    }
                })
            })
            .collect();
        // Keep the client CPU out of the idle loop, as the generator does
        // in the measured phases (see `README.md`, "CPU placement").
        while !loaders.iter().all(|l| l.is_finished()) {
            std::thread::yield_now();
        }
    });
}
