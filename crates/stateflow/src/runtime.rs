//! Deployment and client API of the StateFlow runtime.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use se_dataflow::{
    delay_channel, ComponentTimers, DelaySender, EntityRuntime, ReplayableSource,
    ResponseCompleter, ResponseWaiter, SnapshotStore, SourceReader, StateStore,
};
use se_ir::{DataflowGraph, Invocation, InvocationKind, RequestId, VersionRegistry};
use se_lang::{EntityRef, LangError, Value};

use crate::config::{DurabilityMode, StateflowConfig};
use crate::coordinator::{CoordStats, Coordinator};
use crate::msg::{ClientOp, ClientRequest, CoordMsg, WorkerMsg};
use crate::worker::Worker;

/// The newest deployed version, kept by the runtime as the baseline the
/// *next* [`StateflowRuntime::redeploy`] compiles against: incremental
/// recompilation diffs against this graph, and the VM reuses this version's
/// bytecode for unchanged classes.
struct CurrentDeploy {
    graph: Arc<DataflowGraph>,
    vm: Arc<se_vm::VmProgram>,
}

/// A deployed StateFlow application: coordinator + workers over the compiled
/// dataflow graph, with a replayable request source and snapshot store.
pub struct StateflowRuntime {
    cfg: StateflowConfig,
    /// All live program versions, shared with every worker. Workers resolve
    /// invocations through it (pinned to the version stamped at the root);
    /// [`StateflowRuntime::redeploy`] registers new versions here before
    /// appending the `Redeploy` record, so replay finds them too.
    registry: Arc<VersionRegistry>,
    /// Baseline for the next incremental redeploy (see [`CurrentDeploy`]).
    /// The lock also serializes concurrent `redeploy` calls: versions must
    /// be compiled against their immediate predecessor, in order.
    current: Mutex<CurrentDeploy>,
    source: ReplayableSource<ClientRequest>,
    waiters: Arc<Mutex<HashMap<RequestId, ResponseCompleter>>>,
    next_request: AtomicU64,
    shutdown: Arc<AtomicBool>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    stats: Arc<CoordStats>,
    snapshots: Arc<SnapshotStore<StateStore>>,
    timers: Arc<ComponentTimers>,
    obs: se_obs::Obs,
    /// Periodic `metrics.json` snapshot thread, if configured; stopped
    /// (dropped) at shutdown before the final dump.
    obs_snapshots: Mutex<Option<se_obs::PeriodicSnapshots>>,
    worker_senders: Vec<DelaySender<WorkerMsg>>,
    coord_sender: DelaySender<CoordMsg>,
    /// A durability directory this runtime created itself (config left
    /// `durability.dir` unset): removed at shutdown. User-provided
    /// directories are never touched.
    owned_durability_dir: Option<std::path::PathBuf>,
}

impl StateflowRuntime {
    /// Deploys a compiled dataflow graph on a fresh StateFlow cluster.
    pub fn deploy(graph: DataflowGraph, mut cfg: StateflowConfig) -> Self {
        assert!(cfg.workers > 0, "need at least one worker");
        assert!(
            cfg.pipeline_depth >= 1,
            "pipeline_depth 0 would never seal a batch"
        );
        // WAL durability needs a directory; deployments that did not pick
        // one get a unique temp dir owned (and removed) by this runtime.
        let owned_durability_dir = (cfg.durability.mode == DurabilityMode::Wal
            && cfg.durability.dir.is_none())
        .then(|| {
            static COUNTER: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "se-wal-{}-{}",
                std::process::id(),
                COUNTER.fetch_add(1, Ordering::SeqCst)
            ));
            std::fs::create_dir_all(&dir).expect("create durability dir");
            cfg.durability.dir = Some(dir.clone());
            dir
        });
        let graph = Arc::new(graph);
        let obs = se_obs::Obs::new(&cfg.obs);
        let obs_snapshots = Mutex::new(obs.spawn_periodic_snapshots());
        // Every method body is lowered to bytecode exactly once, here, and
        // the compiled program is shared by all workers.
        let compile_start = obs.now_ns();
        let vm = Arc::new(se_vm::VmProgram::compile(&graph.program));
        obs.stage_span(se_obs::Stage::VmCompile, 0, compile_start, obs.now_ns());
        obs.counter("vm.compile_runs").inc();
        if obs.enabled() {
            se_compiler::stats(&graph).publish(&obs);
        }
        let registry = VersionRegistry::new(Arc::clone(&graph), Arc::clone(&vm) as _);
        obs.gauge("deploy.active_version").set(graph.version as i64);
        let snapshots = Arc::new(SnapshotStore::new());
        let timers = Arc::new(ComponentTimers::new());
        let stats = Arc::new(CoordStats::register(&obs));
        let shutdown = Arc::new(AtomicBool::new(false));
        let source = ReplayableSource::new();
        let waiters: Arc<Mutex<HashMap<RequestId, ResponseCompleter>>> =
            Arc::new(Mutex::new(HashMap::new()));

        let (coord_tx, coord_rx) = delay_channel::<CoordMsg>();
        let mut worker_txs = Vec::with_capacity(cfg.workers);
        let mut worker_rxs = Vec::with_capacity(cfg.workers);
        for _ in 0..cfg.workers {
            let (tx, rx) = delay_channel::<WorkerMsg>();
            worker_txs.push(tx);
            worker_rxs.push(rx);
        }

        let mut threads = Vec::new();
        for (id, rx) in worker_rxs.into_iter().enumerate() {
            let worker = Worker::new(
                id,
                cfg.clone(),
                Arc::clone(&registry),
                rx,
                worker_txs.clone(),
                coord_tx.clone(),
                Arc::clone(&snapshots),
                Arc::clone(&timers),
                obs.clone(),
            );
            threads.push(
                std::thread::Builder::new()
                    .name(format!("stateflow-worker{id}"))
                    .spawn(move || worker.run())
                    .expect("spawn worker"),
            );
        }

        let coordinator = Coordinator::new(
            cfg.clone(),
            worker_txs.clone(),
            coord_rx,
            SourceReader::at(&source, 0),
            Arc::clone(&waiters),
            Arc::clone(&snapshots),
            Arc::clone(&stats),
            obs.clone(),
            Arc::clone(&shutdown),
        );
        threads.push(
            std::thread::Builder::new()
                .name("stateflow-coordinator".into())
                .spawn(move || coordinator.run())
                .expect("spawn coordinator"),
        );

        Self {
            cfg,
            registry,
            current: Mutex::new(CurrentDeploy { graph, vm }),
            source,
            waiters,
            next_request: AtomicU64::new(1),
            shutdown,
            threads: Mutex::new(threads),
            stats,
            snapshots,
            timers,
            obs,
            obs_snapshots,
            worker_senders: worker_txs,
            coord_sender: coord_tx,
            owned_durability_dir,
        }
    }

    fn fresh_request(&self) -> RequestId {
        RequestId(self.next_request.fetch_add(1, Ordering::SeqCst))
    }

    /// Protocol counters (batches, commits, aborts, snapshots, recoveries).
    pub fn stats(&self) -> &CoordStats {
        &self.stats
    }

    /// Per-component timing breakdown (overhead experiment).
    pub fn timers(&self) -> &ComponentTimers {
        &self.timers
    }

    /// The observability handle (stage histograms, counters, run dir).
    pub fn obs(&self) -> &se_obs::Obs {
        &self.obs
    }

    /// The snapshot store (inspected by recovery tests).
    pub fn snapshots(&self) -> &SnapshotStore<StateStore> {
        &self.snapshots
    }

    /// The runtime configuration.
    pub fn config(&self) -> &StateflowConfig {
        &self.cfg
    }

    /// Registers a fresh request's waiter and appends the op `op` builds
    /// for it to the source. After `shutdown` no thread reads the source,
    /// so a request submitted then fails at once instead of hanging.
    fn submit(&self, op: impl FnOnce(RequestId) -> ClientOp) -> ResponseWaiter {
        let request = self.fresh_request();
        let (completer, waiter) = ResponseWaiter::new();
        self.waiters.lock().insert(request, completer);
        // Checked after the insert: a concurrent shutdown either clears this
        // completer with the map or has already set the flag.
        if self.shutdown.load(Ordering::SeqCst) {
            if let Some(c) = self.waiters.lock().remove(&request) {
                c.complete(Err(LangError::runtime("runtime is shut down")));
            }
            return waiter;
        }
        self.source.append(ClientRequest {
            request,
            op: op(request),
        });
        waiter
    }

    /// The program version new roots are currently stamped with.
    pub fn active_version(&self) -> u64 {
        self.registry.active()
    }

    /// Live code upgrade: compiles `program` as the next version after the
    /// current deploy (incrementally — unchanged methods reuse the previous
    /// version's split artifacts and bytecode), registers it with every
    /// worker's version registry, and appends a `Redeploy` record to the
    /// replayable source. Blocks until the coordinator commits the switch:
    /// pipeline drained, pre-upgrade epoch cut, per-entity `__migrate__`
    /// pass acknowledged by every worker. Returns the now-active version.
    ///
    /// Invocations in flight when the upgrade was requested drain on the
    /// version their root was stamped with; calls submitted after this
    /// returns run the new version. Once the switch commits, versions
    /// older than the *previous* deploy are evicted from the registry —
    /// they have fully drained, and keeping the immediate predecessor
    /// covers a recovery that rewinds past the upgrade's own epoch cut.
    pub fn redeploy(&self, program: &se_lang::Program) -> Result<u64, Vec<LangError>> {
        let mut cur = self.current.lock();
        let prev_version = cur.graph.version;
        let compile_start = self.obs.now_ns();
        let (graph, recompile) = se_compiler::compile_upgrade(
            &cur.graph,
            program,
            &se_compiler::CompileOptions::default(),
        )?;
        let graph = Arc::new(graph);
        let vm = Arc::new(se_vm::VmProgram::compile_reusing(
            &graph.program,
            Some((&cur.graph.program, &cur.vm)),
        ));
        let version = graph.version;
        self.obs.stage_span(
            se_obs::Stage::VmCompile,
            version,
            compile_start,
            self.obs.now_ns(),
        );
        self.obs.counter("vm.compile_runs").inc();
        if self.obs.enabled() {
            recompile.publish(&self.obs);
        }
        self.registry
            .insert(version, Arc::clone(&graph), Arc::clone(&vm) as _);
        let waiter = self.submit(|_| ClientOp::Redeploy { version });
        waiter.wait().map_err(|e| vec![e])?;
        *cur = CurrentDeploy { graph, vm };
        self.registry.evict_below(prev_version);
        Ok(version)
    }
}

impl EntityRuntime for StateflowRuntime {
    fn name(&self) -> &str {
        "stateflow"
    }

    fn create(
        &self,
        class: &str,
        key: &str,
        init: Vec<(String, Value)>,
    ) -> Result<EntityRef, LangError> {
        let waiter = self.submit(|_| ClientOp::Create {
            class: class.to_owned(),
            key: key.to_owned(),
            init,
        });
        waiter.wait()?;
        Ok(EntityRef::new(class, key))
    }

    fn call_async(&self, target: EntityRef, method: &str, args: Vec<Value>) -> ResponseWaiter {
        self.submit(|request| {
            ClientOp::Invoke(Invocation {
                request,
                target,
                method: method.into(),
                kind: InvocationKind::Start { args },
                stack: Vec::new(),
                // Roots are stamped with the engine's active version by the
                // coordinator when their batch is sealed; the client does
                // not know (and must not race on) the switchover point.
                version: se_ir::INITIAL_VERSION,
            })
        })
    }

    fn supports_transactions(&self) -> bool {
        true
    }

    fn shutdown(&self) {
        let first = !self.shutdown.swap(true, Ordering::SeqCst);
        self.source.close();
        for t in self.threads.lock().drain(..) {
            let _ = t.join();
        }
        if first {
            // Stop the periodic snapshot thread, then write the end-of-run
            // dump (a no-op returning Ok(None) when SE_OBS=off).
            drop(self.obs_snapshots.lock().take());
            let _ = self.obs.dump();
        }
        // Pending waiters error out when their completers drop.
        self.waiters.lock().clear();
        // Keep the senders alive until here so late messages don't panic.
        let _ = (&self.worker_senders, &self.coord_sender);
        // The runtime-owned durability dir dies with the deployment (all
        // worker threads have joined, so no WAL is still being written).
        if let Some(dir) = &self.owned_durability_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

impl Drop for StateflowRuntime {
    fn drop(&mut self) {
        self.shutdown();
    }
}
