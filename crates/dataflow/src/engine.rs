//! The engine shell both runtimes share.
//!
//! The paper compiles one IR "into different dataflow engines". What differs
//! between the engines is the protocol; what surrounds it is the same and
//! lives here once, in [`EngineCore`]: compiling a graph to bytecode and
//! registering it as a version, the from-scratch compile of a live upgrade,
//! the [`WaiterMap`] that answers clients, the shutdown-checked submit, the
//! thread set, and the observability handles with their end-of-run dump. A
//! runtime owns one core and adds only its protocol and its upgrade
//! switchover (StateFlow: a `Redeploy` source record; StateFun: one `Upgrade`
//! marker per partition, each acknowledged through the waiter map).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;

use se_ir::{DataflowGraph, RequestId, Response, VersionRegistry};
use se_lang::{LangError, Value};

use crate::{ComponentTimers, ResponseCompleter, ResponseWaiter, SnapshotStore, StateStore};

/// Every answer an engine still owes, keyed by the request id the map
/// minted for it. An answer removes its entry before completing it, so the
/// first answer wins and a replayed or duplicated one finds no waiter.
#[derive(Default)]
pub struct WaiterMap {
    last: AtomicU64,
    pending: Mutex<HashMap<RequestId, ResponseCompleter>>,
}

impl WaiterMap {
    /// Mints a fresh request id (the first is 1) and registers its waiter.
    pub fn register(&self) -> (RequestId, ResponseWaiter) {
        let request = RequestId(self.last.fetch_add(1, Ordering::SeqCst) + 1);
        let (completer, waiter) = ResponseWaiter::new();
        self.pending.lock().insert(request, completer);
        (request, waiter)
    }

    /// Answers `request` if it is still waiting.
    pub fn complete(&self, request: RequestId, result: Result<Value, LangError>) {
        let completer = self.pending.lock().remove(&request);
        if let Some(c) = completer {
            c.complete(result);
        }
    }

    /// Answers a batch in one pass: clients take the lock once per submit,
    /// so it is held for the removals only, not across the wake-ups.
    pub fn complete_all(&self, answers: Vec<Response>) {
        let completers: Vec<_> = {
            let mut pending = self.pending.lock();
            answers.iter().map(|r| pending.remove(&r.request)).collect()
        };
        for (answer, completer) in answers.into_iter().zip(completers) {
            if let Some(c) = completer {
                c.complete(answer.result);
            }
        }
    }

    /// Drops every pending completer: its waiter fails with "shut down".
    pub fn clear(&self) {
        self.pending.lock().clear();
    }

    /// Whether no answer is owed.
    pub fn is_empty(&self) -> bool {
        self.pending.lock().is_empty()
    }
}

/// One deployment's engine-independent state (see the module docs). The
/// shared handles are public: a runtime hands clones of them to its threads.
pub struct EngineCore {
    /// All live program versions, shared with every thread that runs
    /// bodies; each resolves an event at the version its root was stamped
    /// with.
    pub registry: Arc<VersionRegistry>,
    /// Client waiters, and the one place request ids are minted.
    pub waiters: Arc<WaiterMap>,
    /// Set once by [`EngineCore::shutdown`].
    pub shutdown: Arc<AtomicBool>,
    /// The observability handle (stage histograms, counters, run dir).
    pub obs: se_obs::Obs,
    /// Per-component timing breakdown (overhead experiment): a read view
    /// of `obs`'s `timer.*` histograms.
    pub timers: ComponentTimers,
    /// Consistent-snapshot storage for recovery and queries.
    pub snapshots: Arc<SnapshotStore<StateStore>>,
    /// The newest deployed version. The lock serializes concurrent
    /// redeploys: each one numbers its graph after its predecessor's.
    current: Mutex<u64>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    /// Periodic `metrics.json` snapshot thread, if configured; stopped at
    /// shutdown before the final dump.
    obs_snapshots: Mutex<Option<se_obs::PeriodicSnapshots>>,
}

impl EngineCore {
    /// Stages `graph` as version 1: every method body is lowered to bytecode
    /// exactly once, here, and the program is shared by every thread.
    pub fn new(graph: DataflowGraph, obs: &se_obs::ObsConfig) -> EngineCore {
        let graph = Arc::new(graph);
        let obs = se_obs::Obs::new(obs);
        let obs_snapshots = Mutex::new(obs.spawn_periodic_snapshots());
        let vm = lower(&obs, &graph, obs.now_ns());
        let registry = VersionRegistry::new(Arc::clone(&graph), Arc::clone(&vm) as _);
        obs.gauge("deploy.active_version").set(graph.version as i64);
        EngineCore {
            registry,
            waiters: Arc::default(),
            shutdown: Arc::default(),
            timers: ComponentTimers::new(&obs),
            obs,
            snapshots: Arc::new(SnapshotStore::new()),
            current: Mutex::new(graph.version),
            threads: Mutex::default(),
            obs_snapshots,
        }
    }

    /// Starts an engine thread named `name`; [`EngineCore::shutdown`] joins
    /// it.
    pub fn spawn(&self, name: String, f: impl FnOnce() + Send + 'static) {
        let thread = std::thread::Builder::new().name(name).spawn(f);
        self.threads
            .lock()
            .push(thread.expect("spawn engine thread"));
    }

    /// Registers a fresh request's waiter and hands its id to `send`, which
    /// delivers the request to the engine. After shutdown no engine thread
    /// reads, so a request submitted then — like one `send` refuses — fails
    /// at once instead of hanging.
    pub fn submit(&self, send: impl FnOnce(RequestId) -> Result<(), LangError>) -> ResponseWaiter {
        let (request, waiter) = self.waiters.register();
        // Checked after the register: a concurrent shutdown either clears
        // this waiter with the map or has already set the flag.
        let sent = if self.shutdown.load(Ordering::SeqCst) {
            Err(LangError::runtime("runtime is shut down"))
        } else {
            send(request)
        };
        if let Err(e) = sent {
            self.waiters.complete(request, Err(e));
        }
        waiter
    }

    /// Live code upgrade: compiles `program` from scratch as the next
    /// version after the current deploy, registers it, and runs the
    /// engine's `switch` to it, which blocks until the engine has switched.
    /// Then the version becomes active, and versions older than the
    /// *previous* deploy are evicted: they have drained, and keeping the
    /// immediate predecessor covers a recovery that rewinds past the switch.
    /// Returns the now-active version.
    pub fn redeploy(
        &self,
        program: &se_lang::Program,
        switch: impl FnOnce(u64) -> Result<(), LangError>,
    ) -> Result<u64, Vec<LangError>> {
        let mut cur = self.current.lock();
        let prev_version = *cur;
        let compile_start = self.obs.now_ns();
        let mut graph = se_compiler::compile(program)?;
        graph.version = prev_version + 1;
        let graph = Arc::new(graph);
        let vm = lower(&self.obs, &graph, compile_start);
        let version = graph.version;
        self.registry.insert(version, graph, vm);
        switch(version).map_err(|e| vec![e])?;
        self.registry.set_active(version);
        self.obs.gauge("deploy.active_version").set(version as i64);
        *cur = version;
        self.registry.evict_below(prev_version);
        Ok(version)
    }

    /// Stops the engine: sets the flag, runs `wake` (nothing polls the flag,
    /// so `wake` must end every wait an engine thread may be parked in),
    /// joins every thread, fails every pending waiter, and on the first call
    /// stops the periodic snapshots and writes the end-of-run dump (a no-op
    /// when observability is off). Returns whether this was the first call.
    pub fn shutdown(&self, wake: impl FnOnce()) -> bool {
        let first = !self.shutdown.swap(true, Ordering::SeqCst);
        wake();
        for t in self.threads.lock().drain(..) {
            let _ = t.join();
        }
        self.waiters.clear();
        if first {
            drop(self.obs_snapshots.lock().take());
            let _ = self.obs.dump();
        }
        first
    }
}

/// Lowers `graph` to bytecode, timing the span from `start_ns` (a redeploy
/// counts its graph compile too), and publishes the graph's `compiler.*`
/// shape so the gauges always describe the newest version.
fn lower(obs: &se_obs::Obs, graph: &DataflowGraph, start_ns: u64) -> Arc<se_vm::VmProgram> {
    let vm = Arc::new(se_vm::VmProgram::compile(&graph.program));
    obs.stage_span(
        se_obs::Stage::VmCompile,
        graph.version,
        start_ns,
        obs.now_ns(),
    );
    obs.counter("vm.compile_runs").inc();
    if obs.enabled() {
        se_compiler::stats(graph).publish(obs);
    }
    vm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_answer_wins_and_clear_fails_the_rest() {
        let map = WaiterMap::default();
        let ((a, wa), (b, wb)) = (map.register(), map.register());
        assert_eq!((a, b), (RequestId(1), RequestId(2)));
        let result = Ok(Value::Int(1));
        map.complete_all(vec![Response { request: a, result }]);
        // A replayed answer finds no waiter.
        map.complete(a, Ok(Value::Int(9)));
        assert_eq!(wa.wait().unwrap(), Value::Int(1));
        map.clear();
        assert!(map.is_empty());
        assert!(wb.wait().unwrap_err().to_string().contains("shut down"));
    }
}
