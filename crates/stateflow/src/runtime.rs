//! Deployment and client API of the StateFlow runtime.
//!
//! The engine shell — deploy staging, live-upgrade compilation, the waiter
//! map, the thread set, observability and shutdown — is the shared
//! [`EngineCore`]. What this file adds is StateFlow's protocol around it:
//! the replayable request source, the coordinator and the workers on their
//! engine threads ([`crate::shell`]), the `Redeploy` source record that
//! switches a live upgrade, and the WAL directory a durable deployment owns.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use se_dataflow::{
    ComponentTimers, EngineCore, EntityRuntime, Post, ReplayableSource, ResponseWaiter,
    SnapshotStore, SourceReader, StateStore, Waker,
};
use se_ir::{DataflowGraph, Invocation, InvocationKind, RequestId};
use se_lang::{EntityRef, LangError, Value};

use crate::config::{DurabilityMode, StateflowConfig};
use crate::coordinator::{CoordStats, Coordinator};
use crate::msg::{ClientOp, ClientRequest};
use crate::shell::{layout, Shell};
use crate::worker::Worker;

/// A deployed StateFlow application: coordinator + workers over the compiled
/// dataflow graph, with a replayable request source and snapshot store.
pub struct StateflowRuntime {
    core: EngineCore,
    cfg: StateflowConfig,
    source: ReplayableSource<ClientRequest>,
    /// Ends the coordinator thread's wait: every append fires it, and
    /// `shutdown`.
    coord_waker: Waker,
    stats: Arc<CoordStats>,
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
        #[allow(deprecated)]
        let inert = cfg.batch_interval.is_zero();
        assert!(
            inert,
            "a non-zero batch interval: the coordinator has no timer"
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
        let core = EngineCore::new(graph, &cfg.obs);
        let stats = Arc::new(CoordStats::register(&core.obs));
        let source = ReplayableSource::new();

        // One engine thread per core, the coordinator on thread 0.
        let layout = layout(cfg.workers);
        let (post, inboxes) = Post::new(layout.threads(), cfg.chaos.clone(), cfg.net.clone());
        // The source is the one thing the coordinator watches that is not a
        // message: its appends end its thread's wait.
        let coord_waker = inboxes[layout.front(0)].waker();
        source.wake_on_append(coord_waker.clone());
        let mut hosted: Vec<Vec<Worker>> = (0..layout.threads()).map(|_| Vec::new()).collect();
        for id in 0..cfg.workers {
            hosted[layout.back(id)].push(Worker::new(
                id,
                cfg.clone(),
                Arc::clone(&core.registry),
                Arc::clone(&core.waiters),
                Arc::clone(&core.snapshots),
                core.obs.clone(),
            ));
        }
        let mut coordinator = Some(Coordinator::new(
            cfg.clone(),
            SourceReader::at(&source, 0),
            Arc::clone(&core.snapshots),
            Arc::clone(&stats),
            core.obs.clone(),
            Arc::clone(&core.shutdown),
        ));
        for (inbox, workers) in inboxes.into_iter().zip(hosted) {
            let waiters = Arc::clone(&core.waiters);
            let shell = Shell::new(post.clone(), layout, waiters, coordinator.take(), workers);
            core.spawn(shell.name(), move || se_dataflow::shell::run(inbox, shell));
        }

        Self {
            core,
            cfg,
            source,
            coord_waker,
            stats,
            owned_durability_dir,
        }
    }

    /// Protocol counters (batches, commits, aborts, snapshots, recoveries).
    pub fn stats(&self) -> &CoordStats {
        &self.stats
    }

    /// Per-component timing breakdown (overhead experiment).
    pub fn timers(&self) -> &ComponentTimers {
        &self.core.timers
    }

    /// The observability handle (stage histograms, counters, run dir).
    pub fn obs(&self) -> &se_obs::Obs {
        &self.core.obs
    }

    /// The snapshot store (inspected by recovery tests).
    pub fn snapshots(&self) -> &SnapshotStore<StateStore> {
        &self.core.snapshots
    }

    /// The runtime configuration.
    pub fn config(&self) -> &StateflowConfig {
        &self.cfg
    }

    /// Appends the op `op` builds for a fresh request to the source.
    fn submit(&self, op: impl FnOnce(RequestId) -> ClientOp) -> ResponseWaiter {
        self.core.submit(|request| {
            let op = op(request);
            self.source.append(ClientRequest { request, op });
            Ok(())
        })
    }

    /// The program version new roots are currently stamped with.
    pub fn active_version(&self) -> u64 {
        self.core.registry.active()
    }

    /// Live code upgrade (compilation and version bookkeeping:
    /// [`EngineCore::redeploy`]). The switch is a `Redeploy` record appended
    /// to the replayable source; this call blocks until the coordinator
    /// commits it: pipeline drained, pre-upgrade epoch cut, per-entity
    /// `__migrate__` pass acknowledged by every worker. Returns the
    /// now-active version.
    ///
    /// Invocations in flight when the upgrade was requested drain on the
    /// version their root was stamped with; calls submitted after this
    /// returns run the new version.
    pub fn redeploy(&self, program: &se_lang::Program) -> Result<u64, Vec<LangError>> {
        self.core.redeploy(program, |version| {
            let committed = self.submit(|_| ClientOp::Redeploy { version });
            committed.wait().map(drop)
        })
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
        // The woken coordinator sees the flag and tells the workers; each
        // thread leaves once every role it hosts has stopped.
        let first = self.core.shutdown(|| self.coord_waker.wake());
        // The runtime-owned durability dir dies with the deployment (all
        // engine threads have joined, so no WAL is still being written).
        if let Some(dir) = self.owned_durability_dir.as_ref().filter(|_| first) {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

impl Drop for StateflowRuntime {
    fn drop(&mut self) {
        self.shutdown();
    }
}
