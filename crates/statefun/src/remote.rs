//! The remote function runtime: stateless workers executing entity code.
//!
//! StateFun's remote deployment ships `(state, event)` to an external
//! runtime over the network and receives `(new state, outgoing messages)`
//! back. "The Statefun deployment uses half its CPUs for messaging and
//! state within the Apache Flink cluster and the other half for execution
//! in a remote stateless function runtime" (§4) — these workers are that
//! other half, on the back half of the engine threads (see
//! [`crate::runtime`]). The workers are stateless and alike, so one
//! [`RemoteWorker`] serves every worker its thread hosts.
//!
//! A worker is a handler: it takes one [`RemoteRequest`] and pushes the
//! [`RemoteResponse`] onto its outbox. The engine thread that hosts it
//! posts the response, across the `RemoteResponse` seam and after the
//! remote hop, to the inbox of the issuing task's thread.

use std::sync::Arc;

use se_dataflow::{timer, EngineCore};
use se_ir::{process_invocation_with, InvocationKind, VersionRegistry};
use se_lang::Env;

use crate::config::StatefunConfig;
use crate::record::{Envelope, RemoteRequest, RemoteResponse};

/// The remote-function workers one engine thread hosts.
pub struct RemoteWorker {
    /// The lowest of them, which names the thread.
    id: usize,
    cfg: StatefunConfig,
    /// Each request resolves its program through the registry at the
    /// version stamped on the invocation — the dispatch-side half of the
    /// live upgrade: chains pinned to an old version keep executing old
    /// code while freshly stamped roots already run the new deploy.
    registry: Arc<VersionRegistry>,
    obs: se_obs::Obs,
    invocations: se_obs::Counter,
    deserialization: Arc<se_obs::Histogram>,
    construction: Arc<se_obs::Histogram>,
    split_overhead: Arc<se_obs::Histogram>,
    execution: Arc<se_obs::Histogram>,
    serialization: Arc<se_obs::Histogram>,
    /// The responses the engine thread posts after every request.
    pub(crate) out: Vec<Envelope>,
}

impl RemoteWorker {
    /// Workers from `id` on, running the bodies of the deployment `core`.
    pub fn new(id: usize, cfg: StatefunConfig, core: &EngineCore) -> RemoteWorker {
        let obs = core.obs.clone();
        RemoteWorker {
            id,
            cfg,
            registry: Arc::clone(&core.registry),
            invocations: obs.counter("statefun.invocations"),
            deserialization: timer(&obs, "state_deserialization"),
            construction: timer(&obs, "object_construction"),
            split_overhead: timer(&obs, "split_overhead"),
            execution: timer(&obs, "function_execution"),
            serialization: timer(&obs, "state_serialization"),
            obs,
            out: Vec::new(),
        }
    }

    /// The index of the lowest worker among the deployment's.
    pub(crate) fn id(&self) -> usize {
        self.id
    }

    /// Runs `req` and pushes its response.
    pub(crate) fn handle(&mut self, req: RemoteRequest) {
        let invoke_start = self.obs.now_ns();

        // Service time: dispatch + runtime overhead of the external
        // function process, burned on this worker — remote workers are the
        // throughput bottleneck of the paper's StateFun deployment.
        se_dataflow::burn(self.cfg.net.scaled(self.cfg.service_time));

        // Deserialize the shipped state — modeled as a *materialized* deep
        // copy (a plain clone of copy-on-write state would be a refcount
        // bump and measure nothing).
        let state = self.deserialization.time(|| req.state.deep_clone());
        // Reconstruct the entity object from its state (§2.3: "the system
        // reconstructs the object using the operator's code and the
        // function's state").
        let mut state = self.construction.time(|| {
            let mut s = se_lang::EntityState::new();
            for (k, v) in state {
                s.insert(k, v);
            }
            s
        });
        // Program-transformation overhead probe: the cost of carrying the
        // split-function machinery (continuation frames + saved
        // environments) in events — what E3 shows to be < 1% of the total.
        self.split_overhead.time(|| {
            let _frames = req.inv.stack.clone();
            let _env = match &req.inv.kind {
                InvocationKind::Resume { env, .. } => env.clone(),
                InvocationKind::Start { .. } => Env::new(),
            };
        });

        let entity = req.inv.target;
        let request_id = req.inv.request.0;
        let entry = self.registry.resolve(req.inv.version);
        let effect = self.execution.time(|| {
            process_invocation_with(&entry.graph.program, &*entry.runner, req.inv, &mut state)
        });
        self.invocations.inc();
        self.obs.stage_span(
            se_obs::Stage::Invoke,
            request_id,
            invoke_start,
            self.obs.now_ns(),
        );
        // Serialize the mutated state for the trip back (materialized, as
        // above).
        let new_state = self.serialization.time(|| state.deep_clone());
        let response = RemoteResponse {
            gen: req.gen,
            seq: req.seq,
            entity,
            new_state,
            effect,
        };
        self.out.push(Envelope::Response(req.task, response));
    }
}
