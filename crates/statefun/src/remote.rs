//! The remote function runtime: stateless workers executing entity code.
//!
//! StateFun's remote deployment ships `(state, event)` to an external
//! runtime over the network and receives `(new state, outgoing messages)`
//! back. "The Statefun deployment uses half its CPUs for messaging and
//! state within the Apache Flink cluster and the other half for execution
//! in a remote stateless function runtime" (§4) — these workers are that
//! other half.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use se_chaos::Seam;
use se_dataflow::{send_with_chaos, timer, DelayReceiver, DelaySender};
use se_ir::{process_invocation_with, InvocationKind, VersionRegistry};
use se_lang::Env;

use crate::config::StatefunConfig;
use crate::record::{RemoteRequest, RemoteResponse};

/// Runs one remote-function worker until shutdown. Multiple workers share
/// the request queue (`Arc<DelayReceiver>` pops are mutex-serialized).
///
/// Each request resolves its program through the version registry at the
/// version stamped on the invocation — the dispatch-side half of the live
/// upgrade: chains pinned to an old version keep executing old code while
/// freshly stamped roots already run the new deploy.
pub fn run_remote_worker(
    cfg: StatefunConfig,
    registry: Arc<VersionRegistry>,
    requests: Arc<DelayReceiver<RemoteRequest>>,
    responders: Vec<DelaySender<RemoteResponse>>,
    obs: se_obs::Obs,
    shutdown: Arc<AtomicBool>,
) {
    let invocations = obs.counter("statefun.invocations");
    let deserialization = timer(&obs, "state_deserialization");
    let construction = timer(&obs, "object_construction");
    let split_overhead = timer(&obs, "split_overhead");
    let execution = timer(&obs, "function_execution");
    let serialization = timer(&obs, "state_serialization");
    loop {
        if shutdown.load(Ordering::SeqCst) {
            // The queue is shared and a wake ends one receive: pass the
            // runtime's shutdown wake on to a sibling still parked on it.
            requests.waker().wake();
            return;
        }
        // Requests and the shutdown wake are all there is to wait for.
        let Some(req) = requests.recv_until(None) else {
            if requests.is_closed() {
                return;
            }
            continue;
        };
        let invoke_start = obs.now_ns();

        // Service time: dispatch + runtime overhead of the external
        // function process, burned on this worker — remote workers are the
        // throughput bottleneck of the paper's StateFun deployment.
        se_dataflow::burn(cfg.net.scaled(cfg.service_time));

        // Deserialize the shipped state — modeled as a *materialized* deep
        // copy (a plain clone of copy-on-write state would be a refcount
        // bump and measure nothing).
        let state = deserialization.time(|| req.state.deep_clone());
        // Reconstruct the entity object from its state (§2.3: "the system
        // reconstructs the object using the operator's code and the
        // function's state").
        let mut state = construction.time(|| {
            let mut s = se_lang::EntityState::new();
            for (k, v) in state {
                s.insert(k, v);
            }
            s
        });
        // Program-transformation overhead probe: the cost of carrying the
        // split-function machinery (continuation frames + saved
        // environments) in events — what E3 shows to be < 1% of the total.
        split_overhead.time(|| {
            let _frames = req.inv.stack.clone();
            let _env = match &req.inv.kind {
                InvocationKind::Resume { env, .. } => env.clone(),
                InvocationKind::Start { .. } => Env::new(),
            };
        });

        let entity = req.inv.target;
        let request_id = req.inv.request.0;
        let entry = registry.resolve(req.inv.version);
        let effect = execution.time(|| {
            process_invocation_with(&entry.graph.program, &*entry.runner, req.inv, &mut state)
        });
        invocations.inc();
        obs.stage_span(
            se_obs::Stage::Invoke,
            request_id,
            invoke_start,
            obs.now_ns(),
        );
        // Serialize the mutated state for the trip back (materialized, as
        // above).
        let new_state = serialization.time(|| state.deep_clone());
        let bytes = new_state.approx_size();

        send_with_chaos(
            &cfg.chaos,
            Seam::RemoteResponse,
            &cfg.net,
            &responders[req.task],
            RemoteResponse {
                gen: req.gen,
                seq: req.seq,
                entity,
                new_state,
                effect,
            },
            cfg.net.remote_fn_latency(bytes),
        );
    }
}
