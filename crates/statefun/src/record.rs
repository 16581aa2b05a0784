//! Records flowing through the broker topics of the StateFun-style runtime,
//! and the envelopes its roles send each other.

use se_dataflow::Epoch;
use se_ir::{Invocation, RequestId, Response, StepEffect};
use se_lang::{EntityRef, EntityState, Value};

/// Topic names used by the deployment.
pub mod topics {
    /// Client requests + loopback continuations (partitioned by entity key).
    pub const INGRESS: &str = "sf-ingress";
    /// Responses back to clients (single partition).
    pub const EGRESS: &str = "sf-egress";
}

/// A record on either broker topic.
#[derive(Debug, Clone)]
pub enum SfRecord {
    /// (Ingress) Create an entity owned by this partition.
    Create {
        /// Request to acknowledge on the egress.
        request: RequestId,
        /// Class name.
        class: String,
        /// Entity key.
        key: String,
        /// Attribute overrides.
        init: Vec<(String, Value)>,
    },
    /// (Ingress) Invoke — or, via the Kafka loopback, resume — a method.
    Invoke(Invocation),
    /// (Ingress) Aligned checkpoint barrier (Transactional mode only).
    Barrier {
        /// Epoch being snapshotted.
        epoch: Epoch,
    },
    /// (Ingress) Live-upgrade marker: the partition drains its in-flight
    /// dispatches (the same aligned sync point a checkpoint barrier uses),
    /// runs the per-entity `__migrate__` pass, and stamps all later roots
    /// with `version`. Replay past a pre-upgrade snapshot re-delivers this
    /// record, so recovery re-applies the switch deterministically.
    Upgrade {
        /// The version to switch to.
        version: u64,
        /// This partition's acknowledgement, completed in the runtime's
        /// waiter map once the switch is applied (a replayed marker finds
        /// its waiter already answered).
        request: RequestId,
    },
    /// (Egress) A root request's outcome.
    Response(Response),
}

/// A request from a partition task to the remote function runtime: the
/// event plus the target entity's current state, shipped both ways — the
/// paper's observation that "all functions need to go to an external Python
/// runtime, \[so\] the cost of reads and writes are the same due to the
/// network costs" (§4).
#[derive(Debug, Clone)]
pub struct RemoteRequest {
    /// Fencing generation of the issuing task.
    pub gen: u64,
    /// Issuing partition (the response returns there).
    pub task: usize,
    /// Per-task dispatch sequence number, echoed in the response: the task
    /// accepts a response only if it matches the entity's *current*
    /// outstanding dispatch, so duplicated or quarantined responses (and
    /// requests, whose duplicate executions produce extra responses) cannot
    /// install stale state or break per-key serialization.
    pub seq: u64,
    /// The invocation to run.
    pub inv: Invocation,
    /// The target entity's state at dispatch time.
    pub state: EntityState,
}

/// The remote runtime's reply: mutated state plus the routing effect.
#[derive(Debug, Clone)]
pub struct RemoteResponse {
    /// Echoed fencing generation.
    pub gen: u64,
    /// Echoed dispatch sequence number (see [`RemoteRequest::seq`]).
    pub seq: u64,
    /// Entity whose state was shipped.
    pub entity: EntityRef,
    /// The (possibly mutated) state to install in managed operator state.
    pub new_state: EntityState,
    /// What to do next: loop a continuation back or answer the client.
    pub effect: StepEffect,
}

/// A message between StateFun's roles, routed to the inbox of the engine
/// thread that hosts its addressee (see [`crate::runtime`]).
#[derive(Debug, Clone)]
pub enum Envelope {
    /// To remote thread [`RemoteRequest::seq`] mod the number of remote
    /// threads, across the `RemoteRequest` seam.
    Request(RemoteRequest),
    /// To partition task `.0`, across the `RemoteResponse` seam.
    Response(usize, RemoteResponse),
    /// To the controller: partition task `.0` crashed.
    TaskFailed(usize),
    /// To every engine thread: something the roles watch but are not sent —
    /// the recovery generation, the shutdown flag — has changed.
    Look,
}
