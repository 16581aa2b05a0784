//! The runtime fault injector: [`ChaosPlan`] executes a [`FaultScript`].
//!
//! Engines consult the plan at three kinds of hook:
//!
//! * **crash points** — once per processed protocol event
//!   ([`ChaosPlan::should_crash`]); the plan counts events per node *per
//!   incarnation* and fires the node's next scheduled crash when its
//!   countdown elapses. [`ChaosPlan::notify_restart`] (called from the
//!   engine's restore path) advances the incarnation, so a recovered node
//!   can be killed again.
//! * **message seams** — once per faultable message sent
//!   ([`ChaosPlan::on_message`]); the plan counts messages per seam and
//!   answers what to do with the n-th one (deliver/quarantine/duplicate/
//!   delay). Control-plane messages (restore, snapshot markers, failure
//!   notifications) are never faulted — they model the failure detector and
//!   the checkpoint alignment protocol, which the engines assume reliable.
//! * **broker produces** — once per produced record
//!   ([`ChaosPlan::broker_delay`]); outage windows add visibility delay.
//!
//! A disarmed plan (`ChaosPlan::none`, the default) is a `None` inside an
//! `Option`: every hook is a single branch, so the overhead with chaos off
//! is ~zero.

use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::script::{CrashFault, DiskFaultKind, FaultScript, MessageFault, MsgFaultKind};

/// Protocol point a crash countdown observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrashPoint {
    /// An execution step (an invocation hop on StateFlow, an ingress
    /// invocation on StateFun) — the widest window.
    Exec,
    /// Handling a reservation round (StateFlow workers only).
    Reserve,
    /// Applying a commit record (StateFlow) / processing a checkpoint
    /// barrier (StateFun) — crashes here land between decide and commit,
    /// or while a snapshot barrier is draining.
    Commit,
}

/// A channel seam where message faults inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Seam {
    /// StateFlow coordinator → worker (`Exec`/`Reserve`/`Commit`).
    CoordToWorker,
    /// StateFlow worker → coordinator (`ExecDone`/`Flags`/`CommitAck`).
    WorkerToCoord,
    /// StateFlow worker → worker (chain hops, solo commit records).
    WorkerToWorker,
    /// StateFun partition task → remote function runtime.
    RemoteRequest,
    /// StateFun remote function runtime → partition task.
    RemoteResponse,
}

const SEAM_COUNT: usize = 5;

fn seam_index(seam: Seam) -> usize {
    match seam {
        Seam::CoordToWorker => 0,
        Seam::WorkerToCoord => 1,
        Seam::WorkerToWorker => 2,
        Seam::RemoteRequest => 3,
        Seam::RemoteResponse => 4,
    }
}

/// What to do with one message (the injection helper interprets this).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgFaultAction {
    /// Deliver normally.
    Deliver,
    /// Quarantine: deliver with this many extra (unscaled) microseconds of
    /// delay — a drop whenever a recovery fences the late copy.
    Quarantine {
        /// Extra delay in microseconds.
        extra_us: u64,
    },
    /// Deliver twice; the second copy lands `gap_us` later.
    Duplicate {
        /// Delay of the duplicate in microseconds.
        gap_us: u64,
    },
    /// Deliver `extra_us` late (reorders past later traffic).
    Delay {
        /// Extra delay in microseconds.
        extra_us: u64,
    },
}

/// Per-node crash bookkeeping.
#[derive(Debug, Default)]
struct NodeState {
    /// Crashes already fired for this node.
    fired: usize,
    /// Restarts observed (incarnation index = `restarts`).
    restarts: usize,
    /// Events counted per crash point in the current incarnation:
    /// [Exec, Reserve, Commit].
    counts: [u64; 3],
    /// Crash-time disk faults already consumed (one per crash, in script
    /// order — the disk analogue of `fired`).
    disk_consumed: usize,
    /// Fsyncs observed on this node (counted across the whole run, so a
    /// script's `nth` is stable under restarts).
    fsyncs: u64,
}

/// What to do with one `fsync(2)` (the durable layer interprets this).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncFaultAction {
    /// Sync normally.
    Proceed,
    /// Sync, but only after this many extra (unscaled) microseconds.
    Slow {
        /// Added latency in microseconds.
        extra_us: u64,
    },
    /// The sync fails: the synced prefix must not advance.
    Fail,
}

/// `node`'s bookkeeping, created on first use.
fn node_state<'a>(nodes: &'a mut Vec<(String, NodeState)>, node: &str) -> &'a mut NodeState {
    let i = match nodes.iter().position(|(n, _)| n == node) {
        Some(i) => i,
        None => {
            nodes.push((node.to_owned(), NodeState::default()));
            nodes.len() - 1
        }
    };
    &mut nodes[i].1
}

fn point_index(p: CrashPoint) -> usize {
    match p {
        CrashPoint::Exec => 0,
        CrashPoint::Reserve => 1,
        CrashPoint::Commit => 2,
    }
}

#[derive(Debug)]
struct Inner {
    script: FaultScript,
    /// Per-node crash progress, keyed by node name.
    nodes: Mutex<Vec<(String, NodeState)>>,
    /// Per-seam counters of faultable messages observed.
    seam_counts: Mutex<[u64; SEAM_COUNT]>,
    /// Produces observed by the broker.
    produces: Mutex<u64>,
    /// Crashes fired so far (for assertions in tests).
    crashes_fired: std::sync::atomic::AtomicU64,
    /// Message faults fired so far.
    msg_faults_fired: std::sync::atomic::AtomicU64,
    /// Disk faults fired so far.
    disk_faults_fired: std::sync::atomic::AtomicU64,
}

/// A shareable, thread-safe executor of one [`FaultScript`].
///
/// Cloning shares the underlying counters, so the same plan handle can be
/// given to a runtime config and kept by the test for assertions.
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    inner: Option<Arc<Inner>>,
}

impl ChaosPlan {
    /// A plan that never injects anything (every hook is a single branch).
    pub fn none() -> Self {
        Self { inner: None }
    }

    /// Arms `script`.
    pub fn from_script(script: FaultScript) -> Self {
        if script.is_empty() {
            return Self::none();
        }
        Self {
            inner: Some(Arc::new(Inner {
                script,
                nodes: Mutex::new(Vec::new()),
                seam_counts: Mutex::new([0; SEAM_COUNT]),
                produces: Mutex::new(0),
                crashes_fired: std::sync::atomic::AtomicU64::new(0),
                msg_faults_fired: std::sync::atomic::AtomicU64::new(0),
                disk_faults_fired: std::sync::atomic::AtomicU64::new(0),
            })),
        }
    }

    /// Shorthand: one crash of `node` after `after_events` exec events.
    pub fn single_crash(node: impl Into<String>, after_events: u64) -> Self {
        Self::from_script(FaultScript::single_crash(node, after_events))
    }

    /// Whether any fault is scripted at all.
    pub fn is_armed(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether any crash is scripted: whether the deployment can ever
    /// recover. Two users rely on that. StateFun's deploy check refuses a
    /// crash script without checkpoints (no epoch to restore), and
    /// StateFlow's retention floor frees each request once polled when no
    /// crash is scripted (no recovery can replay it).
    pub fn has_crashes(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|i| !i.script.crashes.is_empty())
    }

    /// The script this plan executes (empty when disarmed).
    pub fn script(&self) -> FaultScript {
        self.inner
            .as_ref()
            .map(|i| i.script.clone())
            .unwrap_or_default()
    }

    /// Crashes fired so far.
    pub fn crashes_fired(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.crashes_fired.load(std::sync::atomic::Ordering::SeqCst))
            .unwrap_or(0)
    }

    /// Message faults fired so far.
    pub fn msg_faults_fired(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.msg_faults_fired.load(std::sync::atomic::Ordering::SeqCst))
            .unwrap_or(0)
    }

    /// Disk faults fired so far.
    pub fn disk_faults_fired(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|i| {
                i.disk_faults_fired
                    .load(std::sync::atomic::Ordering::SeqCst)
            })
            .unwrap_or(0)
    }

    /// Called by `node` once per processed event of kind `point`; returns
    /// `true` at the moment the node must simulate a crash. Fires each of
    /// the node's scheduled crashes at most once, in script order, one per
    /// incarnation: crash *i* only arms once the node has restarted *i*
    /// times.
    pub fn should_crash(&self, node: &str, point: CrashPoint) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        // Cheap pre-filter without locking: nodes with no scripted crash.
        if !inner.script.crashes.iter().any(|c| c.node == node) {
            return false;
        }
        let mut nodes = inner.nodes.lock();
        let state = node_state(&mut nodes, node);
        state.counts[point_index(point)] += 1;
        // The node's next pending crash, if it is armed for this
        // incarnation (crash i fires in incarnation i).
        let pending: Option<&CrashFault> = inner
            .script
            .crashes
            .iter()
            .filter(|c| c.node == node)
            .nth(state.fired);
        let Some(crash) = pending else {
            return false;
        };
        if state.restarts < state.fired {
            return false; // not restored yet; next crash not armed
        }
        if crash.point != point || state.counts[point_index(point)] < crash.after_events {
            return false;
        }
        state.fired += 1;
        inner
            .crashes_fired
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        true
    }

    /// Called by the durable layer when `node` simulates a crash: returns
    /// the node's next unconsumed **crash-time** disk fault (torn/lost
    /// tail, bit flip, missing snapshot), one per crash, in script order —
    /// mirroring the per-incarnation semantics of [`Self::should_crash`].
    pub fn crash_disk_fault(&self, node: &str) -> Option<DiskFaultKind> {
        let inner = self.inner.as_ref()?;
        if inner.script.disk.is_empty() {
            return None;
        }
        let mut nodes = inner.nodes.lock();
        let state = node_state(&mut nodes, node);
        let fault = inner
            .script
            .disk
            .iter()
            .filter(|d| d.node == node && d.kind.is_crash_kind())
            .nth(state.disk_consumed)?;
        state.disk_consumed += 1;
        inner
            .disk_faults_fired
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        Some(fault.kind)
    }

    /// Called by the durable layer once per `fsync(2)` on `node`; answers
    /// whether this sync proceeds, stalls, or fails. Counts every consulted
    /// fsync, so a script's `nth` is stable for a given schedule.
    pub fn fsync_fault(&self, node: &str) -> FsyncFaultAction {
        let Some(inner) = &self.inner else {
            return FsyncFaultAction::Proceed;
        };
        if inner.script.disk.is_empty() {
            return FsyncFaultAction::Proceed;
        }
        let mut nodes = inner.nodes.lock();
        let state = node_state(&mut nodes, node);
        let nth = state.fsyncs;
        state.fsyncs += 1;
        let fault = inner.script.disk.iter().find_map(|d| {
            if d.node != node {
                return None;
            }
            match d.kind {
                DiskFaultKind::SlowFsync { nth: n, extra_us } if n == nth => {
                    Some(FsyncFaultAction::Slow { extra_us })
                }
                DiskFaultKind::FailedFsync { nth: n } if n == nth => Some(FsyncFaultAction::Fail),
                _ => None,
            }
        });
        match fault {
            Some(action) => {
                inner
                    .disk_faults_fired
                    .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                action
            }
            None => FsyncFaultAction::Proceed,
        }
    }

    /// Called from the engine's restore path: `node` is live again, its
    /// next incarnation begins (event counters reset, next crash arms).
    pub fn notify_restart(&self, node: &str) {
        let Some(inner) = &self.inner else {
            return;
        };
        let mut nodes = inner.nodes.lock();
        if let Some((_, state)) = nodes.iter_mut().find(|(n, _)| n == node) {
            state.restarts += 1;
            state.counts = [0; 3];
        }
    }

    /// Called once per faultable message sent on `seam`; answers what to do
    /// with it. Counts only consulted (faultable) messages, so the n-th
    /// index in a script is stable for a given schedule.
    pub fn on_message(&self, seam: Seam) -> MsgFaultAction {
        let Some(inner) = &self.inner else {
            return MsgFaultAction::Deliver;
        };
        if inner.script.messages.is_empty() {
            return MsgFaultAction::Deliver;
        }
        let idx = seam_index(seam);
        let nth = {
            let mut counts = inner.seam_counts.lock();
            let nth = counts[idx];
            counts[idx] += 1;
            nth
        };
        let fault: Option<&MessageFault> = inner
            .script
            .messages
            .iter()
            .find(|m| m.seam == seam && m.nth == nth);
        let Some(fault) = fault else {
            return MsgFaultAction::Deliver;
        };
        inner
            .msg_faults_fired
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        match fault.kind {
            MsgFaultKind::Drop { quarantine_us } => MsgFaultAction::Quarantine {
                extra_us: quarantine_us,
            },
            MsgFaultKind::Duplicate { gap_us } => MsgFaultAction::Duplicate { gap_us },
            MsgFaultKind::Delay { extra_us } => MsgFaultAction::Delay { extra_us },
        }
    }

    /// Called by the broker once per produce; returns extra visibility
    /// delay (unscaled microseconds) when the produce falls in an outage
    /// window.
    pub fn broker_delay(&self) -> Option<u64> {
        let inner = self.inner.as_ref()?;
        if inner.script.outages.is_empty() {
            return None;
        }
        let nth = {
            let mut produces = inner.produces.lock();
            let nth = *produces;
            *produces += 1;
            nth
        };
        inner
            .script
            .outages
            .iter()
            .find(|o| nth >= o.after_produces && nth < o.after_produces + o.produces)
            .map(|o| o.extra_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::{BrokerOutage, MessageFault};

    #[test]
    fn none_never_fires() {
        let p = ChaosPlan::none();
        for _ in 0..100 {
            assert!(!p.should_crash("w0", CrashPoint::Exec));
        }
        assert_eq!(p.crashes_fired(), 0);
        assert!(!p.is_armed());
        assert_eq!(p.on_message(Seam::CoordToWorker), MsgFaultAction::Deliver);
        assert_eq!(p.broker_delay(), None);
    }

    #[test]
    fn fires_once_at_threshold() {
        let p = ChaosPlan::single_crash("w1", 3);
        assert!(!p.should_crash("w1", CrashPoint::Exec));
        assert!(!p.should_crash("w1", CrashPoint::Exec));
        assert!(p.should_crash("w1", CrashPoint::Exec));
        assert_eq!(p.crashes_fired(), 1);
        assert!(!p.should_crash("w1", CrashPoint::Exec), "never again");
    }

    #[test]
    fn other_nodes_and_points_unaffected() {
        let p = ChaosPlan::single_crash("w1", 1);
        assert!(!p.should_crash("w0", CrashPoint::Exec));
        // Reserve/Commit events do not advance an Exec countdown.
        assert!(!p.should_crash("w1", CrashPoint::Reserve));
        assert!(!p.should_crash("w1", CrashPoint::Commit));
        assert!(p.should_crash("w1", CrashPoint::Exec));
        assert!(!p.should_crash("w2", CrashPoint::Exec));
    }

    /// Per-incarnation semantics: a recovered node is killed again by a
    /// multi-crash script.
    #[test]
    fn double_crash_of_same_worker_fires_per_incarnation() {
        let script = FaultScript {
            crashes: vec![
                CrashFault {
                    node: "w0".into(),
                    point: CrashPoint::Exec,
                    after_events: 3,
                },
                CrashFault {
                    node: "w0".into(),
                    point: CrashPoint::Exec,
                    after_events: 2,
                },
            ],
            ..FaultScript::default()
        };
        let p = ChaosPlan::from_script(script);
        // Incarnation 0: fires on the 3rd event.
        assert!(!p.should_crash("w0", CrashPoint::Exec));
        assert!(!p.should_crash("w0", CrashPoint::Exec));
        assert!(p.should_crash("w0", CrashPoint::Exec));
        // Dead until restored: the second crash is not armed yet, no
        // matter how many events are (spuriously) counted.
        for _ in 0..10 {
            assert!(!p.should_crash("w0", CrashPoint::Exec));
        }
        // Incarnation 1: the countdown restarts from zero and fires again.
        p.notify_restart("w0");
        assert!(!p.should_crash("w0", CrashPoint::Exec));
        assert!(p.should_crash("w0", CrashPoint::Exec));
        assert_eq!(p.crashes_fired(), 2);
        // No third crash scripted.
        p.notify_restart("w0");
        for _ in 0..10 {
            assert!(!p.should_crash("w0", CrashPoint::Exec));
        }
    }

    #[test]
    fn crash_points_count_independently() {
        let script = FaultScript {
            crashes: vec![CrashFault {
                node: "w0".into(),
                point: CrashPoint::Commit,
                after_events: 2,
            }],
            ..FaultScript::default()
        };
        let p = ChaosPlan::from_script(script);
        for _ in 0..10 {
            assert!(!p.should_crash("w0", CrashPoint::Exec));
        }
        assert!(!p.should_crash("w0", CrashPoint::Commit));
        assert!(p.should_crash("w0", CrashPoint::Commit));
    }

    #[test]
    fn concurrent_counting_fires_exactly_once() {
        let p = ChaosPlan::single_crash("w", 500);
        let fired = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let p = p.clone();
                let fired = std::sync::Arc::clone(&fired);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        if p.should_crash("w", CrashPoint::Exec) {
                            fired.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(fired.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    #[test]
    fn message_faults_hit_exactly_the_nth_message() {
        let script = FaultScript {
            messages: vec![
                MessageFault {
                    seam: Seam::CoordToWorker,
                    nth: 2,
                    kind: MsgFaultKind::Duplicate { gap_us: 7 },
                },
                MessageFault {
                    seam: Seam::WorkerToWorker,
                    nth: 0,
                    kind: MsgFaultKind::Drop { quarantine_us: 99 },
                },
            ],
            ..FaultScript::default()
        };
        let p = ChaosPlan::from_script(script);
        assert_eq!(p.on_message(Seam::CoordToWorker), MsgFaultAction::Deliver);
        assert_eq!(p.on_message(Seam::CoordToWorker), MsgFaultAction::Deliver);
        assert_eq!(
            p.on_message(Seam::CoordToWorker),
            MsgFaultAction::Duplicate { gap_us: 7 }
        );
        assert_eq!(p.on_message(Seam::CoordToWorker), MsgFaultAction::Deliver);
        // Seams count independently.
        assert_eq!(
            p.on_message(Seam::WorkerToWorker),
            MsgFaultAction::Quarantine { extra_us: 99 }
        );
        assert_eq!(p.msg_faults_fired(), 2);
    }

    #[test]
    fn broker_outage_window_delays_only_its_produces() {
        let script = FaultScript {
            outages: vec![BrokerOutage {
                after_produces: 1,
                produces: 2,
                extra_us: 1234,
            }],
            ..FaultScript::default()
        };
        let p = ChaosPlan::from_script(script);
        assert_eq!(p.broker_delay(), None); // produce 0
        assert_eq!(p.broker_delay(), Some(1234)); // produce 1
        assert_eq!(p.broker_delay(), Some(1234)); // produce 2
        assert_eq!(p.broker_delay(), None); // produce 3
    }

    #[test]
    fn crash_disk_faults_consume_one_per_crash_in_script_order() {
        let script = FaultScript {
            disk: vec![
                crate::script::DiskFault {
                    node: "w0".into(),
                    kind: DiskFaultKind::LostTail,
                },
                crate::script::DiskFault {
                    node: "w0".into(),
                    kind: DiskFaultKind::FailedFsync { nth: 1 },
                },
                crate::script::DiskFault {
                    node: "w0".into(),
                    kind: DiskFaultKind::BitFlip,
                },
                crate::script::DiskFault {
                    node: "w1".into(),
                    kind: DiskFaultKind::MissingSnapshot,
                },
            ],
            ..FaultScript::default()
        };
        let p = ChaosPlan::from_script(script);
        // Crash-time faults skip over the interleaved fsync entry.
        assert_eq!(p.crash_disk_fault("w0"), Some(DiskFaultKind::LostTail));
        assert_eq!(p.crash_disk_fault("w0"), Some(DiskFaultKind::BitFlip));
        assert_eq!(p.crash_disk_fault("w0"), None);
        assert_eq!(
            p.crash_disk_fault("w1"),
            Some(DiskFaultKind::MissingSnapshot)
        );
        assert_eq!(p.crash_disk_fault("w2"), None);
        // The fsync entry keys on w0's own fsync counter (nth = 1).
        assert_eq!(p.fsync_fault("w0"), FsyncFaultAction::Proceed);
        assert_eq!(p.fsync_fault("w0"), FsyncFaultAction::Fail);
        assert_eq!(p.fsync_fault("w0"), FsyncFaultAction::Proceed);
        assert_eq!(p.disk_faults_fired(), 4);
    }

    #[test]
    fn disarmed_plan_disk_hooks_are_noops() {
        let p = ChaosPlan::none();
        assert_eq!(p.crash_disk_fault("w0"), None);
        assert_eq!(p.fsync_fault("w0"), FsyncFaultAction::Proceed);
    }
}
