//! # se-chaos — scriptable fault injection and execution-history checking
//!
//! The paper's headline guarantee is exactly-once, serializable execution of
//! entity transactions over distributed dataflows. This crate is the
//! machinery that lets the repository *witness* that guarantee under
//! hostile schedules instead of happy paths:
//!
//! * [`plan`] — [`ChaosPlan`]: a seed-reproducible runtime fault injector
//!   executing scripted *sequences* of faults: multiple crashes per node
//!   (per-incarnation, at chosen protocol points), message
//!   drop/duplicate/delay/reorder at the channel seams of both engines, and
//!   broker outage windows. It is the one injection path.
//! * [`script`] — the declarative [`FaultScript`] a plan executes, its
//!   seeded generator (same seed ⇒ byte-identical script) and the
//!   enumeration hooks the scenario driver uses to shrink a failing script
//!   to a minimal one.
//! * [`history`] — a per-run event log ([`History`]) recorded behind a
//!   cheap optional hook in both engines: root invocations, batch seals,
//!   per-partition read/write sets, commit decisions and recoveries.
//! * [`check`] — the checker: verifies the recorded history is serializable
//!   in Aria batch order (decisions justified by the recorded access sets,
//!   exactly-once commits across recoveries, retry monotonicity) and
//!   derives the equivalent serial order for replay through a
//!   single-threaded oracle.
//!
//! Drops are implemented as *quarantines* (a long extra delay): if a
//! recovery intervenes the message is generation-fenced on arrival —
//! indistinguishable from a loss — and if none does, the run stays live and
//! merely stalls, so every scripted scenario terminates.

#![warn(missing_docs)]

pub mod check;
pub mod history;
pub mod plan;
pub mod script;

pub use check::{
    check_history, check_statefun_history, serial_order, CheckError, CheckSummary, SerialOp,
};
pub use history::{BatchKindTag, History, HistoryEvent, TxnOutcome};
pub use plan::{ChaosPlan, CrashPoint, FsyncFaultAction, MsgFaultAction, Seam};
pub use script::{
    BrokerOutage, CrashFault, DiskFault, DiskFaultKind, FaultScript, MessageFault, MsgFaultKind,
    ScriptConfig,
};
