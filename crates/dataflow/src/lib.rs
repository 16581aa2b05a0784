//! # se-dataflow — the streaming-dataflow substrate
//!
//! Engine-level building blocks shared by both runtime implementations
//! (`se-statefun`, `se-stateflow`):
//!
//! * [`engine`] — the engine shell both runtimes own one of: deploy staging
//!   and live-upgrade compilation, the client waiter map, the thread set,
//!   observability and shutdown;
//! * [`net`] — the simulated cluster network (per-hop latency, time scale);
//! * [`delay`] — delay queues imposing hop latency without blocking senders,
//!   and the one place an engine thread parks;
//! * [`state`] — per-partition entity state stores;
//! * [`snapshot`] — consistent-snapshot (epoch) storage for exactly-once;
//! * [`source`] — the replayable, offset-addressed log (request sources and
//!   broker partitions alike);
//! * [`failure`] — scripted fault injection (re-exported from `se-chaos`)
//!   plus the seam-injection send helper;
//! * [`wal`] — the per-partition append-only write-ahead log (CRC-framed
//!   records, group-commit fsync policies, torn-tail-safe reader);
//! * [`durable`] — the durable layer over [`wal`]: incremental epoch
//!   persistence, base snapshots, checked recovery and log compaction;
//! * [`metrics`] — read views over se-obs histograms: latency summaries,
//!   and the per-component overhead breakdown, whose timers are always-on
//!   `timer.*` histograms in the deployment's registry.

#![warn(missing_docs)]

pub mod api;
pub mod delay;
pub mod durable;
pub mod engine;
pub mod failure;
pub mod metrics;
pub mod net;
pub mod snapshot;
pub mod source;
pub mod state;
pub mod wal;

pub use api::{EntityRuntime, ResponseCompleter, ResponseWaiter};
pub use delay::{delay_channel, DelayReceiver, DelaySender, Waker};
pub use durable::{DurableOptions, DurableStore};
pub use engine::{EngineCore, WaiterMap};
pub use failure::{send_with_chaos, ChaosPlan, CrashPoint, MsgFaultAction, Seam};
pub use metrics::{timer, ComponentTimers, LatencySummary};
pub use net::{burn, NetConfig};
pub use snapshot::{Epoch, SnapshotStore, DEFAULT_SNAPSHOT_RETENTION};
pub use source::{ReplayableSource, SourceReader};
pub use state::StateStore;
pub use wal::{read_wal, FsyncPolicy, WalRecord, WalScan, WalWriter};
