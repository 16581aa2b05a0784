//! # se-dataflow — the streaming-dataflow substrate
//!
//! Engine-level building blocks shared by both runtime implementations
//! (`se-statefun`, `se-stateflow`):
//!
//! * [`net`] — the simulated cluster network (per-hop latency, time scale);
//! * [`delay`] — delay queues imposing hop latency without blocking senders;
//! * [`state`] — per-partition entity state stores;
//! * [`snapshot`] — consistent-snapshot (epoch) storage for exactly-once;
//! * [`source`] — replayable, offset-addressed ingress logs;
//! * [`failure`] — scripted fault injection (re-exported from `se-chaos`)
//!   plus the seam-injection send helper;
//! * [`wal`] — the per-partition append-only write-ahead log (CRC-framed
//!   records, group-commit fsync policies, torn-tail-safe reader);
//! * [`durable`] — the durable layer over [`wal`]: incremental epoch
//!   persistence, base snapshots, checked recovery and log compaction;
//! * [`metrics`] — latency summaries and per-component overhead timers.

#![warn(missing_docs)]

pub mod api;
pub mod delay;
pub mod durable;
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
pub use failure::{send_with_chaos, ChaosPlan, CrashPoint, MsgFaultAction, Seam};
pub use metrics::{ComponentTimers, LatencySummary};
pub use net::{burn, NetConfig};
pub use snapshot::{Epoch, SnapshotStore, DEFAULT_SNAPSHOT_RETENTION};
pub use source::{ReplayableSource, SourceReader};
pub use state::StateStore;
pub use wal::{read_wal, FsyncPolicy, WalRecord, WalScan, WalWriter};
