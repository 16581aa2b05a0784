//! Fault injection, re-exported from `se-chaos`.
//!
//! The scripted [`ChaosPlan`] (sequences of per-incarnation crashes,
//! message faults at the channel seams, broker outages) lives in `se-chaos`
//! and is re-exported here so engine crates keep a single import path. Its
//! message faults act in one place, [`Post::send`](crate::shell::Post::send),
//! on what an engine addresses as data plane. Control-plane traffic
//! (restore, snapshot markers, failure notifications) is never faulted: the
//! engines assume a reliable failure detector and alignment channel.

pub use se_chaos::{ChaosPlan, CrashPoint, MsgFaultAction, Seam};
