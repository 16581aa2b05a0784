//! StateFun-style runtime configuration.

use std::time::Duration;

use se_chaos::{ChaosPlan, History};
use se_dataflow::NetConfig;

/// How the runtime checkpoints.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointMode {
    /// No checkpoints: at-most/at-least-once, minimal latency. This is the
    /// low-latency configuration the paper's latency figures imply. With
    /// nothing to restore there is no recovery (deploy refuses crash
    /// scripts), so each partition task frees its ingress records as soon
    /// as it has read them: the broker's memory stays flat however many
    /// requests pass.
    None,
    /// Aligned checkpoint barriers every `interval`, with *transactional
    /// produces*: loopback and egress records are staged per epoch and
    /// flushed only after the epoch's snapshot is durable — Flink's
    /// exactly-once sink mode. Continuations therefore wait for epoch
    /// boundaries, the latency tension the paper discusses in §5
    /// ("the outputs of a dataflow only become visible after an epoch
    /// terminates successfully").
    Transactional {
        /// Barrier injection period.
        interval: Duration,
    },
}

/// Tunables of the StateFun-style deployment.
///
/// Defaults mirror the paper's setup (§4): "For Statefun, we gave half of
/// the resources to the Flink cluster and the other to the remote
/// functions" — with 6 system cores that is 3 partition tasks + 3 remote
/// function workers.
#[derive(Debug, Clone)]
pub struct StatefunConfig {
    /// Number of dataflow partition tasks (Flink task slots).
    pub partitions: usize,
    /// Number of remote function runtime workers.
    pub remote_workers: usize,
    /// Network latency model.
    pub net: NetConfig,
    /// Per-invocation service time in the remote function runtime (function
    /// dispatch + (de)serialization in the authors' Python runtime).
    pub service_time: Duration,
    /// Checkpointing mode.
    pub checkpoint: CheckpointMode,
    /// Fault injection: scripted task crashes, message faults on the
    /// remote-function request/response seams, and broker outage windows.
    /// Crash scripts require [`CheckpointMode::Transactional`] (nothing to
    /// recover from otherwise).
    pub chaos: ChaosPlan,
    /// Optional execution-history recording (per-key dispatch/install
    /// events for the per-key serialization check). `None` (the default)
    /// records nothing and costs one branch per step.
    pub history: Option<History>,
    /// Observability: `SE_OBS=off|metrics|trace` (default off), dump
    /// directory via `SE_OBS_DIR`. See `se_obs::ObsConfig`.
    pub obs: se_obs::ObsConfig,
}

impl Default for StatefunConfig {
    fn default() -> Self {
        Self {
            partitions: 3,
            remote_workers: 3,
            net: NetConfig::default(),
            service_time: Duration::from_micros(700),
            checkpoint: CheckpointMode::None,
            chaos: ChaosPlan::none(),
            history: None,
            obs: se_obs::ObsConfig::from_env("statefun"),
        }
    }
}

impl StatefunConfig {
    /// A configuration with tiny delays for fast unit tests.
    pub fn fast_test(partitions: usize) -> Self {
        Self {
            partitions,
            remote_workers: partitions,
            net: NetConfig::fast_test(),
            service_time: Duration::from_micros(10),
            obs: se_obs::ObsConfig::from_env("statefun-test"),
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_split_resources_in_half() {
        let c = StatefunConfig::default();
        assert_eq!(
            c.partitions, c.remote_workers,
            "paper: half Flink, half remote functions"
        );
        assert_eq!(c.checkpoint, CheckpointMode::None);
    }
}
