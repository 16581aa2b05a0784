//! StateFlow runtime configuration.

use std::path::PathBuf;
use std::time::Duration;

use se_aria::{CommitRule, FallbackPolicy};
use se_chaos::{ChaosPlan, History};
use se_dataflow::{FsyncPolicy, NetConfig};

/// Whether worker state survives a crash on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurabilityMode {
    /// Volatile state only (the default): recovery restores the in-memory
    /// snapshot store's latest complete epoch. Byte-identical behavior to
    /// a build without the durable layer.
    Off,
    /// Per-partition write-ahead log + incremental snapshots: every commit
    /// is appended to a per-worker WAL, epoch cuts persist the dirty set,
    /// and recovery replays state from disk (see `se_dataflow::durable`).
    Wal,
}

/// Durable-layer configuration (see [`DurabilityMode`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Off (default) or WAL-backed.
    pub mode: DurabilityMode,
    /// Directory holding one subdirectory per worker. `None` (the default)
    /// lets the runtime create a unique temporary directory at deploy time
    /// and remove it at shutdown.
    pub dir: Option<PathBuf>,
    /// Group-commit fsync policy for the per-worker WALs.
    pub fsync: FsyncPolicy,
    /// Full base snapshots every this many epoch cuts (≥ 1); between bases
    /// an epoch costs O(dirty keys), not O(state).
    pub full_snapshot_every: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        Self {
            mode: env_override(
                "SE_DURABILITY",
                "\"off\" or \"wal\"",
                DurabilityMode::Off,
                |v| match v.to_ascii_lowercase().as_str() {
                    "off" => Some(DurabilityMode::Off),
                    "wal" => Some(DurabilityMode::Wal),
                    _ => None,
                },
            ),
            dir: None,
            fsync: FsyncPolicy::OnEpoch,
            full_snapshot_every: 4,
        }
    }
}

impl DurabilityConfig {
    /// WAL durability in a specific directory with the default knobs.
    pub fn wal_in(dir: impl Into<PathBuf>) -> Self {
        Self {
            mode: DurabilityMode::Wal,
            dir: Some(dir.into()),
            ..Self::default()
        }
    }
}

/// Test-only regression levers: each re-introduces one real, historical
/// bug so the chaos harness can prove its checker catches it. Never set
/// outside tests; `chaos_explore` maps `SE_CHAOS_INJECT_BUG` onto it.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BugLever {
    /// `reserve-errored`: errored chains reserve their buffered writes
    /// again, knocking healthy higher-id transactions into pointless
    /// retries — unjustified aborts in the history.
    ReserveErrored,
    /// `torn-upgrade`: the coordinator flips to the new version and resumes
    /// sealing *before* the workers acknowledge the migration pass, so
    /// post-switch transactions race the migration writes — a
    /// version-atomicity violation.
    TornUpgrade,
    /// `wal-no-crc`: WAL recovery skips checksum verification and
    /// re-applies silently corrupted records (needs `DurabilityMode::Wal`).
    WalNoCrc,
}

/// Tunables of the StateFlow deployment.
///
/// Defaults mirror the paper's setup (§4): "StateFlow requires a single core
/// coordinator, and the rest are used for its workers" — 1 coordinator plus
/// one worker per remaining core, never fewer than the paper's 5 (see
/// [`default_workers`]).
#[derive(Debug, Clone)]
pub struct StateflowConfig {
    /// Number of worker threads (state partitions); each runs its
    /// partition's chain segments on its own thread.
    pub workers: usize,
    /// Network latency model.
    pub net: NetConfig,
    /// How long the coordinator waits to fill a batch before sealing it.
    pub batch_interval: Duration,
    /// Maximum transactions per batch.
    pub max_batch: usize,
    /// Maximum batches in flight at the coordinator (default 4): batch
    /// *N+1* is sealed and dispatched as soon as batch *N* enters its
    /// reservation round (Aria's cross-batch pipelining) while fewer than
    /// this many are in flight; workers order execution with a
    /// committed-batch watermark. `1` degenerates to "seal only when idle".
    pub pipeline_depth: usize,
    /// Aria commit rule (the ablation knob).
    pub commit_rule: CommitRule,
    /// What happens to aborted transactions: re-enqueue into the next
    /// batch, or Aria's serial fallback (single-transaction batches run
    /// immediately, bounding hot-key retry storms).
    pub fallback: FallbackPolicy,
    /// Take a consistent snapshot every N batches (0 disables snapshots).
    pub snapshot_every_batches: u64,
    /// Synthetic per-invocation-step service time, modeling the work the
    /// authors' Python prototype spends per event (object construction,
    /// dispatch, bookkeeping). Burned on the worker thread, so saturation
    /// under load emerges naturally.
    pub service_time: Duration,
    /// Fault injection: scripted crashes (per incarnation, at chosen
    /// protocol points), message faults at the coordinator/worker channel
    /// seams, or nothing (`ChaosPlan::none()`, the default).
    pub chaos: ChaosPlan,
    /// Optional execution-history recording for the serializability
    /// checker. `None` (the default) records nothing and costs one branch
    /// per protocol step.
    pub history: Option<History>,
    /// Test-only bug injection (see [`BugLever`]); `None` everywhere else.
    #[doc(hidden)]
    pub bug: Option<BugLever>,
    /// Durable storage under the workers' state stores: `Off` (default,
    /// byte-identical to no durable layer) or WAL-backed with incremental
    /// epoch snapshots and disk recovery. The `SE_DURABILITY` env var
    /// (`off` | `wal`) overrides the default mode.
    pub durability: DurabilityConfig,
    /// Observability: `SE_OBS=off|metrics|trace` (default off — byte-
    /// identical histories, ≈ zero overhead), dump directory via
    /// `SE_OBS_DIR`, periodic snapshots via `SE_OBS_SNAPSHOT_MS`. See
    /// `se_obs::ObsConfig`.
    pub obs: se_obs::ObsConfig,
}

impl Default for StateflowConfig {
    fn default() -> Self {
        Self {
            workers: default_workers(),
            net: NetConfig::default(),
            batch_interval: Duration::from_millis(10),
            max_batch: 512,
            pipeline_depth: 4,
            commit_rule: CommitRule::Reordering,
            fallback: FallbackPolicy::Serial,
            snapshot_every_batches: 16,
            service_time: Duration::from_micros(350),
            chaos: ChaosPlan::none(),
            history: None,
            bug: None,
            durability: DurabilityConfig::default(),
            obs: se_obs::ObsConfig::from_env("stateflow"),
        }
    }
}

impl StateflowConfig {
    /// A configuration with tiny delays for fast unit tests: the default
    /// with only the test-speed fields (and the obs label) changed.
    pub fn fast_test(workers: usize) -> Self {
        Self {
            workers,
            net: NetConfig::fast_test(),
            batch_interval: Duration::from_millis(2),
            max_batch: 256,
            snapshot_every_batches: 4,
            service_time: Duration::from_micros(10),
            obs: se_obs::ObsConfig::from_env("stateflow-test"),
            ..Self::default()
        }
    }
}

/// The default worker count: one per available core minus the coordinator's,
/// floored at the paper deployment's 5 workers. Derived (not hard-coded) so
/// a default deployment actually uses the machine it runs on; the floor
/// keeps partitioning behavior identical to the paper's setup on small
/// hosts, where workers time-share cores exactly as threads always have.
pub fn default_workers() -> usize {
    let available = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    available.saturating_sub(1).max(5)
}

/// Reads the environment override `name`: unset yields `default`, a value
/// `parse` accepts yields that value, and anything else also yields
/// `default` but warns on stderr once per variable — a typo must not
/// silently void a "whole suite durable" run.
fn env_override<T>(
    name: &'static str,
    expected: &str,
    default: T,
    parse: impl FnOnce(&str) -> Option<T>,
) -> T {
    let Ok(v) = std::env::var(name) else {
        return default;
    };
    parse(v.trim()).unwrap_or_else(|| {
        static WARNED: parking_lot::Mutex<Vec<&'static str>> = parking_lot::Mutex::new(Vec::new());
        let mut warned = WARNED.lock();
        if !warned.contains(&name) {
            warned.push(name);
            eprintln!("warning: ignoring unrecognized {name}={v:?} (expected {expected})");
        }
        default
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_deployment() {
        let c = StateflowConfig::default();
        assert_eq!(
            c.workers,
            default_workers(),
            "workers default derives from available parallelism"
        );
        assert_eq!(c.commit_rule, CommitRule::Reordering);
        assert!(c.snapshot_every_batches > 0);
        assert_eq!(c.pipeline_depth, 4, "the measured-fast window");
        assert_eq!(c.bug, None);
    }

    /// `fast_test` is a struct update over `Default`: resetting exactly the
    /// documented test-speed fields must give the default back.
    #[test]
    fn fast_test_differs_from_default_only_in_test_speed_fields() {
        let d = StateflowConfig::default();
        let t = StateflowConfig::fast_test(3);
        assert_eq!(t.workers, 3);
        assert!(t.batch_interval < d.batch_interval && t.service_time < d.service_time);
        let reset = StateflowConfig {
            workers: d.workers,
            net: d.net.clone(),
            batch_interval: d.batch_interval,
            max_batch: d.max_batch,
            snapshot_every_batches: d.snapshot_every_batches,
            service_time: d.service_time,
            obs: d.obs.clone(),
            ..t
        };
        assert_eq!(format!("{reset:?}"), format!("{d:?}"));
    }

    #[test]
    fn env_override_parses_defaults_and_rejects() {
        // A variable name nothing else reads, so parallel tests never race.
        let name = "SE_TEST_ENV_OVERRIDE";
        let read = || env_override(name, "a positive integer", 7usize, |v| v.parse().ok());
        std::env::remove_var(name);
        assert_eq!(read(), 7, "unset falls back");
        std::env::set_var(name, " 3 ");
        assert_eq!(read(), 3, "accepted values are trimmed and parsed");
        std::env::set_var(name, "many");
        assert_eq!(read(), 7, "junk falls back (and warns once)");
        std::env::remove_var(name);
    }

    #[test]
    fn default_workers_adapts_to_parallelism_with_paper_floor() {
        let available = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        let w = default_workers();
        // The paper's 5-worker deployment is the floor; on bigger hosts one
        // core is reserved for the coordinator and the rest become workers.
        assert!(w >= 5);
        if available > 6 {
            assert_eq!(w, available - 1);
        } else {
            assert_eq!(w, 5);
        }
    }
}
