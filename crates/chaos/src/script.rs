//! Declarative fault scripts: what a [`crate::ChaosPlan`] executes.
//!
//! A script is pure data — serializable, comparable, printable — so a
//! failing scenario can be reported as `(seed, minimized script)` and
//! replayed exactly. All triggers are *count-based* (the n-th event on a
//! node, the n-th message on a seam, the n-th broker produce), never
//! wall-clock-based, which is what makes the same script reproducible
//! across time scales and machines.

use serde::{Deserialize, Serialize};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::plan::{CrashPoint, Seam};

/// One scheduled crash of a node. The i-th entry for a node fires in the
/// node's i-th incarnation (counting restarts): a node crashed by entry 0
/// must be restored before entry 1 arms, so a recovered node can be killed
/// again.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashFault {
    /// Node to kill (`worker0`, `task1`, …).
    pub node: String,
    /// Protocol point the countdown observes (and the crash lands on).
    pub point: CrashPoint,
    /// Events of `point` the incarnation processes before dying.
    pub after_events: u64,
}

/// What happens to the n-th faulted message of a seam.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MsgFaultKind {
    /// Quarantine: deliver only after `quarantine_us` extra (scaled) delay.
    /// With a recovery in between this is a true drop (the late copy is
    /// generation-fenced); without one the run stalls but stays live.
    Drop {
        /// Extra delay, microseconds (scaled by the engine's time scale).
        quarantine_us: u64,
    },
    /// Deliver twice: once on time, once `gap_us` later. Exercises the
    /// receivers' dedup paths (hop sequence numbers, per-worker flag
    /// reports, commit watermarks).
    Duplicate {
        /// Delay of the second copy, microseconds (scaled).
        gap_us: u64,
    },
    /// Deliver `extra_us` late — because delay channels order by due time,
    /// a large enough delay also *reorders* the message after its
    /// successors.
    Delay {
        /// Extra delay, microseconds (scaled).
        extra_us: u64,
    },
}

/// A message fault: applies `kind` to the `nth` faultable message observed
/// on `seam` (0-based, counted per seam across the whole run).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MessageFault {
    /// Channel seam to inject at.
    pub seam: Seam,
    /// Which message on that seam (0-based).
    pub nth: u64,
    /// The fault applied.
    pub kind: MsgFaultKind,
}

/// What a scripted disk fault does at the durable-storage seam.
///
/// The first four kinds are **crash-time** faults with power-loss
/// semantics: they fire when their node's next crash fires and damage only
/// the *unsynced* region of the partition's WAL (a plain process crash
/// keeps everything the OS accepted; only losing power can tear it). The
/// fsync kinds fire at the node's n-th `fsync(2)` instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DiskFaultKind {
    /// The unsynced WAL tail is torn mid-record: the last `bytes` written
    /// bytes vanish (clamped so the synced prefix stays intact).
    TornTail {
        /// Bytes cut from the end of the written region.
        bytes: u64,
    },
    /// The entire unsynced tail is gone: the file reverts to its last
    /// fsynced length.
    LostTail,
    /// Silent corruption: one bit flips inside the payload of the last
    /// complete data record in the unsynced region — the frame stays
    /// well-formed, so only the checksum can catch it.
    BitFlip,
    /// The newest base snapshot file is missing at recovery time (a
    /// half-finished rename, an operator mistake); recovery must fall back
    /// to an older base or a full log replay.
    MissingSnapshot,
    /// The node's `nth` fsync completes only after `extra_us` extra
    /// (scaled) microseconds.
    SlowFsync {
        /// Which fsync on the node (0-based, counted across the run).
        nth: u64,
        /// Added latency, microseconds (scaled).
        extra_us: u64,
    },
    /// The node's `nth` fsync fails: the write stays in the page cache and
    /// the synced prefix does not advance.
    FailedFsync {
        /// Which fsync on the node (0-based, counted across the run).
        nth: u64,
    },
}

impl DiskFaultKind {
    /// Whether this kind fires at crash time (vs at an fsync).
    pub fn is_crash_kind(self) -> bool {
        matches!(
            self,
            DiskFaultKind::TornTail { .. }
                | DiskFaultKind::LostTail
                | DiskFaultKind::BitFlip
                | DiskFaultKind::MissingSnapshot
        )
    }
}

/// A disk fault scripted against one node's durable storage. Crash-time
/// kinds are consumed in list order, one per crash of the node (like
/// [`CrashFault`] incarnations); fsync kinds key on the node's fsync
/// counter.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiskFault {
    /// Node whose storage is faulted (`worker0`, …).
    pub node: String,
    /// The fault applied.
    pub kind: DiskFaultKind,
}

/// A broker outage window: every produce in `[after_produces,
/// after_produces + produces)` (counted across all topics) becomes visible
/// `extra_us` (scaled) later — the broker is unreachable/slow for a while,
/// and log order stalls consumers behind the delayed records.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BrokerOutage {
    /// Produces before the outage starts.
    pub after_produces: u64,
    /// Produces affected by the outage.
    pub produces: u64,
    /// Added visibility delay, microseconds (scaled).
    pub extra_us: u64,
}

/// A complete fault script: crashes + message weather + broker outages +
/// disk faults.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct FaultScript {
    /// Scheduled crashes (per node, list order = incarnation order).
    pub crashes: Vec<CrashFault>,
    /// Message faults at the channel seams.
    pub messages: Vec<MessageFault>,
    /// Broker outage windows.
    pub outages: Vec<BrokerOutage>,
    /// Disk faults at the durable-storage seam (no-ops with durability
    /// off — the seam is only consulted by the WAL layer).
    pub disk: Vec<DiskFault>,
}

impl FaultScript {
    /// An empty (fault-free) script.
    pub fn none() -> Self {
        Self::default()
    }

    /// A single crash of `node` after `after_events` executed events.
    pub fn single_crash(node: impl Into<String>, after_events: u64) -> Self {
        Self {
            crashes: vec![CrashFault {
                node: node.into(),
                point: CrashPoint::Exec,
                after_events,
            }],
            ..Self::default()
        }
    }

    /// Total number of scripted faults (the shrink search space).
    pub fn fault_count(&self) -> usize {
        self.crashes.len() + self.messages.len() + self.outages.len() + self.disk.len()
    }

    /// Whether the script contains no faults at all.
    pub fn is_empty(&self) -> bool {
        self.fault_count() == 0
    }

    /// The script with the `i`-th fault removed (crashes first, then
    /// message faults, then outages, then disk faults) — the shrink step of
    /// the scenario driver: remove one fault, re-run, keep the removal if
    /// the failure still reproduces.
    ///
    /// # Panics
    /// Panics if `i >= self.fault_count()`.
    pub fn without_fault(&self, i: usize) -> FaultScript {
        let mut s = self.clone();
        if i < s.crashes.len() {
            s.crashes.remove(i);
            return s;
        }
        let i = i - s.crashes.len();
        if i < s.messages.len() {
            s.messages.remove(i);
            return s;
        }
        let i = i - s.messages.len();
        if i < s.outages.len() {
            s.outages.remove(i);
            return s;
        }
        let i = i - s.outages.len();
        s.disk.remove(i);
        s
    }

    /// Generates a script from `seed`: the same `(seed, cfg)` always yields
    /// a byte-identical script.
    pub fn generate(seed: u64, cfg: &ScriptConfig) -> FaultScript {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut script = FaultScript::default();

        if !cfg.nodes.is_empty() && cfg.max_crashes > 0 {
            let n_crashes = rng.gen_range(0..=cfg.max_crashes);
            for _ in 0..n_crashes {
                let node = cfg.nodes[rng.gen_range(0..cfg.nodes.len())].clone();
                let point = match rng.gen_range(0..4u8) {
                    0 => CrashPoint::Reserve,
                    1 => CrashPoint::Commit,
                    _ => CrashPoint::Exec, // exec windows are the widest
                };
                let (lo, hi) = cfg.crash_event_range;
                script.crashes.push(CrashFault {
                    node,
                    point,
                    after_events: rng.gen_range(lo..hi.max(lo + 1)),
                });
            }
            // Multiple crashes of the same node are incarnation-ordered;
            // keep the per-node order as generated (already is).
        }

        if !cfg.seams.is_empty() && cfg.max_msg_faults > 0 {
            let n_faults = rng.gen_range(0..=cfg.max_msg_faults);
            for _ in 0..n_faults {
                let seam = cfg.seams[rng.gen_range(0..cfg.seams.len())];
                let (lo, hi) = cfg.msg_nth_range;
                let nth = rng.gen_range(lo..hi.max(lo + 1));
                let kind = match rng.gen_range(0..3u8) {
                    0 if cfg.allow_drops => MsgFaultKind::Drop {
                        quarantine_us: rng.gen_range(500_000..2_000_000),
                    },
                    1 => MsgFaultKind::Duplicate {
                        gap_us: rng.gen_range(0..50_000),
                    },
                    _ => MsgFaultKind::Delay {
                        extra_us: rng.gen_range(1_000..100_000),
                    },
                };
                // One fault per (seam, nth): the plan resolves the first
                // match, so a colliding second entry would be dead weight
                // the shrinker has to burn a rerun to remove.
                if !script
                    .messages
                    .iter()
                    .any(|m| m.seam == seam && m.nth == nth)
                {
                    script.messages.push(MessageFault { seam, nth, kind });
                }
            }
        }

        if cfg.max_outages > 0 {
            let n_outages = rng.gen_range(0..=cfg.max_outages);
            for _ in 0..n_outages {
                script.outages.push(BrokerOutage {
                    after_produces: rng.gen_range(0..200),
                    produces: rng.gen_range(1..30),
                    extra_us: rng.gen_range(10_000..500_000),
                });
            }
        }

        if !cfg.nodes.is_empty() && cfg.max_disk_faults > 0 {
            let n_disk = rng.gen_range(0..=cfg.max_disk_faults);
            for _ in 0..n_disk {
                let node = cfg.nodes[rng.gen_range(0..cfg.nodes.len())].clone();
                let kind = match rng.gen_range(0..6u8) {
                    0 => DiskFaultKind::TornTail {
                        bytes: rng.gen_range(1..64),
                    },
                    1 => DiskFaultKind::LostTail,
                    2 => DiskFaultKind::BitFlip,
                    3 => DiskFaultKind::MissingSnapshot,
                    4 => DiskFaultKind::SlowFsync {
                        nth: rng.gen_range(0..24),
                        extra_us: rng.gen_range(1_000..100_000),
                    },
                    _ => DiskFaultKind::FailedFsync {
                        nth: rng.gen_range(0..24),
                    },
                };
                script.disk.push(DiskFault { node, kind });
            }
        }
        script
    }
}

impl std::fmt::Display for FaultScript {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            return write!(f, "(no faults)");
        }
        for c in &self.crashes {
            writeln!(
                f,
                "crash {} after {} {:?} events",
                c.node, c.after_events, c.point
            )?;
        }
        for m in &self.messages {
            writeln!(f, "msg {:?} #{}: {:?}", m.seam, m.nth, m.kind)?;
        }
        for o in &self.outages {
            writeln!(
                f,
                "broker outage: produces {}..{} +{}µs",
                o.after_produces,
                o.after_produces + o.produces,
                o.extra_us
            )?;
        }
        for d in &self.disk {
            writeln!(f, "disk {}: {:?}", d.node, d.kind)?;
        }
        Ok(())
    }
}

/// Knobs of the seeded script generator.
#[derive(Debug, Clone)]
pub struct ScriptConfig {
    /// Crashable node names.
    pub nodes: Vec<String>,
    /// Maximum crashes per script (sampled 0..=max).
    pub max_crashes: usize,
    /// Maximum message faults per script.
    pub max_msg_faults: usize,
    /// Maximum broker outage windows per script.
    pub max_outages: usize,
    /// Seams eligible for message faults.
    pub seams: Vec<Seam>,
    /// Range of the per-incarnation crash countdown.
    pub crash_event_range: (u64, u64),
    /// Range of the per-seam message index a fault may target.
    pub msg_nth_range: (u64, u64),
    /// Whether `Drop` (quarantine) faults may be generated. Scripts meant
    /// to be timing-deterministic (the reproducibility property) disable
    /// drops and crashes.
    pub allow_drops: bool,
    /// Maximum disk faults per script. Defaults to 0 (disk faults are only
    /// meaningful with durability on, which is opt-in); enable via
    /// [`ScriptConfig::with_disk_faults`].
    pub max_disk_faults: usize,
}

impl ScriptConfig {
    /// A configuration for a StateFlow deployment with `workers` workers.
    pub fn stateflow(workers: usize) -> Self {
        Self {
            nodes: (0..workers).map(|w| format!("worker{w}")).collect(),
            max_crashes: 2,
            max_msg_faults: 4,
            max_outages: 0, // StateFlow does not use the broker
            seams: vec![
                Seam::CoordToWorker,
                Seam::WorkerToCoord,
                Seam::WorkerToWorker,
            ],
            crash_event_range: (5, 60),
            msg_nth_range: (0, 120),
            allow_drops: true,
            max_disk_faults: 0,
        }
    }

    /// A configuration for a StateFun deployment with `partitions` tasks.
    pub fn statefun(partitions: usize) -> Self {
        Self {
            nodes: (0..partitions).map(|t| format!("task{t}")).collect(),
            max_crashes: 1,
            max_msg_faults: 3,
            max_outages: 1,
            seams: vec![Seam::RemoteRequest, Seam::RemoteResponse],
            crash_event_range: (5, 40),
            msg_nth_range: (0, 80),
            allow_drops: true,
            max_disk_faults: 0,
        }
    }

    /// Enables disk-fault generation (durable deployments only — the seam
    /// is never consulted with durability off, so the faults would be dead
    /// weight the shrinker has to remove).
    pub fn with_disk_faults(mut self, max: usize) -> Self {
        self.max_disk_faults = max;
        self
    }

    /// Restricts the generator to faults that keep a serial (one request at
    /// a time) run logically deterministic: duplicates and delays only — no
    /// crashes, drops or outages, whose timing interacts with recovery.
    pub fn deterministic_only(mut self) -> Self {
        self.max_crashes = 0;
        self.max_outages = 0;
        self.allow_drops = false;
        self.max_disk_faults = 0;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_script() {
        // 256 seeds spread over the whole range, its ends included.
        let cfg = ScriptConfig::stateflow(3);
        let spread = (0..255u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for seed in spread.chain([u64::MAX]) {
            let a = FaultScript::generate(seed, &cfg);
            let b = FaultScript::generate(seed, &cfg);
            assert_eq!(a, b, "seed {seed} must be reproducible");
        }
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let cfg = ScriptConfig::stateflow(3);
        let scripts: Vec<FaultScript> = (0..20).map(|s| FaultScript::generate(s, &cfg)).collect();
        assert!(
            scripts.windows(2).any(|w| w[0] != w[1]),
            "20 consecutive seeds produced identical scripts"
        );
    }

    #[test]
    fn without_fault_enumerates_every_fault() {
        let cfg = ScriptConfig::stateflow(4);
        // Find a seed with at least 3 faults.
        let script = (0..100)
            .map(|s| FaultScript::generate(s, &cfg))
            .find(|s| s.fault_count() >= 3)
            .expect("some seed yields >= 3 faults");
        for i in 0..script.fault_count() {
            let smaller = script.without_fault(i);
            assert_eq!(smaller.fault_count(), script.fault_count() - 1);
        }
    }

    #[test]
    fn deterministic_only_generates_no_crashes_or_drops() {
        let cfg = ScriptConfig::stateflow(3).deterministic_only();
        for seed in 0..50 {
            let s = FaultScript::generate(seed, &cfg);
            assert!(s.crashes.is_empty() && s.outages.is_empty());
            assert!(!s
                .messages
                .iter()
                .any(|m| matches!(m.kind, MsgFaultKind::Drop { .. })));
        }
    }

    #[test]
    fn disk_faults_generate_only_when_enabled_and_shrink() {
        let plain = ScriptConfig::stateflow(3);
        for seed in 0..50 {
            assert!(FaultScript::generate(seed, &plain).disk.is_empty());
        }
        let durable = ScriptConfig::stateflow(3).with_disk_faults(3);
        let script = (0..100)
            .map(|s| FaultScript::generate(s, &durable))
            .find(|s| !s.disk.is_empty())
            .expect("some seed yields disk faults");
        // The shrinker enumerates disk entries after the other families.
        let total = script.fault_count();
        let last = script.without_fault(total - 1);
        assert_eq!(last.disk.len(), script.disk.len() - 1);
        assert_eq!(last.crashes, script.crashes);
        assert_eq!(last.messages, script.messages);
    }

    #[test]
    fn script_serializes_to_json_report() {
        // Failing seeds are reported as JSON artifacts; replay always goes
        // through the seed (the vendored serde_json is serialize-only).
        let cfg = ScriptConfig::stateflow(3);
        let script = (0..100)
            .map(|s| FaultScript::generate(s, &cfg))
            .find(|s| !s.is_empty())
            .expect("non-empty script");
        let json = serde_json::to_string(&script).unwrap();
        assert!(json.contains("\"messages\"") || json.contains("\"crashes\""));
        assert!(!format!("{script}").is_empty());
    }
}
