//! # se-obs — unified observability for both engines
//!
//! One registry, one tracer, one snapshot path. The engines, the durable
//! layer, and the benches all publish through an [`Obs`] handle:
//!
//! * **Metrics** — lock-free counters/gauges plus log-bucketed HDR-style
//!   histograms ([`Histogram`]), O(1) to record from any thread.
//! * **Spans** — per-batch lifecycle (seal → exec → decide → commit), WAL
//!   spans (append, fsync, epoch cut), VM compile — fixed-size events in
//!   bounded per-thread rings with monotonic timestamps.
//! * **Exporters** — periodic JSON snapshot + end-of-run dump
//!   (`metrics.json` + `trace.jsonl`), rendered by the `obs_report` bin.
//!
//! Modes (`SE_OBS=off|metrics|trace`, see [`ObsConfig::from_env`]):
//! `off` (default) records nothing and adds one predicted branch per probe —
//! histories are byte-identical and overhead is noise; `metrics` feeds the
//! registry + stage histograms; `trace` additionally records span events.
//! Counters obtained via [`Obs::counter`] are live in every mode — they
//! replace the engines' always-on ad-hoc stats structs — but nothing is
//! written to disk unless the mode is not `off`.

#![warn(missing_docs)]

pub mod hist;
pub mod registry;
pub mod report;
pub mod span;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

pub use hist::{HistSummary, Histogram};
pub use registry::{Counter, Gauge, MetricsRegistry};
pub use span::{monotonic_ns, SpanEvent, Stage, Tracer, STAGES};

/// How much the observability layer records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObsMode {
    /// Record nothing, dump nothing. The provably-free default.
    #[default]
    Off,
    /// Counters, gauges, and stage histograms.
    Metrics,
    /// Metrics plus span events into per-thread rings.
    Trace,
}

impl ObsMode {
    /// Parses `off` / `metrics` / `trace` (case-insensitive).
    pub fn parse(s: &str) -> Option<ObsMode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "none" => Some(ObsMode::Off),
            "metrics" => Some(ObsMode::Metrics),
            "trace" => Some(ObsMode::Trace),
            _ => None,
        }
    }

    /// Stable name, inverse of [`ObsMode::parse`].
    pub fn as_str(self) -> &'static str {
        match self {
            ObsMode::Off => "off",
            ObsMode::Metrics => "metrics",
            ObsMode::Trace => "trace",
        }
    }
}

/// Reads `SE_OBS`, falling back to `default` (warning once on junk values,
/// matching the workspace's other env knobs).
pub fn obs_mode_from_env_or(default: ObsMode) -> ObsMode {
    match std::env::var("SE_OBS") {
        Ok(v) => match ObsMode::parse(&v) {
            Some(mode) => mode,
            None => {
                static WARNED: std::sync::Once = std::sync::Once::new();
                WARNED.call_once(|| {
                    eprintln!(
                        "warning: SE_OBS={v:?} is not one of off|metrics|trace; \
                         using {}",
                        default.as_str()
                    );
                });
                default
            }
        },
        Err(_) => default,
    }
}

/// Observability configuration carried by both engine configs.
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Recording mode; [`ObsMode::Off`] by default.
    pub mode: ObsMode,
    /// Directory that end-of-run dumps and periodic snapshots land in.
    /// Each run creates a unique subdirectory under it.
    pub dir: PathBuf,
    /// Run label used in the dump subdirectory name and `metrics.json`.
    pub label: String,
    /// Periodic `metrics.json` snapshot interval; 0 disables the thread.
    pub snapshot_every_ms: u64,
    /// Per-thread span ring capacity (events) in trace mode.
    pub ring_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            mode: ObsMode::Off,
            dir: PathBuf::from("obs_results"),
            label: "run".to_string(),
            snapshot_every_ms: 0,
            ring_capacity: 65_536,
        }
    }
}

impl ObsConfig {
    /// Defaults overridden by `SE_OBS` (mode), `SE_OBS_DIR` (dump dir), and
    /// `SE_OBS_SNAPSHOT_MS` (periodic snapshot interval).
    pub fn from_env(label: &str) -> ObsConfig {
        let mut cfg = ObsConfig {
            mode: obs_mode_from_env_or(ObsMode::Off),
            label: label.to_string(),
            ..ObsConfig::default()
        };
        if let Ok(dir) = std::env::var("SE_OBS_DIR") {
            if !dir.trim().is_empty() {
                cfg.dir = PathBuf::from(dir);
            }
        }
        if let Ok(ms) = std::env::var("SE_OBS_SNAPSHOT_MS") {
            if let Ok(ms) = ms.trim().parse::<u64>() {
                cfg.snapshot_every_ms = ms;
            }
        }
        cfg
    }

    /// Same config with a different mode (builder-style convenience).
    pub fn with_mode(mut self, mode: ObsMode) -> ObsConfig {
        self.mode = mode;
        self
    }
}

struct ObsInner {
    mode: ObsMode,
    registry: MetricsRegistry,
    tracer: Tracer,
    stage_hists: Vec<Arc<Histogram>>,
    run_dir: Option<PathBuf>,
    label: String,
    snapshot_every_ms: u64,
}

/// Cheap-to-clone handle threaded through an engine's coordinator, workers
/// and durable layer. All recording goes through this.
#[derive(Clone)]
pub struct Obs(Arc<ObsInner>);

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Obs(mode={})", self.0.mode.as_str())
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs::noop()
    }
}

/// Distinguishes concurrent runs dumping under the same parent directory.
static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

impl Obs {
    /// Builds a handle from config. Dumps (if any) go to a unique
    /// subdirectory of `cfg.dir`; nothing is created until dump time.
    pub fn new(cfg: &ObsConfig) -> Obs {
        let run_dir = (cfg.mode != ObsMode::Off).then(|| {
            let seq = RUN_SEQ.fetch_add(1, Ordering::Relaxed);
            cfg.dir
                .join(format!("{}-{}-{seq}", cfg.label, std::process::id()))
        });
        let registry = MetricsRegistry::new();
        let stage_hists = STAGES
            .iter()
            .map(|st| registry.histogram(&format!("stage.{}", st.as_str())))
            .collect();
        Obs(Arc::new(ObsInner {
            mode: cfg.mode,
            registry,
            tracer: Tracer::new(cfg.ring_capacity),
            stage_hists,
            run_dir,
            label: cfg.label.clone(),
            snapshot_every_ms: cfg.snapshot_every_ms,
        }))
    }

    /// A disabled handle: every probe is a single predicted branch.
    pub fn noop() -> Obs {
        Obs::new(&ObsConfig::default())
    }

    /// The active mode.
    pub fn mode(&self) -> ObsMode {
        self.0.mode
    }

    /// True unless the mode is [`ObsMode::Off`].
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.mode != ObsMode::Off
    }

    /// True when span events are being recorded.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.0.mode == ObsMode::Trace
    }

    /// Monotonic timestamp for span endpoints — 0 when disabled, so hot
    /// paths skip the clock read entirely in `off` mode.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        if self.enabled() {
            monotonic_ns()
        } else {
            0
        }
    }

    /// Records a completed stage span: feeds the per-stage duration
    /// histogram (metrics+), and the span ring (trace only). No-op when off.
    #[inline]
    pub fn stage_span(&self, stage: Stage, id: u64, start_ns: u64, end_ns: u64) {
        if !self.enabled() {
            return;
        }
        self.0.stage_hists[stage as usize].record(end_ns.saturating_sub(start_ns));
        if self.tracing() {
            self.0.tracer.record(stage, id, start_ns, end_ns);
        }
    }

    /// The duration histogram behind a stage (for report/bench readers).
    pub fn stage_hist(&self, stage: Stage) -> &Arc<Histogram> {
        &self.0.stage_hists[stage as usize]
    }

    /// Live-in-every-mode counter handle (see module docs).
    pub fn counter(&self, name: &str) -> Counter {
        self.0.registry.counter(name)
    }

    /// Live-in-every-mode gauge handle.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.0.registry.gauge(name)
    }

    /// Named histogram handle. Callers should gate recording on
    /// [`Obs::enabled`] when the value computation itself has a cost.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.0.registry.histogram(name)
    }

    /// Direct registry access (snapshot paths, tests).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.0.registry
    }

    /// The unique directory this handle dumps into (`None` when off).
    pub fn run_dir(&self) -> Option<&Path> {
        self.0.run_dir.as_deref()
    }

    /// Renders the full metrics snapshot as a JSON object string.
    pub fn snapshot_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"label\":{},\"mode\":\"{}\"",
            serde::Json::Str(self.0.label.clone()).render_compact(),
            self.0.mode.as_str()
        ));
        out.push_str(",\"counters\":{");
        let counters = self.0.registry.counter_values();
        for (i, (name, v)) in counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{}:{v}",
                serde::Json::Str(name.clone()).render_compact()
            ));
        }
        out.push_str("},\"gauges\":{");
        let gauges = self.0.registry.gauge_values();
        for (i, (name, v)) in gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{}:{v}",
                serde::Json::Str(name.clone()).render_compact()
            ));
        }
        out.push_str("},\"hists\":{");
        let mut first = true;
        for (name, h) in self.0.registry.histograms() {
            if h.count() == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let s = h.summary();
            out.push_str(&format!(
                "{}:{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\
                 \"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
                serde::Json::Str(name.clone()).render_compact(),
                s.count,
                s.sum,
                s.min,
                s.max,
                s.p50,
                s.p90,
                s.p99
            ));
            for (i, (floor, count)) in h.nonzero_buckets().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{floor},{count}]"));
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }

    /// End-of-run dump: writes `metrics.json` (always when not off) and
    /// `trace.jsonl` (trace mode) into the run directory. Returns the run
    /// directory, or `None` when the mode is off. Idempotent — callable
    /// both periodically and at shutdown.
    pub fn dump(&self) -> std::io::Result<Option<PathBuf>> {
        let Some(dir) = &self.0.run_dir else {
            return Ok(None);
        };
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("metrics.json"), self.snapshot_json())?;
        if self.tracing() {
            let (events, dropped) = self.0.tracer.drain();
            let mut out = String::new();
            for ev in &events {
                out.push_str(&format!(
                    "{{\"stage\":\"{}\",\"id\":{},\"start_ns\":{},\"end_ns\":{},\"tid\":{}}}\n",
                    ev.stage.as_str(),
                    ev.id,
                    ev.start_ns,
                    ev.end_ns,
                    ev.tid
                ));
            }
            std::fs::write(dir.join("trace.jsonl"), out)?;
            if dropped > 0 {
                // Surfaced in metrics.json on the next dump / report path.
                let c = self.counter("obs.trace_dropped");
                let cur = c.get();
                if dropped > cur {
                    c.add(dropped - cur);
                }
            }
        }
        Ok(Some(dir.clone()))
    }

    /// Starts the periodic `metrics.json` snapshot thread if configured
    /// (`snapshot_every_ms > 0` and mode not off). The returned guard stops
    /// and joins the thread on drop.
    pub fn spawn_periodic_snapshots(&self) -> Option<PeriodicSnapshots> {
        if !self.enabled() || self.0.snapshot_every_ms == 0 {
            return None;
        }
        let stop = Arc::new(AtomicBool::new(false));
        let obs = self.clone();
        let flag = stop.clone();
        let every = std::time::Duration::from_millis(self.0.snapshot_every_ms);
        let handle = std::thread::Builder::new()
            .name("se-obs-snapshot".to_string())
            .spawn(move || {
                while !flag.load(Ordering::Relaxed) {
                    std::thread::sleep(every);
                    let _ = obs.dump();
                }
            })
            .ok()?;
        Some(PeriodicSnapshots {
            stop,
            handle: Some(handle),
        })
    }
}

/// Guard for the periodic snapshot thread; stops it on drop.
pub struct PeriodicSnapshots {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for PeriodicSnapshots {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parsing() {
        assert_eq!(ObsMode::parse("off"), Some(ObsMode::Off));
        assert_eq!(ObsMode::parse(" Metrics "), Some(ObsMode::Metrics));
        assert_eq!(ObsMode::parse("TRACE"), Some(ObsMode::Trace));
        assert_eq!(ObsMode::parse("bogus"), None);
        for m in [ObsMode::Off, ObsMode::Metrics, ObsMode::Trace] {
            assert_eq!(ObsMode::parse(m.as_str()), Some(m));
        }
    }

    #[test]
    fn off_mode_records_nothing_and_dumps_nothing() {
        let obs = Obs::noop();
        assert_eq!(obs.now_ns(), 0);
        obs.stage_span(Stage::BatchExec, 1, 0, 100);
        assert_eq!(obs.stage_hist(Stage::BatchExec).count(), 0);
        assert_eq!(obs.dump().unwrap(), None);
        // Counters stay live even when off: they back the engine stats.
        obs.counter("coord.commits").inc();
        assert_eq!(obs.counter("coord.commits").get(), 1);
    }

    #[test]
    fn metrics_mode_feeds_histograms_not_rings() {
        let cfg = ObsConfig {
            mode: ObsMode::Metrics,
            dir: std::env::temp_dir().join("se-obs-test-metrics"),
            ..ObsConfig::default()
        };
        let obs = Obs::new(&cfg);
        let t0 = obs.now_ns();
        obs.stage_span(Stage::WalFsync, 7, t0, t0 + 1_000);
        assert_eq!(obs.stage_hist(Stage::WalFsync).count(), 1);
        assert!(!obs.tracing());
    }

    #[test]
    fn trace_dump_is_parseable_json() {
        let dir = std::env::temp_dir().join(format!("se-obs-test-dump-{}", std::process::id()));
        let cfg = ObsConfig {
            mode: ObsMode::Trace,
            dir: dir.clone(),
            label: "unit".to_string(),
            ..ObsConfig::default()
        };
        let obs = Obs::new(&cfg);
        obs.counter("coord.commits").add(3);
        obs.stage_span(Stage::BatchSeal, 1, 10, 20);
        obs.stage_span(Stage::BatchExec, 1, 20, 90);
        let run = obs.dump().unwrap().expect("trace mode dumps");
        let metrics = std::fs::read_to_string(run.join("metrics.json")).unwrap();
        let v = serde_json::from_str(&metrics).expect("metrics.json parses");
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("coord.commits"))
                .and_then(|x| x.as_i64()),
            Some(3)
        );
        assert!(v
            .get("hists")
            .and_then(|h| h.get("stage.batch_exec"))
            .is_some());
        let trace = std::fs::read_to_string(run.join("trace.jsonl")).unwrap();
        let lines: Vec<&str> = trace.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let ev = serde_json::from_str(line).expect("trace line parses");
            assert!(ev.get("stage").and_then(|s| s.as_str()).is_some());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn env_config_defaults_off() {
        // Don't set SE_OBS here (env is process-global and tests race);
        // just check the default-path shape.
        let cfg = ObsConfig::default();
        assert_eq!(cfg.mode, ObsMode::Off);
        assert_eq!(cfg.dir, PathBuf::from("obs_results"));
    }
}
