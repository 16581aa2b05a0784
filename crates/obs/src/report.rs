//! Renders a dumped obs run (`metrics.json` + `trace.jsonl`) into a
//! human-readable timeline: per-batch stage waterfall, stage-latency
//! p50/p99 table, and the counter roll-up. Shared by the `obs_report` bin
//! and `chaos_explore`'s failure reports, so a red nightly is diagnosable
//! from artifacts alone.

use std::collections::BTreeMap;
use std::path::Path;

use crate::span::{SpanEvent, Stage};

/// A parsed obs run directory.
#[derive(Debug, Default)]
pub struct RunData {
    /// Run label from `metrics.json`.
    pub label: String,
    /// Mode string from `metrics.json`.
    pub mode: String,
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Gauge name → level.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram name → (count, mean_ns, p50_ns, p90_ns, p99_ns, max_ns).
    pub hists: BTreeMap<String, HistRow>,
    /// Span events from `trace.jsonl` (empty for metrics-only runs).
    pub events: Vec<SpanEvent>,
}

/// One histogram's summary as read back from `metrics.json`.
#[derive(Debug, Clone, Copy, Default)]
pub struct HistRow {
    /// Sample count.
    pub count: u64,
    /// Mean in nanoseconds.
    pub mean_ns: f64,
    /// Median in nanoseconds.
    pub p50_ns: u64,
    /// 90th percentile in nanoseconds.
    pub p90_ns: u64,
    /// 99th percentile in nanoseconds.
    pub p99_ns: u64,
    /// Maximum in nanoseconds.
    pub max_ns: u64,
}

fn get_u64(v: &serde::Json, key: &str) -> u64 {
    v.get(key).and_then(|x| x.as_f64()).unwrap_or(0.0) as u64
}

impl RunData {
    /// Loads `metrics.json` (required) and `trace.jsonl` (optional) from a
    /// run directory produced by [`crate::Obs::dump`].
    pub fn load(dir: &Path) -> Result<RunData, String> {
        let metrics_path = dir.join("metrics.json");
        let text = std::fs::read_to_string(&metrics_path)
            .map_err(|e| format!("read {}: {e}", metrics_path.display()))?;
        let mut run = RunData::parse_metrics(&text)?;
        let trace_path = dir.join("trace.jsonl");
        if let Ok(trace) = std::fs::read_to_string(&trace_path) {
            run.events = RunData::parse_trace(&trace)?;
        }
        Ok(run)
    }

    /// Parses a `metrics.json` document.
    pub fn parse_metrics(text: &str) -> Result<RunData, String> {
        let v = serde_json::from_str(text).map_err(|e| format!("metrics.json: {e}"))?;
        let mut run = RunData {
            label: v
                .get("label")
                .and_then(|x| x.as_str())
                .unwrap_or("")
                .to_string(),
            mode: v
                .get("mode")
                .and_then(|x| x.as_str())
                .unwrap_or("")
                .to_string(),
            ..RunData::default()
        };
        if let Some(serde::Json::Obj(entries)) = v.get("counters") {
            for (name, val) in entries {
                run.counters
                    .insert(name.clone(), val.as_f64().unwrap_or(0.0) as u64);
            }
        }
        if let Some(serde::Json::Obj(entries)) = v.get("gauges") {
            for (name, val) in entries {
                run.gauges
                    .insert(name.clone(), val.as_f64().unwrap_or(0.0) as i64);
            }
        }
        if let Some(serde::Json::Obj(entries)) = v.get("hists") {
            for (name, h) in entries {
                let count = get_u64(h, "count");
                let sum = get_u64(h, "sum");
                run.hists.insert(
                    name.clone(),
                    HistRow {
                        count,
                        mean_ns: if count == 0 {
                            0.0
                        } else {
                            sum as f64 / count as f64
                        },
                        p50_ns: get_u64(h, "p50"),
                        p90_ns: get_u64(h, "p90"),
                        p99_ns: get_u64(h, "p99"),
                        max_ns: get_u64(h, "max"),
                    },
                );
            }
        }
        Ok(run)
    }

    /// Parses a `trace.jsonl` document (one span event per line).
    pub fn parse_trace(text: &str) -> Result<Vec<SpanEvent>, String> {
        let mut events = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v = serde_json::from_str(line).map_err(|e| format!("trace line {}: {e}", i + 1))?;
            let stage_name = v
                .get("stage")
                .and_then(|s| s.as_str())
                .ok_or_else(|| format!("trace line {}: missing stage", i + 1))?;
            let Some(stage) = Stage::parse(stage_name) else {
                // Forward-compat: skip stages this binary doesn't know.
                continue;
            };
            events.push(SpanEvent {
                stage,
                id: get_u64(&v, "id"),
                start_ns: get_u64(&v, "start_ns"),
                end_ns: get_u64(&v, "end_ns"),
                tid: get_u64(&v, "tid") as u32,
            });
        }
        Ok(events)
    }
}

fn fmt_ns(ns: u64) -> String {
    fmt_ns_f(ns as f64)
}

fn fmt_ns_f(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// The four batch-lifecycle stages, waterfall column order.
const BATCH_STAGES: [Stage; 4] = [
    Stage::BatchSeal,
    Stage::BatchExec,
    Stage::BatchDecide,
    Stage::BatchCommit,
];

/// One batch's reconstructed lifecycle (from trace events).
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchLane {
    /// Batch id.
    pub id: u64,
    /// `[seal, exec, decide, commit]` as `(start_ns, end_ns)`; 0,0 = absent.
    pub stages: [(u64, u64); 4],
}

impl BatchLane {
    /// Earliest stage start (lane sort key).
    pub fn start_ns(&self) -> u64 {
        self.stages
            .iter()
            .filter(|(s, e)| *s != 0 || *e != 0)
            .map(|(s, _)| *s)
            .min()
            .unwrap_or(0)
    }

    /// Latest stage end.
    pub fn end_ns(&self) -> u64 {
        self.stages.iter().map(|(_, e)| *e).max().unwrap_or(0)
    }
}

/// Groups batch-lifecycle spans by batch id, ordered by first activity.
pub fn batch_lanes(events: &[SpanEvent]) -> Vec<BatchLane> {
    let mut lanes: BTreeMap<u64, BatchLane> = BTreeMap::new();
    for ev in events {
        let Some(col) = BATCH_STAGES.iter().position(|s| *s == ev.stage) else {
            continue;
        };
        let lane = lanes.entry(ev.id).or_insert_with(|| BatchLane {
            id: ev.id,
            ..BatchLane::default()
        });
        // A batch id appears once per run, its commit once per worker;
        // last write wins.
        lane.stages[col] = (ev.start_ns, ev.end_ns);
    }
    let mut out: Vec<BatchLane> = lanes.into_values().collect();
    out.sort_by_key(|l| (l.start_ns(), l.id));
    out
}

/// Renders the stage-latency table (count/mean/p50/p90/p99/max per stage
/// histogram, plus any other histograms in the registry).
pub fn render_stage_table(run: &RunData) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<24} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
        "stage", "count", "mean", "p50", "p90", "p99", "max"
    ));
    for (name, h) in &run.hists {
        if h.count == 0 {
            continue;
        }
        out.push_str(&format!(
            "{:<24} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
            name,
            h.count,
            fmt_ns_f(h.mean_ns),
            fmt_ns(h.p50_ns),
            fmt_ns(h.p90_ns),
            fmt_ns(h.p99_ns),
            fmt_ns(h.max_ns),
        ));
    }
    out
}

/// Renders the counter/gauge roll-up.
pub fn render_counters(run: &RunData) -> String {
    let mut out = String::new();
    for (name, v) in &run.counters {
        out.push_str(&format!("{name:<32} {v}\n"));
    }
    for (name, v) in &run.gauges {
        out.push_str(&format!("{name:<32} {v} (gauge)\n"));
    }
    out
}

/// Renders the per-batch waterfall from trace events. Each batch is one
/// row; stage segments are drawn proportionally on a shared time axis.
/// `last_batches` limits to the most recent N batches (0 = all).
pub fn render_waterfall(run: &RunData, last_batches: usize, width: usize) -> String {
    let mut lanes = batch_lanes(&run.events);
    if lanes.is_empty() {
        return "(no batch-lifecycle spans in trace — run with SE_OBS=trace)\n".to_string();
    }
    if last_batches > 0 && lanes.len() > last_batches {
        lanes = lanes.split_off(lanes.len() - last_batches);
    }
    let t0 = lanes.iter().map(|l| l.start_ns()).min().unwrap_or(0);
    // Upgrade markers: every worker's migration pass for one switchover
    // shares the new version as its span id — merge them into one
    // cluster-wide interval per version, drawn on the batch axis so the
    // epoch-boundary switchover is visible between the batches it
    // separates. Markers that end before the shown window are dropped.
    let mut upgrades: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for ev in &run.events {
        if ev.stage != Stage::UpgradeMigrate || ev.end_ns < t0 {
            continue;
        }
        let slot = upgrades.entry(ev.id).or_insert((ev.start_ns, ev.end_ns));
        slot.0 = slot.0.min(ev.start_ns);
        slot.1 = slot.1.max(ev.end_ns);
    }
    let t1 = lanes
        .iter()
        .map(|l| l.end_ns())
        .chain(upgrades.values().map(|(_, e)| *e))
        .max()
        .unwrap_or(t0 + 1);
    let span = (t1 - t0).max(1) as f64;
    let width = width.max(20);
    let glyphs = ['s', 'x', 'd', 'c']; // seal, exec, decide, commit
    let mut out = String::new();
    out.push_str(&format!(
        "batch waterfall — {} batches over {} (s=seal x=exec d=decide c=commit, U=migration)\n",
        lanes.len(),
        fmt_ns(t1 - t0)
    ));
    for lane in &lanes {
        let mut row = vec!['·'; width];
        for (col, (s, e)) in lane.stages.iter().enumerate() {
            if *s == 0 && *e == 0 {
                continue;
            }
            let a = (((s - t0) as f64 / span) * width as f64) as usize;
            let b = (((e - t0) as f64 / span) * width as f64).ceil() as usize;
            for cell in row.iter_mut().take(b.min(width)).skip(a.min(width - 1)) {
                *cell = glyphs[col];
            }
        }
        let total = lane.end_ns().saturating_sub(lane.start_ns());
        out.push_str(&format!(
            "batch {:>5} |{}| {}\n",
            lane.id,
            row.iter().collect::<String>(),
            fmt_ns(total)
        ));
    }
    for (version, (s, e)) in &upgrades {
        let mut row = vec!['·'; width];
        let a = ((s.saturating_sub(t0) as f64 / span) * width as f64) as usize;
        let b = ((e.saturating_sub(t0) as f64 / span) * width as f64).ceil() as usize;
        for cell in row
            .iter_mut()
            .take(b.max(a + 1).min(width))
            .skip(a.min(width - 1))
        {
            *cell = 'U';
        }
        out.push_str(&format!(
            "upg v{:>6} |{}| {}\n",
            version,
            row.iter().collect::<String>(),
            fmt_ns(e.saturating_sub(*s))
        ));
    }
    out
}

/// Full text report: header, waterfall (if trace), stage table, counters.
pub fn render_text(run: &RunData, last_batches: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "obs run {:?} (mode {})\n\n",
        run.label,
        if run.mode.is_empty() {
            "unknown"
        } else {
            &run.mode
        }
    ));
    if !run.events.is_empty() {
        out.push_str(&render_waterfall(run, last_batches, 64));
        out.push('\n');
    }
    out.push_str(&render_stage_table(run));
    out.push('\n');
    out.push_str(&render_counters(run));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_run() -> RunData {
        let metrics = r#"{"label":"t","mode":"trace",
            "counters":{"coord.commits":10,"coord.failed":2},
            "gauges":{"coord.inflight":1},
            "hists":{"stage.batch_exec":{"count":4,"sum":4000,"min":500,
                "max":1500,"p50":900,"p90":1400,"p99":1500,"buckets":[[896,4]]}}}"#;
        let mut run = RunData::parse_metrics(metrics).unwrap();
        run.events = RunData::parse_trace(concat!(
            "{\"stage\":\"batch_seal\",\"id\":1,\"start_ns\":0,\"end_ns\":10,\"tid\":0}\n",
            "{\"stage\":\"batch_exec\",\"id\":1,\"start_ns\":10,\"end_ns\":80,\"tid\":0}\n",
            "{\"stage\":\"batch_decide\",\"id\":1,\"start_ns\":80,\"end_ns\":90,\"tid\":0}\n",
            "{\"stage\":\"batch_commit\",\"id\":1,\"start_ns\":90,\"end_ns\":100,\"tid\":0}\n",
            "{\"stage\":\"batch_exec\",\"id\":2,\"start_ns\":120,\"end_ns\":200,\"tid\":1}\n",
        ))
        .unwrap();
        run
    }

    #[test]
    fn parses_metrics_and_trace() {
        let run = sample_run();
        assert_eq!(run.counters["coord.commits"], 10);
        assert_eq!(run.gauges["coord.inflight"], 1);
        assert_eq!(run.hists["stage.batch_exec"].count, 4);
        assert_eq!(run.events.len(), 5);
    }

    #[test]
    fn lanes_group_by_batch_in_time_order() {
        let run = sample_run();
        let lanes = batch_lanes(&run.events);
        assert_eq!(lanes.len(), 2);
        assert_eq!(lanes[0].id, 1);
        assert_eq!(lanes[0].stages[0], (0, 10));
        assert_eq!(lanes[0].end_ns(), 100);
        assert_eq!(lanes[1].id, 2);
    }

    #[test]
    fn renders_without_panicking_and_mentions_batches() {
        let run = sample_run();
        let text = render_text(&run, 8);
        assert!(text.contains("batch waterfall"));
        assert!(text.contains("batch     1"));
        assert!(text.contains("stage.batch_exec"));
        assert!(text.contains("coord.commits"));
    }

    #[test]
    fn last_batches_limits_lanes() {
        let run = sample_run();
        let text = render_waterfall(&run, 1, 40);
        assert!(!text.contains("batch     1 |"));
        assert!(text.contains("batch     2 |"));
    }

    #[test]
    fn upgrade_markers_merge_workers_and_share_the_axis() {
        let mut run = sample_run();
        // Three workers' migration passes for the v2 switchover, plus a
        // marker that ended before the window (dropped when trimming).
        run.events.extend(
            RunData::parse_trace(concat!(
                "{\"stage\":\"upgrade_migrate\",\"id\":2,\"start_ns\":100,\"end_ns\":110,\"tid\":0}\n",
                "{\"stage\":\"upgrade_migrate\",\"id\":2,\"start_ns\":102,\"end_ns\":118,\"tid\":1}\n",
                "{\"stage\":\"upgrade_migrate\",\"id\":2,\"start_ns\":101,\"end_ns\":112,\"tid\":2}\n",
            ))
            .unwrap(),
        );
        let text = render_waterfall(&run, 0, 40);
        assert!(text.contains("U=migration"), "legend names the marker");
        assert!(text.contains("upg v     2 |"), "one row per version");
        assert!(text.contains('U'), "marker glyph drawn");
        assert_eq!(
            text.matches("upg v").count(),
            1,
            "per-worker spans merge into one cluster-wide row"
        );
        // 18ns merged interval (min start 100, max end 118).
        assert!(
            text.contains("| 18ns"),
            "row labelled with merged duration:\n{text}"
        );
        // Trimming to the last batch (starts at 120) drops the marker.
        let trimmed = render_waterfall(&run, 1, 40);
        assert!(
            !trimmed.contains("upg v"),
            "stale markers trimmed:\n{trimmed}"
        );
    }

    #[test]
    fn unknown_stage_lines_are_skipped() {
        let evs = RunData::parse_trace(
            "{\"stage\":\"future_thing\",\"id\":1,\"start_ns\":0,\"end_ns\":1,\"tid\":0}\n",
        )
        .unwrap();
        assert!(evs.is_empty());
    }
}
