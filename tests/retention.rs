//! Bytes retained per request: a deployment serving a steady stream of
//! requests over a fixed key set must hold a flat live heap. The logs are
//! the one per-request structure that could grow, so this pins their
//! truncation at the recovery floor: StateFun's broker logs with and
//! without checkpoints, and the request source of a StateFlow deployment
//! with no crash scripted, with durability off and on.
//!
//! A durable phase pins the one maintenance pass that touches a whole log:
//! compacting a WAL whose live tail is ≥ 16 MiB must peak at a constant
//! heap, because the tail is copied file to file, never read into memory.
//!
//! The live heap is counted by this binary's global allocator
//! (`tests/heap`), so this file holds exactly one test: nothing else may
//! allocate while it measures.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::time::Duration;

use heap::{serve, LIVE, MEASURED, PEAK, WARM_UP};
use se_dataflow::{ChaosPlan, DurableOptions, DurableStore, StateStore};
use se_lang::Symbol;
use stateful_entities::prelude::*;
use stateful_entities::{CheckpointMode, DurabilityMode};

mod heap;

/// Allowed live-heap growth per measured request. A log that keeps each
/// request and its 1 KiB payload grows by well over a kilobyte.
const MAX_BYTES_PER_REQUEST: isize = 64;

/// Live-heap growth per request over `MEASURED` requests on a warmed-up
/// deployment.
fn bytes_retained_per_request(choice: RuntimeChoice) -> isize {
    let rt = heap::deploy_accounts(choice);
    serve(rt.as_ref(), 0, WARM_UP);
    let before = LIVE.load(Ordering::SeqCst);
    serve(rt.as_ref(), WARM_UP, MEASURED);
    let after = LIVE.load(Ordering::SeqCst);
    rt.shutdown();
    (after - before) / MEASURED as isize
}

/// Commit records logged past the kept cut, and the payload of each:
/// 256 × 64 KiB = 16 MiB of live tail for compaction to carry over.
const TAIL_RECORDS: usize = 256;
const TAIL_RECORD_BYTES: usize = 64 << 10;
/// Allowed live-heap peak while compacting that log. Reading the log into
/// memory, even once, costs its whole length.
const MAX_COMPACT_PEAK: isize = 1 << 20;

/// Peak live-heap growth while `DurableStore::compact_below` rewrites a log
/// whose tail past the kept base is over 16 MiB.
fn compaction_peak_heap() -> isize {
    let dir = std::env::temp_dir().join(format!("se-retention-compact-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let opts = DurableOptions {
        full_snapshot_every: 1,
        ..DurableOptions::default()
    };
    let mut store = DurableStore::open(&dir, "w0", ChaosPlan::none(), opts).unwrap();
    // Every cut writes a base; an empty state keeps the bases tiny, so the
    // log is all there is to copy.
    let state = StateStore::new();
    store.cut_epoch(1, &state).unwrap();
    let entity = EntityRef::new("Account", "a");
    for batch in 0..TAIL_RECORDS {
        let blob = Value::Bytes(vec![batch as u8; TAIL_RECORD_BYTES]);
        let writes = BTreeMap::from([(entity, BTreeMap::from([(Symbol::from("blob"), blob)]))]);
        store.log_commit(batch as u64, &writes).unwrap();
    }
    store.cut_epoch(2, &state).unwrap();
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    store.compact_below(1).unwrap();
    let peak = PEAK.load(Ordering::SeqCst);
    assert!(
        store.wal_len() >= (TAIL_RECORDS * TAIL_RECORD_BYTES) as u64,
        "compaction must carry the whole tail past the kept cut over"
    );
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
    peak - before
}

#[test]
fn live_heap_stays_flat_per_request() {
    // First, while no deployment's threads exist to allocate alongside it.
    let compact_peak = compaction_peak_heap();
    let deployments = [
        (
            "StateFun, CheckpointMode::None",
            RuntimeChoice::Statefun(heap::statefun(CheckpointMode::None)),
        ),
        (
            "StateFun, CheckpointMode::Transactional",
            RuntimeChoice::Statefun(heap::statefun(CheckpointMode::Transactional {
                interval: Duration::from_millis(2),
            })),
        ),
        (
            "StateFlow, DurabilityMode::Off",
            RuntimeChoice::Stateflow(heap::stateflow(DurabilityMode::Off)),
        ),
        (
            "StateFlow, DurabilityMode::Wal",
            RuntimeChoice::Stateflow(heap::stateflow(DurabilityMode::Wal)),
        ),
    ];
    // Every deployment is measured before any is judged, so one failure
    // reports them all.
    let retained: Vec<(&str, isize)> = deployments
        .into_iter()
        .map(|(name, choice)| (name, bytes_retained_per_request(choice)))
        .collect();
    for (name, bytes) in &retained {
        assert!(
            *bytes <= MAX_BYTES_PER_REQUEST,
            "{name} retains {bytes} B per request (all: {retained:?})"
        );
    }
    assert!(
        compact_peak <= MAX_COMPACT_PEAK,
        "compacting a 16 MiB WAL tail peaks at {compact_peak} B of live heap"
    );
}
