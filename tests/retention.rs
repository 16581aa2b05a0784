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
//! The live heap is counted by this binary's global allocator, so this file
//! holds exactly one test: nothing else may allocate while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::time::Duration;

use se_dataflow::{ChaosPlan, DurableOptions, DurableStore, NetConfig, StateStore};
use se_lang::Symbol;
use stateful_entities::prelude::*;
use stateful_entities::{CheckpointMode, DurabilityMode, StateflowConfig, StatefunConfig};

/// `System`, plus a running count of the bytes currently allocated and
/// their high-water mark.
struct Counting;

/// Bytes currently allocated. A statistic that publishes no other data,
/// hence `Relaxed` updates.
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// Highest value `LIVE` reached since a reader last reset it to `LIVE`.
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// Adds `delta` to `LIVE` and raises `PEAK` to the result.
fn grow(delta: isize) {
    let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// caller's `GlobalAlloc` obligations pass straight through and `System`'s
// guarantees come straight back; the only additions are two atomic
// counters, which neither allocate nor touch the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            grow(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Keys the requests cycle over: live state is fixed at `KEYS` × 1 KiB.
const KEYS: usize = 8;
/// Requests before the first reading: every buffer reaches its working size.
const WARM_UP: usize = 400;
/// Requests between the two readings.
const MEASURED: usize = 1_600;
/// Allowed live-heap growth per measured request. A log that keeps each
/// request and its 1 KiB payload grows by well over a kilobyte.
const MAX_BYTES_PER_REQUEST: isize = 64;

/// Issues `n` sequential calls over the fixed key set: a 1 KiB `update` of
/// a key, then a `read` of it.
fn serve(rt: &dyn EntityRuntime, from: usize, n: usize) {
    for i in from..from + n {
        let target = EntityRef::new("Account", se_workloads::key_name(i / 2 % KEYS));
        if i % 2 == 0 {
            let payload = Value::Bytes(vec![(i % 251) as u8; 1024]);
            assert_eq!(
                rt.call(target, "update", vec![payload]).unwrap(),
                Value::Bool(true)
            );
        } else {
            let got = rt.call(target, "read", vec![]).unwrap();
            assert!(matches!(got, Value::Bytes(b) if b.len() == 1024));
        }
    }
}

/// The default network model with the simulated hops and service time
/// scaled away: retention counts bytes, not microseconds.
fn untimed_net() -> NetConfig {
    NetConfig {
        time_scale: 0.0,
        ..NetConfig::default()
    }
}

/// Under `SE_OBS=trace` every thread fills a span ring up to its fixed
/// capacity; a small one fills during the warm-up.
const RING_CAPACITY: usize = 16;

/// The default StateFun deployment in `checkpoint` mode.
fn statefun(checkpoint: CheckpointMode) -> RuntimeChoice {
    let mut cfg = StatefunConfig {
        net: untimed_net(),
        checkpoint,
        ..StatefunConfig::default()
    };
    cfg.obs.ring_capacity = RING_CAPACITY;
    RuntimeChoice::Statefun(cfg)
}

/// The default StateFlow deployment (no crash scripted) in `durability`
/// mode.
fn stateflow(durability: DurabilityMode) -> RuntimeChoice {
    let mut cfg = StateflowConfig {
        net: untimed_net(),
        ..StateflowConfig::default()
    };
    cfg.durability.mode = durability;
    cfg.obs.ring_capacity = RING_CAPACITY;
    RuntimeChoice::Stateflow(cfg)
}

/// Live-heap growth per request over `MEASURED` requests on a warmed-up
/// deployment.
fn bytes_retained_per_request(choice: RuntimeChoice) -> isize {
    let program = se_workloads::ycsb_program();
    let rt = deploy(&program, choice).unwrap();
    for k in 0..KEYS {
        rt.create("Account", &se_workloads::key_name(k), vec![])
            .unwrap();
    }
    // Each request pair starts with an update, so a read never sees the
    // empty initial payload.
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
            statefun(CheckpointMode::None),
        ),
        (
            "StateFun, CheckpointMode::Transactional",
            statefun(CheckpointMode::Transactional {
                interval: Duration::from_millis(2),
            }),
        ),
        (
            "StateFlow, DurabilityMode::Off",
            stateflow(DurabilityMode::Off),
        ),
        (
            "StateFlow, DurabilityMode::Wal",
            stateflow(DurabilityMode::Wal),
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
