//! Bytes retained per request: a StateFun deployment serving a steady
//! stream of requests over a fixed key set must hold a flat live heap. The
//! broker logs are the one per-request structure that could grow, so this
//! pins their truncation at the recovery floor, with and without
//! checkpoints.
//!
//! The live heap is counted by this binary's global allocator, so this file
//! holds exactly one test: nothing else may allocate while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::time::Duration;

use se_dataflow::NetConfig;
use stateful_entities::prelude::*;
use stateful_entities::{CheckpointMode, StatefunConfig};

/// `System`, plus a running count of the bytes currently allocated.
struct Counting;

/// Bytes currently allocated. A statistic that publishes no other data,
/// hence `Relaxed` updates.
static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// caller's `GlobalAlloc` obligations pass straight through and `System`'s
// guarantees come straight back; the only addition is an atomic counter,
// which neither allocates nor touches the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
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
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
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

/// Live-heap growth per request over `MEASURED` requests on a warmed-up
/// deployment of `checkpoint`.
fn bytes_retained_per_request(checkpoint: CheckpointMode) -> isize {
    let mut cfg = StatefunConfig {
        // The default deployment, with the simulated hops and service time
        // scaled away: retention counts bytes, not microseconds.
        net: NetConfig {
            time_scale: 0.0,
            ..NetConfig::default()
        },
        checkpoint,
        ..StatefunConfig::default()
    };
    // Under `SE_OBS=trace` every thread fills a span ring up to its fixed
    // capacity; a small one fills during the warm-up.
    cfg.obs.ring_capacity = 16;
    let program = se_workloads::ycsb_program();
    let rt = deploy(&program, RuntimeChoice::Statefun(cfg)).unwrap();
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

#[test]
fn statefun_live_heap_stays_flat_per_request() {
    let none = bytes_retained_per_request(CheckpointMode::None);
    let transactional = bytes_retained_per_request(CheckpointMode::Transactional {
        interval: Duration::from_millis(2),
    });
    assert!(
        none <= MAX_BYTES_PER_REQUEST,
        "CheckpointMode::None retains {none} B per request"
    );
    assert!(
        transactional <= MAX_BYTES_PER_REQUEST,
        "CheckpointMode::Transactional retains {transactional} B per request"
    );
}
