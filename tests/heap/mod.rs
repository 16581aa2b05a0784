//! Heap measurement for the test binaries that declare this module: a
//! counting global allocator, and the request stream they measure it under.
//!
//! The allocator counts the whole process, so a binary that declares this
//! module must keep everything else from allocating while one of its tests
//! measures (one test per binary does that).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

use se_dataflow::NetConfig;
use stateful_entities::prelude::*;
use stateful_entities::{CheckpointMode, DurabilityMode, StateflowConfig, StatefunConfig};

/// `System`, plus a running count of the bytes currently allocated, their
/// high-water mark, and the allocations made.
struct Counting;

/// Bytes currently allocated. Statistics that publish no other data,
/// hence `Relaxed` updates here and below.
pub static LIVE: AtomicIsize = AtomicIsize::new(0);

/// Highest value `LIVE` reached since a reader last reset it to `LIVE`.
pub static PEAK: AtomicIsize = AtomicIsize::new(0);

/// Allocations made: every `alloc`, `alloc_zeroed` and `realloc`.
pub static ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// Counts one allocation, adds `delta` to `LIVE` and raises `PEAK` to the
/// result.
fn grow(delta: isize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// caller's `GlobalAlloc` obligations pass straight through and `System`'s
// guarantees come straight back; the only additions are three atomic
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
pub const WARM_UP: usize = 400;
/// Requests between the two readings.
pub const MEASURED: usize = 1_600;

/// Deploys `choice` with the YCSB program and creates the `KEYS` accounts.
pub fn deploy_accounts(choice: RuntimeChoice) -> Box<dyn EntityRuntime> {
    let rt = deploy(&se_workloads::ycsb_program(), choice).unwrap();
    for k in 0..KEYS {
        rt.create("Account", &se_workloads::key_name(k), vec![])
            .unwrap();
    }
    rt
}

/// Issues `n` sequential calls over the fixed key set: a 1 KiB `update` of
/// a key, then a `read` of it. Each pair starts with an update, so a read
/// never sees the empty initial payload.
pub fn serve(rt: &dyn EntityRuntime, from: usize, n: usize) {
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
/// scaled away: the heap tests count bytes and allocations, not
/// microseconds.
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
pub fn statefun(checkpoint: CheckpointMode) -> StatefunConfig {
    let mut cfg = StatefunConfig {
        net: untimed_net(),
        checkpoint,
        ..StatefunConfig::default()
    };
    cfg.obs.ring_capacity = RING_CAPACITY;
    cfg
}

/// The default StateFlow deployment (no crash scripted) in `durability`
/// mode.
pub fn stateflow(durability: DurabilityMode) -> StateflowConfig {
    let mut cfg = StateflowConfig {
        net: untimed_net(),
        ..StateflowConfig::default()
    };
    cfg.durability.mode = durability;
    cfg.obs.ring_capacity = RING_CAPACITY;
    cfg
}
