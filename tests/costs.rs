//! The count ledger: per-request costs that do not drift with the host,
//! each held to a budget. A change that lowers a count lowers its budget
//! with it, so a later rise fails here under the row's name.
//!
//! Allocations per call: sequential point calls (a 1 KiB `update`, then a
//! `read`, over a fixed key set) on a warmed-up deployment with every role
//! on one engine thread (M = 1), observability off, counted across the
//! whole process — client, engine threads and broker alike — by the
//! counting allocator of `tests/heap`. StateFun's row counts the work of
//! its broker round trips; StateFlow's is its companion on the same
//! requests.
//!
//! The allocator counts the whole process, so this file holds exactly one
//! test: nothing else may allocate while it measures.

use std::sync::atomic::Ordering;

use heap::{serve, ALLOCS, MEASURED, WARM_UP};
use stateful_entities::prelude::*;
use stateful_entities::{CheckpointMode, DurabilityMode};

mod heap;
mod one_cpu;

/// StateFun's allocations per call: 30.5 while every broker record copied
/// its routing key in at produce and out at fetch; 27.5 since a key only
/// picks the partition; 26.5 since a client's answer waits in a one-shot
/// slot, not in a delay queue's heap.
const STATEFUN_ALLOCS_PER_CALL: f64 = 26.5;
/// StateFlow's allocations per call, the companion row: 27.0 while a
/// client's answer waited in a delay queue's heap; 26.0 since it waits in a
/// one-shot slot.
const STATEFLOW_ALLOCS_PER_CALL: f64 = 26.0;
/// How far a count may read over its budget. The smallest per-call cost,
/// one allocation in every `update` or every `read`, adds 0.5; a map that
/// grows once in the measured window adds under 0.01.
const SLACK: f64 = 0.25;

/// Heap allocations per call over `MEASURED` calls on a warmed-up
/// deployment of `choice`, made on one CPU.
fn allocations_per_call(choice: RuntimeChoice) -> f64 {
    let rt = one_cpu::on_one_cpu(|| heap::deploy_accounts(choice));
    serve(rt.as_ref(), 0, WARM_UP);
    let before = ALLOCS.load(Ordering::SeqCst);
    serve(rt.as_ref(), WARM_UP, MEASURED);
    let after = ALLOCS.load(Ordering::SeqCst);
    rt.shutdown();
    (after - before) as f64 / MEASURED as f64
}

#[test]
fn sequential_point_calls_allocate_within_budget() {
    let mut statefun = heap::statefun(CheckpointMode::None);
    statefun.obs.mode = se_obs::ObsMode::Off;
    let mut stateflow = heap::stateflow(DurabilityMode::Off);
    stateflow.obs.mode = se_obs::ObsMode::Off;
    let rows = [
        (
            "StateFun",
            allocations_per_call(RuntimeChoice::Statefun(statefun)),
            STATEFUN_ALLOCS_PER_CALL,
        ),
        (
            "StateFlow",
            allocations_per_call(RuntimeChoice::Stateflow(stateflow)),
            STATEFLOW_ALLOCS_PER_CALL,
        ),
    ];
    eprintln!("allocations per call: {rows:?}");
    for (engine, count, budget) in rows {
        assert!(
            count <= budget + SLACK,
            "{engine}: {count} allocations per call, over its budget of {budget} (all: {rows:?})"
        );
    }
}
