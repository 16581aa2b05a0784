//! # recovery_bench — durable-recovery time vs state size
//!
//! Drives the partition durable layer ([`DurableStore`]) directly, with no
//! runtime in the way, so the numbers isolate the disk path: populate N
//! entities, run E epochs of dirty-key commits with epoch cuts, then measure
//! the wall-clock cost of `recover(target)` — exactly the work a restarted
//! worker does before it can rejoin.
//!
//! Two snapshot modes per state size:
//!
//! * `full` — `full_snapshot_every = 1`: a full base snapshot at every epoch
//!   cut. Recovery loads the newest base and replays (almost) no WAL tail,
//!   but every epoch pays O(total keys) to write the base.
//! * `incremental` — `full_snapshot_every = 8` (the write-amortizing mode):
//!   bases every 8 cuts, so an epoch costs O(dirty keys) and recovery loads
//!   an older base plus up to 7 epochs of WAL tail.
//!
//! Each cell also reports the mean per-epoch maintenance cost (commit
//! logging + epoch cut + any base write) — the paper-facing claim is that
//! incremental mode makes this O(dirty), independent of total state size.
//!
//! Env knobs:
//!   SE_RECOVERY_KEYS    comma ladder of state sizes  (default 1000,10000,100000)
//!   SE_RECOVERY_EPOCHS  epochs of commits after load (default 16)
//!   SE_RECOVERY_DIRTY   % of keys written per epoch  (default 5, min 32 keys)
//!   SE_RECOVERY_REPS    recovery timing repetitions  (default 3)
//!   SE_RECOVERY_FSYNC   fsync policy during populate (default on-epoch)
//!
//! Output: `bench_results/recovery_bench.json`, one row per (mode, keys)
//! per metric, in the uniform bench row schema.

use std::collections::BTreeMap;
use std::time::Instant;

use se_bench::{emit, Row};
use se_core::ChaosPlan;
use se_dataflow::{DurableOptions, DurableStore, FsyncPolicy, StateStore};
use se_lang::{EntityRef, EntityState, Symbol, Value};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

fn env_ladder(name: &str, default: &[usize]) -> Vec<usize> {
    match std::env::var(name) {
        Ok(v) => v.split(',').filter_map(|s| s.trim().parse().ok()).collect(),
        Err(_) => default.to_vec(),
    }
}

fn acct(i: usize) -> EntityRef {
    EntityRef::new("Account", se_workloads::key_name(i))
}

struct Cell {
    mode: &'static str,
    keys: usize,
    epochs: usize,
    dirty: usize,
    wal_bytes: u64,
    bases: usize,
    /// Per-epoch commit+cut wall times, ms.
    epoch_ms: Vec<f64>,
    /// Recovery wall times, ms (one per rep).
    recover_ms: Vec<f64>,
    /// p99 WAL fsync, ms, from the `stage.wal_fsync` histogram (0 when the
    /// fsync policy issued none).
    fsync_p99_ms: f64,
}

fn stats_ms(samples: &[f64]) -> (f64, f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mean = sorted.iter().sum::<f64>() / sorted.len().max(1) as f64;
    let p50 = sorted.get(sorted.len() / 2).copied().unwrap_or(0.0);
    let max = sorted.last().copied().unwrap_or(0.0);
    (mean, p50, max)
}

/// Populates a fresh store, drives `epochs` epochs of dirty writes, then
/// times `reps` recoveries to the final epoch.
fn run_cell(
    mode: &'static str,
    full_snapshot_every: u64,
    keys: usize,
    epochs: usize,
    dirty_pct: usize,
    reps: usize,
    policy: FsyncPolicy,
) -> Cell {
    let dir = std::env::temp_dir().join(format!(
        "se-recovery-bench-{}-{mode}-{keys}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = DurableOptions {
        policy,
        full_snapshot_every,
        skip_crc: false,
    };
    let mut store = DurableStore::open(&dir, "bench", ChaosPlan::none(), opts).unwrap();
    // Metrics-mode obs handle: the fsync_p99_ms column reads the
    // `stage.wal_fsync` histogram this attaches (no dump is written — the
    // handle is registry-only until `dump()` is called).
    let obs = se_obs::Obs::new(&se_obs::ObsConfig {
        mode: se_obs::ObsMode::Metrics,
        label: format!("recovery-{mode}-{keys}"),
        ..Default::default()
    });
    store.set_obs(obs.clone());
    let mut state = StateStore::new();

    // Epoch 1: load the whole key space (creates are logged like the
    // runtime's control-plane does), then cut so a base can exist.
    let balance = Symbol::from("balance");
    for i in 0..keys {
        let init = EntityState::from([("balance", Value::Int(100))]);
        state.insert(acct(i), init.clone());
        store.log_create(acct(i), &init).unwrap();
    }
    store.cut_epoch(1, &state).unwrap();

    // Epochs 2..: each commits a rotating dirty window, then cuts.
    let dirty = (keys * dirty_pct / 100).max(32).min(keys);
    let mut epoch_ms = Vec::with_capacity(epochs);
    for e in 0..epochs {
        let epoch = e as u64 + 2;
        let t = Instant::now();
        let mut writes: BTreeMap<EntityRef, BTreeMap<Symbol, Value>> = BTreeMap::new();
        for j in 0..dirty {
            let key = (e * dirty + j) % keys;
            let value = Value::Int(100 + epoch as i64);
            state
                .apply_write(&acct(key), "balance", value.clone())
                .unwrap();
            writes.insert(acct(key), BTreeMap::from([(balance, value)]));
        }
        store.log_commit(epoch, &writes).unwrap();
        store.cut_epoch(epoch, &state).unwrap();
        epoch_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }

    let target = epochs as u64 + 1;
    let wal_bytes = store.wal_len();
    let bases = {
        // Bases on disk at measurement time (recovery may compact later).
        std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .ok()
                    .map(|e| e.file_name().to_string_lossy().starts_with("base-"))
                    .unwrap_or(false)
            })
            .count()
    };

    // Recovery: newest base ≤ target, then WAL tail replay. The first call
    // truncates the log at the target's cut; repeats redo identical work,
    // which is what a timing loop wants.
    let mut recover_ms = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let (recovered, reached) = store.recover(Some(target)).unwrap();
        recover_ms.push(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(reached, Some(target), "{mode}@{keys}: recovery fell short");
        assert_eq!(
            recovered.len(),
            keys,
            "{mode}@{keys}: recovered state lost entities"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
    let fsync_hist = obs.histogram("stage.wal_fsync");
    let fsync_p99_ms = if fsync_hist.count() == 0 {
        0.0
    } else {
        fsync_hist.value_at(0.99) as f64 / 1e6
    };
    Cell {
        mode,
        keys,
        epochs,
        dirty,
        wal_bytes,
        bases,
        epoch_ms,
        recover_ms,
        fsync_p99_ms,
    }
}

fn rows_for(cell: &Cell, reps: usize, fsync: &str) -> Vec<Row> {
    let (rec_mean, rec_p50, rec_max) = stats_ms(&cell.recover_ms);
    let (ep_mean, ep_p50, ep_max) = stats_ms(&cell.epoch_ms);
    let base = |label: String, mean: f64, p50: f64, p99: f64, count: usize| Row {
        bench: String::new(),
        label,
        system: "durable-store".into(),
        params: Default::default(),
        rps: 0.0,
        mean_ms: mean,
        p50_ms: p50,
        p99_ms: p99,
        tput_rps: 0.0,
        count,
        errors: 0,
        fsync_p99_ms: cell.fsync_p99_ms,
        commit: String::new(),
    };
    let with_cell_params = |row: Row| {
        row.with_param("mode", cell.mode)
            .with_param("keys", cell.keys)
            .with_param("epochs", cell.epochs)
            .with_param("dirty_per_epoch", cell.dirty)
            .with_param("wal_bytes", cell.wal_bytes)
            .with_param("bases_on_disk", cell.bases)
            .with_param("fsync", fsync)
    };
    let mut recover = base(
        format!("recover-{}@{}", cell.mode, cell.keys),
        rec_mean,
        rec_p50,
        rec_max,
        reps,
    );
    // Recovery throughput: entities restored per second of wall time.
    recover.tput_rps = cell.keys as f64 / (rec_mean / 1e3).max(1e-9);
    let epoch = base(
        format!("epoch-cost-{}@{}", cell.mode, cell.keys),
        ep_mean,
        ep_p50,
        ep_max,
        cell.epochs,
    );
    vec![with_cell_params(recover), with_cell_params(epoch)]
}

fn main() {
    let ladder = env_ladder("SE_RECOVERY_KEYS", &[1_000, 10_000, 100_000]);
    let epochs = env_usize("SE_RECOVERY_EPOCHS", 16);
    let dirty_pct = env_usize("SE_RECOVERY_DIRTY", 5).max(1);
    let reps = env_usize("SE_RECOVERY_REPS", 3).max(1);
    let fsync = std::env::var("SE_RECOVERY_FSYNC").unwrap_or_else(|_| "on-epoch".into());
    let policy = FsyncPolicy::parse(&fsync)
        .unwrap_or_else(|| panic!("SE_RECOVERY_FSYNC={fsync:?} is not a valid fsync policy"));

    println!("recovery_bench: keys ladder {ladder:?}, {epochs} epochs, {dirty_pct}% dirty/epoch, {reps} reps, fsync {fsync}");
    let mut rows = Vec::new();
    for &keys in &ladder {
        for (mode, every) in [("full", 1u64), ("incremental", 8u64)] {
            let cell = run_cell(mode, every, keys, epochs, dirty_pct, reps, policy);
            let (rec_mean, _, _) = stats_ms(&cell.recover_ms);
            let (ep_mean, _, _) = stats_ms(&cell.epoch_ms);
            eprintln!(
                "  {mode:>11}@{keys:>7}: recover {rec_mean:8.2} ms  epoch-cost {ep_mean:8.3} ms  \
                 wal {} KiB, {} base(s)",
                cell.wal_bytes / 1024,
                cell.bases
            );
            rows.extend(rows_for(&cell, reps, &fsync));
        }
    }
    emit(
        "recovery_bench",
        "Durable recovery time and per-epoch maintenance cost vs state size, full vs incremental snapshots",
        &rows,
    );
}
