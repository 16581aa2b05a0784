//! Output check: the engine's final state against a single-threaded replay
//! of the issued operations through the Local runtime.

use std::path::Path;
use std::time::Instant;

use se_core::{ChaosPlan, DurableOptions, DurableStore, FsyncPolicy, RuntimeChoice};
use se_dataflow::{read_wal, EntityRuntime};
use se_lang::{EntityRef, Value};
use se_workloads::{key_name, ycsb_program};

use crate::driver::{run_closed_loop, Clock, Rec};
use crate::workload::{
    account_init, account_refs, Op, OpStream, Workload, BALANCE, FULL_SNAPSHOT_EVERY, KEYS,
    OUTSTANDING, PARTITIONS, VALUE_SIZE,
};

/// `data` and `balance` of every account, by key index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinalState {
    /// `read()` of each account.
    pub data: Vec<Vec<u8>>,
    /// `balance()` of each account.
    pub balance: Vec<i64>,
}

/// Replays the first `issued` operations of `stream` in issue order on a
/// fresh Local deployment (reads skipped: they change nothing) and returns
/// the state they leave.
pub fn oracle(stream: &OpStream, issued: usize) -> FinalState {
    let rt = se_core::deploy(&ycsb_program(), RuntimeChoice::Local).expect("Local deploys");
    for i in 0..KEYS {
        rt.create("Account", &key_name(i), account_init())
            .expect("oracle create");
    }
    for i in 0..issued {
        if !matches!(stream.ops[i], Op::Read { .. }) {
            let (target, method, args) = stream.invocation(i);
            rt.call(target, method, args).expect("oracle replay");
        }
    }
    read_back(rt.as_ref(), Clock::start()).expect("oracle read-back")
}

/// Reads `data` and `balance` of every account through the client API.
pub fn read_back(rt: &dyn EntityRuntime, clock: Clock) -> Result<FinalState, String> {
    let refs: Vec<EntityRef> = account_refs(KEYS);
    let mut state = FinalState {
        data: vec![Vec::new(); KEYS],
        balance: vec![0; KEYS],
    };
    let mut problem = None;
    let log = run_closed_loop(
        rt,
        clock,
        OUTSTANDING,
        2 * KEYS,
        &|i| {
            let method = if i < KEYS { "read" } else { "balance" };
            (refs[i % KEYS], method, vec![])
        },
        &mut |i, result| match result {
            Ok(Value::Bytes(b)) if i < KEYS => state.data[i] = b,
            Ok(Value::Int(n)) if i >= KEYS => state.balance[i - KEYS] = n,
            other => problem = Some(format!("read-back {i}: unexpected {other:?}")),
        },
    );
    if let Some(p) = problem {
        return Err(p);
    }
    match log.recs.iter().filter(|r| !r.succeeded()).count() {
        0 => Ok(state),
        n => Err(format!("{n} read-back calls did not complete")),
    }
}

/// Outcome of [`check`].
#[derive(Debug, Default)]
pub struct Verdict {
    /// Keys whose final payload is that of an update still in flight when
    /// the last update to the key was sent (see [`check`]).
    pub reordered_keys: usize,
    /// What is wrong (at most ten findings); empty when the output is
    /// correct.
    pub problems: Vec<String>,
}

/// Compares the engine's final state with the oracle's. `recs[i]` is the
/// life of `stream.ops[i]`.
///
/// Balances must match exactly (no transfer can overdraw, so transfers
/// commute) and their sum must be what was loaded. A payload must equal the
/// oracle's — that of the last update sent to the key — with one exception:
/// two updates to one key in flight together may commit in either order
/// (StateFlow retries the loser of a write-write conflict after batches
/// sealed later; both orders are serial orders consistent with real time).
/// It takes a stream whose last two updates to some key are sent close
/// together — about one seed in a hundred, e.g. seed 7001 on `point_uniform`
/// — so the check admits the payload of an earlier update that had not been
/// seen complete when the key's last update was sent, and nothing else.
pub fn check(
    w: &Workload,
    expected: &FinalState,
    actual: &FinalState,
    stream: &OpStream,
    recs: &[Rec],
) -> Verdict {
    let mut v = Verdict::default();
    for k in 0..KEYS {
        if actual.balance[k] != expected.balance[k] {
            v.problems.push(format!(
                "{}: balance of {} is {}, replay gives {}",
                w.name,
                key_name(k),
                actual.balance[k],
                expected.balance[k]
            ));
        }
        if actual.data[k] == expected.data[k] {
            continue;
        }
        if overlapping_update_wrote(k as u32, &actual.data[k], stream, recs) {
            v.reordered_keys += 1;
            continue;
        }
        let at = (0..VALUE_SIZE)
            .find(|&i| actual.data[k].get(i) != expected.data[k].get(i))
            .unwrap_or(0);
        v.problems.push(format!(
            "{}: data of {} differs from the replay at byte {at}: {:?} against {:?}",
            w.name,
            key_name(k),
            actual.data[k].get(at),
            expected.data[k].get(at)
        ));
    }
    let total: i64 = actual.balance.iter().sum();
    if total != BALANCE * KEYS as i64 {
        v.problems.push(format!(
            "{}: balances sum to {total}, loaded {}",
            w.name,
            BALANCE * KEYS as i64
        ));
    }
    v.problems.truncate(10);
    v
}

/// Whether `data` is the payload of an update to `key`, other than the last
/// one sent, that was still pending when the last one was sent.
fn overlapping_update_wrote(key: u32, data: &[u8], stream: &OpStream, recs: &[Rec]) -> bool {
    let updates: Vec<(usize, u8)> = (0..recs.len())
        .filter_map(|i| match stream.ops[i] {
            Op::Update { key: k, fill } if k == key => Some((i, fill)),
            _ => None,
        })
        .collect();
    let Some((&(last, _), earlier)) = updates.split_last() else {
        return false;
    };
    earlier.iter().any(|&(i, fill)| {
        (recs[i].done == 0 || recs[i].done >= recs[last].issue)
            && data.len() == VALUE_SIZE
            && data.iter().all(|&b| b == fill)
    })
}

/// What is left on disk after a durable run.
#[derive(Debug)]
pub struct DiskReport {
    /// Bytes under the durability directory before recovery touched it.
    pub dir_bytes: u64,
    /// Wall time of opening and recovering every partition, ms.
    pub recover_ms: f64,
}

/// After shutdown: every partition directory scans without a checksum
/// truncation, recovers from disk, and together they restore every account.
pub fn check_durable(dir: &Path) -> Result<DiskReport, String> {
    let dir_bytes = dir_size(dir);
    let start = Instant::now();
    let mut entities = 0;
    for p in 0..PARTITIONS {
        let name = format!("worker{p}");
        let part = dir.join(&name);
        let scan = read_wal(&part.join("wal.log"), false).map_err(|e| format!("{name}: {e}"))?;
        if scan.truncated {
            return Err(format!("{name}: WAL has a torn or corrupt tail"));
        }
        let mut store = DurableStore::open(
            &part,
            name.clone(),
            ChaosPlan::none(),
            DurableOptions {
                policy: FsyncPolicy::OnEpoch,
                full_snapshot_every: FULL_SNAPSHOT_EVERY,
                skip_crc: false,
            },
        )
        .map_err(|e| format!("{name}: open: {e}"))?;
        let (state, reached) = store
            .recover(Some(u64::MAX))
            .map_err(|e| format!("{name}: recover: {e}"))?;
        if reached.is_none() {
            return Err(format!("{name}: no durable epoch to recover to"));
        }
        entities += state.len();
    }
    let recover_ms = start.elapsed().as_secs_f64() * 1e3;
    if entities != KEYS {
        return Err(format!(
            "recovery restored {entities} entities, loaded {KEYS}"
        ));
    }
    Ok(DiskReport {
        dir_bytes,
        recover_ms,
    })
}

fn dir_size(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_size(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
