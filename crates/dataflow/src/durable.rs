//! Per-partition durable state: WAL + incremental snapshots + recovery.
//!
//! A [`DurableStore`] owns one partition's directory:
//!
//! ```text
//! <dir>/wal.log            append-only changelog (see `crate::wal`)
//! <dir>/base-<epoch>.snap  full state at an epoch cut (tmp+rename, CRC'd)
//! ```
//!
//! **Incremental snapshots.** The WAL *is* the changelog: between two epoch
//! cuts it holds exactly the records the partition applied (entity creates
//! and committed writes — the dirty set), so persisting an epoch costs
//! O(dirty keys): append one `EpochCut` marker and fsync. A *full* base
//! snapshot (O(state)) is only written every `full_snapshot_every` cuts to
//! bound replay length; `full_snapshot_every = 1` degenerates to
//! full-snapshot-per-epoch, the comparison arm of `recovery_bench`.
//!
//! **Recovery** ([`DurableStore::recover`]): pick the newest valid base at
//! or below the target epoch, replay the WAL from that base's cut to the
//! target's cut, stop early at the first checksum/length mismatch (torn
//! tail), then truncate the log at the reached cut so re-executed batches
//! append to a clean lineage. The partition reports the epoch it actually
//! reached; the coordinator falls back to the cluster-wide minimum when
//! some partition could not make the target (see the multi-round restore in
//! `se-stateflow`).
//!
//! **Compaction** ([`DurableStore::compact_below`]): once the *cluster*
//! durable floor (the minimum epoch every partition has made durable) has
//! passed a base, the log prefix up to that base is dead weight; the log is
//! rewritten to start at the base's cut and older bases are deleted. Gating
//! on the cluster floor — not the local one — is what keeps a lagging
//! partition's fallback target recoverable everywhere. The rewrite reads
//! nothing before the cut and copies only the live tail, file to file in
//! the kernel (`copy_file_range` on Linux), so it costs O(1) memory
//! however long the log has grown; the `wal_compact` span times it and
//! `durable.compact_bytes` counts the bytes it copies.
//!
//! **Maintenance writes** (a base, a compacted log) go to a `*.tmp` file,
//! are fsynced, then renamed into place, so a crash midway never leaves a
//! torn file under a name recovery reads. [`DurableStore::open`] and
//! [`DurableStore::recover`] delete any `*.tmp` such a crash left behind.
//!
//! **When frames reach the kernel.** The WAL writer keeps appended frames
//! in process memory and hands them to the kernel at these points only:
//! with every cut (under every fsync policy), before every fsync attempt,
//! every `WRITE_CHUNK` bytes, before compaction reads the log, and on a
//! clean close. A commit or create between two cuts therefore costs no
//! system call.
//!
//! **Crash simulation** ([`DurableStore::simulate_crash`]): a plain process
//! crash keeps every byte handed to the kernel (the page cache survives the
//! process) and loses the writer's pending frames with the process memory.
//! That loses nothing recovery reads: every pending frame follows the
//! newest cut, and recovery replays only up to a cut and truncates the log
//! there. Only scripted power-loss faults (`se-chaos`'s `DiskFaultKind`)
//! damage the unsynced part of the file — torn/lost tail, a frame-aware
//! bit flip, a vanished base snapshot.
//!
//! Under `every-commit` and `on-epoch` that unsynced part is empty: frames
//! reach the kernel at a cut or a sync, and each such hand-off is synced
//! too, so a process crash leaves exactly the synced prefix (an epoch
//! whose frames pass `WRITE_CHUNK` is the one exception under `on-epoch`).
//! Tail and bit-flip faults therefore act only under `never`, or after a
//! scripted `FailedFsync` left a flushed cut unsynced.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use se_chaos::{ChaosPlan, DiskFaultKind};
use se_lang::{EntityRef, EntityState, Symbol, Value};

use crate::state::StateStore;
use crate::wal::{put_create_frame, read_wal, FsyncPolicy, WalRecord, WalWriter, WRITE_CHUNK};

/// Name of the log a compaction builds before renaming it over `wal.log`.
const WAL_TMP: &str = "wal.log.tmp";

/// Durable-layer knobs (a value type so configs stay `Clone + Debug`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableOptions {
    /// Group-commit fsync policy for the WAL.
    pub policy: FsyncPolicy,
    /// Full base snapshots every this many epoch cuts (≥ 1). `1` writes a
    /// full base at every cut (the "full" snapshot mode); larger values
    /// amortize base cost across incremental epochs.
    pub full_snapshot_every: u64,
    /// **Injected bug** (`SE_CHAOS_INJECT_BUG=wal-no-crc`): skip checksum
    /// verification on replay. Exists so the chaos self-test can prove the
    /// checker catches silently-applied corruption; never set otherwise.
    pub skip_crc: bool,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            policy: FsyncPolicy::OnEpoch,
            full_snapshot_every: 4,
            skip_crc: false,
        }
    }
}

/// One partition's durable storage: WAL writer + base snapshots + the
/// bookkeeping recovery and compaction need.
#[derive(Debug)]
pub struct DurableStore {
    dir: PathBuf,
    node: String,
    plan: ChaosPlan,
    opts: DurableOptions,
    writer: Option<WalWriter>,
    /// Epoch the current `wal.log` starts after (its `BaseRef`).
    wal_base: u64,
    /// `(epoch, end offset)` of every cut in the current log, ascending.
    cuts: Vec<(u64, u64)>,
    /// Epochs with a base snapshot on disk, ascending.
    bases: Vec<u64>,
    /// Cuts since the last base snapshot (drives `full_snapshot_every`).
    cuts_since_base: u64,
    /// Observability handle (noop unless attached via
    /// [`DurableStore::set_obs`]): epoch-cut and compaction spans here, WAL
    /// append/fsync spans forwarded to the writer.
    obs: se_obs::Obs,
    /// `durable.compact_bytes`: log bytes compaction copied (always on).
    compact_bytes: se_obs::Counter,
}

impl DurableStore {
    /// Opens (creating if needed) the partition directory. An existing WAL
    /// is scanned so the cut index and synced prefix are rebuilt; a fresh
    /// directory gets an empty log based at epoch 0.
    pub fn open(
        dir: impl Into<PathBuf>,
        node: impl Into<String>,
        plan: ChaosPlan,
        opts: DurableOptions,
    ) -> io::Result<DurableStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut store = DurableStore {
            dir,
            node: node.into(),
            plan,
            opts,
            writer: None,
            wal_base: 0,
            cuts: Vec::new(),
            bases: Vec::new(),
            cuts_since_base: 0,
            obs: se_obs::Obs::noop(),
            compact_bytes: se_obs::Counter::detached(),
        };
        store.bases = store.scan_dir()?;
        let wal = store.wal_path();
        if wal.exists() {
            let scan = read_wal(&wal, store.opts.skip_crc)?;
            store.index_scan(&scan.records);
            store.writer = Some(WalWriter::reopen(
                &wal,
                scan.valid_len,
                store.opts.policy,
                store.obs.clone(),
            )?);
        } else {
            store.writer = Some(WalWriter::create(
                &wal,
                0,
                store.opts.policy,
                store.obs.clone(),
            )?);
        }
        Ok(store)
    }

    /// Attaches an observability handle to the store and its WAL writer.
    /// Survives crash/recover cycles: reopened writers are built with it.
    pub fn set_obs(&mut self, obs: se_obs::Obs) {
        if let Some(w) = self.writer.as_mut() {
            w.set_obs(obs.clone());
        }
        self.compact_bytes = obs.counter("durable.compact_bytes");
        self.obs = obs;
    }

    fn wal_path(&self) -> PathBuf {
        self.dir.join("wal.log")
    }

    fn base_path(&self, epoch: u64) -> PathBuf {
        self.dir.join(format!("base-{epoch:020}.snap"))
    }

    /// Base snapshot epochs present on disk, ascending. Deletes on the way
    /// the `base-*.tmp` / `wal.log.tmp` of a maintenance write that died
    /// before its rename: nothing ever reads them.
    fn scan_dir(&self) -> io::Result<Vec<u64>> {
        let mut bases = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name == WAL_TMP || (name.starts_with("base-") && name.ends_with(".tmp")) {
                fs::remove_file(entry.path())?;
            } else if let Some(epoch) = name
                .strip_prefix("base-")
                .and_then(|s| s.strip_suffix(".snap"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                bases.push(epoch);
            }
        }
        bases.sort_unstable();
        Ok(bases)
    }

    /// Rebuilds `wal_base`/`cuts` from a scan of the current log.
    fn index_scan(&mut self, records: &[(u64, WalRecord)]) {
        self.wal_base = match records.first() {
            Some((_, WalRecord::BaseRef { epoch })) => *epoch,
            _ => 0,
        };
        self.cuts = records
            .iter()
            .filter_map(|(end, r)| match r {
                WalRecord::EpochCut { epoch } => Some((*epoch, *end)),
                _ => None,
            })
            .collect();
        self.cuts_since_base = match self.bases.last() {
            Some(base) => self.cuts.iter().filter(|(e, _)| e > base).count() as u64,
            None => self.cuts.len() as u64,
        };
    }

    fn writer(&mut self) -> io::Result<&mut WalWriter> {
        // After `simulate_crash` the writer is closed; the partition is
        // dead and must not log anything until `recover` reopens it.
        self.writer
            .as_mut()
            .ok_or_else(|| io::Error::other("durable store closed (crashed partition)"))
    }

    /// Logs an entity create (the control-plane path).
    pub fn log_create(&mut self, entity: EntityRef, state: &EntityState) -> io::Result<()> {
        let record = WalRecord::Create {
            entity,
            state: state.clone(),
        };
        self.append(&record)
    }

    /// Logs one committed transaction's writes, stamped with its batch.
    pub fn log_commit(
        &mut self,
        batch: u64,
        writes: &BTreeMap<EntityRef, BTreeMap<Symbol, Value>>,
    ) -> io::Result<()> {
        let record = WalRecord::Commit {
            batch,
            writes: writes
                .iter()
                .map(|(entity, attrs)| {
                    (
                        *entity,
                        attrs.iter().map(|(a, v)| (*a, v.clone())).collect(),
                    )
                })
                .collect(),
        };
        self.append(&record)
    }

    fn append(&mut self, record: &WalRecord) -> io::Result<()> {
        let plan = self.plan.clone();
        let node = self.node.clone();
        self.writer()?.append(record, || plan.fsync_fault(&node))
    }

    /// Logs a committed live upgrade to `version`: every record after this
    /// marker (including it, on replay) executed under the new program. The
    /// caller appends it *after* the migration pass's commit records, so a
    /// replay that reaches the marker has the migrated state.
    pub fn log_version_cut(&mut self, version: u64) -> io::Result<()> {
        self.append(&WalRecord::VersionCut { version })
    }

    /// Marks epoch `epoch`'s cut: appends the marker (fsynced per policy —
    /// the epoch is durable exactly when this record is) and writes a full
    /// base snapshot every `full_snapshot_every` cuts.
    pub fn cut_epoch(&mut self, epoch: u64, state: &StateStore) -> io::Result<()> {
        let t0 = self.obs.now_ns();
        self.append(&WalRecord::EpochCut { epoch })?;
        // The cut was handed to the kernel with everything before it.
        let end = self.writer()?.flushed_len();
        self.cuts.push((epoch, end));
        self.cuts_since_base += 1;
        if self.cuts_since_base >= self.opts.full_snapshot_every {
            self.write_base(epoch, state)?;
            self.cuts_since_base = 0;
        }
        self.obs
            .stage_span(se_obs::Stage::EpochCut, epoch, t0, self.obs.now_ns());
        Ok(())
    }

    /// Writes a full base snapshot at `epoch` (tmp + rename, every frame
    /// CRC'd, fsynced before the rename so a crash never leaves a torn
    /// base under the final name). Frames are encoded straight from the
    /// borrowed state into one buffer, written every `WRITE_CHUNK`.
    fn write_base(&mut self, epoch: u64, state: &StateStore) -> io::Result<()> {
        let tmp = self.dir.join(format!("base-{epoch:020}.tmp"));
        {
            let mut f = fs::File::create(&tmp)?;
            let mut buf = WalRecord::BaseRef { epoch }.encode_frame();
            buf.reserve(WRITE_CHUNK);
            // Deterministic file bytes: entities in key order.
            let mut entities: Vec<(&EntityRef, &EntityState)> = state.iter().collect();
            entities.sort_by_key(|(r, _)| **r);
            for (entity, st) in entities {
                put_create_frame(&mut buf, entity, st);
                if buf.len() >= WRITE_CHUNK {
                    f.write_all(&buf)?;
                    buf.clear();
                }
            }
            f.write_all(&buf)?;
            f.sync_data()?;
        }
        fs::rename(&tmp, self.base_path(epoch))?;
        self.bases.push(epoch);
        self.bases.sort_unstable();
        Ok(())
    }

    /// Loads a base snapshot, validating every frame. Returns `None` when
    /// the file is missing, torn, or not a well-formed base for `epoch`.
    fn load_base(&self, epoch: u64) -> io::Result<Option<StateStore>> {
        let path = self.base_path(epoch);
        if !path.exists() {
            return Ok(None);
        }
        let scan = read_wal(&path, self.opts.skip_crc)?;
        if scan.truncated {
            return Ok(None);
        }
        let mut records = scan.records.into_iter();
        match records.next() {
            Some((_, WalRecord::BaseRef { epoch: e })) if e == epoch => {}
            _ => return Ok(None),
        }
        let mut store = StateStore::new();
        for (_, record) in records {
            match record {
                WalRecord::Create { entity, state } => store.insert(entity, state),
                _ => return Ok(None),
            }
        }
        Ok(Some(store))
    }

    /// The newest epoch this partition can serve a recovery for from disk
    /// alone, under power-loss semantics: the newest cut inside the synced
    /// WAL prefix, or the newest base snapshot, whichever is later.
    pub fn last_durable_epoch(&self) -> Option<u64> {
        let synced = self.writer.as_ref().map(|w| w.synced_len()).unwrap_or(0);
        let synced_cut = self
            .cuts
            .iter()
            .rev()
            .find(|(_, end)| *end <= synced)
            .map(|(e, _)| *e)
            .or(if self.wal_base > 0 {
                Some(self.wal_base)
            } else {
                None
            });
        match (synced_cut, self.bases.last().copied()) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        }
    }

    /// Recovers this partition's state from disk.
    ///
    /// With `target = Some(t)`: loads the newest valid base ≤ `t`, replays
    /// the WAL to `t`'s cut (stopping early at corruption), truncates the
    /// log at the cut actually reached and deletes bases beyond it (they
    /// belong to the abandoned lineage). Returns the reconstructed state
    /// and the epoch reached — `None` meaning "initial empty state", which
    /// happens when nothing recoverable precedes `t`.
    ///
    /// With `target = None`: the protocol is restarting from the beginning
    /// of the source; all durable state is reset.
    pub fn recover(&mut self, target: Option<u64>) -> io::Result<(StateStore, Option<u64>)> {
        self.writer = None;
        self.bases = self.scan_dir()?;
        let Some(target) = target else {
            self.reset_all()?;
            return Ok((StateStore::new(), None));
        };
        let wal = self.wal_path();
        let scan = if wal.exists() {
            read_wal(&wal, self.opts.skip_crc)?
        } else {
            crate::wal::WalScan {
                records: Vec::new(),
                valid_len: 0,
                truncated: false,
            }
        };
        self.index_scan(&scan.records);

        // Base frame end (records at or before it precede the log's first
        // epoch) and the cut offsets of the valid prefix.
        let base_frame_end = match scan.records.first() {
            Some((end, WalRecord::BaseRef { .. })) => *end,
            _ => 0,
        };
        // Choose the newest base snapshot the log can replay forward from:
        // at or below the target, and positioned in this log (== wal_base,
        // or owning a cut record in the valid prefix).
        let mut chosen: Option<(u64, StateStore, u64)> = None; // (epoch, state, start offset)
        for &epoch in self.bases.iter().rev() {
            if epoch > target {
                continue;
            }
            let start = if epoch == self.wal_base {
                Some(base_frame_end)
            } else {
                self.cuts.iter().find(|(e, _)| *e == epoch).map(|(_, o)| *o)
            };
            let Some(start) = start else { continue };
            if let Some(state) = self.load_base(epoch)? {
                chosen = Some((epoch, state, start));
                break;
            }
        }
        let (mut reached, mut store, start) = match chosen {
            Some((epoch, state, start)) => (epoch, state, start),
            None if self.wal_base == 0 => (0, StateStore::new(), base_frame_end),
            None => {
                // The log was compacted past every surviving base: nothing
                // on disk reaches back to the beginning, so the partition
                // can only rejoin from the initial state.
                self.reset_all()?;
                return Ok((StateStore::new(), None));
            }
        };
        // Pass 1: find the cut to recover to — the newest cut at or below
        // the target past the base's position. Records beyond it belong to
        // an epoch that never cut (or lies past the target); re-executed
        // batches will re-log them, so that tail must not be applied.
        let mut valid_end = start;
        for (end, record) in &scan.records {
            if *end <= start {
                continue;
            }
            if let WalRecord::EpochCut { epoch } = record {
                if *epoch > target {
                    break;
                }
                reached = *epoch;
                valid_end = *end;
                if *epoch == target {
                    break;
                }
            }
        }
        // Pass 2: apply exactly the records up to that cut.
        for (end, record) in &scan.records {
            if *end <= start || *end > valid_end {
                continue;
            }
            match record {
                WalRecord::Create { entity, state } => store.insert(*entity, state.clone()),
                WalRecord::Commit { writes, .. } => {
                    for (entity, attrs) in writes {
                        for (attr, value) in attrs {
                            store
                                .apply_write(entity, *attr, value.clone())
                                .map_err(|e| io::Error::other(format!("WAL replay: {e}")))?;
                        }
                    }
                }
                // The migration's writes precede a `VersionCut`, so reaching
                // it means the recovered state is already migrated.
                WalRecord::VersionCut { .. }
                | WalRecord::EpochCut { .. }
                | WalRecord::BaseRef { .. } => {}
            }
        }
        self.rebuild_at(reached, valid_end)?;
        Ok((store, if reached == 0 { None } else { Some(reached) }))
    }

    /// Truncates the log at `valid_end`, drops bases beyond `reached`, and
    /// reopens the writer on the surviving prefix.
    fn rebuild_at(&mut self, reached: u64, valid_end: u64) -> io::Result<()> {
        for &epoch in self.bases.iter().filter(|&&e| e > reached) {
            fs::remove_file(self.base_path(epoch)).ok();
        }
        self.bases.retain(|&e| e <= reached);
        self.cuts
            .retain(|(e, end)| *e <= reached && *end <= valid_end);
        self.cuts_since_base = match self.bases.last() {
            Some(base) => self.cuts.iter().filter(|(e, _)| e > base).count() as u64,
            None => self.cuts.len() as u64,
        };
        let wal = self.wal_path();
        if wal.exists() {
            self.writer = Some(WalWriter::reopen(
                &wal,
                valid_end,
                self.opts.policy,
                self.obs.clone(),
            )?);
        } else {
            self.writer = Some(WalWriter::create(
                &wal,
                0,
                self.opts.policy,
                self.obs.clone(),
            )?);
            self.wal_base = 0;
        }
        Ok(())
    }

    /// Deletes every base and restarts the log at epoch 0.
    fn reset_all(&mut self) -> io::Result<()> {
        for &epoch in &self.bases {
            fs::remove_file(self.base_path(epoch)).ok();
        }
        self.bases.clear();
        self.cuts.clear();
        self.cuts_since_base = 0;
        self.wal_base = 0;
        self.writer = Some(WalWriter::create(
            &self.wal_path(),
            0,
            self.opts.policy,
            self.obs.clone(),
        )?);
        Ok(())
    }

    /// Compacts the log below the **cluster** durable floor: rewrites
    /// `wal.log` to start at the newest base ≤ `floor` and deletes older
    /// bases. A no-op until such a base exists past the current log base.
    ///
    /// Only the tail after the base's cut is read, and it is copied file to
    /// file (in the kernel where the OS can), so memory stays O(1) in the
    /// log's length. The rewrite fsyncs what it copies (a deliberate
    /// maintenance write), so compaction also promotes the copied tail to
    /// durable.
    pub fn compact_below(&mut self, floor: u64) -> io::Result<()> {
        let Some(&keep) = self.bases.iter().rev().find(|&&e| e <= floor) else {
            return Ok(());
        };
        if keep <= self.wal_base {
            return Ok(());
        }
        let Some((_, cut_end)) = self.cuts.iter().find(|(e, _)| *e == keep).copied() else {
            return Ok(());
        };
        let t0 = self.obs.now_ns();
        // The copy below reads the file: pending frames go to the kernel
        // first.
        self.writer()?.flush()?;
        let wal = self.wal_path();
        let mut old = fs::File::open(&wal)?;
        if cut_end > old.metadata()?.len() {
            return Ok(());
        }
        old.seek(SeekFrom::Start(cut_end))?;
        let base_ref = WalRecord::BaseRef { epoch: keep }.encode_frame();
        let tmp = self.dir.join(WAL_TMP);
        let copied = {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&base_ref)?;
            // File to file: std hands this to `copy_file_range` on Linux,
            // so the tail never passes through a user-space buffer.
            let copied = io::copy(&mut old, &mut f)?;
            f.sync_data()?;
            copied
        };
        fs::rename(&tmp, &wal)?;
        let new_base_end = base_ref.len() as u64;
        self.cuts = self
            .cuts
            .iter()
            .filter(|(e, _)| *e > keep)
            .map(|(e, off)| (*e, off - cut_end + new_base_end))
            .collect();
        self.wal_base = keep;
        for &epoch in self.bases.iter().filter(|&&e| e < keep) {
            fs::remove_file(self.base_path(epoch)).ok();
        }
        self.bases.retain(|&e| e >= keep);
        self.writer = Some(WalWriter::reopen(
            &wal,
            new_base_end + copied,
            self.opts.policy,
            self.obs.clone(),
        )?);
        self.compact_bytes.add(copied);
        self.obs
            .stage_span(se_obs::Stage::WalCompact, keep, t0, self.obs.now_ns());
        Ok(())
    }

    /// Simulates this partition crashing: discards the writer's pending
    /// frames (process memory dies with the process) and applies the chaos
    /// plan's next crash-time disk fault (if any) to the bytes the kernel
    /// holds. Without a fault, every byte handed to the kernel survives —
    /// the page cache outlives the process.
    pub fn simulate_crash(&mut self) -> io::Result<()> {
        let (flushed, synced) = match self.writer.take() {
            Some(w) => w.discard(),
            None => {
                let len = fs::metadata(self.wal_path()).map(|m| m.len()).unwrap_or(0);
                (len, len)
            }
        };
        let Some(fault) = self.plan.crash_disk_fault(&self.node) else {
            return Ok(());
        };
        let wal = self.wal_path();
        match fault {
            DiskFaultKind::LostTail => {
                // Power loss: everything past the last fsync is gone.
                if wal.exists() {
                    let f = fs::OpenOptions::new().write(true).open(&wal)?;
                    f.set_len(synced)?;
                }
            }
            DiskFaultKind::TornTail { bytes } => {
                // The tail is cut mid-record, but never into synced data.
                if wal.exists() {
                    let keep = flushed.saturating_sub(bytes).max(synced);
                    let f = fs::OpenOptions::new().write(true).open(&wal)?;
                    f.set_len(keep)?;
                }
            }
            DiskFaultKind::BitFlip => {
                if wal.exists() {
                    let mut bytes = fs::read(&wal)?;
                    if let Some(at) = last_data_payload_end(&bytes, synced) {
                        bytes[at] ^= 1;
                        fs::write(&wal, &bytes)?;
                    }
                }
            }
            DiskFaultKind::MissingSnapshot => {
                if let Some(&newest) = self.bases.last() {
                    fs::remove_file(self.base_path(newest)).ok();
                    self.bases.pop();
                }
            }
            // Fsync faults fire at the fsync hook, not at crash time.
            DiskFaultKind::SlowFsync { .. } | DiskFaultKind::FailedFsync { .. } => {}
        }
        Ok(())
    }

    /// The partition directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Bytes appended to the log: handed to the kernel or still pending,
    /// not necessarily synced.
    pub fn wal_len(&self) -> u64 {
        self.writer.as_ref().map(|w| w.written_len()).unwrap_or(0)
    }
}

/// Finds the index of the last payload byte of the last complete `Create`/
/// `Commit` frame that starts inside the unsynced region `[synced, ..)` —
/// the frame-aware bit-flip target. Flipping a *data* byte keeps the frame
/// well-formed (only the CRC can notice), which is exactly the silent
/// corruption the `wal-no-crc` self-test needs to slip past a checksum-skip
/// bug; flipping framing bytes would degrade into an honest torn tail.
fn last_data_payload_end(buf: &[u8], synced: u64) -> Option<usize> {
    let mut pos = 0usize;
    let mut target = None;
    while buf.len() - pos >= crate::wal::FRAME_HEADER {
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
        let payload_start = pos + crate::wal::FRAME_HEADER;
        if len > crate::wal::MAX_RECORD_LEN as usize || buf.len() - payload_start < len {
            break;
        }
        // Record tag 1 = Create, 2 = Commit (see `WalRecord::encode`).
        let tag = buf.get(payload_start).copied().unwrap_or(255);
        if pos as u64 >= synced && (tag == 1 || tag == 2) && len >= 2 {
            target = Some(payload_start + len - 1);
        }
        pos = payload_start + len;
    }
    target
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(policy: FsyncPolicy, full_every: u64) -> DurableOptions {
        DurableOptions {
            policy,
            full_snapshot_every: full_every,
            skip_crc: false,
        }
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "se-durable-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn acct(k: &str) -> EntityRef {
        EntityRef::new("Account", k)
    }

    fn commit_writes(k: &str, balance: i64) -> BTreeMap<EntityRef, BTreeMap<Symbol, Value>> {
        let mut attrs = BTreeMap::new();
        attrs.insert(Symbol::from("balance"), Value::Int(balance));
        let mut writes = BTreeMap::new();
        writes.insert(acct(k), attrs);
        writes
    }

    /// Drives `n` epochs of single-write batches into a fresh store.
    fn populate(store: &mut DurableStore, state: &mut StateStore, epochs: u64) {
        for epoch in 1..=epochs {
            let key = format!("k{epoch}");
            let entity = acct(&key);
            let init = EntityState::from([("balance", Value::Int(0))]);
            state.insert(entity, init.clone());
            store.log_create(entity, &init).unwrap();
            state
                .apply_write(&entity, "balance", Value::Int(epoch as i64))
                .unwrap();
            store
                .log_commit(epoch, &commit_writes(&key, epoch as i64))
                .unwrap();
            store.cut_epoch(epoch, state).unwrap();
        }
    }

    #[test]
    fn recovery_replays_base_plus_wal_tail() {
        let dir = tempdir("base-plus-tail");
        let plan = ChaosPlan::none();
        let mut store =
            DurableStore::open(&dir, "w0", plan.clone(), opts(FsyncPolicy::OnEpoch, 2)).unwrap();
        let mut state = StateStore::new();
        populate(&mut store, &mut state, 5);
        // Bases at epochs 2 and 4; epoch 5 lives only in the WAL tail.
        let (recovered, reached) = store.recover(Some(5)).unwrap();
        assert_eq!(reached, Some(5));
        assert_eq!(recovered.len(), 5);
        for e in 1..=5i64 {
            let got = recovered.get(&acct(&format!("k{e}"))).unwrap();
            assert_eq!(got.get("balance"), Some(&Value::Int(e)));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_to_earlier_target_truncates_the_future() {
        let dir = tempdir("earlier-target");
        let mut store =
            DurableStore::open(&dir, "w0", ChaosPlan::none(), opts(FsyncPolicy::OnEpoch, 2))
                .unwrap();
        let mut state = StateStore::new();
        populate(&mut store, &mut state, 6);
        let (mut recovered, reached) = store.recover(Some(3)).unwrap();
        assert_eq!(reached, Some(3));
        assert_eq!(
            recovered.len(),
            3,
            "entities created after epoch 3 are gone"
        );
        // Bases beyond the recovery point belong to the dead lineage.
        assert!(
            store.bases.iter().all(|&e| e <= 3),
            "bases: {:?}",
            store.bases
        );
        // The lineage continues cleanly: epoch 4 can be re-cut.
        store.log_commit(7, &commit_writes("k1", 99)).unwrap();
        recovered
            .apply_write(&acct("k1"), "balance", Value::Int(99))
            .unwrap();
        store.cut_epoch(4, &recovered).unwrap();
        let (again, reached2) = store.recover(Some(4)).unwrap();
        assert_eq!(reached2, Some(4));
        assert_eq!(
            again.get(&acct("k1")).unwrap().get("balance"),
            Some(&Value::Int(99))
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_recovers_to_last_durable_prefix() {
        let dir = tempdir("torn");
        let script = se_chaos::FaultScript {
            disk: vec![se_chaos::DiskFault {
                node: "w0".into(),
                kind: DiskFaultKind::LostTail,
            }],
            ..Default::default()
        };
        let plan = ChaosPlan::from_script(script);
        let mut store =
            DurableStore::open(&dir, "w0", plan, opts(FsyncPolicy::OnEpoch, 100)).unwrap();
        let mut state = StateStore::new();
        populate(&mut store, &mut state, 3);
        // Epoch 3 cut is synced (OnEpoch); writes after it are not.
        store.log_commit(99, &commit_writes("k1", 1234)).unwrap();
        assert_eq!(store.last_durable_epoch(), Some(3));
        store.simulate_crash().unwrap();
        let (recovered, reached) = store.recover(Some(3)).unwrap();
        assert_eq!(reached, Some(3));
        assert_eq!(
            recovered.get(&acct("k1")).unwrap().get("balance"),
            Some(&Value::Int(1)),
            "the unsynced write must not survive the lost tail"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Frames appended after the newest cut live in process memory only:
    /// a crash with no disk fault discards them, and recovery lands exactly
    /// on the last cut — under `Never` too, whose cuts reach the kernel
    /// without a sync.
    #[test]
    fn crash_after_post_cut_appends_recovers_exactly_the_last_cut() {
        for policy in [FsyncPolicy::OnEpoch, FsyncPolicy::Never] {
            let dir = tempdir(&format!("post-cut-{policy}"));
            let mut store =
                DurableStore::open(&dir, "w0", ChaosPlan::none(), opts(policy, 100)).unwrap();
            let mut state = StateStore::new();
            populate(&mut store, &mut state, 3);
            let (_, cut_end) = *store.cuts.last().unwrap();
            store.log_create(acct("late"), &EntityState::new()).unwrap();
            store.log_commit(99, &commit_writes("k1", 1234)).unwrap();
            assert_eq!(
                fs::metadata(store.wal_path()).unwrap().len(),
                cut_end,
                "{policy}: the post-cut frames are still pending"
            );
            store.simulate_crash().unwrap();
            assert_eq!(fs::metadata(store.wal_path()).unwrap().len(), cut_end);
            let (recovered, reached) = store.recover(Some(3)).unwrap();
            assert_eq!(reached, Some(3), "{policy}");
            assert_eq!(recovered.len(), 3, "{policy}: no entity past the cut");
            for e in 1..=3i64 {
                let got = recovered.get(&acct(&format!("k{e}"))).unwrap();
                assert_eq!(got.get("balance"), Some(&Value::Int(e)), "{policy}");
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn missing_snapshot_falls_back_to_full_replay() {
        let dir = tempdir("missing-snap");
        let script = se_chaos::FaultScript {
            disk: vec![se_chaos::DiskFault {
                node: "w0".into(),
                kind: DiskFaultKind::MissingSnapshot,
            }],
            ..Default::default()
        };
        let plan = ChaosPlan::from_script(script);
        let mut store =
            DurableStore::open(&dir, "w0", plan, opts(FsyncPolicy::OnEpoch, 3)).unwrap();
        let mut state = StateStore::new();
        populate(&mut store, &mut state, 4);
        store.simulate_crash().unwrap(); // deletes base-3
        let (recovered, reached) = store.recover(Some(4)).unwrap();
        assert_eq!(reached, Some(4), "full log replay still reaches the target");
        assert_eq!(recovered.len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bitflip_truncates_with_crc_and_slips_through_without() {
        for (skip_crc, expect_balance) in [(false, 3), (true, 3 + (1i64 << 56))] {
            let dir = tempdir(if skip_crc { "flip-buggy" } else { "flip" });
            let script = se_chaos::FaultScript {
                disk: vec![se_chaos::DiskFault {
                    node: "w0".into(),
                    kind: DiskFaultKind::BitFlip,
                }],
                ..Default::default()
            };
            let plan = ChaosPlan::from_script(script);
            let mut o = opts(FsyncPolicy::Never, 100);
            o.skip_crc = skip_crc;
            let mut store = DurableStore::open(&dir, "w0", plan, o).unwrap();
            let mut state = StateStore::new();
            populate(&mut store, &mut state, 3);
            store.simulate_crash().unwrap();
            let (recovered, _) = store.recover(Some(3)).unwrap();
            // The flip hits the last commit's balance Int (epoch 3, value
            // 3). With CRC the honest reader truncates *before* the flip —
            // losing the whole tail back past the corrupt record — so k3
            // either vanishes or keeps an unflipped value; without CRC the
            // corrupted value is silently applied.
            let balance = recovered
                .get(&acct("k3"))
                .and_then(|s| s.get("balance").cloned());
            if skip_crc {
                assert_eq!(
                    balance,
                    Some(Value::Int(expect_balance)),
                    "bug applies the flip"
                );
            } else {
                assert_ne!(
                    balance,
                    Some(Value::Int(3 + (1i64 << 56))),
                    "honest CRC must never apply a flipped record"
                );
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn compaction_preserves_recovery_at_and_after_the_floor() {
        let dir = tempdir("compact");
        let mut store =
            DurableStore::open(&dir, "w0", ChaosPlan::none(), opts(FsyncPolicy::OnEpoch, 2))
                .unwrap();
        let mut state = StateStore::new();
        populate(&mut store, &mut state, 6);
        let before = store.wal_len();
        store.compact_below(4).unwrap();
        assert!(store.wal_len() < before, "compaction must shrink the log");
        assert_eq!(store.wal_base, 4);
        assert!(store.bases.iter().all(|&e| e >= 4));
        // Descending order: recovering to an earlier target truncates the
        // later epochs by design, so each step's target must still exist.
        for target in (4..=6).rev() {
            let (recovered, reached) = store.recover(Some(target)).unwrap();
            assert_eq!(reached, Some(target));
            assert_eq!(recovered.len() as u64, target);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_copies_exactly_the_tail_after_the_kept_cut() {
        let dir = tempdir("compact-tail");
        let mut store =
            DurableStore::open(&dir, "w0", ChaosPlan::none(), opts(FsyncPolicy::OnEpoch, 2))
                .unwrap();
        let obs = se_obs::Obs::new(&se_obs::ObsConfig {
            mode: se_obs::ObsMode::Metrics,
            ..se_obs::ObsConfig::default()
        });
        store.set_obs(obs.clone());
        let mut state = StateStore::new();
        populate(&mut store, &mut state, 6);
        let before = fs::read(store.wal_path()).unwrap();
        let (_, cut_end) = *store.cuts.iter().find(|(e, _)| *e == 4).unwrap();
        store.compact_below(4).unwrap();
        let mut expected = WalRecord::BaseRef { epoch: 4 }.encode_frame();
        expected.extend_from_slice(&before[cut_end as usize..]);
        assert_eq!(fs::read(store.wal_path()).unwrap(), expected);
        assert_eq!(store.wal_len(), expected.len() as u64);
        assert_eq!(
            obs.counter("durable.compact_bytes").get(),
            before.len() as u64 - cut_end
        );
        assert_eq!(obs.stage_hist(se_obs::Stage::WalCompact).count(), 1);
        // Nothing left to compact below the same floor: no second span.
        store.compact_below(4).unwrap();
        assert_eq!(obs.stage_hist(se_obs::Stage::WalCompact).count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn base_file_is_the_frames_of_its_records_in_key_order() {
        let dir = tempdir("base-bytes");
        let mut store =
            DurableStore::open(&dir, "w0", ChaosPlan::none(), opts(FsyncPolicy::OnEpoch, 1))
                .unwrap();
        // Well past one write chunk, so the base takes several writes.
        let mut state = StateStore::new();
        for k in 0..700 {
            let blob = Value::Bytes(vec![k as u8; 1024]);
            state.insert(acct(&format!("k{k}")), EntityState::from([("blob", blob)]));
        }
        store.cut_epoch(1, &state).unwrap();
        let mut expected = WalRecord::BaseRef { epoch: 1 }.encode_frame();
        let mut entities: Vec<_> = state.iter().collect();
        entities.sort_by_key(|(r, _)| **r);
        for (entity, st) in entities {
            let record = WalRecord::Create {
                entity: *entity,
                state: st.clone(),
            };
            expected.extend_from_slice(&record.encode_frame());
        }
        assert!(expected.len() > 2 * WRITE_CHUNK);
        assert_eq!(fs::read(store.base_path(1)).unwrap(), expected);
        let loaded = store.load_base(1).unwrap().expect("base reads back");
        assert_eq!(loaded.len(), 700);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_and_recover_delete_stale_tmp_files() {
        let dir = tempdir("stale-tmp");
        // What a base write or a compaction that died before its rename
        // leaves behind.
        let stale = ["base-00000000000000000009.tmp", WAL_TMP];
        let plant = || {
            for name in stale {
                fs::write(dir.join(name), b"torn").unwrap();
            }
        };
        let assert_gone = |after: &str| {
            for name in stale {
                assert!(!dir.join(name).exists(), "{after} left {name} behind");
            }
        };
        plant();
        let mut store =
            DurableStore::open(&dir, "w0", ChaosPlan::none(), opts(FsyncPolicy::OnEpoch, 2))
                .unwrap();
        assert_gone("open");
        let mut state = StateStore::new();
        populate(&mut store, &mut state, 2);
        plant();
        let (recovered, reached) = store.recover(Some(2)).unwrap();
        assert_gone("recover");
        assert_eq!(reached, Some(2));
        assert_eq!(recovered.len(), 2);
        assert_eq!(store.bases, vec![2], "the real base is kept");
        plant();
        store.recover(None).unwrap();
        assert_gone("recover(None)");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_to_none_resets_everything() {
        let dir = tempdir("reset");
        let mut store =
            DurableStore::open(&dir, "w0", ChaosPlan::none(), opts(FsyncPolicy::OnEpoch, 2))
                .unwrap();
        let mut state = StateStore::new();
        populate(&mut store, &mut state, 4);
        let (recovered, reached) = store.recover(None).unwrap();
        assert_eq!(reached, None);
        assert!(recovered.is_empty());
        assert_eq!(store.bases.len(), 0);
        // And the store is writable again from scratch.
        store
            .log_create(acct("fresh"), &EntityState::new())
            .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
