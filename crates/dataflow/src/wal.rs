//! Append-only write-ahead log: framing, record codec, group commit.
//!
//! The durable layer (see [`crate::durable`]) logs every state mutation a
//! partition applies — entity creates and committed transaction writes —
//! plus `EpochCut` markers aligned with the Chandy–Lamport snapshot epochs,
//! into one append-only file per partition. This module owns the byte
//! format and the two halves of its contract:
//!
//! * **Writer** ([`WalWriter`]): length-prefixed, CRC-checksummed frames,
//!   encoded straight into one owned buffer, which goes to the kernel in
//!   one `write(2)` only at these points: before every fsync attempt, with
//!   every `EpochCut`/`VersionCut` under *every* policy (so even
//!   [`FsyncPolicy::Never`] keeps its cuts in the page cache), when the
//!   buffer reaches `WRITE_CHUNK` (256 KiB), before compaction reads the
//!   log, and on a clean close (`Drop`). Frames appended after the newest
//!   cut live only in process memory and die with a crash — which loses
//!   nothing recovery reads, since recovery replays to a cut and truncates
//!   the log there. Commits are group-committed under a configurable
//!   [`FsyncPolicy`]. The writer tracks the bytes handed to the kernel vs
//!   `synced_len`: only the synced prefix survives a *power-loss-style*
//!   fault (`se-chaos`'s torn/lost tail scripts); a plain process crash
//!   keeps everything handed to the kernel.
//! * **Reader** ([`read_wal`]): scans frames and **stops cleanly at the
//!   first length or checksum mismatch** — a torn tail truncates the log to
//!   its last valid prefix, it never panics and never silently skips over a
//!   bad frame to resync downstream (resyncing could resurrect records that
//!   a torn write was supposed to kill, breaking exactly-once).
//!
//! The record codec is hand-rolled binary (crates.io is unreachable, and
//! the vendored `serde_json` shim is serialize-only): entity classes, keys
//! and attribute names are encoded as *strings*, mirroring how the routing
//! layer hashes key text — symbol ids are process-local and meaningless on
//! disk. Decoding re-interns them.
//!
//! Frame layout, all integers little-endian:
//!
//! ```text
//! +----------+----------+------------------+
//! | len: u32 | crc: u32 | payload (len B)  |   crc = CRC-32 (IEEE) of payload
//! +----------+----------+------------------+
//! ```
//!
//! [`crc32`] runs slicing-by-8: eight table lookups fold eight payload
//! bytes per step. It is the same IEEE polynomial and gives the same
//! values as the byte-at-a-time loop, so files written by either read
//! back under the other.

use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use se_chaos::FsyncFaultAction;
use se_lang::{EntityRef, EntityState, Symbol, Value};

/// Frame header: `len` + `crc`, both `u32`.
pub const FRAME_HEADER: usize = 8;

/// Pending frames (the WAL writer's buffer) and base snapshots are handed
/// to the kernel in writes of about this size: a handful of `write(2)`s
/// per chunk of log, not one per record.
pub(crate) const WRITE_CHUNK: usize = 256 << 10;

/// Hard ceiling on a single record's payload (64 MiB). A corrupted length
/// prefix below this bound is caught by the CRC; above it we refuse the
/// frame outright instead of attempting a huge allocation.
pub const MAX_RECORD_LEN: u32 = 64 << 20;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected), slicing-by-8.
// ---------------------------------------------------------------------------

/// `CRC32_TABLES[0]` is the classic byte-at-a-time table; `CRC32_TABLES[k][b]`
/// is the CRC register after byte `b` followed by `k` zero bytes, so eight
/// independent lookups fold eight input bytes at once.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 (IEEE) of `bytes`, eight bytes per step. Same polynomial and
/// values as the byte-at-a-time form, so every frame on disk is unchanged.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// The byte-at-a-time CRC-32 that [`crc32`] must agree with (test oracle).
#[cfg(test)]
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Records.
// ---------------------------------------------------------------------------

/// When the WAL writer calls `fsync`.
///
/// Group commit: the policy only chooses when the *synced* prefix — the
/// part that survives power loss / torn-tail faults — advances. Every
/// policy hands pending frames to the kernel at each cut, so a process
/// crash keeps every cut.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Sync after every committed batch apply. Maximum durability, one
    /// `fsync` per batch per partition.
    EveryCommit,
    /// Sync at epoch cuts only (the default): an epoch is durable exactly
    /// when its cut record is, so recovery targets are always well-formed.
    #[default]
    OnEpoch,
    /// Sync every `n` appends, and at every epoch cut.
    EveryN(u32),
    /// Never sync. Nothing is durable against power loss; process crashes
    /// still keep every cut and the frames before it. Exists for
    /// benchmarks and for chaos scenarios that exercise the multi-round
    /// restore fallback.
    Never,
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::EveryCommit => write!(f, "every-commit"),
            FsyncPolicy::OnEpoch => write!(f, "on-epoch"),
            FsyncPolicy::EveryN(n) => write!(f, "every-{n}"),
            FsyncPolicy::Never => write!(f, "never"),
        }
    }
}

impl FsyncPolicy {
    /// Parses the `SE_FSYNC` / config-file spelling produced by `Display`.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim() {
            "every-commit" => Some(FsyncPolicy::EveryCommit),
            "on-epoch" => Some(FsyncPolicy::OnEpoch),
            "never" => Some(FsyncPolicy::Never),
            other => other
                .strip_prefix("every-")
                .and_then(|n| n.parse::<u32>().ok())
                .filter(|n| *n >= 1)
                .map(FsyncPolicy::EveryN),
        }
    }
}

/// One durable log record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// First record of every (re)written log: the log's records begin
    /// immediately *after* the cut of `epoch` (0 = the beginning of time).
    /// Compaction rewrites the log with a higher base.
    BaseRef {
        /// Epoch whose cut precedes the first logged record.
        epoch: u64,
    },
    /// An entity was created with `state` (the control-plane path, which
    /// bypasses the batch commit pipeline).
    Create {
        /// The created entity.
        entity: EntityRef,
        /// Its full initial state.
        state: EntityState,
    },
    /// One committed transaction's writes, applied in `batch`.
    Commit {
        /// Batch the transaction committed in.
        batch: u64,
        /// Attribute writes per entity, in application order.
        writes: Vec<(EntityRef, Vec<(Symbol, Value)>)>,
    },
    /// Epoch `epoch`'s snapshot barrier passed this partition: every record
    /// before this marker is part of the epoch's durable changelog.
    EpochCut {
        /// The epoch that cut here.
        epoch: u64,
    },
    /// A live upgrade committed on this partition: every record after this
    /// marker executed under program `version`. Written at the end of the
    /// partition's migration pass, so replaying past it implies the
    /// migration's writes are already applied.
    VersionCut {
        /// The program version now active.
        version: u64,
    },
}

/// A record failed to decode (corrupt payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalDecodeError {
    /// What was being decoded when the bytes ran out or made no sense.
    pub context: &'static str,
}

impl std::fmt::Display for WalDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt WAL record ({})", self.context)
    }
}

impl std::error::Error for WalDecodeError {}

fn bad<T>(context: &'static str) -> Result<T, WalDecodeError> {
    Err(WalDecodeError { context })
}

// -- encoding helpers -------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Unit => out.push(0),
        Value::Bool(b) => {
            out.push(1);
            out.push(*b as u8);
        }
        Value::Int(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(3);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(4);
            put_str(out, s);
        }
        Value::Bytes(b) => {
            out.push(5);
            put_u32(out, b.len() as u32);
            out.extend_from_slice(b);
        }
        Value::List(items) => {
            out.push(6);
            put_u32(out, items.len() as u32);
            for item in items {
                put_value(out, item);
            }
        }
        Value::Map(map) => {
            out.push(7);
            put_u32(out, map.len() as u32);
            for (k, val) in map {
                put_str(out, k);
                put_value(out, val);
            }
        }
        Value::Ref(r) => {
            out.push(8);
            put_entity(out, r);
        }
    }
}

fn put_entity(out: &mut Vec<u8>, r: &EntityRef) {
    put_str(out, r.class.as_str());
    put_str(out, r.key.as_str());
}

// -- decoding helpers -------------------------------------------------------

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WalDecodeError> {
        if self.buf.len() - self.pos < n {
            return bad(context);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, WalDecodeError> {
        Ok(self.take(1, context)?[0])
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, WalDecodeError> {
        Ok(u32::from_le_bytes(
            self.take(4, context)?.try_into().unwrap(),
        ))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, WalDecodeError> {
        Ok(u64::from_le_bytes(
            self.take(8, context)?.try_into().unwrap(),
        ))
    }

    fn str(&mut self, context: &'static str) -> Result<&'a str, WalDecodeError> {
        let len = self.u32(context)? as usize;
        let bytes = self.take(len, context)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s),
            Err(_) => bad(context),
        }
    }

    fn value(&mut self) -> Result<Value, WalDecodeError> {
        match self.u8("value tag")? {
            0 => Ok(Value::Unit),
            1 => Ok(Value::Bool(self.u8("bool")? != 0)),
            2 => Ok(Value::Int(i64::from_le_bytes(
                self.take(8, "int")?.try_into().unwrap(),
            ))),
            3 => Ok(Value::Float(f64::from_bits(u64::from_le_bytes(
                self.take(8, "float")?.try_into().unwrap(),
            )))),
            4 => Ok(Value::Str(self.str("string")?.to_string())),
            5 => {
                let len = self.u32("bytes length")? as usize;
                Ok(Value::Bytes(self.take(len, "bytes")?.to_vec()))
            }
            6 => {
                let count = self.u32("list length")? as usize;
                // Bounded by remaining bytes: every element is ≥ 1 byte.
                if count > self.buf.len() - self.pos {
                    return bad("list length");
                }
                let mut items = Vec::with_capacity(count);
                for _ in 0..count {
                    items.push(self.value()?);
                }
                Ok(Value::List(items))
            }
            7 => {
                let count = self.u32("map length")? as usize;
                if count > self.buf.len() - self.pos {
                    return bad("map length");
                }
                let mut map = std::collections::BTreeMap::new();
                for _ in 0..count {
                    let k = self.str("map key")?.to_string();
                    let v = self.value()?;
                    map.insert(k, v);
                }
                Ok(Value::Map(map))
            }
            8 => Ok(Value::Ref(self.entity()?)),
            _ => bad("value tag"),
        }
    }

    fn entity(&mut self) -> Result<EntityRef, WalDecodeError> {
        let class = self.str("entity class")?;
        // Borrow gymnastics: both strings must outlive the intern calls.
        let class = class.to_string();
        let key = self.str("entity key")?;
        Ok(EntityRef::new(class.as_str(), key))
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

impl WalRecord {
    /// Encodes the record payload (no frame header).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::BaseRef { epoch } => {
                out.push(0);
                put_u64(out, *epoch);
            }
            WalRecord::Create { entity, state } => put_create(out, entity, state),
            WalRecord::Commit { batch, writes } => {
                out.push(2);
                put_u64(out, *batch);
                put_u32(out, writes.len() as u32);
                for (entity, attrs) in writes {
                    put_entity(out, entity);
                    put_u32(out, attrs.len() as u32);
                    for (attr, value) in attrs {
                        put_str(out, attr.as_str());
                        put_value(out, value);
                    }
                }
            }
            WalRecord::EpochCut { epoch } => {
                out.push(3);
                put_u64(out, *epoch);
            }
            WalRecord::VersionCut { version } => {
                out.push(4);
                put_u64(out, *version);
            }
        }
    }

    /// Decodes a record payload. Fails (never panics) on any truncation,
    /// bad tag, or trailing garbage.
    pub fn decode(payload: &[u8]) -> Result<WalRecord, WalDecodeError> {
        let mut c = Cursor {
            buf: payload,
            pos: 0,
        };
        let record = match c.u8("record tag")? {
            0 => WalRecord::BaseRef {
                epoch: c.u64("base epoch")?,
            },
            1 => {
                let entity = c.entity()?;
                let count = c.u32("state length")? as usize;
                if count > payload.len() {
                    return bad("state length");
                }
                let mut state = EntityState::new();
                for _ in 0..count {
                    let attr = c.str("attr name")?.to_string();
                    let value = c.value()?;
                    state.insert(attr.as_str(), value);
                }
                WalRecord::Create { entity, state }
            }
            2 => {
                let batch = c.u64("commit batch")?;
                let count = c.u32("write count")? as usize;
                if count > payload.len() {
                    return bad("write count");
                }
                let mut writes = Vec::with_capacity(count);
                for _ in 0..count {
                    let entity = c.entity()?;
                    let attr_count = c.u32("attr count")? as usize;
                    if attr_count > payload.len() {
                        return bad("attr count");
                    }
                    let mut attrs = Vec::with_capacity(attr_count);
                    for _ in 0..attr_count {
                        let attr = c.str("attr name")?.to_string();
                        let value = c.value()?;
                        attrs.push((Symbol::from(attr.as_str()), value));
                    }
                    writes.push((entity, attrs));
                }
                WalRecord::Commit { batch, writes }
            }
            3 => WalRecord::EpochCut {
                epoch: c.u64("cut epoch")?,
            },
            4 => WalRecord::VersionCut {
                version: c.u64("cut version")?,
            },
            _ => return bad("record tag"),
        };
        if !c.done() {
            return bad("trailing bytes");
        }
        Ok(record)
    }

    /// Encodes the record as a complete frame (header + payload).
    pub fn encode_frame(&self) -> Vec<u8> {
        let mut frame = Vec::with_capacity(FRAME_HEADER + 32);
        put_frame(&mut frame, |out| self.encode_into(out));
        frame
    }
}

/// Appends the frame of `WalRecord::Create { entity, state }` to `out`,
/// byte-identical to [`WalRecord::encode_frame`] but without cloning the
/// state into a record first.
pub fn put_create_frame(out: &mut Vec<u8>, entity: &EntityRef, state: &EntityState) {
    put_frame(out, |out| put_create(out, entity, state));
}

fn put_create(out: &mut Vec<u8>, entity: &EntityRef, state: &EntityState) {
    out.push(1);
    put_entity(out, entity);
    put_u32(out, state.len() as u32);
    for (attr, value) in state.iter() {
        put_str(out, attr.as_str());
        put_value(out, value);
    }
}

/// Appends one frame to `out`: reserves the header, lets `payload` encode
/// in place, then fills in its length and CRC.
fn put_frame(out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    let header = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER]);
    payload(out);
    let body = &out[header + FRAME_HEADER..];
    let (len, crc) = (body.len() as u32, crc32(body));
    out[header..header + 4].copy_from_slice(&len.to_le_bytes());
    out[header + 4..header + FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
}

// ---------------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------------

/// Appends framed records to a log file with group commit. Frames collect
/// in memory and reach the file only at the hand-off points listed in the
/// module docs.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    /// Frames appended since the last hand-off to the kernel.
    pending: Vec<u8>,
    /// Bytes handed to the kernel: the file's length.
    flushed: u64,
    synced: u64,
    policy: FsyncPolicy,
    unsynced_appends: u32,
    /// Observability handle, given at construction or replaced through
    /// [`WalWriter::set_obs`]: times every buffered append (`wal_append`)
    /// and fsync (`wal_fsync`).
    obs: se_obs::Obs,
}

impl WalWriter {
    /// Creates (truncating) a fresh log at `path` whose first record is
    /// `BaseRef { epoch: base }`, synced so the base reference itself is
    /// never lost to a torn tail. Spans go to `obs` from the start.
    pub fn create(
        path: &Path,
        base: u64,
        policy: FsyncPolicy,
        obs: se_obs::Obs,
    ) -> io::Result<Self> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        let mut w = WalWriter {
            file,
            path: path.to_path_buf(),
            pending: Vec::new(),
            flushed: 0,
            synced: 0,
            policy,
            unsynced_appends: 0,
            obs,
        };
        w.append_raw(&WalRecord::BaseRef { epoch: base })?;
        w.force_sync()?;
        Ok(w)
    }

    /// Reopens an existing log for appending after recovery: truncates the
    /// file to `valid_len` (dropping any torn or post-recovery-point tail)
    /// and treats the retained prefix as synced. Spans go to `obs`.
    pub fn reopen(
        path: &Path,
        valid_len: u64,
        policy: FsyncPolicy,
        obs: se_obs::Obs,
    ) -> io::Result<Self> {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_len)?;
        let mut file = file;
        file.seek(SeekFrom::Start(valid_len))?;
        file.sync_data()?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            pending: Vec::new(),
            flushed: valid_len,
            synced: valid_len,
            policy,
            unsynced_appends: 0,
            obs,
        })
    }

    /// Attaches an observability handle; spans are recorded from then on.
    pub fn set_obs(&mut self, obs: se_obs::Obs) {
        self.obs = obs;
    }

    /// Correlation id for a record's spans: batch for commits, epoch for
    /// cuts and base refs, 0 for creates.
    fn record_span_id(record: &WalRecord) -> u64 {
        match record {
            WalRecord::Commit { batch, .. } => *batch,
            WalRecord::EpochCut { epoch } | WalRecord::BaseRef { epoch } => *epoch,
            WalRecord::VersionCut { version } => *version,
            WalRecord::Create { .. } => 0,
        }
    }

    /// Encodes one frame into the pending buffer; no system call unless
    /// the buffer reached [`WRITE_CHUNK`].
    fn append_raw(&mut self, record: &WalRecord) -> io::Result<()> {
        let t0 = self.obs.now_ns();
        put_frame(&mut self.pending, |out| record.encode_into(out));
        self.unsynced_appends += 1;
        if self.pending.len() >= WRITE_CHUNK {
            self.flush()?;
        }
        self.obs.stage_span(
            se_obs::Stage::WalAppend,
            Self::record_span_id(record),
            t0,
            self.obs.now_ns(),
        );
        Ok(())
    }

    /// Hands the pending frames to the kernel in one `write(2)`: from then
    /// on they survive a process crash (not power loss — that takes a
    /// sync). A no-op with nothing pending.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.file.write_all(&self.pending)?;
        self.flushed += self.pending.len() as u64;
        self.pending.clear();
        Ok(())
    }

    /// Appends one record and group-commits per the fsync policy. Epoch
    /// cuts sync under every policy except [`FsyncPolicy::Never`] — an
    /// epoch is durable exactly when its cut record is — and reach the
    /// kernel under every policy, `Never` included.
    ///
    /// `fault` is consulted only when a sync is actually attempted (so
    /// chaos scripts count *fsyncs*, not appends): it can stall the sync or
    /// fail it outright, in which case the write stays in the page cache
    /// and the synced prefix does not advance.
    pub fn append(
        &mut self,
        record: &WalRecord,
        fault: impl FnOnce() -> FsyncFaultAction,
    ) -> io::Result<()> {
        // Version cuts sync like epoch cuts: an upgrade is durable exactly
        // when its cut record is.
        let is_cut = matches!(
            record,
            WalRecord::EpochCut { .. } | WalRecord::VersionCut { .. }
        );
        self.append_raw(record)?;
        let should_sync = match self.policy {
            FsyncPolicy::EveryCommit => true,
            FsyncPolicy::OnEpoch => is_cut,
            FsyncPolicy::EveryN(n) => is_cut || self.unsynced_appends >= n,
            FsyncPolicy::Never => false,
        };
        if is_cut || should_sync {
            self.flush()?;
        }
        if should_sync {
            match fault() {
                FsyncFaultAction::Fail => {}
                FsyncFaultAction::Slow { extra_us } => {
                    std::thread::sleep(std::time::Duration::from_micros(extra_us));
                    self.force_sync()?;
                }
                FsyncFaultAction::Proceed => self.force_sync()?,
            }
        }
        Ok(())
    }

    /// Unconditionally hands pending frames to the kernel, fsyncs and
    /// advances the synced prefix.
    pub fn force_sync(&mut self) -> io::Result<()> {
        self.flush()?;
        let t0 = self.obs.now_ns();
        self.file.sync_data()?;
        self.synced = self.flushed;
        self.unsynced_appends = 0;
        // Span id: the byte offset the sync advanced the durable prefix to.
        self.obs
            .stage_span(se_obs::Stage::WalFsync, self.flushed, t0, self.obs.now_ns());
        Ok(())
    }

    /// Bytes appended: handed to the kernel or still pending.
    pub fn written_len(&self) -> u64 {
        self.flushed + self.pending.len() as u64
    }

    /// Bytes handed to the kernel (survive a process crash): the file's
    /// length.
    pub fn flushed_len(&self) -> u64 {
        self.flushed
    }

    /// Closes the writer as a crash does: the pending frames die with the
    /// process memory, nothing more reaches the file. Returns the bytes the
    /// kernel holds and the synced prefix — what disk faults act on.
    pub fn discard(mut self) -> (u64, u64) {
        self.pending.clear();
        (self.flushed, self.synced)
    }

    /// Bytes fsynced (survive power loss / torn-tail faults).
    pub fn synced_len(&self) -> u64 {
        self.synced
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WalWriter {
    /// A clean close hands the pending frames to the kernel (a crash goes
    /// through [`WalWriter::discard`] instead).
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

// ---------------------------------------------------------------------------
// Reader.
// ---------------------------------------------------------------------------

/// Result of scanning a log file.
#[derive(Debug)]
pub struct WalScan {
    /// Decoded records with the byte offset of the *end* of each frame
    /// (recovery truncates the log at the offset of its chosen epoch cut).
    pub records: Vec<(u64, WalRecord)>,
    /// Length of the valid prefix; anything beyond is a torn tail.
    pub valid_len: u64,
    /// Whether trailing bytes were discarded (torn/corrupt tail).
    pub truncated: bool,
}

/// Scans a WAL file, decoding every valid frame and stopping cleanly at the
/// first length mismatch, checksum mismatch, or undecodable payload.
///
/// `skip_crc` disables checksum verification — it exists **only** as the
/// `wal-no-crc` injected bug for the chaos self-test that proves corrupted
/// records are caught by the history checker; never set it otherwise.
pub fn read_wal(path: &Path, skip_crc: bool) -> io::Result<WalScan> {
    let mut buf = Vec::new();
    File::open(path)?.read_to_end(&mut buf)?;
    let mut records = Vec::new();
    let mut pos = 0usize;
    let truncated = loop {
        if pos == buf.len() {
            break false; // clean EOF
        }
        if buf.len() - pos < FRAME_HEADER {
            break true; // torn header
        }
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().unwrap());
        if len > MAX_RECORD_LEN {
            break true; // corrupt length prefix
        }
        let len = len as usize;
        if buf.len() - pos - FRAME_HEADER < len {
            break true; // torn payload
        }
        let payload = &buf[pos + FRAME_HEADER..pos + FRAME_HEADER + len];
        if !skip_crc && crc32(payload) != crc {
            break true; // corrupt payload
        }
        match WalRecord::decode(payload) {
            Ok(record) => {
                pos += FRAME_HEADER + len;
                records.push((pos as u64, record));
            }
            Err(_) => break true, // decodable only with skip_crc + luck
        }
    };
    Ok(WalScan {
        records,
        valid_len: pos as u64,
        truncated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        let acct = EntityRef::new("Account", "a1");
        vec![
            WalRecord::BaseRef { epoch: 0 },
            WalRecord::Create {
                entity: acct,
                state: EntityState::from([("balance", Value::Int(100))]),
            },
            WalRecord::Commit {
                batch: 7,
                writes: vec![(
                    acct,
                    vec![
                        (Symbol::from("balance"), Value::Int(90)),
                        (
                            Symbol::from("tags"),
                            Value::List(vec![Value::Str("x".into())]),
                        ),
                    ],
                )],
            },
            WalRecord::EpochCut { epoch: 1 },
            WalRecord::VersionCut { version: 2 },
        ]
    }

    #[test]
    fn record_round_trip() {
        for record in sample_records() {
            let payload = record.encode();
            assert_eq!(WalRecord::decode(&payload).unwrap(), record);
        }
    }

    #[test]
    fn nested_value_round_trip() {
        let mut map = std::collections::BTreeMap::new();
        map.insert("k".to_string(), Value::List(vec![Value::Float(1.5)]));
        let record = WalRecord::Commit {
            batch: 1,
            writes: vec![(
                EntityRef::new("C", "k"),
                vec![
                    (Symbol::from("m"), Value::Map(map)),
                    (Symbol::from("r"), Value::Ref(EntityRef::new("D", "x"))),
                    (Symbol::from("b"), Value::Bytes(vec![0, 255, 3])),
                    (Symbol::from("u"), Value::Unit),
                    (Symbol::from("t"), Value::Bool(true)),
                ],
            )],
        };
        assert_eq!(WalRecord::decode(&record.encode()).unwrap(), record);
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let mut payload = WalRecord::EpochCut { epoch: 3 }.encode();
        payload.push(0);
        assert!(WalRecord::decode(&payload).is_err());
    }

    #[test]
    fn decode_rejects_truncation_at_every_length() {
        for record in sample_records() {
            let payload = record.encode();
            for cut in 0..payload.len() {
                // Must error, never panic or succeed on a proper prefix.
                assert!(
                    WalRecord::decode(&payload[..cut]).is_err(),
                    "prefix of length {cut} decoded"
                );
            }
        }
    }

    #[test]
    fn crc32_known_answer() {
        // The CRC-32/IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn writer_then_scan_round_trips() {
        let dir = tempdir("wal-roundtrip");
        let path = dir.join("wal.log");
        let mut w =
            WalWriter::create(&path, 0, FsyncPolicy::EveryCommit, se_obs::Obs::noop()).unwrap();
        for record in sample_records().into_iter().skip(1) {
            w.append(&record, || FsyncFaultAction::Proceed).unwrap();
        }
        assert_eq!(w.written_len(), w.synced_len());
        let scan = read_wal(&path, false).unwrap();
        assert!(!scan.truncated);
        assert_eq!(
            scan.records
                .iter()
                .map(|(_, r)| r.clone())
                .collect::<Vec<_>>(),
            sample_records()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_stops_cleanly() {
        let dir = tempdir("wal-torn");
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, 0, FsyncPolicy::Never, se_obs::Obs::noop()).unwrap();
        for record in sample_records().into_iter().skip(1) {
            w.append(&record, || FsyncFaultAction::Proceed).unwrap();
        }
        // A clean close hands every pending frame to the kernel.
        drop(w);
        let full = std::fs::metadata(&path).unwrap().len();
        assert_eq!(
            full,
            sample_records()
                .iter()
                .map(|r| r.encode_frame().len() as u64)
                .sum::<u64>()
        );
        // Cut the file at every possible length: the scan must never panic,
        // never invent records, and always return a prefix of the originals.
        let originals = sample_records();
        for keep in 0..full {
            let mut bytes = std::fs::read(&path).unwrap();
            bytes.truncate(keep as usize);
            let torn = dir.join("torn.log");
            std::fs::write(&torn, &bytes).unwrap();
            let scan = read_wal(&torn, false).unwrap();
            assert!(scan.valid_len <= keep);
            assert!(scan.records.len() <= originals.len());
            for (i, (_, r)) in scan.records.iter().enumerate() {
                assert_eq!(r, &originals[i], "record {i} mutated by tearing");
            }
            if keep < full {
                assert!(scan.truncated || scan.valid_len == keep);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bitflip_is_detected_by_crc_and_applied_without_it() {
        let dir = tempdir("wal-flip");
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, 0, FsyncPolicy::Never, se_obs::Obs::noop()).unwrap();
        let record = WalRecord::Commit {
            batch: 1,
            writes: vec![(
                EntityRef::new("Account", "a"),
                vec![(Symbol::from("balance"), Value::Int(42))],
            )],
        };
        w.append(&record, || FsyncFaultAction::Proceed).unwrap();
        // A clean close hands the pending commit frame to the kernel.
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a bit in the last payload byte (the balance's MSB).
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        let honest = read_wal(&path, false).unwrap();
        // CRC catches the flip: the record vanishes, the log truncates to
        // the BaseRef prefix.
        assert!(honest.truncated);
        assert_eq!(honest.records.len(), 1);
        // With the checksum-skip bug injected, the flipped record decodes
        // and would be silently applied — the chaos self-test depends on
        // this exact asymmetry.
        let buggy = read_wal(&path, true).unwrap();
        assert_eq!(buggy.records.len(), 2);
        assert_ne!(buggy.records[1].1, record);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Frames appended between cuts stay in the writer's buffer: they
    /// reach the file at the next cut (under every policy), once the buffer
    /// holds `WRITE_CHUNK` bytes, or when the writer is dropped. What
    /// reaches it is byte for byte the records' `encode_frame`s, so the
    /// on-disk format is unchanged.
    #[test]
    fn pending_frames_reach_the_file_at_a_cut_a_full_chunk_or_drop() {
        let dir = tempdir("wal-handoff");
        let path = dir.join("wal.log");
        let file_len = || std::fs::metadata(&path).unwrap().len();
        let frames = |records: &[WalRecord]| -> Vec<u8> {
            records.iter().flat_map(|r| r.encode_frame()).collect()
        };
        let records = sample_records();
        for policy in [FsyncPolicy::OnEpoch, FsyncPolicy::Never] {
            let mut w = WalWriter::create(&path, 0, policy, se_obs::Obs::noop()).unwrap();
            let base = file_len();
            assert_eq!(base, w.written_len(), "the BaseRef is synced at create");
            // Create + Commit: appended, not written.
            for record in &records[1..3] {
                w.append(record, || FsyncFaultAction::Proceed).unwrap();
            }
            assert_eq!(file_len(), base, "{policy}: no write(2) between cuts");
            assert_eq!(w.written_len(), frames(&records[..3]).len() as u64);
            // The EpochCut carries them to the kernel.
            w.append(&records[3], || FsyncFaultAction::Proceed).unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), frames(&records[..4]));
            assert_eq!(w.flushed_len(), w.written_len());
            // A clean close writes what is pending.
            w.append(&records[1], || FsyncFaultAction::Proceed).unwrap();
            assert_eq!(file_len(), frames(&records[..4]).len() as u64);
            drop(w);
            let mut expected = frames(&records[..4]);
            expected.extend(records[1].encode_frame());
            assert_eq!(std::fs::read(&path).unwrap(), expected, "{policy}");
        }
        // A full chunk goes out without waiting for a cut.
        let big = WalRecord::Commit {
            batch: 1,
            writes: vec![(
                EntityRef::new("Account", "a"),
                vec![(Symbol::from("blob"), Value::Bytes(vec![7; 4096]))],
            )],
        };
        let frame = big.encode_frame().len();
        let mut w = WalWriter::create(&path, 0, FsyncPolicy::Never, se_obs::Obs::noop()).unwrap();
        let base = file_len();
        let mut appended = 0;
        while file_len() == base {
            w.append(&big, || FsyncFaultAction::Proceed).unwrap();
            appended += 1;
        }
        assert!(appended * frame >= WRITE_CHUNK && (appended - 1) * frame < WRITE_CHUNK);
        assert_eq!(file_len(), w.written_len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_policy_governs_synced_prefix() {
        let dir = tempdir("wal-sync");
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, 0, FsyncPolicy::Never, se_obs::Obs::noop()).unwrap();
        let base_len = w.written_len();
        w.append(&WalRecord::EpochCut { epoch: 1 }, || {
            FsyncFaultAction::Proceed
        })
        .unwrap();
        assert_eq!(w.synced_len(), base_len, "Never must not sync even at cuts");
        let mut w = WalWriter::create(&path, 0, FsyncPolicy::OnEpoch, se_obs::Obs::noop()).unwrap();
        w.append(
            &WalRecord::Create {
                entity: EntityRef::new("C", "k"),
                state: EntityState::new(),
            },
            || FsyncFaultAction::Proceed,
        )
        .unwrap();
        let after_create = w.synced_len();
        assert!(
            after_create < w.written_len(),
            "OnEpoch defers commit syncs"
        );
        w.append(&WalRecord::EpochCut { epoch: 1 }, || {
            FsyncFaultAction::Proceed
        })
        .unwrap();
        assert_eq!(w.synced_len(), w.written_len(), "cut syncs under OnEpoch");
        w.append(&WalRecord::EpochCut { epoch: 2 }, || FsyncFaultAction::Fail)
            .unwrap();
        assert!(
            w.synced_len() < w.written_len(),
            "a failed fsync must not advance the synced prefix"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_policy_parse_round_trips() {
        for policy in [
            FsyncPolicy::EveryCommit,
            FsyncPolicy::OnEpoch,
            FsyncPolicy::EveryN(8),
            FsyncPolicy::Never,
        ] {
            assert_eq!(FsyncPolicy::parse(&policy.to_string()), Some(policy));
        }
        assert_eq!(FsyncPolicy::parse("bogus"), None);
        assert_eq!(FsyncPolicy::parse("every-0"), None);
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "se-wal-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}

#[cfg(test)]
mod proptests {
    //! Property tests for the record codec and the torn-tail reader
    //! contract: arbitrary records round-trip exactly, and a log damaged
    //! at any byte is read back as a clean prefix — never a panic, never a
    //! silently altered or skipped record.

    use super::*;
    use proptest::collection;
    use proptest::prelude::*;
    use proptest::sample;
    use se_lang::{EntityRef, EntityState, Symbol, Value};

    fn arb_name() -> BoxedStrategy<String> {
        // Symbols land in an interner; a small alphabet keeps its size
        // bounded across cases while still exercising multi-byte names.
        sample::select(vec![
            "a",
            "bee",
            "Sea",
            "d0",
            "entity-5",
            "véhicule",
            "ε",
            "k_9",
        ])
        .prop_map(str::to_string)
        .boxed()
    }

    fn arb_entity() -> BoxedStrategy<EntityRef> {
        (arb_name(), arb_name())
            .prop_map(|(class, key)| EntityRef::new(class.as_str(), key.as_str()))
            .boxed()
    }

    fn arb_value() -> BoxedStrategy<Value> {
        let leaf = prop_oneof![
            Just(Value::Unit),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            any::<f64>().prop_map(Value::Float),
            arb_name().prop_map(Value::Str),
            collection::vec(any::<u8>(), 0..24).prop_map(Value::Bytes),
            arb_entity().prop_map(Value::Ref),
        ];
        leaf.prop_recursive(3, 24, 4, |inner| {
            prop_oneof![
                collection::vec(inner.clone(), 0..4).prop_map(Value::List),
                collection::btree_map(arb_name(), inner, 0..4).prop_map(Value::Map),
            ]
        })
    }

    fn arb_state() -> BoxedStrategy<EntityState> {
        collection::btree_map(arb_name(), arb_value(), 0..6)
            .prop_map(|m| m.into_iter().collect())
            .boxed()
    }

    fn arb_record() -> BoxedStrategy<WalRecord> {
        prop_oneof![
            any::<u64>().prop_map(|epoch| WalRecord::BaseRef { epoch }),
            any::<u64>().prop_map(|epoch| WalRecord::EpochCut { epoch }),
            any::<u64>().prop_map(|version| WalRecord::VersionCut { version }),
            (arb_entity(), arb_state())
                .prop_map(|(entity, state)| WalRecord::Create { entity, state }),
            (
                any::<u64>(),
                collection::vec(
                    (
                        arb_entity(),
                        collection::vec((arb_name().prop_map(Symbol::from), arb_value()), 0..5)
                    ),
                    0..5
                )
            )
                .prop_map(|(batch, writes)| WalRecord::Commit { batch, writes }),
        ]
        .boxed()
    }

    /// Writes `records` into a fresh WAL file and returns its path.
    fn write_log(tag: &str, records: &[WalRecord]) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "se-wal-prop-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, 7, FsyncPolicy::Never, se_obs::Obs::noop()).unwrap();
        for r in records {
            w.append(r, || se_chaos::FsyncFaultAction::Proceed).unwrap();
        }
        w.force_sync().unwrap();
        path
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Slicing-by-8 agrees with the byte-at-a-time oracle at every
        /// length and start offset, including the ones that leave a
        /// 1–7 byte remainder after the 8-byte steps.
        #[test]
        fn slicing_by_8_matches_the_bytewise_oracle(
            bytes in collection::vec(any::<u8>(), 0..4096),
            skip in 0usize..8,
        ) {
            prop_assert_eq!(crc32(&bytes), crc32_bytewise(&bytes));
            let tail = &bytes[skip.min(bytes.len())..];
            prop_assert_eq!(crc32(tail), crc32_bytewise(tail));
        }

        /// Arbitrary records survive encode → decode byte-exactly.
        #[test]
        fn record_codec_round_trips(record in arb_record()) {
            let payload = record.encode();
            let decoded = WalRecord::decode(&payload)
                .unwrap_or_else(|e| panic!("decode of own encoding failed: {e}"));
            prop_assert_eq!(&decoded, &record);
            // And through the framed on-disk path as well.
            let path = write_log("roundtrip", std::slice::from_ref(&record));
            let scan = read_wal(&path, false).unwrap();
            prop_assert!(!scan.truncated);
            prop_assert_eq!(scan.records.len(), 2, "BaseRef + the record");
            prop_assert_eq!(&scan.records[1].1, &record);
            std::fs::remove_dir_all(path.parent().unwrap()).ok();
        }

        /// A log truncated at ANY byte length reads back as a clean prefix
        /// of the original records: no panic, no partial record, no skip.
        #[test]
        fn truncated_tail_reads_as_clean_prefix(
            records in collection::vec(arb_record(), 1..5),
            cut_seed in any::<u64>(),
        ) {
            let path = write_log("trunc", &records);
            let full = std::fs::read(&path).unwrap();
            let scan = read_wal(&path, false).unwrap();
            prop_assert!(!scan.truncated);
            let original: Vec<WalRecord> =
                scan.records.iter().map(|(_, r)| r.clone()).collect();

            let cut = (cut_seed as usize) % (full.len() + 1);
            std::fs::write(&path, &full[..cut]).unwrap();
            let damaged = read_wal(&path, false).unwrap();
            prop_assert!(damaged.valid_len as usize <= cut);
            prop_assert!(damaged.records.len() <= original.len());
            for (got, want) in damaged.records.iter().zip(&original) {
                prop_assert_eq!(&got.1, want, "prefix must be unaltered");
            }
            std::fs::remove_dir_all(path.parent().unwrap()).ok();
        }

        /// A single flipped byte anywhere in the log never panics the
        /// reader and never alters a surviving record: the scan stops at
        /// or before the damaged frame and everything it does return is
        /// byte-identical to the original prefix.
        #[test]
        fn corrupted_byte_stops_cleanly(
            records in collection::vec(arb_record(), 1..5),
            pos_seed in any::<u64>(),
            bit in 0u8..8,
        ) {
            let path = write_log("flip", &records);
            let mut bytes = std::fs::read(&path).unwrap();
            let scan = read_wal(&path, false).unwrap();
            let original: Vec<WalRecord> =
                scan.records.iter().map(|(_, r)| r.clone()).collect();

            let pos = (pos_seed as usize) % bytes.len();
            bytes[pos] ^= 1 << bit;
            std::fs::write(&path, &bytes).unwrap();
            let damaged = read_wal(&path, false).unwrap();
            prop_assert!(damaged.records.len() <= original.len());
            for (i, (end, got)) in damaged.records.iter().enumerate() {
                // Any frame wholly before the flipped byte is untouched;
                // a frame at/after it may only survive if the scan stopped
                // first — which the zip against the original prefix plus
                // the CRC guarantee reduce to: surviving records match.
                prop_assert_eq!(got, &original[i], "record {i} ending at {end} altered");
            }
            std::fs::remove_dir_all(path.parent().unwrap()).ok();
        }
    }
}
