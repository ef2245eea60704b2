//! Durable generator state: versioned, checksummed on-disk snapshots
//! plus the crash-recovery rule that makes restarts safe.
//!
//! A process embedding these generators must survive a crash without
//! ever repeating an ID — the RocksDB SST-unique-ID setting (PRs
//! #8990/#9126) that motivates the paper. The hazard of naïve
//! persistence is *staleness*: a snapshot taken at emission count `G`
//! says nothing about the IDs emitted between the snapshot and the
//! crash, so resuming exactly at `G` would deterministically re-emit
//! that suffix.
//!
//! This module closes the gap with a **write-ahead reservation**
//! discipline:
//!
//! 1. A [`SnapshotRecord`] stores the generator state *plus* a
//!    `reservation` `R`: permission for the running process to emit up
//!    to `R` further IDs past the recorded state.
//! 2. The process persists a fresh record **before** emitting any ID
//!    beyond the current reservation frontier (the service layer's
//!    durability hook enforces this per lease).
//! 3. [`recover`] restores the recorded state and then **skips the
//!    entire reserved window** — abandoning the in-flight run/bin
//!    segment the crashed process may have been emitting from, and
//!    letting every later placement be re-drawn from the seed.
//!
//! Because each instance's ID stream is a deterministic permutation
//! prefix of its seed, the recovered instance continues that same
//! permutation strictly *after* the reservation frontier: anything the
//! crashed process can have emitted (a prefix of the first
//! `generated + R` IDs) is disjoint from everything the recovered
//! instance will ever emit. The cost is bounded leakage — at most `R`
//! IDs are abandoned per crash — never a repeat. This is the
//! paper-faithful middle ground between RocksDB's "fresh instance per
//! restart" (safe, but every restart grows the effective `n` and with
//! it the collision exposure) and exact resume (which is only safe if
//! nothing was emitted after the snapshot).
//!
//! ## Record format (version 4)
//!
//! ```text
//! magic    8 bytes   b"UUIDSNAP"
//! version  u32 LE    4
//! length   u64 LE    payload byte count
//! payload  ...       seq, epoch, reservation, universe, kind, seed, count
//! checksum u64 LE    FNV-1a over magic + version + length + payload
//! ```
//!
//! All integers are little-endian (the shared [`codec`](crate::codec)
//! vocabulary of the `uuidp-client` wire frames). A record holds a
//! [`GeneratorState`]: a kind, a seed and a count (see [`crate::state`]),
//! so its size, and a save's cost, never grow with demand. The kind is
//! one tag byte per snapshot-capable [`AlgorithmKind`], then its
//! parameters:
//!
//! | tag | kind | parameters | record bytes |
//! |-----|------|------------|--------------|
//! | 0 | `Random` | — | 97 |
//! | 1 | `Cluster` | — | 97 |
//! | 2 | `Bins { k }` | `k` u128 | 113 |
//! | 3 | `ClusterStar` | — | 97 |
//! | 4 | `ClusterStarGrowth { growth }` | `growth` u32 | 101 |
//! | 5 | `BinsStar` | — | 97 |
//! | 6 | `BinsStarMaxFit` | — | 97 |
//! | 7 | `SessionCounter { session_bits, counter_bits }` | two u32 | 105 |
//!
//! SetAside and Snowflake have no tag: encoding one is a typed error.
//! Any corruption (truncation, bit flips, unknown tags or versions) is a
//! typed [`PersistError`], never a panic. Versions 1–3 are not read: such
//! a record is [`PersistError::UnsupportedVersion`].
//!
//! ## Log format
//!
//! A [`SnapshotStore`] is one append-only file, `snapshots.log`, of
//! entries that each wrap one encoded record:
//!
//! ```text
//! tenant   u64 LE    the record's tenant
//! length   u64 LE    body byte count
//! check    u64 LE    FNV-1a over tenant + length
//! body     ...       the record, encoded as above
//! ```
//!
//! Every byte is under a checksum: the header under `check`, the body
//! under its own. Opening the store replays the log, and the last entry
//! per tenant wins. A log that ends inside an entry (a header cut short,
//! or a valid header whose body is short) was torn by a crash
//! mid-append: it is truncated to its last whole entry. Any other
//! damage, a header checksum mismatch or a body that fails to decode,
//! is a [`PersistError::Damaged`] naming the entry's byte offset, so a
//! bit flip never silently drops the entries after it.
//!
//! Once the log outgrows both 64 KiB and four times its live entries
//! (each tenant's newest), it is compacted: the live entries are
//! written to `snapshots.log.tmp`, which is renamed over the log. A temp
//! file left by a crash mid-compaction is never read.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};

use crate::algorithms::AlgorithmKind;
use crate::codec::{fnv1a, put_u128, put_u32, put_u64, CodecError, Cursor};
use crate::id::IdSpace;
use crate::state::{restore, GeneratorState, StateError};
use crate::traits::IdGenerator;

/// Magic bytes opening every snapshot record.
pub const MAGIC: [u8; 8] = *b"UUIDSNAP";

/// Current on-disk format version.
pub const VERSION: u32 = 4;

/// The log file in a store's directory.
const LOG_FILE: &str = "snapshots.log";

/// Where compaction writes the live entries before renaming them over
/// the log.
const COMPACT_FILE: &str = "snapshots.log.tmp";

/// Header bytes under the header checksum: tenant and body length.
const ENTRY_FIELDS: usize = 16;

/// A log entry's header: its fields plus their checksum.
const ENTRY_HEADER: usize = ENTRY_FIELDS + 8;

/// The log is never compacted below this size ...
const COMPACT_MIN_BYTES: u64 = 64 * 1024;

/// ... and is compacted once it exceeds this multiple of its live
/// entries.
const COMPACT_RATIO: u64 = 4;

/// A persisted generator snapshot plus its write-ahead reservation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotRecord {
    /// Monotone per-tenant sequence number (diagnostics; newer wins).
    pub seq: u64,
    /// The service epoch the tenant was in when the record was written
    /// (epochs key restart-aware audit ownership).
    pub epoch: u32,
    /// IDs the process may emit past `state` before it must persist
    /// again. Recovery abandons this whole window.
    pub reservation: u128,
    /// The ID universe the generator draws from.
    pub space: IdSpace,
    /// The generator state at persist time.
    pub state: GeneratorState,
}

/// Error reading, writing, or recovering a snapshot.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem failure.
    Io(io::Error),
    /// The record does not start with [`MAGIC`].
    BadMagic,
    /// The record's format version is not supported.
    UnsupportedVersion(u32),
    /// The stored checksum does not match the content.
    ChecksumMismatch,
    /// The payload ended before the record was complete.
    Truncated,
    /// The payload decoded but described an impossible record.
    Corrupt(String),
    /// The state failed generator-level validation, or its kind has no
    /// snapshot support.
    State(StateError),
    /// A log entry failed its header checksum or its record failed to
    /// decode; `offset` is the entry's byte position in the log.
    Damaged {
        /// Byte offset of the damaged entry.
        offset: u64,
        /// What was wrong with it.
        error: Box<PersistError>,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            PersistError::BadMagic => write!(f, "not a uuidp snapshot (bad magic)"),
            PersistError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v} (supported: {VERSION})")
            }
            PersistError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            PersistError::Truncated => write!(f, "snapshot truncated"),
            PersistError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
            PersistError::State(e) => write!(f, "snapshot state rejected: {e}"),
            PersistError::Damaged { offset, error } => {
                write!(f, "snapshot log entry at byte {offset}: {error}")
            }
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<CodecError> for PersistError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated => PersistError::Truncated,
            CodecError::Corrupt(msg) => PersistError::Corrupt(msg),
        }
    }
}

/// Writes the state's kind as its tag and parameters, then its seed and
/// count.
fn encode_state(out: &mut Vec<u8>, state: &GeneratorState) -> Result<(), PersistError> {
    match state.kind {
        AlgorithmKind::Random => out.push(0),
        AlgorithmKind::Cluster => out.push(1),
        AlgorithmKind::Bins { k } => {
            out.push(2);
            put_u128(out, k);
        }
        AlgorithmKind::ClusterStar => out.push(3),
        AlgorithmKind::ClusterStarGrowth { growth } => {
            out.push(4);
            put_u32(out, growth);
        }
        AlgorithmKind::BinsStar => out.push(5),
        AlgorithmKind::BinsStarMaxFit => out.push(6),
        AlgorithmKind::SessionCounter {
            session_bits,
            counter_bits,
        } => {
            out.push(7);
            put_u32(out, session_bits);
            put_u32(out, counter_bits);
        }
        AlgorithmKind::SetAside { .. } | AlgorithmKind::Snowflake(_) => {
            let error = format!("{:?} has no snapshot support", state.kind);
            return Err(PersistError::State(StateError(error)));
        }
    }
    put_u64(out, state.seed);
    put_u128(out, state.generated);
    Ok(())
}

fn decode_state(c: &mut Cursor<'_>) -> Result<GeneratorState, PersistError> {
    let kind = match c.u8()? {
        0 => AlgorithmKind::Random,
        1 => AlgorithmKind::Cluster,
        2 => AlgorithmKind::Bins { k: c.u128()? },
        3 => AlgorithmKind::ClusterStar,
        4 => AlgorithmKind::ClusterStarGrowth { growth: c.u32()? },
        5 => AlgorithmKind::BinsStar,
        6 => AlgorithmKind::BinsStarMaxFit,
        7 => AlgorithmKind::SessionCounter {
            session_bits: c.u32()?,
            counter_bits: c.u32()?,
        },
        t => return Err(PersistError::Corrupt(format!("unknown state tag {t}"))),
    };
    Ok(GeneratorState {
        kind,
        seed: c.u64()?,
        generated: c.u128()?,
    })
}

/// Serializes `record` into the versioned, checksummed record format;
/// a [`PersistError::State`] if its kind has no snapshot support.
pub fn encode_record(record: &SnapshotRecord) -> Result<Vec<u8>, PersistError> {
    let mut payload = Vec::with_capacity(128);
    put_u64(&mut payload, record.seq);
    put_u32(&mut payload, record.epoch);
    put_u128(&mut payload, record.reservation);
    put_u128(&mut payload, record.space.size());
    encode_state(&mut payload, &record.state)?;

    let mut out = Vec::with_capacity(payload.len() + 28);
    out.extend_from_slice(&MAGIC);
    put_u32(&mut out, VERSION);
    put_u64(&mut out, payload.len() as u64);
    out.extend_from_slice(&payload);
    let checksum = fnv1a(&out);
    put_u64(&mut out, checksum);
    Ok(out)
}

/// Parses bytes produced by [`encode_record`], validating magic,
/// version, length, and checksum before touching the payload.
pub fn decode_record(bytes: &[u8]) -> Result<SnapshotRecord, PersistError> {
    let mut c = Cursor::new(bytes);
    if c.take(8)? != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = c.u32()?;
    if version != VERSION {
        return Err(PersistError::UnsupportedVersion(version));
    }
    // Length arithmetic stays in checked u64: a crafted length near
    // the integer maximum must come back as Truncated, not overflow
    // (never-panic is this module's contract).
    let payload_len = c.u64()?;
    let body_start = c.position();
    let body_end = (body_start as u64)
        .checked_add(payload_len)
        .ok_or(PersistError::Truncated)?;
    if body_end.checked_add(8) != Some(bytes.len() as u64) {
        return Err(PersistError::Truncated);
    }
    let body_end = body_end as usize;
    let mut trailer = Cursor::new(bytes.get(body_end..).ok_or(PersistError::Truncated)?);
    let stored = trailer.u64()?;
    let checked = bytes.get(..body_end).ok_or(PersistError::Truncated)?;
    if fnv1a(checked) != stored {
        return Err(PersistError::ChecksumMismatch);
    }
    let body = bytes
        .get(body_start..body_end)
        .ok_or(PersistError::Truncated)?;
    let mut c = Cursor::new(body);
    let seq = c.u64()?;
    let epoch = c.u32()?;
    let reservation = c.u128()?;
    let m = c.u128()?;
    let space = IdSpace::new(m).map_err(|e| PersistError::Corrupt(format!("bad universe: {e}")))?;
    let state = decode_state(&mut c)?;
    c.finish()?;
    Ok(SnapshotRecord {
        seq,
        epoch,
        reservation,
        space,
        state,
    })
}

/// Rebuilds a generator from `record` under the crash-recovery rule:
/// restore the persisted state, then abandon the entire reserved
/// window by skipping it.
///
/// Every ID the crashed process can have emitted lies in the first
/// `state.generated + reservation` positions of the instance's
/// permutation (that is what the write-ahead discipline guarantees),
/// and the recovered generator continues strictly after them — so it
/// never re-emits a pre-crash ID, at the cost of leaking at most
/// `reservation` IDs. If the skip exhausts the generator it is
/// returned exhausted, which is still never-re-emitting.
pub fn recover(record: &SnapshotRecord) -> Result<Box<dyn IdGenerator>, PersistError> {
    let mut generator = restore(record.space, &record.state).map_err(PersistError::State)?;
    let _ = generator.skip(record.reservation);
    Ok(generator)
}

// ---------------------------------------------------------------------
// Append-only log store
// ---------------------------------------------------------------------

/// Encodes `record` as one log entry for `tenant`.
fn encode_entry(tenant: u64, record: &SnapshotRecord) -> Result<Vec<u8>, PersistError> {
    let body = encode_record(record)?;
    let mut entry = Vec::with_capacity(ENTRY_HEADER + body.len());
    put_u64(&mut entry, tenant);
    put_u64(&mut entry, body.len() as u64);
    let check = fnv1a(&entry);
    put_u64(&mut entry, check);
    entry.extend_from_slice(&body);
    Ok(entry)
}

/// The record inside a log entry.
fn entry_record(entry: &[u8]) -> Result<SnapshotRecord, PersistError> {
    decode_record(entry.get(ENTRY_HEADER..).unwrap_or_default())
}

/// Replays a log image into `latest`, the last entry per tenant
/// winning, and returns the byte length of its whole entries: anything
/// past that is a torn tail.
fn replay(bytes: &[u8], latest: &mut BTreeMap<u64, Vec<u8>>) -> Result<usize, PersistError> {
    let mut at = 0;
    while let Some(rest) = bytes.get(at..).filter(|rest| rest.len() >= ENTRY_HEADER) {
        let damaged = |error| PersistError::Damaged {
            offset: at as u64,
            error: Box::new(error),
        };
        let mut header = Cursor::new(rest);
        let fields = header.take(ENTRY_FIELDS)?;
        if fnv1a(fields) != header.u64()? {
            return Err(damaged(PersistError::ChecksumMismatch));
        }
        let mut fields = Cursor::new(fields);
        let tenant = fields.u64()?;
        let body_len = fields.u64()?;
        let Some(entry) = usize::try_from(body_len)
            .ok()
            .and_then(|len| len.checked_add(ENTRY_HEADER))
            .and_then(|end| rest.get(..end))
        else {
            break;
        };
        entry_record(entry).map_err(damaged)?;
        latest.insert(tenant, entry.to_vec());
        at += entry.len();
    }
    Ok(at)
}

/// Fsyncs a directory, making a file's creation or rename in it
/// durable.
fn sync_dir(dir: &Path) -> io::Result<()> {
    fs::File::open(dir)?.sync_all()
}

/// A directory holding one append-only log of snapshot records (see
/// the module's log format). Each save appends one entry to the open
/// log with one `write`; the store keeps every tenant's newest entry in
/// memory, so [`records`](SnapshotStore::records), its one read, never
/// touches the disk. A service reads it once, at boot.
///
/// Opening a store creates nothing on disk: the first save creates the
/// directory and the log. A log has one writer, the store that holds it
/// open.
///
/// By default appends are *not* fsynced: an append that returned is in
/// the OS's page cache, which covers every crash the OS survives
/// (process kills, the fleet chaos harness), and write-ahead records
/// are on the issue path. Deployments that must survive power loss
/// should enable [`with_sync`](SnapshotStore::with_sync).
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
    sync: bool,
    log: RefCell<Log>,
}

/// A store's mutable state: the open log and its in-memory index.
#[derive(Debug, Default)]
struct Log {
    /// The log, open for appending; `None` until the first save.
    file: Option<fs::File>,
    /// The log's length in bytes.
    len: u64,
    /// Each tenant's newest entry, exactly as compaction rewrites it.
    latest: BTreeMap<u64, Vec<u8>>,
    /// Total bytes of the entries in `latest`.
    live: u64,
}

impl SnapshotStore {
    /// Opens the store rooted at `dir`, replaying its log if one
    /// exists.
    pub fn open(dir: impl Into<PathBuf>) -> Result<SnapshotStore, PersistError> {
        SnapshotStore::with_sync(dir, false)
    }

    /// Opens the store, choosing whether every save fsyncs its entry
    /// (power-loss durability at per-record `fdatasync` cost).
    ///
    /// A torn tail is truncated to the log's last whole entry; any
    /// other damage is a [`PersistError::Damaged`].
    pub fn with_sync(dir: impl Into<PathBuf>, sync: bool) -> Result<SnapshotStore, PersistError> {
        let dir = dir.into();
        let mut log = Log::default();
        match fs::OpenOptions::new()
            .read(true)
            .append(true)
            .open(dir.join(LOG_FILE))
        {
            Ok(mut file) => {
                let mut bytes = Vec::new();
                file.read_to_end(&mut bytes)?;
                let whole = replay(&bytes, &mut log.latest)?;
                if whole < bytes.len() {
                    file.set_len(whole as u64)?;
                    if sync {
                        file.sync_data()?;
                    }
                }
                log.len = whole as u64;
                log.live = log.latest.values().map(|e| e.len() as u64).sum();
                log.file = Some(file);
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        Ok(SnapshotStore {
            dir,
            sync,
            log: RefCell::new(log),
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Opens the log for appending, creating the directory and the log
    /// if needed. With sync on, the directory is fsynced, so the log's
    /// name (or a compaction's rename) is durable before any append.
    fn open_log(&self) -> io::Result<fs::File> {
        fs::create_dir_all(&self.dir)?;
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.dir.join(LOG_FILE))?;
        if self.sync {
            sync_dir(&self.dir)?;
        }
        Ok(file)
    }

    /// Makes `record` `tenant`'s newest record: one appended entry,
    /// fsynced with sync on. A failed append is cut back off the log,
    /// so a later save never lands behind a partial entry.
    pub fn save(&self, tenant: u64, record: &SnapshotRecord) -> Result<(), PersistError> {
        let entry = encode_entry(tenant, record)?;
        let mut log = self.log.borrow_mut();
        let log = &mut *log;
        let file = match log.file.take() {
            Some(file) => log.file.insert(file),
            None => log.file.insert(self.open_log()?),
        };
        if let Err(e) = file.write_all(&entry) {
            let _ = file.set_len(log.len);
            return Err(e.into());
        }
        let added = entry.len() as u64;
        log.len += added;
        if self.sync {
            file.sync_data()?;
        }
        log.live += added;
        if let Some(old) = log.latest.insert(tenant, entry) {
            log.live -= old.len() as u64;
        }
        if log.len > COMPACT_MIN_BYTES.max(COMPACT_RATIO.saturating_mul(log.live)) {
            self.compact(log)?;
        }
        Ok(())
    }

    /// Rewrites the log as its live entries: a temp file, fsynced with
    /// sync on, renamed over the log, which is then reopened.
    fn compact(&self, log: &mut Log) -> Result<(), PersistError> {
        let tmp = self.dir.join(COMPACT_FILE);
        let mut image = Vec::with_capacity(log.live as usize);
        for entry in log.latest.values() {
            image.extend_from_slice(entry);
        }
        let mut file = fs::File::create(&tmp)?;
        file.write_all(&image)?;
        if self.sync {
            file.sync_data()?;
        }
        fs::rename(&tmp, self.dir.join(LOG_FILE))?;
        log.file = None;
        log.len = log.live;
        log.file = Some(self.open_log()?);
        Ok(())
    }

    /// Each tenant's newest record, keyed by tenant.
    pub fn records(&self) -> Result<BTreeMap<u64, SnapshotRecord>, PersistError> {
        self.log
            .borrow()
            .latest
            .iter()
            .map(|(&tenant, entry)| Ok((tenant, entry_record(entry)?)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::AlgorithmKind;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("uuidp-persist-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Every snapshot-capable kind, over 2^16.
    fn sample_kinds() -> Vec<(AlgorithmKind, IdSpace)> {
        let space = IdSpace::new(1 << 16).unwrap();
        [
            AlgorithmKind::Random,
            AlgorithmKind::Cluster,
            AlgorithmKind::Bins { k: 16 },
            AlgorithmKind::ClusterStar,
            AlgorithmKind::ClusterStarGrowth { growth: 3 },
            AlgorithmKind::BinsStar,
            AlgorithmKind::BinsStarMaxFit,
            AlgorithmKind::SessionCounter {
                session_bits: 10,
                counter_bits: 6,
            },
        ]
        .into_iter()
        .map(|kind| (kind, space))
        .collect()
    }

    fn record_for(kind: &AlgorithmKind, space: IdSpace, emitted: u128) -> SnapshotRecord {
        let alg = kind.build(space);
        let mut gen = alg.spawn(42);
        for _ in 0..emitted {
            gen.next_id().unwrap();
        }
        SnapshotRecord {
            seq: 7,
            epoch: 2,
            reservation: 64,
            space,
            state: gen.snapshot().expect("snapshot-capable"),
        }
    }

    #[test]
    fn every_algorithm_state_round_trips_through_the_codec() {
        for (kind, space) in sample_kinds() {
            let record = record_for(&kind, space, 37);
            assert_eq!(record.state.kind, kind, "a snapshot reports its kind");
            let decoded = decode_record(&encode_record(&record).unwrap())
                .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            assert_eq!(decoded, record, "{kind:?}");
        }
        // A kind without snapshot support has no tag: a typed error, on
        // its own and through a store.
        let mut record = record_for(&AlgorithmKind::Cluster, IdSpace::new(1 << 16).unwrap(), 1);
        record.state.kind = AlgorithmKind::SetAside { i: 4, j: 20 };
        assert!(matches!(
            encode_record(&record),
            Err(PersistError::State(_))
        ));
        let dir = temp_dir("no-tag");
        let store = SnapshotStore::open(&dir).unwrap();
        assert!(matches!(
            store.save(1, &record),
            Err(PersistError::State(_))
        ));
        assert!(store.records().unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn random_and_bins_records_have_a_constant_size() {
        // Every snapshot-capable algorithm's record is its kind, seed
        // and count, so its size does not grow with demand.
        let space = IdSpace::with_bits(48).unwrap();
        for (kind, bytes) in [
            (AlgorithmKind::Random, 97),
            (AlgorithmKind::Cluster, 97),
            (AlgorithmKind::Bins { k: 16 }, 113),
            (AlgorithmKind::ClusterStar, 97),
            (AlgorithmKind::ClusterStarGrowth { growth: 3 }, 101),
            (AlgorithmKind::BinsStar, 97),
            (AlgorithmKind::BinsStarMaxFit, 97),
            (
                AlgorithmKind::SessionCounter {
                    session_bits: 40,
                    counter_bits: 8,
                },
                105,
            ),
        ] {
            for emitted in [0, 1 << 10, 1 << 16, 1 << 20] {
                let record = record_for(&kind, space, emitted);
                assert_eq!(
                    encode_record(&record).unwrap().len(),
                    bytes,
                    "{kind:?} after {emitted} IDs"
                );
            }
        }
    }

    #[test]
    fn a_version_1_log_is_a_typed_error() {
        // Version 1 (Random's shuffle state), version 2 (the runs, bins
        // and sessions Cluster★, Bins★ and SessionCounter opened) and
        // version 3 (per-state parameters, Bins★'s chunk count among
        // them) are not read: each re-stamped log is a typed error.
        for version in [1u32, 2, 3] {
            let dir = temp_dir(&format!("v{version}"));
            let space = IdSpace::new(1 << 12).unwrap();
            let store = SnapshotStore::open(&dir).unwrap();
            store
                .save(3, &record_for(&AlgorithmKind::Random, space, 5))
                .unwrap();
            drop(store);
            // The entry's record re-stamped as `version` under a valid
            // checksum: a log written before the format went to
            // version 4.
            let log = dir.join(LOG_FILE);
            let mut image = fs::read(&log).unwrap();
            let record = &mut image[ENTRY_HEADER..];
            record[8..12].copy_from_slice(&version.to_le_bytes());
            let end = record.len() - 8;
            let sum = fnv1a(&record[..end]);
            record[end..].copy_from_slice(&sum.to_le_bytes());
            fs::write(&log, &image).unwrap();
            let err = SnapshotStore::open(&dir).unwrap_err();
            assert!(
                matches!(&err, PersistError::Damaged { offset: 0, error }
                    if matches!(**error, PersistError::UnsupportedVersion(v) if v == version)),
                "{err:?}"
            );
            assert!(
                err.to_string()
                    .contains(&format!("unsupported snapshot version {version}")),
                "{err}"
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn store_saves_loads_and_lists_atomically() {
        let dir = temp_dir("store");
        let store = SnapshotStore::open(&dir).unwrap();
        let space = IdSpace::new(1 << 12).unwrap();
        let record = record_for(&AlgorithmKind::Cluster, space, 5);
        assert!(store.records().unwrap().is_empty());
        store.save(3, &record).unwrap();
        store.save(9, &record).unwrap();
        assert_eq!(
            store.records().unwrap(),
            BTreeMap::from([(3, record.clone()), (9, record.clone())])
        );
        // Overwrite wins; no temp files linger.
        let mut newer = record.clone();
        newer.seq = 8;
        store.save(3, &newer).unwrap();
        assert_eq!(
            store.records().unwrap(),
            BTreeMap::from([(3, newer), (9, record)])
        );
        assert!(fs::read_dir(&dir).unwrap().all(|e| !e
            .unwrap()
            .file_name()
            .to_str()
            .unwrap()
            .ends_with(".tmp")));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Saves three entries for two tenants (tenant 3 twice) into a fresh
    /// store at `dir`. Returns the log image, the saves in order, and
    /// each entry's end offset.
    fn three_entry_log(dir: &Path) -> (Vec<u8>, Vec<(u64, SnapshotRecord)>, Vec<usize>) {
        let space = IdSpace::new(1 << 12).unwrap();
        let mut newer = record_for(&AlgorithmKind::ClusterStar, space, 30);
        newer.seq = 8;
        let saves = vec![
            (3, record_for(&AlgorithmKind::ClusterStar, space, 5)),
            (9, record_for(&AlgorithmKind::ClusterStar, space, 11)),
            (3, newer),
        ];
        let store = SnapshotStore::open(dir).unwrap();
        let mut ends = Vec::new();
        for (tenant, record) in &saves {
            store.save(*tenant, record).unwrap();
            ends.push(fs::metadata(dir.join(LOG_FILE)).unwrap().len() as usize);
        }
        (fs::read(dir.join(LOG_FILE)).unwrap(), saves, ends)
    }

    #[test]
    fn a_torn_tail_is_trimmed_to_the_last_whole_entry() {
        let dir = temp_dir("torn");
        let (image, saves, ends) = three_entry_log(&dir);
        let log = dir.join(LOG_FILE);
        for cut in 0..=image.len() {
            fs::write(&log, &image[..cut]).unwrap();
            let whole = ends.iter().filter(|&&end| end <= cut).count();
            let expected: BTreeMap<u64, SnapshotRecord> = saves[..whole].iter().cloned().collect();
            let store = SnapshotStore::open(&dir).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
            assert_eq!(store.records().unwrap(), expected, "cut at {cut}");
            let kept = whole.checked_sub(1).map_or(0, |last| ends[last]);
            assert_eq!(
                fs::metadata(&log).unwrap().len() as usize,
                kept,
                "cut at {cut}: torn tail left in place"
            );
        }
        // A save after a trimmed torn tail reopens cleanly.
        fs::write(&log, &image[..ends[1] + 5]).unwrap();
        let store = SnapshotStore::open(&dir).unwrap();
        store.save(9, &saves[2].1).unwrap();
        drop(store);
        let store = SnapshotStore::open(&dir).unwrap();
        assert_eq!(
            store.records().unwrap(),
            BTreeMap::from([(3, saves[0].1.clone()), (9, saves[2].1.clone())])
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_byte_flip_in_the_log_is_a_typed_error() {
        // Mirrors `corruption_is_detected_not_panicked` one level up:
        // no flip, in a header or a body, of the last entry or an
        // earlier one, may open as a torn tail or a clean log.
        let dir = temp_dir("flip");
        let (image, _, ends) = three_entry_log(&dir);
        for i in 0..image.len() {
            let mut bad = image.clone();
            bad[i] ^= 0x41;
            fs::write(dir.join(LOG_FILE), &bad).unwrap();
            let start = ends
                .iter()
                .filter(|&&end| end <= i)
                .max()
                .copied()
                .unwrap_or(0);
            match SnapshotStore::open(&dir) {
                Err(PersistError::Damaged { offset, .. }) => {
                    assert_eq!(offset, start as u64, "flip at byte {i}")
                }
                other => panic!("flip at byte {i} gave {other:?}"),
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_bounds_the_log_and_keeps_each_tenants_newest_record() {
        let space = IdSpace::new(1 << 16).unwrap();
        for sync in [false, true] {
            let dir = temp_dir(&format!("compact-{sync}"));
            let store = SnapshotStore::with_sync(&dir, sync).unwrap();
            let mut newest = BTreeMap::new();
            let mut largest = 0;
            let mut compactions = 0;
            let mut last_len = 0;
            for i in 0..5_000u64 {
                let mut record = record_for(&AlgorithmKind::Cluster, space, (i % 97) as u128);
                record.seq = i;
                let tenant = i % 8;
                store.save(tenant, &record).unwrap();
                largest = largest.max(encode_entry(tenant, &record).unwrap().len() as u64);
                newest.insert(tenant, record);
                let live: u64 = newest
                    .iter()
                    .map(|(&t, r)| encode_entry(t, r).unwrap().len() as u64)
                    .sum();
                let len = fs::metadata(dir.join(LOG_FILE)).unwrap().len();
                assert!(
                    len <= COMPACT_MIN_BYTES.max(COMPACT_RATIO * live) + largest,
                    "sync {sync}: save {i} left a {len}-byte log over {live} live bytes"
                );
                if len < last_len {
                    // Just compacted: the log alone must hold every
                    // tenant's newest record.
                    compactions += 1;
                    let reopened = SnapshotStore::open(&dir).unwrap();
                    assert_eq!(
                        reopened.records().unwrap(),
                        newest,
                        "sync {sync}: compaction at save {i} lost a tenant's newest"
                    );
                }
                last_len = len;
            }
            assert!(compactions > 0, "sync {sync}: never compacted");
            drop(store);
            // A crash mid-compaction leaves a temp file; open ignores it.
            fs::write(dir.join(COMPACT_FILE), b"torn compaction").unwrap();
            let store = SnapshotStore::open(&dir).unwrap();
            assert_eq!(newest.len(), 8);
            assert_eq!(store.records().unwrap(), newest, "sync {sync}");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn corruption_is_detected_not_panicked() {
        let space = IdSpace::new(1 << 12).unwrap();
        let record = record_for(&AlgorithmKind::BinsStar, space, 20);
        let good = encode_record(&record).unwrap();

        // Every single-byte flip must fail loudly (magic, version,
        // length, payload, or checksum — never a silent wrong decode).
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x41;
            assert!(decode_record(&bad).is_err(), "flip at byte {i} accepted");
        }
        // Every truncation must fail.
        for cut in 0..good.len() {
            assert!(
                decode_record(&good[..cut]).is_err(),
                "cut at {cut} accepted"
            );
        }
        // Garbage appended past the checksum fails the length check.
        let mut padded = good.clone();
        padded.push(0);
        assert!(decode_record(&padded).is_err());
        // A crafted near-MAX length field must come back Truncated,
        // not overflow the length arithmetic.
        let mut huge = good.clone();
        huge[12..20].copy_from_slice(&(u64::MAX - 4).to_le_bytes());
        assert!(matches!(decode_record(&huge), Err(PersistError::Truncated)));
    }

    #[test]
    fn unknown_versions_are_rejected_by_number() {
        let space = IdSpace::new(1 << 10).unwrap();
        let mut bytes = encode_record(&record_for(&AlgorithmKind::Cluster, space, 1)).unwrap();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        // Re-stamp the checksum so the version check itself is hit.
        let end = bytes.len() - 8;
        let sum = fnv1a(&bytes[..end]);
        bytes[end..].copy_from_slice(&sum.to_le_bytes());
        match decode_record(&bytes) {
            Err(PersistError::UnsupportedVersion(99)) => {}
            other => panic!("expected UnsupportedVersion(99), got {other:?}"),
        }
    }

    #[test]
    fn recover_abandons_the_reserved_window() {
        for (kind, space) in sample_kinds() {
            let alg = kind.build(space);
            let mut original = alg.spawn(11);
            let mut pre_crash = Vec::new();
            for _ in 0..40 {
                pre_crash.push(original.next_id().unwrap());
            }
            let record = SnapshotRecord {
                seq: 1,
                epoch: 0,
                reservation: 25,
                space,
                state: original.snapshot().unwrap(),
            };
            // The crash happens mid-window: 17 more IDs go out the door.
            for _ in 0..17 {
                pre_crash.push(original.next_id().unwrap());
            }
            let mut recovered = recover(&record).unwrap();
            assert_eq!(
                recovered.generated(),
                40 + 25,
                "{kind:?}: recovery resumes at the reservation frontier"
            );
            // Nothing the recovered instance emits repeats a pre-crash ID,
            // and the stream is the seed's permutation past the window.
            let mut reference = alg.spawn(11);
            reference.skip(40 + 25).unwrap();
            for step in 0..60 {
                let id = recovered.next_id().unwrap();
                assert_eq!(id, reference.next_id().unwrap(), "{kind:?} step {step}");
                assert!(!pre_crash.contains(&id), "{kind:?} re-emitted {id}");
            }
        }
    }

    #[test]
    fn recover_past_exhaustion_yields_an_exhausted_generator() {
        let space = IdSpace::new(64).unwrap();
        let alg = AlgorithmKind::Cluster.build(space);
        let mut gen = alg.spawn(5);
        for _ in 0..50 {
            gen.next_id().unwrap();
        }
        let record = SnapshotRecord {
            seq: 1,
            epoch: 0,
            reservation: 1000, // far past the universe
            space,
            state: gen.snapshot().unwrap(),
        };
        let mut recovered = recover(&record).unwrap();
        assert!(
            recovered.next_id().is_err(),
            "must be exhausted, not reused"
        );
    }

    #[test]
    fn persist_error_displays_name_the_failure() {
        assert!(PersistError::BadMagic.to_string().contains("magic"));
        assert!(PersistError::ChecksumMismatch
            .to_string()
            .contains("checksum"));
        assert!(PersistError::UnsupportedVersion(9)
            .to_string()
            .contains('9'));
        assert!(PersistError::Truncated.to_string().contains("truncated"));
        let damaged = PersistError::Damaged {
            offset: 137,
            error: Box::new(PersistError::ChecksumMismatch),
        };
        assert!(damaged.to_string().contains("byte 137"));
    }
}
