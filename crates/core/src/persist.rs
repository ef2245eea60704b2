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
//! ## Slot file
//!
//! A [`SnapshotStore`] is one file, `snapshots.slots`, of 256-byte
//! slots, one per tenant in the order of their first saves. A slot holds
//! one entry wrapping the tenant's newest record, zero-padded:
//!
//! ```text
//! tenant   u64 LE    the record's tenant
//! length   u64 LE    record byte count
//! check    u64 LE    FNV-1a over tenant + length
//! record   ...       the record, encoded as above
//! padding  ...       zeros to the slot's end
//! ```
//!
//! Every byte is under a check: the header under `check`, the record
//! under its own checksum, the padding by being zero. A save rewrites
//! its tenant's slot in place; a tenant's first save appends a slot. An
//! all-zero slot holds nothing (a crash can leave a file's length on
//! disk before its data), and neither does a cut-short last slot (a
//! first save that never completed). Any other slot that fails to
//! decode, and a tenant's second slot, is a [`PersistError::Damaged`]
//! naming the slot's byte offset, so a bit flip is never read as an
//! empty slot. A 256-byte slot never straddles a 512-byte sector or a
//! page, so a process kill cannot tear a save.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::os::unix::fs::FileExt as _;
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

/// The slot file in a store's directory.
const SLOT_FILE: &str = "snapshots.slots";

/// The append-only log of the older layout: a directory holding one
/// refuses to open.
const LOG_FILE: &str = "snapshots.log";

/// Bytes per slot.
const SLOT: usize = 256;

/// Header bytes under the header checksum: tenant and record length.
const ENTRY_FIELDS: usize = 16;

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
    /// A slot failed to decode, or repeated a tenant's slot; `offset` is
    /// the slot's byte position in its file.
    Damaged {
        /// Byte offset of the damaged slot.
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
                write!(f, "snapshot slot at byte {offset}: {error}")
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
// Slot file store
// ---------------------------------------------------------------------

/// Encodes `record` as `tenant`'s slot: its entry, zero-padded.
fn encode_slot(tenant: u64, record: &SnapshotRecord) -> Result<Vec<u8>, PersistError> {
    let body = encode_record(record)?;
    let mut slot = Vec::with_capacity(SLOT);
    put_u64(&mut slot, tenant);
    put_u64(&mut slot, body.len() as u64);
    let check = fnv1a(&slot);
    put_u64(&mut slot, check);
    slot.extend_from_slice(&body);
    if slot.len() > SLOT {
        let error = format!("a {}-byte entry overflows its slot", slot.len());
        return Err(PersistError::Corrupt(error));
    }
    slot.resize(SLOT, 0);
    Ok(slot)
}

/// Decodes a slot's tenant and record; the bytes past the record must
/// be zero.
fn decode_slot(slot: &[u8]) -> Result<(u64, SnapshotRecord), PersistError> {
    let mut c = Cursor::new(slot);
    let fields = c.take(ENTRY_FIELDS)?;
    if fnv1a(fields) != c.u64()? {
        return Err(PersistError::ChecksumMismatch);
    }
    let mut fields = Cursor::new(fields);
    let tenant = fields.u64()?;
    let len = usize::try_from(fields.u64()?).map_err(|_| PersistError::Truncated)?;
    let record = decode_record(c.take(len)?)?;
    let padding = slot.get(c.position()..).unwrap_or_default();
    if padding.iter().any(|&b| b != 0) {
        return Err(PersistError::Corrupt("non-zero padding".into()));
    }
    Ok((tenant, record))
}

/// Decodes a slot file image into each tenant's slot index and record,
/// skipping all-zero slots and a cut-short last slot.
fn scan(image: &[u8]) -> Result<BTreeMap<u64, (u64, SnapshotRecord)>, PersistError> {
    let mut tenants = BTreeMap::new();
    for (index, slot) in (0u64..).zip(image.chunks_exact(SLOT)) {
        if slot.iter().all(|&b| b == 0) {
            continue;
        }
        let damaged = |error| PersistError::Damaged {
            offset: index * SLOT as u64,
            error: Box::new(error),
        };
        let (tenant, record) = decode_slot(slot).map_err(damaged)?;
        if tenants.insert(tenant, (index, record)).is_some() {
            let error = format!("a second slot for tenant {tenant}");
            return Err(damaged(PersistError::Corrupt(error)));
        }
    }
    Ok(tenants)
}

/// The bytes of the slot file at `path`; none before a first save
/// creates it.
fn read_image(path: &Path) -> io::Result<Vec<u8>> {
    match fs::read(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        read => read,
    }
}

/// A directory holding one slot file of snapshot records (see the
/// module's slot format). A save is one positional `write` of its
/// tenant's slot to the file kept open; the store keeps only each
/// tenant's slot index in memory. [`records`](SnapshotStore::records),
/// its one read, reads the file. A service reads it once, at boot.
///
/// Opening a store creates nothing on disk: the first save creates the
/// directory and the file. A file has one writer, the store that holds
/// it open.
///
/// By default saves are *not* fsynced: a save that returned is in the
/// OS's page cache, which covers every crash the OS survives (process
/// kills, the fleet chaos harness), and write-ahead records are on the
/// issue path. Deployments that must survive power loss should enable
/// [`with_sync`](SnapshotStore::with_sync).
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
    sync: bool,
    slots: RefCell<Slots>,
}

/// A store's mutable state: the open file and where each tenant's slot
/// lies in it.
#[derive(Debug)]
struct Slots {
    /// The slot file, open for writing; `None` until the first save.
    file: Option<fs::File>,
    /// Each tenant's slot index.
    index: BTreeMap<u64, u64>,
    /// The slot a new tenant's first save takes: the file's whole
    /// slots, so a cut-short last slot is reused.
    next: u64,
}

impl SnapshotStore {
    /// Opens the store rooted at `dir`, reading its slot file if one
    /// exists.
    pub fn open(dir: impl Into<PathBuf>) -> Result<SnapshotStore, PersistError> {
        SnapshotStore::with_sync(dir, false)
    }

    /// Opens the store, choosing whether every save fsyncs its slot
    /// (power-loss durability at per-record `fdatasync` cost).
    ///
    /// A slot that fails to decode is a [`PersistError::Damaged`]. A
    /// directory that still holds a `snapshots.log` from the older
    /// append-only layout is an error naming it: this store does not
    /// read it, and opening past it would reissue its tenants' IDs.
    pub fn with_sync(dir: impl Into<PathBuf>, sync: bool) -> Result<SnapshotStore, PersistError> {
        let dir = dir.into();
        let log = dir.join(LOG_FILE);
        if log.try_exists()? {
            let error = format!("{log:?} holds an append-only snapshot log, which is not read");
            return Err(io::Error::new(io::ErrorKind::InvalidData, error).into());
        }
        let image = read_image(&dir.join(SLOT_FILE))?;
        let index = scan(&image)?
            .into_iter()
            .map(|(tenant, (index, _))| (tenant, index))
            .collect();
        let slots = Slots {
            file: None,
            index,
            next: (image.len() / SLOT) as u64,
        };
        Ok(SnapshotStore {
            dir,
            sync,
            slots: RefCell::new(slots),
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Opens the slot file for writing, creating the directory and the
    /// file if needed. With sync on, the directory is fsynced, so the
    /// file's name is durable before any save returns.
    fn open_file(&self) -> io::Result<fs::File> {
        fs::create_dir_all(&self.dir)?;
        let file = fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(self.dir.join(SLOT_FILE))?;
        if self.sync {
            fs::File::open(&self.dir)?.sync_all()?;
        }
        Ok(file)
    }

    /// Makes `record` `tenant`'s newest record: one positional write of
    /// the tenant's slot, fsynced with sync on. A tenant's first save
    /// takes the next slot, extending the file by one slot.
    pub fn save(&self, tenant: u64, record: &SnapshotRecord) -> Result<(), PersistError> {
        let slot = encode_slot(tenant, record)?;
        let mut slots = self.slots.borrow_mut();
        let slots = &mut *slots;
        let file = match &mut slots.file {
            Some(file) => file,
            none => none.insert(self.open_file()?),
        };
        let index = slots.index.get(&tenant).copied().unwrap_or(slots.next);
        file.write_all_at(&slot, index * SLOT as u64)?;
        if index == slots.next {
            slots.index.insert(tenant, index);
            slots.next += 1;
        }
        if self.sync {
            file.sync_data()?;
        }
        Ok(())
    }

    /// Each tenant's newest record, keyed by tenant.
    pub fn records(&self) -> Result<BTreeMap<u64, SnapshotRecord>, PersistError> {
        let image = read_image(&self.dir.join(SLOT_FILE))?;
        Ok(scan(&image)?
            .into_iter()
            .map(|(tenant, (_, record))| (tenant, record))
            .collect())
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
    fn every_snapshot_kind_fits_one_slot() {
        // Record sizes do not depend on the universe or the count (see
        // the constant-size test): the largest, Bins(k)'s 113 bytes,
        // plus the 24-byte header leaves padding to spare.
        for (kind, space) in sample_kinds() {
            let record = record_for(&kind, space, 37);
            let slot = encode_slot(u64::MAX, &record).unwrap();
            assert_eq!(slot.len(), SLOT, "{kind:?}");
            assert_eq!(decode_slot(&slot).unwrap(), (u64::MAX, record), "{kind:?}");
        }
    }

    #[test]
    fn a_version_1_log_is_a_typed_error() {
        // Version 1 (Random's shuffle state), version 2 (the runs, bins
        // and sessions Cluster★, Bins★ and SessionCounter opened) and
        // version 3 (per-state parameters, Bins★'s chunk count among
        // them) are not read: each re-stamped slot is a typed error.
        for version in [1u32, 2, 3] {
            let dir = temp_dir(&format!("v{version}"));
            let space = IdSpace::new(1 << 12).unwrap();
            let store = SnapshotStore::open(&dir).unwrap();
            store
                .save(3, &record_for(&AlgorithmKind::Random, space, 5))
                .unwrap();
            drop(store);
            // The slot's record, bounded by its length field, re-stamped
            // as `version` under a valid checksum: a record written
            // before the format went to version 4.
            let path = dir.join(SLOT_FILE);
            let mut image = fs::read(&path).unwrap();
            let len = u64::from_le_bytes(image[8..16].try_into().unwrap()) as usize;
            let record = &mut image[ENTRY_FIELDS + 8..ENTRY_FIELDS + 8 + len];
            record[8..12].copy_from_slice(&version.to_le_bytes());
            let end = record.len() - 8;
            let sum = fnv1a(&record[..end]);
            record[end..].copy_from_slice(&sum.to_le_bytes());
            fs::write(&path, &image).unwrap();
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
        assert!(!dir.exists(), "opening a store creates nothing");
        let space = IdSpace::new(1 << 12).unwrap();
        let record = record_for(&AlgorithmKind::Cluster, space, 5);
        assert!(store.records().unwrap().is_empty());
        store.save(3, &record).unwrap();
        store.save(9, &record).unwrap();
        assert_eq!(
            store.records().unwrap(),
            BTreeMap::from([(3, record.clone()), (9, record.clone())])
        );
        // Overwrite wins, in place: the directory holds one two-slot
        // file.
        let mut newer = record.clone();
        newer.seq = 8;
        store.save(3, &newer).unwrap();
        assert_eq!(
            store.records().unwrap(),
            BTreeMap::from([(3, newer), (9, record)])
        );
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, [SLOT_FILE]);
        assert_eq!(
            fs::metadata(dir.join(SLOT_FILE)).unwrap().len(),
            2 * SLOT as u64
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// Saves four records for three tenants (tenant 3 twice) into a
    /// fresh store at `dir`. Returns the file image and each slot's
    /// tenant and newest record, in slot order.
    fn three_slot_file(dir: &Path) -> (Vec<u8>, Vec<(u64, SnapshotRecord)>) {
        let space = IdSpace::new(1 << 12).unwrap();
        let mut newer = record_for(&AlgorithmKind::ClusterStar, space, 30);
        newer.seq = 8;
        let store = SnapshotStore::open(dir).unwrap();
        for (tenant, record) in [
            (3, record_for(&AlgorithmKind::ClusterStar, space, 5)),
            (9, record_for(&AlgorithmKind::ClusterStar, space, 11)),
            (3, newer.clone()),
            (5, record_for(&AlgorithmKind::Bins { k: 16 }, space, 2)),
        ] {
            store.save(tenant, &record).unwrap();
        }
        let slots = vec![
            (3, newer),
            (9, record_for(&AlgorithmKind::ClusterStar, space, 11)),
            (5, record_for(&AlgorithmKind::Bins { k: 16 }, space, 2)),
        ];
        let image = fs::read(dir.join(SLOT_FILE)).unwrap();
        assert_eq!(image.len(), slots.len() * SLOT);
        (image, slots)
    }

    #[test]
    fn a_cut_file_keeps_its_whole_slots_and_reuses_the_cut_one() {
        // A cut is a first save that never completed: opening keeps the
        // whole slots before it, and the next new tenant takes the cut
        // slot.
        let dir = temp_dir("cut");
        let (image, slots) = three_slot_file(&dir);
        let path = dir.join(SLOT_FILE);
        let newcomer = record_for(&AlgorithmKind::Cluster, IdSpace::new(1 << 12).unwrap(), 3);
        for cut in 0..=image.len() {
            fs::write(&path, &image[..cut]).unwrap();
            let whole = cut / SLOT;
            let mut expected: BTreeMap<u64, SnapshotRecord> =
                slots[..whole].iter().cloned().collect();
            let store = SnapshotStore::open(&dir).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
            assert_eq!(store.records().unwrap(), expected, "cut at {cut}");
            store.save(7, &newcomer).unwrap();
            assert_eq!(
                fs::metadata(&path).unwrap().len(),
                ((whole + 1) * SLOT) as u64,
                "cut at {cut}: the new tenant did not take the cut slot"
            );
            expected.insert(7, newcomer.clone());
            let reopened = SnapshotStore::open(&dir).unwrap();
            assert_eq!(reopened.records().unwrap(), expected, "cut at {cut}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_zero_tail_opens_with_every_tenant() {
        // A crash can leave a file's length on disk before its data: a
        // tail of zeros, which holds no slot. A new tenant's slot goes
        // past it.
        let dir = temp_dir("zero-tail");
        let (image, slots) = three_slot_file(&dir);
        let path = dir.join(SLOT_FILE);
        let all: BTreeMap<u64, SnapshotRecord> = slots.into_iter().collect();
        let newcomer = record_for(&AlgorithmKind::Cluster, IdSpace::new(1 << 12).unwrap(), 3);
        for zeros in [1, 23, 24, 100, 256, 4096 + 7] {
            let mut tailed = image.clone();
            tailed.resize(image.len() + zeros, 0);
            fs::write(&path, &tailed).unwrap();
            let store =
                SnapshotStore::open(&dir).unwrap_or_else(|e| panic!("{zeros} zero bytes: {e}"));
            assert_eq!(store.records().unwrap(), all, "{zeros} zero bytes");
            store.save(7, &newcomer).unwrap();
            let mut expected = all.clone();
            expected.insert(7, newcomer.clone());
            let reopened = SnapshotStore::open(&dir).unwrap();
            assert_eq!(reopened.records().unwrap(), expected, "{zeros} zero bytes");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_byte_flip_in_the_slot_file_is_a_typed_error() {
        // Mirrors `corruption_is_detected_not_panicked` one level up: no
        // flip, in a header, a record or the padding, of any slot, may
        // open as an empty slot or a clean file.
        let dir = temp_dir("flip");
        let (image, _) = three_slot_file(&dir);
        for i in 0..image.len() {
            let mut bad = image.clone();
            bad[i] ^= 0x41;
            fs::write(dir.join(SLOT_FILE), &bad).unwrap();
            match SnapshotStore::open(&dir) {
                Err(PersistError::Damaged { offset, .. }) => {
                    assert_eq!(offset, (i / SLOT * SLOT) as u64, "flip at byte {i}")
                }
                other => panic!("flip at byte {i} gave {other:?}"),
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_second_slot_for_one_tenant_is_damaged() {
        let dir = temp_dir("second-slot");
        let (mut image, _) = three_slot_file(&dir);
        // Tenant 3's slot copied over tenant 9's.
        image.copy_within(..SLOT, SLOT);
        fs::write(dir.join(SLOT_FILE), &image).unwrap();
        let err = SnapshotStore::open(&dir).unwrap_err();
        assert!(
            matches!(err, PersistError::Damaged { offset, .. } if offset == SLOT as u64),
            "{err:?}"
        );
        assert!(
            err.to_string().contains("second slot for tenant 3"),
            "{err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rewrites_in_place_keep_one_slot_per_tenant_with_its_newest_record() {
        let space = IdSpace::new(1 << 16).unwrap();
        for sync in [false, true] {
            let dir = temp_dir(&format!("rewrite-{sync}"));
            let store = SnapshotStore::with_sync(&dir, sync).unwrap();
            let mut newest = BTreeMap::new();
            for i in 0..2_000u64 {
                let mut record = record_for(&AlgorithmKind::Cluster, space, (i % 97) as u128);
                record.seq = i;
                store.save(i % 8, &record).unwrap();
                newest.insert(i % 8, record);
                let len = fs::metadata(dir.join(SLOT_FILE)).unwrap().len();
                assert_eq!(
                    len,
                    (newest.len() * SLOT) as u64,
                    "sync {sync}: save {i} left a {len}-byte file"
                );
                if i % 250 == 249 {
                    let reopened = SnapshotStore::open(&dir).unwrap();
                    assert_eq!(reopened.records().unwrap(), newest, "sync {sync}: save {i}");
                }
            }
            drop(store);
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
