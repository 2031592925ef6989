//! Segment-granular storage: the fetchable unit of progressive retrieval.
//!
//! A *segment* is one encoded bit-plane of one coefficient level, keyed by
//! `(level, plane)`. The paper's tiered store serves exactly these units —
//! a retrieval plan is a per-level plane-prefix, so the reader issues one
//! fetch per `(l, k)` with `k < planes[l]` and decodes whatever prefixes it
//! obtains. [`SegmentStore`] abstracts the backend ([`MemStore`] for tests
//! and simulation, [`FileStore`] for a directory's append-only segment
//! log); fault injection and retry wrap this trait without the backends
//! knowing.
//!
//! Writable backends additionally implement [`MutableSegmentStore`], the
//! surface the sharded store's replication and `repair()` pass build on.
//! [`FileStore`] writes are crash-safe: a batch of records is appended and
//! synced once, and `open()` verifies every record, skipping torn or rotted
//! ones and quarantining a torn tail instead of serving or appending after it.

use pmr_error::sync::{rank, Mutex, RwLock};
use pmr_error::{len_u32, ByteReader, PmrError};
use pmr_mgard::checksum::fnv1a64;
use pmr_mgard::Compressed;
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// `(level, plane)` — the address of one encoded bit-plane.
pub type SegmentKey = (usize, u32);

/// Why a segment fetch failed. Only [`FetchError::Missing`] is permanent;
/// every other variant is worth a retry.
#[derive(Debug, Clone, PartialEq)]
pub enum FetchError {
    /// The segment does not exist on any tier (permanent loss).
    Missing { level: usize, plane: u32 },
    /// A transient I/O error (connection reset, EIO, ...); retryable.
    Transient { level: usize, plane: u32, detail: String },
    /// Bytes arrived but fail checksum / length verification; retryable
    /// (the next attempt may read a clean replica).
    Corrupt { level: usize, plane: u32, detail: String },
    /// Any other I/O failure; retryable.
    Io { level: usize, plane: u32, detail: String },
}

impl FetchError {
    /// The segment this error concerns.
    pub fn key(&self) -> SegmentKey {
        match *self {
            FetchError::Missing { level, plane }
            | FetchError::Transient { level, plane, .. }
            | FetchError::Corrupt { level, plane, .. }
            | FetchError::Io { level, plane, .. } => (level, plane),
        }
    }

    /// Permanent errors are not retried: no attempt can ever succeed.
    pub fn is_permanent(&self) -> bool {
        matches!(self, FetchError::Missing { .. })
    }
}

impl fmt::Display for FetchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FetchError::Missing { level, plane } => {
                write!(f, "segment ({level},{plane}) missing from every tier")
            }
            FetchError::Transient { level, plane, detail } => {
                write!(f, "transient error fetching ({level},{plane}): {detail}")
            }
            FetchError::Corrupt { level, plane, detail } => {
                write!(f, "segment ({level},{plane}) corrupt: {detail}")
            }
            FetchError::Io { level, plane, detail } => {
                write!(f, "I/O error fetching ({level},{plane}): {detail}")
            }
        }
    }
}

impl std::error::Error for FetchError {}

/// The result of one successful low-level read: the raw payload.
///
/// A read carries the FNV-1a of its payload once someone has it, so each
/// layer above compares that digest with the manifest's instead of hashing
/// the same bytes again. The invariant — a carried digest is the digest of
/// `bytes` — is why both fields are private: the digest is set only by a
/// backend that has just proved it ([`SegmentRead::proved`], crate-private)
/// or by hashing the bytes here ([`SegmentRead::fnv`]), and the one mutable
/// view of the bytes clears it, so a wrapper that alters a payload cannot
/// forward the digest of what it used to be.
#[derive(Debug, Clone)]
pub struct SegmentRead {
    bytes: Vec<u8>,
    fnv: Option<u64>,
}

impl SegmentRead {
    /// A read whose payload nobody has hashed yet.
    pub fn clean(bytes: Vec<u8>) -> Self {
        SegmentRead { bytes, fnv: None }
    }

    /// A read whose backend has just shown `fnv1a64(bytes) == fnv`.
    pub(crate) fn proved(bytes: Vec<u8>, fnv: u64) -> Self {
        SegmentRead { bytes, fnv: Some(fnv) }
    }

    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The payload for altering (fault injection); forgets the digest.
    pub fn bytes_mut(&mut self) -> &mut Vec<u8> {
        self.fnv = None;
        &mut self.bytes
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// FNV-1a of the payload: the carried digest, else one pass over the
    /// bytes, carried from then on.
    pub fn fnv(&mut self) -> u64 {
        *self.fnv.get_or_insert_with(|| hash(&self.bytes))
    }
}

/// Every FNV-1a pass of the read path goes through here, so the unit tests
/// can count them.
fn hash(bytes: &[u8]) -> u64 {
    #[cfg(test)]
    tests::HASH_PASSES.with(|n| n.set(n.get() + 1));
    fnv1a64(bytes)
}

/// A backend serving encoded bit-plane segments.
///
/// `fetch` takes `&self`: backends are shared across the parallel retrieval
/// path, so implementations use interior mutability for any bookkeeping.
pub trait SegmentStore: Send + Sync {
    /// Read one segment's payload. Errors are *attempt* outcomes — the
    /// retry layer above decides whether to try again.
    fn fetch(&self, key: SegmentKey) -> Result<SegmentRead, FetchError>;

    /// Whether the store holds this segment at all (cheap existence probe;
    /// faults do not apply).
    fn contains(&self, key: SegmentKey) -> bool;

    /// Every segment key the store holds, sorted.
    fn keys(&self) -> Vec<SegmentKey>;
}

impl<S: SegmentStore + ?Sized> SegmentStore for std::sync::Arc<S> {
    fn fetch(&self, key: SegmentKey) -> Result<SegmentRead, FetchError> {
        (**self).fetch(key)
    }

    fn contains(&self, key: SegmentKey) -> bool {
        (**self).contains(key)
    }

    fn keys(&self) -> Vec<SegmentKey> {
        (**self).keys()
    }
}

/// A backend that also accepts writes: the surface replication, repair and
/// re-replication build on. `put` takes `&self` for the same reason `fetch`
/// does — the sharded store writes replicas behind a shared reference.
pub trait MutableSegmentStore: SegmentStore {
    /// Durably store `payload` under `key`, replacing any existing segment.
    fn put(&self, key: SegmentKey, payload: &[u8]) -> Result<(), PmrError>;

    /// Durably store every `(key, payload)` of `batch`. A backend that can
    /// make the whole batch durable at once (one append and one sync for a
    /// [`FileStore`]) overrides this; the default is one `put` each.
    fn put_batch(&self, batch: &[(SegmentKey, &[u8])]) -> Result<(), PmrError> {
        batch.iter().try_for_each(|&(key, payload)| self.put(key, payload))
    }

    /// Remove the segment if present. Removing an absent key is not an
    /// error (deletes are idempotent).
    fn delete(&self, key: SegmentKey) -> Result<(), PmrError>;
}

/// In-memory segment store: payload clones of an artifact's planes.
///
/// The zero-I/O backend for simulation and tests; wrap it in a
/// [`crate::FaultInjector`] to model flaky tiers deterministically.
#[derive(Debug)]
pub struct MemStore {
    segments: RwLock<BTreeMap<SegmentKey, Vec<u8>>>,
}

impl Clone for MemStore {
    fn clone(&self) -> Self {
        MemStore::with(self.segments.read().clone())
    }
}

impl Default for MemStore {
    fn default() -> Self {
        MemStore::with(BTreeMap::new())
    }
}

impl MemStore {
    fn with(segments: BTreeMap<SegmentKey, Vec<u8>>) -> Self {
        MemStore { segments: RwLock::new(rank::MEM_SEGMENTS, segments) }
    }

    /// An empty store; fill it with [`MutableSegmentStore::put`].
    pub fn new() -> Self {
        MemStore::default()
    }

    /// Hold every plane of `c`.
    pub fn from_compressed(c: &Compressed) -> Self {
        let mut segments = BTreeMap::new();
        for (l, lvl) in c.levels().iter().enumerate() {
            for k in 0..lvl.num_planes() {
                segments.insert((l, k), lvl.plane_payload(k).to_vec());
            }
        }
        MemStore::with(segments)
    }

    /// Remove segments, modelling permanent loss (e.g. a dead tier).
    pub fn without(self, lost: &[SegmentKey]) -> Self {
        {
            let mut map = self.segments.write();
            for key in lost {
                map.remove(key);
            }
        }
        self
    }
}

impl SegmentStore for MemStore {
    fn fetch(&self, key: SegmentKey) -> Result<SegmentRead, FetchError> {
        let map = self.segments.read();
        match map.get(&key) {
            Some(bytes) => Ok(SegmentRead::clean(bytes.clone())),
            None => Err(FetchError::Missing { level: key.0, plane: key.1 }),
        }
    }

    fn contains(&self, key: SegmentKey) -> bool {
        self.segments.read().contains_key(&key)
    }

    fn keys(&self) -> Vec<SegmentKey> {
        self.segments.read().keys().copied().collect()
    }
}

impl MutableSegmentStore for MemStore {
    fn put(&self, key: SegmentKey, payload: &[u8]) -> Result<(), PmrError> {
        self.segments.write().insert(key, payload.to_vec());
        Ok(())
    }

    fn delete(&self, key: SegmentKey) -> Result<(), PmrError> {
        self.segments.write().remove(&key);
        Ok(())
    }
}

/// Record magic of a segment in a [`FileStore`] log.
const SEG_MAGIC: &[u8; 6] = b"PMRS1\0";

/// Record magic of a tombstone: a segment header with an empty payload,
/// appended by `delete`.
const TOMB_MAGIC: &[u8; 6] = b"PMRT1\0";

/// Bytes of a record before its payload.
const SEG_HEADER: usize = 26;

/// The file a [`FileStore`] appends every record to.
const LOG_FILE: &str = "segments.pmrs";

/// Suffix of where open sets aside the torn tail of a log
/// (`segments.pmrs.quarantine`).
pub const QUARANTINE_SUFFIX: &str = ".quarantine";

/// Bytes the open scan reads ahead, and searches per step past a span that
/// does not verify; a larger record is read whole.
const SCAN_AHEAD: usize = 4 << 10;

/// The header of a record holding `payload`: `magic`, level, plane, payload
/// length and the payload's FNV-1a checksum. The payload follows it.
fn record_header(
    magic: &[u8; 6],
    key: SegmentKey,
    payload: &[u8],
) -> Result<[u8; SEG_HEADER], PmrError> {
    let mut head = [0; SEG_HEADER];
    head[..6].copy_from_slice(magic);
    head[6..10].copy_from_slice(&len_u32(key.0, "segment level index")?.to_le_bytes());
    head[10..14].copy_from_slice(&key.1.to_le_bytes());
    head[14..18].copy_from_slice(&len_u32(payload.len(), "segment payload length")?.to_le_bytes());
    head[18..].copy_from_slice(&fnv1a64(payload).to_le_bytes());
    Ok(head)
}

/// A record header as [`record_header`] writes it.
struct Header {
    /// A segment (`true`) or a tombstone.
    live: bool,
    key: SegmentKey,
    /// Payload length.
    len: usize,
    /// FNV-1a of the payload.
    sum: u64,
}

impl Header {
    /// Whether `payload` has the length and checksum this header claims.
    fn check(&self, payload: &[u8]) -> Result<(), String> {
        if payload.len() != self.len {
            return Err(format!(
                "payload is {} bytes but the header claims {}",
                payload.len(),
                self.len
            ));
        }
        if hash(payload) != self.sum {
            return Err("payload checksum mismatch".to_string());
        }
        Ok(())
    }
}

/// The header at the front of `rec` and the bytes after it; `None` if `rec`
/// is shorter than a header or its magic is neither a segment's nor a
/// tombstone's.
fn parse_header(rec: &[u8]) -> Option<(Header, &[u8])> {
    let mut r = ByteReader::new(rec, "segment record");
    let live = match r.take(SEG_MAGIC.len()).ok()? {
        m if m == SEG_MAGIC => true,
        m if m == TOMB_MAGIC => false,
        _ => return None,
    };
    let key = (r.u32().ok()? as usize, r.u32().ok()?);
    let head = Header { live, key, len: r.u32().ok()? as usize, sum: r.u64().ok()? };
    Some((head, r.rest()))
}

/// Validate a raw segment record against the key it is expected to hold
/// and return the FNV-1a of its payload (`buf[SEG_HEADER..]`), now proved.
/// `Err` carries a human-readable description of what is wrong (torn
/// write, bit rot, wrong segment, ...).
fn verify_segment(buf: &[u8], key: SegmentKey) -> Result<u64, String> {
    let Some((head, payload)) = parse_header(buf).filter(|(head, _)| head.live) else {
        return Err("bad segment header".to_string());
    };
    if head.key != key {
        return Err("segment header names a different (level, plane)".to_string());
    }
    head.check(payload)?;
    Ok(head.sum)
}

/// Every fsync of the store goes through here, so the unit tests can count
/// them.
pub(crate) fn sync(file: &File, data_only: bool) -> std::io::Result<()> {
    #[cfg(test)]
    tests::SYNCS.with(|n| n.set(n.get() + 1));
    if data_only {
        file.sync_data()
    } else {
        file.sync_all()
    }
}

/// Fsync a directory so an entry just created in it survives a crash.
fn sync_dir(dir: &Path) -> Result<(), PmrError> {
    let d = File::open(dir).map_err(|e| PmrError::io_at(dir, e))?;
    sync(&d, false).map_err(|e| PmrError::io_at(dir, e))
}

/// A read-ahead window over the log for the open scan. It never holds more
/// than [`SCAN_AHEAD`] bytes or one record, whichever is larger.
struct Window<'f> {
    file: &'f File,
    /// Length of the log.
    end: u64,
    /// Log offset of `buf[0]`.
    start: u64,
    buf: Vec<u8>,
}

impl Window<'_> {
    /// The `n` bytes at `at`, or `None` if the log ends first.
    fn get(&mut self, at: u64, n: usize) -> std::io::Result<Option<&[u8]>> {
        let avail = usize::try_from(self.end.saturating_sub(at)).unwrap_or(usize::MAX);
        if n > avail {
            return Ok(None);
        }
        let held = at
            .checked_sub(self.start)
            .and_then(|d| usize::try_from(d).ok())
            .filter(|&d| d.saturating_add(n) <= self.buf.len());
        let from = match held {
            Some(from) => from,
            None => {
                self.buf.resize(avail.min(n.max(SCAN_AHEAD)), 0);
                self.file.read_exact_at(&mut self.buf, at)?;
                self.start = at;
                0
            }
        };
        Ok(self.buf.get(from..from + n))
    }

    /// The record at `at` if it verifies — a segment whose checksum holds,
    /// or a well-formed tombstone — as `(key, payload length, live)`.
    fn record_at(&mut self, at: u64) -> std::io::Result<Option<(SegmentKey, usize, bool)>> {
        let Some((head, _)) = self.get(at, SEG_HEADER)?.and_then(parse_header) else {
            return Ok(None);
        };
        let Some(rec) = self.get(at, SEG_HEADER.saturating_add(head.len))? else {
            return Ok(None);
        };
        // A tombstone is a header over an empty payload.
        let ok = (head.live || head.len == 0)
            && head.check(rec.get(SEG_HEADER..).unwrap_or_default()).is_ok();
        Ok(ok.then_some((head.key, head.len, head.live)))
    }

    /// The offset of the first record at or after `from` that verifies.
    fn next_record(&mut self, mut from: u64) -> std::io::Result<Option<u64>> {
        loop {
            let n = usize::try_from(self.end.saturating_sub(from))
                .unwrap_or(usize::MAX)
                .min(SCAN_AHEAD);
            if n < SEG_HEADER {
                return Ok(None);
            }
            let Some(hay) = self.get(from, n)? else { return Ok(None) };
            match hay.windows(SEG_MAGIC.len()).position(|w| w == SEG_MAGIC || w == TOMB_MAGIC) {
                Some(i) => {
                    let at = from + i as u64;
                    if self.record_at(at)?.is_some() {
                        return Ok(Some(at));
                    }
                    from = at + 1;
                }
                // Step back a magic's length less one: a magic may straddle
                // the end of this chunk.
                None => from += (n - (SEG_MAGIC.len() - 1)) as u64,
            }
        }
    }
}

/// What the open scan found in a log.
struct Scan {
    /// The live record of every segment: `(key, offset, payload length)`.
    index: Vec<(SegmentKey, u64, usize)>,
    /// End of the last record that verified; anything after it is torn.
    clean_end: u64,
}

/// Read the log once, verifying every record. A later record for a key
/// supersedes an earlier one; a span that does not verify is skipped up to
/// the next record that does.
fn scan(file: &File, end: u64) -> std::io::Result<Scan> {
    let mut win = Window { file, end, start: 0, buf: Vec::new() };
    let mut latest = BTreeMap::new();
    let (mut at, mut clean_end) = (0u64, 0u64);
    while at < end {
        match win.record_at(at)? {
            Some((key, len, live)) => {
                latest.insert(key, live.then_some((at, len)));
                at += (SEG_HEADER + len) as u64;
                clean_end = at;
            }
            None => match win.next_record(at + 1)? {
                Some(next) => at = next,
                None => break,
            },
        }
    }
    let index =
        latest.into_iter().filter_map(|(key, rec)| rec.map(|(at, len)| (key, at, len))).collect();
    Ok(Scan { index, clean_end })
}

/// `path` with [`QUARANTINE_SUFFIX`] appended.
fn quarantined(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(QUARANTINE_SUFFIX);
    PathBuf::from(name)
}

/// Copy the torn tail `[from, end)` of the log to `segments.pmrs.quarantine`
/// and sync it, then cut it off the log, so the next append lands right
/// after the last record that verified instead of behind garbage.
fn quarantine_tail(log: &File, path: &Path, from: u64, end: u64) -> Result<(), PmrError> {
    let qpath = quarantined(path);
    let io = |e| PmrError::io_at(&qpath, e);
    let mut q = OpenOptions::new().create(true).append(true).open(&qpath).map_err(io)?;
    let mut at = from;
    while at < end {
        let n = usize::try_from(end - at).unwrap_or(usize::MAX).min(SCAN_AHEAD);
        let mut chunk = vec![0; n];
        log.read_exact_at(&mut chunk, at).map_err(|e| PmrError::io_at(path, e))?;
        q.write_all(&chunk).map_err(io)?;
        at += n as u64;
    }
    sync(&q, true).map_err(io)?;
    if let Some(dir) = path.parent() {
        sync_dir(dir)?;
    }
    log.set_len(from).map_err(|e| PmrError::io_at(path, e))?;
    sync(log, true).map_err(|e| PmrError::io_at(path, e))
}

/// File-backed segment store: every segment of a directory is a record
/// appended to one `segments.pmrs` log. A record is a 26-byte header
/// (`"PMRS1\0"`, level, plane, payload length, FNV-1a checksum, all
/// little-endian) followed by the payload; a `delete` appends a tombstone,
/// the same header with magic `"PMRT1\0"` and an empty payload. A later
/// record for a key supersedes an earlier one.
///
/// `open()` scans the log once and verifies every record; the index names
/// only records that verified. A span that does not verify is skipped, its
/// bytes left in place, and if it is the tail of the log it is moved to
/// `segments.pmrs.quarantine` before anything is appended behind it. A fetch
/// is one positioned read of header and payload, verified again. A write
/// appends a batch of records and syncs once, so `put` is durable when it
/// returns. Opening a clean log only reads it: the log is opened for
/// writing by the first append, or by an open that has a torn tail to cut.
#[derive(Debug)]
pub struct FileStore {
    dir: PathBuf,
    /// The read-only handle a fetch reads through; opened by the first
    /// fetch if the log did not exist at open.
    log: OnceLock<File>,
    /// `(key, record offset, payload length)` of every live segment, sorted
    /// by key. Readers take only this lock.
    index: RwLock<Vec<(SegmentKey, u64, usize)>>,
    /// Held across each batch's write and sync, so appends are serialized.
    appender: Mutex<Appender>,
}

/// The append side of a log.
#[derive(Debug)]
struct Appender {
    /// The write handle, opened on the first write.
    file: Option<File>,
    /// Where the next batch goes: the end of the last record that verified.
    end: u64,
}

impl Appender {
    /// The write handle of the log at `path`, opened on first use. Creating
    /// the log syncs its directory entry.
    fn file(&mut self, path: &Path) -> Result<&File, PmrError> {
        let file = match self.file.take() {
            Some(file) => file,
            None => {
                let io = |e| PmrError::io_at(path, e);
                let mut options = OpenOptions::new();
                options.read(true).write(true);
                match options.clone().create_new(true).open(path) {
                    Ok(file) => {
                        if let Some(dir) = path.parent() {
                            sync_dir(dir)?;
                        }
                        file
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                        options.open(path).map_err(io)?
                    }
                    Err(e) => return Err(io(e)),
                }
            }
        };
        Ok(self.file.insert(file))
    }
}

/// A payload to append under a key; `None` appends a tombstone.
type Record<'p> = (SegmentKey, Option<&'p [u8]>);

impl FileStore {
    /// Create `dir` (if absent) and open it as an empty-or-existing store.
    pub fn create(dir: &Path) -> Result<Self, PmrError> {
        fs::create_dir_all(dir).map_err(|e| PmrError::io_at(dir, e))?;
        Self::open(dir)
    }

    /// Write every plane of `c` to the store under `dir` (created if absent)
    /// as one batch: one append, one sync.
    pub fn write_from(c: &Compressed, dir: &Path) -> Result<Self, PmrError> {
        let store = Self::create(dir)?;
        store.put_batch(&planes(c))?;
        Ok(store)
    }

    /// Open an existing store directory.
    ///
    /// Every record is verified; torn or rotted ones are not indexed, and a
    /// torn tail is quarantined and cut off. A log with nothing to fix is
    /// only read, and no other file of `dir` is touched.
    pub fn open(dir: &Path) -> Result<Self, PmrError> {
        let path = dir.join(LOG_FILE);
        let io = |e| PmrError::io_at(&path, e);
        let (log, index, clean_end, end) = match File::open(&path) {
            Ok(log) => {
                let end = log.metadata().map_err(io)?.len();
                let Scan { index, clean_end } = scan(&log, end).map_err(io)?;
                (OnceLock::from(log), index, clean_end, end)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                // No log yet, but the store's directory must exist.
                fs::metadata(dir).map_err(|e| PmrError::io_at(dir, e))?;
                (OnceLock::new(), Vec::new(), 0, 0)
            }
            Err(e) => return Err(io(e)),
        };
        let mut appender = Appender { file: None, end: clean_end };
        if clean_end < end {
            quarantine_tail(appender.file(&path)?, &path, clean_end, end)?;
        }
        Ok(FileStore {
            dir: dir.to_path_buf(),
            log,
            index: RwLock::new(rank::SEGMENT_INDEX, index),
            appender: Mutex::new(rank::SEGMENT_APPENDER, appender),
        })
    }

    /// Append `records` as one batch, sync it once, then index it. Nothing
    /// is indexed before its sync, and a batch that fails is cut off the
    /// log.
    fn append(&self, records: &[Record]) -> Result<(), PmrError> {
        if records.is_empty() {
            return Ok(());
        }
        let path = self.dir.join(LOG_FILE);
        let io = |e| PmrError::io_at(&path, e);
        let mut appender = self.appender.lock();
        let start = appender.end;
        let reach = records
            .iter()
            .fold(start, |at, (_, p)| at + (SEG_HEADER + p.map_or(0, <[u8]>::len)) as u64);
        let file = appender.file(&path)?;
        let (mut at, mut placed) = (start, Vec::with_capacity(records.len()));
        let written = records
            .iter()
            .try_for_each(|&(key, payload)| {
                // Header and payload go out as they are, so a batch costs no
                // copy of what it writes.
                let body = payload.unwrap_or(&[]);
                let head = record_header(payload.map_or(TOMB_MAGIC, |_| SEG_MAGIC), key, body)?;
                file.write_all_at(&head, at).map_err(io)?;
                file.write_all_at(body, at + SEG_HEADER as u64).map_err(io)?;
                placed.push((key, payload.map(|p| (at, p.len()))));
                at += (SEG_HEADER + body.len()) as u64;
                Ok(())
            })
            .and_then(|()| sync(file, true).map_err(io));
        if let Err(e) = written {
            // Records of a failed batch left in place would outlive it: a
            // later, shorter batch leaves them behind its end, and the next
            // open indexes them over what was acknowledged since. Cut them
            // off; failing that, append behind everything this batch wrote.
            if file.set_len(start).is_err() {
                appender.end = reach;
            }
            return Err(e);
        }
        appender.end = at;
        let mut index = self.index.write();
        for (key, rec) in placed {
            match (index.binary_search_by_key(&key, |e| e.0), rec) {
                (Ok(i), Some((offset, len))) => index[i] = (key, offset, len),
                (Err(i), Some((offset, len))) => index.insert(i, (key, offset, len)),
                (Ok(i), None) => {
                    index.remove(i);
                }
                (Err(_), None) => {}
            }
        }
        Ok(())
    }

    /// Offset and payload length of `key`'s live record.
    fn locate(&self, key: SegmentKey) -> Option<(u64, usize)> {
        let index = self.index.read();
        let i = index.binary_search_by_key(&key, |e| e.0).ok()?;
        index.get(i).map(|&(_, at, len)| (at, len))
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// Every plane of `c` as a `put_batch` batch, in key order.
pub(crate) fn planes(c: &Compressed) -> Vec<(SegmentKey, &[u8])> {
    c.levels()
        .iter()
        .enumerate()
        .flat_map(|(l, lvl)| (0..lvl.num_planes()).map(move |k| ((l, k), lvl.plane_payload(k))))
        .collect()
}

impl SegmentStore for FileStore {
    fn fetch(&self, key: SegmentKey) -> Result<SegmentRead, FetchError> {
        let (level, plane) = key;
        let Some((at, len)) = self.locate(key) else {
            return Err(FetchError::Missing { level, plane });
        };
        let log = match self.log.get() {
            Some(log) => log,
            // An append has created the log since open.
            None => match File::open(self.dir.join(LOG_FILE)) {
                Ok(log) => self.log.get_or_init(|| log),
                Err(e) => return Err(FetchError::Io { level, plane, detail: e.to_string() }),
            },
        };
        let mut buf = vec![0; SEG_HEADER + len];
        if let Err(e) = log.read_exact_at(&mut buf, at) {
            return Err(if e.kind() == std::io::ErrorKind::UnexpectedEof {
                FetchError::Corrupt {
                    level,
                    plane,
                    detail: "the log ends inside the record".into(),
                }
            } else {
                FetchError::Io { level, plane, detail: e.to_string() }
            });
        }
        match verify_segment(&buf, key) {
            Ok(fnv) => {
                // Drop the header inside the read buffer: the payload is
                // shifted down by one memmove, with no second allocation.
                buf.drain(..SEG_HEADER);
                Ok(SegmentRead::proved(buf, fnv))
            }
            Err(detail) => Err(FetchError::Corrupt { level, plane, detail }),
        }
    }

    fn contains(&self, key: SegmentKey) -> bool {
        self.locate(key).is_some()
    }

    fn keys(&self) -> Vec<SegmentKey> {
        let index = self.index.read();
        index.iter().map(|e| e.0).collect()
    }
}

impl MutableSegmentStore for FileStore {
    fn put(&self, key: SegmentKey, payload: &[u8]) -> Result<(), PmrError> {
        self.put_batch(&[(key, payload)])
    }

    fn put_batch(&self, batch: &[(SegmentKey, &[u8])]) -> Result<(), PmrError> {
        let records: Vec<Record> =
            batch.iter().map(|&(key, payload)| (key, Some(payload))).collect();
        self.append(&records)
    }

    fn delete(&self, key: SegmentKey) -> Result<(), PmrError> {
        if !self.contains(key) {
            return Ok(());
        }
        self.append(&[(key, None)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExpectedSegment, FetchExecutor, RetryPolicy, ShardConfig, ShardedStore};
    use pmr_field::{Field, Shape};
    use pmr_mgard::CompressConfig;
    use std::cell::Cell;
    use std::thread::LocalKey;

    thread_local! {
        /// FNV-1a passes [`hash`] has run on this thread.
        pub(super) static HASH_PASSES: Cell<u32> = const { Cell::new(0) };
        /// Fsyncs [`sync`] has run on this thread.
        pub(super) static SYNCS: Cell<u32> = const { Cell::new(0) };
    }

    /// `f`'s result and how far it moved `counter`.
    fn passes<T>(counter: &'static LocalKey<Cell<u32>>, f: impl FnOnce() -> T) -> (T, u32) {
        let before = counter.with(Cell::get);
        let out = f();
        (out, counter.with(Cell::get) - before)
    }

    fn passes_during<T>(f: impl FnOnce() -> T) -> (T, u32) {
        passes(&HASH_PASSES, f)
    }

    fn artifact() -> Compressed {
        let field = Field::from_fn("seg", 0, Shape::cube(9), |x, y, _| {
            ((x as f64) * 0.5).sin() + (y as f64) * 0.01
        });
        Compressed::compress(&field, &CompressConfig::default())
    }

    #[test]
    fn mem_store_serves_every_plane() {
        let c = artifact();
        let store = MemStore::from_compressed(&c);
        let expect: usize = c.levels().iter().map(|l| l.num_planes() as usize).sum();
        assert_eq!(store.keys().len(), expect);
        for (l, lvl) in c.levels().iter().enumerate() {
            for k in 0..lvl.num_planes() {
                let read = store.fetch((l, k)).unwrap();
                assert_eq!(read.bytes(), lvl.plane_payload(k));
            }
        }
    }

    #[test]
    fn mem_store_missing_segment_is_permanent() {
        let c = artifact();
        let store = MemStore::from_compressed(&c).without(&[(0, 0)]);
        let err = store.fetch((0, 0)).unwrap_err();
        assert!(err.is_permanent());
        assert_eq!(err.key(), (0, 0));
        assert!(!store.contains((0, 0)));
        assert!(store.contains((0, 1)));
    }

    #[test]
    fn mem_store_put_delete_roundtrip() {
        let store = MemStore::new();
        assert!(store.keys().is_empty());
        store.put((1, 2), b"abc").unwrap();
        store.put((0, 0), b"xyz").unwrap();
        assert_eq!(store.keys(), vec![(0, 0), (1, 2)]);
        assert_eq!(store.fetch((1, 2)).unwrap().bytes(), b"abc");
        store.put((1, 2), b"replaced").unwrap();
        assert_eq!(store.fetch((1, 2)).unwrap().bytes(), b"replaced");
        store.delete((1, 2)).unwrap();
        store.delete((1, 2)).unwrap(); // idempotent
        assert!(!store.contains((1, 2)));
    }

    #[test]
    fn file_store_roundtrips_and_reopens() {
        let c = artifact();
        let dir = std::env::temp_dir().join("pmr_segstore_test");
        fs::remove_dir_all(&dir).ok();
        let store = FileStore::write_from(&c, &dir).unwrap();
        let reopened = FileStore::open(&dir).unwrap();
        assert_eq!(store.keys(), reopened.keys());
        for key in store.keys() {
            let a = store.fetch(key).unwrap();
            let b = reopened.fetch(key).unwrap();
            assert_eq!(a.bytes(), b.bytes());
            assert_eq!(a.bytes(), c.levels()[key.0].plane_payload(key.1));
        }
        assert!(FileStore::open(&dir.join("missing")).is_err(), "a store directory must exist");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_segment_is_hashed_once_on_its_way_to_the_reader() {
        let c = artifact();
        let dir = std::env::temp_dir().join("pmr_segstore_hash_once_test");
        fs::remove_dir_all(&dir).ok();
        // Hot tier, ring replicas and the executor each used to hash the
        // same bytes; the file's own check is now the only pass.
        let cfg = ShardConfig::try_new(3, 2).unwrap().with_hot_planes(1);
        for store in [
            ShardedStore::write_files(&c, &dir, cfg.clone()).unwrap(),
            ShardedStore::mem(&c, cfg).unwrap(),
        ] {
            let mut exec = FetchExecutor::new(&store, RetryPolicy::default());
            for key in store.keys() {
                let expect = ExpectedSegment::of_plane(&c.levels()[key.0], key.1);
                let (bytes, passes) = passes_during(|| exec.fetch_verified(key, expect));
                assert_eq!(bytes.unwrap(), c.levels()[key.0].plane_payload(key.1));
                assert_eq!(passes, 1, "segment {key:?} hashed {passes} times");
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn touching_the_bytes_forgets_the_digest() {
        let mut read = SegmentRead::proved(b"abc".to_vec(), fnv1a64(b"abc"));
        assert_eq!(passes_during(|| read.fnv()), (fnv1a64(b"abc"), 0), "carried, not hashed");
        read.bytes_mut()[0] ^= 1;
        assert_eq!(passes_during(|| read.fnv()), (fnv1a64(b"`bc"), 1), "hashed afresh");
        assert_eq!(passes_during(|| read.fnv()).1, 0, "and carried from then on");
        read.bytes_mut().truncate(1);
        assert_eq!(read.fnv(), fnv1a64(b"`"));
        assert_eq!(SegmentRead::clean(b"abc".to_vec()).fnv(), fnv1a64(b"abc"));
    }

    fn scratch(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pmr_segstore_{test}_{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    fn record(magic: &[u8; 6], key: SegmentKey, payload: &[u8]) -> Vec<u8> {
        [&record_header(magic, key, payload).unwrap()[..], payload].concat()
    }

    fn names_in(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn file_store_detects_on_disk_corruption() {
        let c = artifact();
        let dir = scratch("corrupt");
        let store = FileStore::write_from(&c, &dir).unwrap();
        let key = *store.keys().last().unwrap();
        let (at, len) = store.locate(key).unwrap();
        let log = dir.join(LOG_FILE);
        let mut bytes = fs::read(&log).unwrap();
        bytes[at as usize + SEG_HEADER + len - 1] ^= 0x40; // bit rot in the payload
        fs::write(&log, &bytes).unwrap();
        assert!(matches!(store.fetch(key), Err(FetchError::Corrupt { .. })));
        // A deleted segment is a permanent Missing, not Corrupt.
        store.delete(key).unwrap();
        assert!(store.fetch(key).unwrap_err().is_permanent());
        // The rotted record is not indexed on reopen, and the tombstone
        // after it still counts.
        let reopened = FileStore::open(&dir).unwrap();
        assert_eq!(reopened.keys(), store.keys());
        assert!(!reopened.contains(key));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn later_records_win_and_tombstones_survive_reopen() {
        let dir = scratch("put");
        let store = FileStore::create(&dir).unwrap();
        store.put((0, 0), b"old").unwrap();
        store.put((1, 2), b"kept").unwrap();
        store.put((0, 0), b"new").unwrap();
        store.delete((1, 2)).unwrap();
        store.delete((1, 2)).unwrap(); // idempotent
        store.delete((7, 7)).unwrap();
        for s in [&store, &FileStore::open(&dir).unwrap()] {
            assert_eq!(s.keys(), vec![(0, 0)]);
            assert_eq!(s.fetch((0, 0)).unwrap().bytes(), b"new");
            assert!(s.fetch((1, 2)).unwrap_err().is_permanent());
        }
        assert_eq!(names_in(&dir), [LOG_FILE]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_batch_that_fails_part_way_never_comes_back() {
        let dir = scratch("failed_batch");
        let store = FileStore::create(&dir).unwrap();
        store.put_batch(&[((0, 0), b"a1"), ((0, 1), b"b1")]).unwrap();
        // The last record's level does not fit its header, so the batch
        // fails after its first two records are written.
        let long = [7u8; 64];
        let batch: [(SegmentKey, &[u8]); 3] =
            [((0, 0), &long), ((0, 1), &long), ((1 << 32, 0), b"")];
        assert!(store.put_batch(&batch).is_err());
        // Acknowledged writes shorter than the failed records land where
        // the failed batch began.
        store.put((0, 0), b"a3").unwrap();
        store.put((0, 1), b"b3").unwrap();
        for s in [&store, &FileStore::open(&dir).unwrap()] {
            assert_eq!(s.fetch((0, 0)).unwrap().bytes(), b"a3");
            assert_eq!(s.fetch((0, 1)).unwrap().bytes(), b"b3");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn opening_a_clean_log_only_reads_it() {
        use std::os::unix::fs::PermissionsExt;
        let c = artifact();
        let dir = scratch("read_only");
        FileStore::write_from(&c, &dir).unwrap();
        let log = dir.join(LOG_FILE);
        let before = fs::read(&log).unwrap();
        // Files that are not the log are none of open's business.
        let strays = [".seg_000_000.pmrs.tmp", "seg_000_000.pmrs"];
        for name in strays {
            fs::write(dir.join(name), name).unwrap();
        }
        // Root ignores the modes below, so back-date both mtimes: a write
        // to the log, or an entry created, deleted or renamed in the
        // directory, would move one of them to now, whoever runs the test.
        let past = std::time::UNIX_EPOCH + std::time::Duration::from_secs(1 << 30);
        for path in [&log, &dir] {
            File::open(path).unwrap().set_modified(past).unwrap();
        }
        let modified = |path: &Path| fs::metadata(path).unwrap().modified().unwrap();
        let mode = |path: &Path, mode| fs::set_permissions(path, fs::Permissions::from_mode(mode));
        mode(&log, 0o444).unwrap();
        mode(&dir, 0o555).unwrap();
        let (store, syncs) = passes(&SYNCS, || FileStore::open(&dir));
        mode(&dir, 0o755).unwrap();
        mode(&log, 0o644).unwrap();
        let store = store.unwrap();
        assert_eq!(syncs, 0);
        assert_eq!((modified(&log), modified(&dir)), (past, past), "open modified the store");
        let has_writer = || store.appender.lock().file.is_some();
        assert!(!has_writer(), "a clean open holds no write handle");
        for key in store.keys() {
            assert_eq!(store.fetch(key).unwrap().bytes(), c.levels()[key.0].plane_payload(key.1));
        }
        assert_eq!(fs::read(&log).unwrap(), before);
        assert_eq!(names_in(&dir), [strays[0], strays[1], LOG_FILE]);
        for name in strays {
            assert_eq!(fs::read(dir.join(name)).unwrap(), name.as_bytes());
        }
        store.put((0, 0), b"x").unwrap();
        assert!(has_writer(), "the first append opens it");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_batch_syncs_once_per_log() {
        let fine = Field::from_fn("seg", 0, Shape::cube(17), |x, y, z| {
            ((x as f64) * 0.3).sin() + (y * z) as f64 * 0.01
        });
        let bigger = Compressed::compress(
            &fine,
            &CompressConfig { levels: 4, num_planes: 48, ..Default::default() },
        );
        let cfg = ShardConfig::try_new(4, 2).unwrap().with_hot_planes(1);
        let bound = 2 * (cfg.shards as u32 + 1) + 1;
        for c in [artifact(), bigger] {
            let dir = scratch("syncs");
            let (store, syncs) =
                passes(&SYNCS, || ShardedStore::write_files(&c, &dir, cfg.clone()).unwrap());
            let planes = store.keys().len();
            assert!(syncs <= bound, "{planes} planes took {syncs} syncs");
            assert!(2 * planes as u32 > bound, "one sync per replica write would exceed the bound");
            drop(store);
            let shard = FileStore::open(&dir.join("shard_000")).unwrap();
            assert_eq!(
                passes(&SYNCS, || shard.put((0, 0), b"one")).1,
                1,
                "a put is a batch of one"
            );
            assert_eq!(passes(&SYNCS, || shard.delete((0, 0))).1, 1);
            let (_, syncs) = passes(&SYNCS, || FileStore::write_from(&c, &dir.join("flat")));
            assert_eq!(syncs, 2, "the new log's directory entry and the batch");
            fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn the_scan_skips_garbage_across_chunks_to_the_next_record() {
        let dir = scratch("resync");
        let big = |salt: u32| -> Vec<u8> {
            (0..SCAN_AHEAD as u32 + 100).map(|i| (i * salt % 251) as u8).collect()
        };
        FileStore::create(&dir).unwrap().put((0, 0), &big(7)).unwrap();
        // Garbage spanning chunk boundaries, with a magic straddling one,
        // then a record appended behind it.
        let mut tail: Vec<u8> =
            (0..2 * SCAN_AHEAD as u32 + 3).map(|i| (i * 131 % 253) as u8).collect();
        tail[SCAN_AHEAD - 3..SCAN_AHEAD + 3].copy_from_slice(SEG_MAGIC);
        tail.extend(record(SEG_MAGIC, (0, 1), &big(11)));
        let log = dir.join(LOG_FILE);
        OpenOptions::new().append(true).open(&log).unwrap().write_all(&tail).unwrap();
        let len = fs::metadata(&log).unwrap().len();
        let store = FileStore::open(&dir).unwrap();
        assert_eq!(store.keys(), vec![(0, 0), (0, 1)]);
        assert_eq!(store.fetch((0, 0)).unwrap().bytes(), big(7));
        assert_eq!(store.fetch((0, 1)).unwrap().bytes(), big(11));
        assert_eq!(fs::metadata(&log).unwrap().len(), len, "mid-log garbage stays in place");
        assert_eq!(names_in(&dir), [LOG_FILE]);
        fs::remove_dir_all(&dir).ok();
    }
}
