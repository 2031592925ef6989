//! Segment-granular storage: the fetchable unit of progressive retrieval.
//!
//! A *segment* is one encoded bit-plane of one coefficient level, keyed by
//! `(level, plane)`. The paper's tiered store serves exactly these units —
//! a retrieval plan is a per-level plane-prefix, so the reader issues one
//! fetch per `(l, k)` with `k < planes[l]` and decodes whatever prefixes it
//! obtains. [`SegmentStore`] abstracts the backend ([`MemStore`] for tests
//! and simulation, [`FileStore`] for a directory of per-segment files);
//! fault injection and retry wrap this trait without the backends knowing.
//!
//! Writable backends additionally implement [`MutableSegmentStore`], the
//! surface the sharded store's replication and `repair()` pass build on.
//! [`FileStore`] writes are crash-safe: every segment lands via temp file +
//! fsync + atomic rename, and `open()` verifies each file's header and
//! checksum, quarantining torn or rotted files instead of serving them.

use pmr_error::{len_u32, PmrError};
use pmr_mgard::checksum::fnv1a64;
use pmr_mgard::Compressed;
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{PoisonError, RwLock};

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
    /// The attempt exceeded its deadline; retryable.
    Timeout { level: usize, plane: u32, elapsed_s: f64, deadline_s: f64 },
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
            | FetchError::Timeout { level, plane, .. }
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
            FetchError::Timeout { level, plane, elapsed_s, deadline_s } => {
                write!(
                    f,
                    "fetch of ({level},{plane}) timed out: {elapsed_s:.4}s > {deadline_s:.4}s"
                )
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

/// The result of one successful low-level read: the raw payload plus any
/// extra latency the backend (or an injected fault) charged beyond the
/// tier's nominal cost. Virtual-clock accounting in the fetch executor adds
/// this on top of `latency + bytes/bandwidth`.
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
    pub extra_latency_s: f64,
}

impl SegmentRead {
    /// A read at nominal cost whose payload nobody has hashed yet.
    pub fn clean(bytes: Vec<u8>) -> Self {
        SegmentRead { bytes, fnv: None, extra_latency_s: 0.0 }
    }

    /// A read whose backend has just shown `fnv1a64(bytes) == fnv`.
    pub(crate) fn proved(bytes: Vec<u8>, fnv: u64) -> Self {
        SegmentRead { bytes, fnv: Some(fnv), extra_latency_s: 0.0 }
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

    /// Remove the segment if present. Removing an absent key is not an
    /// error (deletes are idempotent).
    fn delete(&self, key: SegmentKey) -> Result<(), PmrError>;
}

/// In-memory segment store: payload clones of an artifact's planes.
///
/// The zero-I/O backend for simulation and tests; wrap it in a
/// [`crate::FaultInjector`] to model flaky tiers deterministically.
#[derive(Debug, Default)]
pub struct MemStore {
    segments: RwLock<BTreeMap<SegmentKey, Vec<u8>>>,
}

impl Clone for MemStore {
    fn clone(&self) -> Self {
        let map = self.segments.read().unwrap_or_else(PoisonError::into_inner).clone();
        MemStore { segments: RwLock::new(map) }
    }
}

impl MemStore {
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
        MemStore { segments: RwLock::new(segments) }
    }

    /// Remove segments, modelling permanent loss (e.g. a dead tier).
    pub fn without(self, lost: &[SegmentKey]) -> Self {
        {
            let mut map = self.segments.write().unwrap_or_else(PoisonError::into_inner);
            for key in lost {
                map.remove(key);
            }
        }
        self
    }
}

impl SegmentStore for MemStore {
    fn fetch(&self, key: SegmentKey) -> Result<SegmentRead, FetchError> {
        let map = self.segments.read().unwrap_or_else(PoisonError::into_inner);
        match map.get(&key) {
            Some(bytes) => Ok(SegmentRead::clean(bytes.clone())),
            None => Err(FetchError::Missing { level: key.0, plane: key.1 }),
        }
    }

    fn contains(&self, key: SegmentKey) -> bool {
        self.segments.read().unwrap_or_else(PoisonError::into_inner).contains_key(&key)
    }

    fn keys(&self) -> Vec<SegmentKey> {
        self.segments.read().unwrap_or_else(PoisonError::into_inner).keys().copied().collect()
    }
}

impl MutableSegmentStore for MemStore {
    fn put(&self, key: SegmentKey, payload: &[u8]) -> Result<(), PmrError> {
        self.segments.write().unwrap_or_else(PoisonError::into_inner).insert(key, payload.to_vec());
        Ok(())
    }

    fn delete(&self, key: SegmentKey) -> Result<(), PmrError> {
        self.segments.write().unwrap_or_else(PoisonError::into_inner).remove(&key);
        Ok(())
    }
}

/// Per-segment file header magic for [`FileStore`].
const SEG_MAGIC: &[u8; 6] = b"PMRS1\0";

/// Suffix appended to files that fail verification when a store is opened.
pub const QUARANTINE_SUFFIX: &str = ".quarantine";

/// Encode one segment file: header (`"PMRS1\0"`, level, plane, length,
/// FNV-1a checksum) followed by the payload.
fn encode_segment(key: SegmentKey, payload: &[u8]) -> Result<Vec<u8>, PmrError> {
    let mut buf = Vec::with_capacity(payload.len() + 32);
    buf.extend_from_slice(SEG_MAGIC);
    buf.extend_from_slice(&len_u32(key.0, "segment level index")?.to_le_bytes());
    buf.extend_from_slice(&key.1.to_le_bytes());
    buf.extend_from_slice(&len_u32(payload.len(), "segment payload length")?.to_le_bytes());
    buf.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    Ok(buf)
}

/// Bytes of a segment file before its payload.
const SEG_HEADER: usize = 26;

/// Validate a raw segment file against the key it is expected to hold and
/// return the FNV-1a of its payload (`buf[SEG_HEADER..]`), now proved.
/// `Err` carries a human-readable description of what is wrong (torn
/// write, bit rot, wrong segment, ...).
fn verify_segment(buf: &[u8], key: SegmentKey) -> Result<u64, String> {
    if buf.len() < SEG_HEADER || &buf[..6] != SEG_MAGIC {
        return Err("bad segment header".to_string());
    }
    let word4 = |at: usize| -> Result<u32, String> {
        let bytes: [u8; 4] = buf
            .get(at..at + 4)
            .and_then(|s| s.try_into().ok())
            .ok_or_else(|| "bad segment header".to_string())?;
        Ok(u32::from_le_bytes(bytes))
    };
    let hdr_level = word4(6)?;
    let hdr_plane = word4(10)?;
    if hdr_level as usize != key.0 || hdr_plane != key.1 {
        return Err("segment header names a different (level, plane)".to_string());
    }
    let len = word4(14)? as usize;
    let sum_bytes: [u8; 8] = buf
        .get(18..26)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| "bad segment header".to_string())?;
    let sum = u64::from_le_bytes(sum_bytes);
    let payload = buf.get(SEG_HEADER..).unwrap_or(&[]);
    if payload.len() != len {
        return Err(format!("payload is {} bytes but the header claims {len}", payload.len()));
    }
    if hash(payload) != sum {
        return Err("payload checksum mismatch".to_string());
    }
    Ok(sum)
}

/// Best-effort-free durability: fsync the directory so the rename that just
/// landed in it survives a crash. No-op off unix (the rename is still
/// atomic; only the metadata flush is platform-dependent).
fn sync_dir(dir: &Path) -> Result<(), PmrError> {
    #[cfg(unix)]
    {
        let d = fs::File::open(dir).map_err(|e| PmrError::io_at(dir, e))?;
        d.sync_all().map_err(|e| PmrError::io_at(dir, e))?;
    }
    #[cfg(not(unix))]
    {
        let _unused = dir;
    }
    Ok(())
}

/// Crash-safe single-segment write: encode into a hidden temp file in the
/// same directory, fsync the file, atomically rename it over the final
/// name, then fsync the directory. A crash at any point leaves either the
/// old segment or the new one — never a torn file under the final name.
fn write_segment_atomic(dir: &Path, key: SegmentKey, payload: &[u8]) -> Result<(), PmrError> {
    let path = FileStore::seg_path(dir, key);
    let tmp = dir.join(format!(".seg_{:03}_{:03}.pmrs.tmp", key.0, key.1));
    let buf = encode_segment(key, payload)?;
    let mut f = fs::File::create(&tmp).map_err(|e| PmrError::io_at(&tmp, e))?;
    f.write_all(&buf).map_err(|e| PmrError::io_at(&tmp, e))?;
    f.sync_all().map_err(|e| PmrError::io_at(&tmp, e))?;
    drop(f);
    fs::rename(&tmp, &path).map_err(|e| PmrError::io_at(&path, e))?;
    sync_dir(dir)
}

/// File-backed segment store: one file per segment in a directory, each
/// carrying its own header (`"PMRS1\0"`, level, plane, length, FNV-1a
/// checksum) so corruption of a file is detected at fetch time.
///
/// Writes are crash-safe (temp file + fsync + atomic rename); `open()`
/// verifies every file and quarantines any that fail (renamed with a
/// [`QUARANTINE_SUFFIX`]) instead of indexing them, and deletes stale
/// `.tmp` files left by a crash mid-write.
#[derive(Debug)]
pub struct FileStore {
    dir: PathBuf,
    keys: RwLock<Vec<SegmentKey>>,
}

impl Clone for FileStore {
    fn clone(&self) -> Self {
        let keys = self.keys.read().unwrap_or_else(PoisonError::into_inner).clone();
        FileStore { dir: self.dir.clone(), keys: RwLock::new(keys) }
    }
}

impl FileStore {
    fn seg_path(dir: &Path, key: SegmentKey) -> PathBuf {
        dir.join(format!("seg_{:03}_{:03}.pmrs", key.0, key.1))
    }

    /// Create `dir` (if absent) and open it as an empty-or-existing store.
    pub fn create(dir: &Path) -> Result<Self, PmrError> {
        fs::create_dir_all(dir).map_err(|e| PmrError::io_at(dir, e))?;
        Self::open(dir)
    }

    /// Write every plane of `c` as segment files under `dir` (created if
    /// absent) and open the resulting store. Each file is written
    /// crash-safely (temp + fsync + rename).
    pub fn write_from(c: &Compressed, dir: &Path) -> Result<Self, PmrError> {
        fs::create_dir_all(dir).map_err(|e| PmrError::io_at(dir, e))?;
        let mut keys = Vec::new();
        for (l, lvl) in c.levels().iter().enumerate() {
            for k in 0..lvl.num_planes() {
                write_segment_atomic(dir, (l, k), lvl.plane_payload(k))?;
                keys.push((l, k));
            }
        }
        Ok(FileStore { dir: dir.to_path_buf(), keys: RwLock::new(keys) })
    }

    /// Open an existing segment directory, verifying every file present.
    ///
    /// Files that fail header or checksum verification (torn writes, bit
    /// rot) are renamed aside with [`QUARANTINE_SUFFIX`] rather than
    /// indexed; stale `.tmp` files from a crashed write are removed. The
    /// surviving index therefore only names segments that verified clean
    /// at open time.
    pub fn open(dir: &Path) -> Result<Self, PmrError> {
        let mut keys = Vec::new();
        for entry in fs::read_dir(dir).map_err(|e| PmrError::io_at(dir, e))? {
            let entry = entry.map_err(|e| PmrError::io_at(dir, e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy().into_owned();
            let path = entry.path();
            if name.starts_with(".seg_") && name.ends_with(".tmp") {
                // A crash mid-write left the temp file; the rename never
                // happened, so the old segment (if any) is still intact.
                fs::remove_file(&path).map_err(|e| PmrError::io_at(&path, e))?;
                continue;
            }
            let Some(stem) = name.strip_prefix("seg_").and_then(|s| s.strip_suffix(".pmrs")) else {
                continue;
            };
            let Some((l, k)) = stem.split_once('_') else { continue };
            let (Ok(l), Ok(k)) = (l.parse::<usize>(), k.parse::<u32>()) else { continue };
            let bytes = fs::read(&path).map_err(|e| PmrError::io_at(&path, e))?;
            if verify_segment(&bytes, (l, k)).is_ok() {
                keys.push((l, k));
            } else {
                let mut quarantined = path.clone().into_os_string();
                quarantined.push(QUARANTINE_SUFFIX);
                fs::rename(&path, &quarantined).map_err(|e| PmrError::io_at(&path, e))?;
            }
        }
        keys.sort_unstable();
        Ok(FileStore { dir: dir.to_path_buf(), keys: RwLock::new(keys) })
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl SegmentStore for FileStore {
    fn fetch(&self, key: SegmentKey) -> Result<SegmentRead, FetchError> {
        let (level, plane) = key;
        // `fs::read` sizes the buffer from the file's length, so the file
        // is read once into an allocation that never grows.
        let mut buf = match fs::read(Self::seg_path(&self.dir, key)) {
            Ok(buf) => buf,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(FetchError::Missing { level, plane });
            }
            Err(e) => return Err(FetchError::Io { level, plane, detail: e.to_string() }),
        };
        match verify_segment(&buf, key) {
            Ok(fnv) => {
                // The payload stays where it was read: drop the header in
                // place rather than copying the rest out.
                buf.drain(..SEG_HEADER);
                Ok(SegmentRead::proved(buf, fnv))
            }
            Err(detail) => Err(FetchError::Corrupt { level, plane, detail }),
        }
    }

    fn contains(&self, key: SegmentKey) -> bool {
        self.keys.read().unwrap_or_else(PoisonError::into_inner).binary_search(&key).is_ok()
    }

    fn keys(&self) -> Vec<SegmentKey> {
        self.keys.read().unwrap_or_else(PoisonError::into_inner).clone()
    }
}

impl MutableSegmentStore for FileStore {
    fn put(&self, key: SegmentKey, payload: &[u8]) -> Result<(), PmrError> {
        write_segment_atomic(&self.dir, key, payload)?;
        let mut keys = self.keys.write().unwrap_or_else(PoisonError::into_inner);
        if let Err(at) = keys.binary_search(&key) {
            keys.insert(at, key);
        }
        Ok(())
    }

    fn delete(&self, key: SegmentKey) -> Result<(), PmrError> {
        let path = Self::seg_path(&self.dir, key);
        match fs::remove_file(&path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(PmrError::io_at(&path, e)),
        }
        let mut keys = self.keys.write().unwrap_or_else(PoisonError::into_inner);
        if let Ok(at) = keys.binary_search(&key) {
            keys.remove(at);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExpectedSegment, FetchExecutor, RetryPolicy, ShardConfig, ShardedStore};
    use pmr_field::{Field, Shape};
    use pmr_mgard::CompressConfig;
    use std::cell::Cell;

    thread_local! {
        /// FNV-1a passes [`hash`] has run on this thread.
        pub(super) static HASH_PASSES: Cell<u32> = const { Cell::new(0) };
    }

    fn passes_during<T>(f: impl FnOnce() -> T) -> (T, u32) {
        let before = HASH_PASSES.with(Cell::get);
        let out = f();
        (out, HASH_PASSES.with(Cell::get) - before)
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
                assert_eq!(read.extra_latency_s, 0.0);
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

    #[test]
    fn file_store_detects_on_disk_corruption() {
        let c = artifact();
        let dir = std::env::temp_dir().join("pmr_segstore_corrupt_test");
        fs::remove_dir_all(&dir).ok();
        let store = FileStore::write_from(&c, &dir).unwrap();
        let key = *store.keys().last().unwrap();
        let path = FileStore::seg_path(&dir, key);
        let mut bytes = fs::read(&path).unwrap();
        let at = bytes.len() - 1;
        bytes[at] ^= 0x40; // bit rot in the payload
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(store.fetch(key), Err(FetchError::Corrupt { .. })));
        // Deleting the file is a permanent Missing, not Corrupt.
        fs::remove_file(&path).unwrap();
        assert!(store.fetch(key).unwrap_err().is_permanent());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_store_put_is_atomic_and_delete_idempotent() {
        let c = artifact();
        let dir = std::env::temp_dir().join("pmr_segstore_put_test");
        fs::remove_dir_all(&dir).ok();
        let store = FileStore::create(&dir).unwrap();
        let payload = c.levels()[0].plane_payload(0);
        store.put((0, 0), payload).unwrap();
        assert!(store.contains((0, 0)));
        assert_eq!(store.fetch((0, 0)).unwrap().bytes(), payload);
        // No temp files are left behind after a successful put.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty());
        store.delete((0, 0)).unwrap();
        store.delete((0, 0)).unwrap();
        assert!(!store.contains((0, 0)));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_quarantines_torn_files_and_removes_stale_tmp() {
        let c = artifact();
        let dir = std::env::temp_dir().join("pmr_segstore_quarantine_test");
        fs::remove_dir_all(&dir).ok();
        let store = FileStore::write_from(&c, &dir).unwrap();
        let n_keys = store.keys().len();
        let key = store.keys()[0];
        let path = FileStore::seg_path(&dir, key);
        // Torn write: truncate the file mid-payload.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
        // Crash leftover: a stale temp file.
        let stale = dir.join(".seg_099_099.pmrs.tmp");
        fs::write(&stale, b"partial").unwrap();
        let reopened = FileStore::open(&dir).unwrap();
        assert_eq!(reopened.keys().len(), n_keys - 1);
        assert!(!reopened.contains(key));
        assert!(!stale.exists());
        // The torn file was moved aside, not deleted.
        let mut q = path.into_os_string();
        q.push(QUARANTINE_SUFFIX);
        assert!(PathBuf::from(q).exists());
        fs::remove_dir_all(&dir).ok();
    }
}
