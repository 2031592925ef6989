//! Sharded, replicated, tiered segment storage.
//!
//! [`ShardedStore`] spreads `(level, plane)` segments across N child stores
//! by consistent hashing (a vnode ring, so adding a shard moves ~1/N of the
//! keys) with replication factor R. Reads are *read-one with fallback*: the
//! first replica in placement order serves the request; if it is dead,
//! corrupt (manifest-checksum mismatch), or erroring, the next replica is
//! tried. With R ≥ 2 a whole lost shard is therefore invisible to the
//! retrieval path; with R = 1 the lost shard's segments report `Missing`
//! and the tolerant fetch path degrades honestly (see `fetch_plan_tolerant`).
//!
//! Hot/cold tiering pins each level's low-plane prefix (`plane <
//! hot_planes`) on a dedicated fast-tier store: the MGARD framework paper
//! (arXiv 2401.05994) observes that the first bit-planes are touched by
//! *every* progressive request, so they deserve the fast tier regardless of
//! hash placement. The hot tier is an extra copy — replicas on the cold
//! ring are still written, so losing the hot tier costs latency, not data.
//!
//! Persistence: `write_files` lays a corpus out as `dir/shard_NNN/`
//! directories of crash-safe [`FileStore`]s, each written as one synced
//! batch, plus a `shard.meta` text file describing the topology, written
//! atomically (temp + rename).

use crate::fetch::ExpectedSegment;
use crate::segment::{
    planes, FetchError, FileStore, MemStore, MutableSegmentStore, SegmentKey, SegmentRead,
    SegmentStore,
};
use pmr_error::PmrError;
use pmr_mgard::Compressed;
use pmr_rng::mix;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Consecutive fetch failures after which a shard is reported `Dead` in
/// [`ShardStatus`] even without an explicit kill switch.
pub const SHARD_DEAD_AFTER: u64 = 8;

/// Topology of a [`ShardedStore`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardConfig {
    /// Number of child shards (N ≥ 1).
    pub shards: usize,
    /// Replicas per segment (1 ≤ R ≤ N).
    pub replication: usize,
    /// Planes `k < hot_planes` of every level are pinned on the hot tier
    /// in addition to their ring replicas. 0 disables the hot tier.
    pub hot_planes: u32,
    /// Virtual nodes per shard on the hash ring; more vnodes → smoother
    /// balance.
    pub vnodes: usize,
    /// Seed of the placement hash. Must stay fixed for the lifetime of an
    /// on-disk layout (it is recorded in `shard.meta`).
    pub seed: u64,
}

impl ShardConfig {
    /// A validated topology with default tiering (no hot tier, 16 vnodes).
    pub fn try_new(shards: usize, replication: usize) -> Result<Self, PmrError> {
        let cfg = ShardConfig { shards, replication, hot_planes: 0, vnodes: 16, seed: 0 };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Pin planes `k < hot_planes` of every level on the hot tier.
    pub fn with_hot_planes(mut self, hot_planes: u32) -> Self {
        self.hot_planes = hot_planes;
        self
    }

    pub fn validate(&self) -> Result<(), PmrError> {
        if self.shards == 0 || self.shards > MAX_SHARDS {
            return Err(PmrError::invalid_config(format!(
                "shard count must be in [1, {MAX_SHARDS}], got {}",
                self.shards
            )));
        }
        if self.replication == 0 || self.replication > self.shards {
            return Err(PmrError::invalid_config(format!(
                "replication factor must be in [1, {}], got {}",
                self.shards, self.replication
            )));
        }
        let ring = self.shards.checked_mul(self.vnodes).filter(|&n| n <= MAX_RING_POINTS);
        if self.vnodes == 0 || ring.is_none() {
            return Err(PmrError::invalid_config(format!(
                "vnodes per shard must be >= 1 with shards x vnodes <= {MAX_RING_POINTS}, \
                 got {} x {}",
                self.shards, self.vnodes
            )));
        }
        Ok(())
    }
}

/// Most child stores a topology may name. `shard.meta` comes from disk, and
/// a store allocates per shard.
const MAX_SHARDS: usize = 1 << 10;
/// Most `(point, shard)` pairs the placement ring may hold: `shards ×
/// vnodes`, allocated in one piece.
const MAX_RING_POINTS: usize = 1 << 20;

/// Observed health of one shard, for the `pmrd` Health op and `scrub`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    Healthy,
    /// Some fetches failed, but the shard still serves.
    Degraded,
    /// Killed, or failing every recent fetch.
    Dead,
}

/// Per-shard counters snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStatus {
    pub shard: usize,
    pub state: ShardState,
    pub fetches: u64,
    pub failures: u64,
    pub corrupt: u64,
    pub missing: u64,
}

#[derive(Default)]
struct Counters {
    fetches: AtomicU64,
    failures: AtomicU64,
    corrupt: AtomicU64,
    missing: AtomicU64,
    consecutive: AtomicU64,
}

/// N replicated child stores behind one [`SegmentStore`] face.
pub struct ShardedStore {
    cfg: ShardConfig,
    /// Sorted `(point, shard)` vnode ring.
    ring: Vec<(u64, usize)>,
    children: Vec<Box<dyn MutableSegmentStore>>,
    hot: Option<Box<dyn MutableSegmentStore>>,
    /// Per-segment manifest checksums; when present, every replica read is
    /// verified before being served so a rotted replica falls through to
    /// the next one instead of poisoning the response.
    expected: BTreeMap<SegmentKey, ExpectedSegment>,
    counters: Vec<Counters>,
    killed: Vec<AtomicBool>,
}

fn ring_of(cfg: &ShardConfig) -> Vec<(u64, usize)> {
    let mut ring = Vec::with_capacity(cfg.shards * cfg.vnodes);
    for s in 0..cfg.shards {
        for v in 0..cfg.vnodes {
            let point = mix(cfg
                .seed
                .wrapping_mul(0x100_0000_01b3)
                .wrapping_add((s as u64) << 32)
                .wrapping_add(v as u64));
            ring.push((point, s));
        }
    }
    ring.sort_unstable();
    ring
}

fn expected_of(c: &Compressed) -> BTreeMap<SegmentKey, ExpectedSegment> {
    let mut expected = BTreeMap::new();
    for (l, lvl) in c.levels().iter().enumerate() {
        for k in 0..lvl.num_planes() {
            expected.insert((l, k), ExpectedSegment::of_plane(lvl, k));
        }
    }
    expected
}

impl ShardedStore {
    /// Assemble a store from externally built children (e.g. fault-wrapped
    /// shards in the chaos grid). `children.len()` must equal
    /// `cfg.shards`. The store starts without manifest checksums; attach
    /// them with [`ShardedStore::attach_manifest`].
    pub fn try_new(
        children: Vec<Box<dyn MutableSegmentStore>>,
        hot: Option<Box<dyn MutableSegmentStore>>,
        cfg: ShardConfig,
    ) -> Result<Self, PmrError> {
        cfg.validate()?;
        if children.len() != cfg.shards {
            return Err(PmrError::invalid_config(format!(
                "topology names {} shards but {} child stores were supplied",
                cfg.shards,
                children.len()
            )));
        }
        if cfg.hot_planes > 0 && hot.is_none() {
            return Err(PmrError::invalid_config(
                "hot_planes > 0 requires a hot-tier store".to_string(),
            ));
        }
        let counters = (0..cfg.shards).map(|_| Counters::default()).collect();
        let killed = (0..cfg.shards).map(|_| AtomicBool::new(false)).collect();
        Ok(ShardedStore {
            ring: ring_of(&cfg),
            cfg,
            children,
            hot,
            expected: BTreeMap::new(),
            counters,
            killed,
        })
    }

    /// An in-memory sharded copy of every plane of `c`, with manifest
    /// checksums attached.
    pub fn mem(c: &Compressed, cfg: ShardConfig) -> Result<Self, PmrError> {
        let children: Vec<Box<dyn MutableSegmentStore>> = (0..cfg.shards)
            .map(|_| Box::new(MemStore::new()) as Box<dyn MutableSegmentStore>)
            .collect();
        let hot: Option<Box<dyn MutableSegmentStore>> =
            (cfg.hot_planes > 0).then(|| Box::new(MemStore::new()) as Box<dyn MutableSegmentStore>);
        let mut store = Self::try_new(children, hot, cfg)?;
        store.expected = expected_of(c);
        store.populate(c)?;
        Ok(store)
    }

    /// Lay `c` out under `dir` as `shard_NNN/` file stores (plus `hot/` if
    /// tiering is on) and a `shard.meta` topology record: two syncs per
    /// store (its new log's directory entry, its one batch) and one for the
    /// record, however many planes `c` has.
    pub fn write_files(c: &Compressed, dir: &Path, cfg: ShardConfig) -> Result<Self, PmrError> {
        cfg.validate()?;
        fs::create_dir_all(dir).map_err(|e| PmrError::io_at(dir, e))?;
        let mut children: Vec<Box<dyn MutableSegmentStore>> = Vec::with_capacity(cfg.shards);
        for s in 0..cfg.shards {
            let shard_dir = dir.join(format!("shard_{s:03}"));
            children.push(Box::new(FileStore::create(&shard_dir)?));
        }
        let hot: Option<Box<dyn MutableSegmentStore>> = if cfg.hot_planes > 0 {
            Some(Box::new(FileStore::create(&dir.join("hot"))?))
        } else {
            None
        };
        write_meta(dir, &cfg)?;
        let mut store = Self::try_new(children, hot, cfg)?;
        store.expected = expected_of(c);
        store.populate(c)?;
        Ok(store)
    }

    /// Open a directory written by [`ShardedStore::write_files`]. Each
    /// shard directory is verified on open ([`FileStore::open`]). Attach the
    /// manifest afterwards to enable read-time checksum fallback and `scrub`.
    pub fn open_dir(dir: &Path) -> Result<Self, PmrError> {
        let cfg = read_meta(dir)?;
        let mut children: Vec<Box<dyn MutableSegmentStore>> = Vec::with_capacity(cfg.shards);
        for s in 0..cfg.shards {
            let shard_dir = dir.join(format!("shard_{s:03}"));
            children.push(Box::new(FileStore::open(&shard_dir)?));
        }
        let hot: Option<Box<dyn MutableSegmentStore>> = if cfg.hot_planes > 0 {
            Some(Box::new(FileStore::open(&dir.join("hot"))?))
        } else {
            None
        };
        Self::try_new(children, hot, cfg)
    }

    /// Record per-segment manifest checksums so replica reads are verified
    /// and a corrupt copy falls through to the next replica.
    pub fn attach_manifest(&mut self, c: &Compressed) {
        self.expected = expected_of(c);
    }

    /// Write every plane of `c` to its replicas (and the hot tier) as one
    /// batch: a file-backed child syncs once for all of its share.
    pub fn populate(&self, c: &Compressed) -> Result<(), PmrError> {
        self.put_batch(&planes(c))
    }

    pub fn config(&self) -> &ShardConfig {
        &self.cfg
    }

    pub fn num_shards(&self) -> usize {
        self.cfg.shards
    }

    /// The R shards holding `key`, in read-preference order.
    pub fn replicas(&self, key: SegmentKey) -> Vec<usize> {
        let h = mix(self
            .cfg
            .seed
            .wrapping_mul(0x517c_c1b7_2722_0a95)
            .wrapping_add((key.0 as u64) << 40)
            .wrapping_add(u64::from(key.1)));
        let n = self.ring.len();
        let mut out = Vec::with_capacity(self.cfg.replication);
        if n == 0 {
            return out;
        }
        let start = self.ring.partition_point(|&(p, _)| p < h);
        for i in 0..n {
            let Some(&(_, s)) = self.ring.get((start + i) % n) else { continue };
            if !out.contains(&s) {
                out.push(s);
            }
            if out.len() == self.cfg.replication {
                break;
            }
        }
        out
    }

    /// Direct access to one child shard (for scrub/repair and tests).
    pub fn child(&self, shard: usize) -> Option<&dyn MutableSegmentStore> {
        self.children.get(shard).map(|b| b.as_ref())
    }

    /// The hot-tier store, if tiering is enabled.
    pub fn hot_store(&self) -> Option<&dyn MutableSegmentStore> {
        self.hot.as_deref()
    }

    /// Manifest checksums attached to this store (empty until
    /// [`ShardedStore::attach_manifest`] or a manifest-carrying
    /// constructor runs).
    pub fn manifest_checksums(&self) -> &BTreeMap<SegmentKey, ExpectedSegment> {
        &self.expected
    }

    /// Mark a shard permanently lost: every read of it reports `Missing`.
    /// Out-of-range indices are ignored.
    pub fn kill_shard(&self, shard: usize) {
        if let Some(flag) = self.killed.get(shard) {
            flag.store(true, Ordering::Release);
        }
    }

    /// Bring a killed shard back (its data is whatever the child holds).
    /// Clears the dead-streak so health reflects the shard's new state.
    pub fn revive_shard(&self, shard: usize) {
        if let Some(flag) = self.killed.get(shard) {
            flag.store(false, Ordering::Release);
        }
        if let Some(ctr) = self.counters.get(shard) {
            ctr.consecutive.store(0, Ordering::Relaxed);
        }
    }

    pub fn is_killed(&self, shard: usize) -> bool {
        self.killed.get(shard).map(|f| f.load(Ordering::Acquire)).unwrap_or(false)
    }

    /// Health snapshot of every shard, in shard order.
    pub fn shard_status(&self) -> Vec<ShardStatus> {
        self.counters
            .iter()
            .enumerate()
            .map(|(s, ctr)| {
                let failures = ctr.failures.load(Ordering::Relaxed);
                let state = if self.is_killed(s)
                    || ctr.consecutive.load(Ordering::Relaxed) >= SHARD_DEAD_AFTER
                {
                    ShardState::Dead
                } else if failures > 0 {
                    ShardState::Degraded
                } else {
                    ShardState::Healthy
                };
                ShardStatus {
                    shard: s,
                    state,
                    fetches: ctr.fetches.load(Ordering::Relaxed),
                    failures,
                    corrupt: ctr.corrupt.load(Ordering::Relaxed),
                    missing: ctr.missing.load(Ordering::Relaxed),
                }
            })
            .collect()
    }

    /// Verify a replica read against the manifest checksum, if one is
    /// attached for this key. A read that carries its digest (a `FileStore`
    /// child has just checked it against the file's header) is compared,
    /// not hashed again.
    fn verified(
        &self,
        read: Result<SegmentRead, FetchError>,
        key: SegmentKey,
    ) -> Result<SegmentRead, FetchError> {
        let mut read = read?;
        if let Some(exp) = self.expected.get(&key) {
            if !exp.matches(&mut read) {
                return Err(FetchError::Corrupt {
                    level: key.0,
                    plane: key.1,
                    detail: "replica failed manifest checksum".to_string(),
                });
            }
        }
        Ok(read)
    }

    fn note_failure(&self, shard: usize, err: &FetchError) {
        let Some(ctr) = self.counters.get(shard) else { return };
        ctr.failures.fetch_add(1, Ordering::Relaxed);
        ctr.consecutive.fetch_add(1, Ordering::Relaxed);
        match err {
            FetchError::Missing { .. } => {
                ctr.missing.fetch_add(1, Ordering::Relaxed);
            }
            FetchError::Corrupt { .. } => {
                ctr.corrupt.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

impl SegmentStore for ShardedStore {
    fn fetch(&self, key: SegmentKey) -> Result<SegmentRead, FetchError> {
        let (level, plane) = key;
        // Hot tier first for pinned planes; any failure falls through to
        // the ring replicas (the hot copy is redundant by construction).
        if plane < self.cfg.hot_planes {
            if let Some(hot) = &self.hot {
                if let Ok(read) = self.verified(hot.fetch(key), key) {
                    return Ok(read);
                }
            }
        }
        let mut last_err: Option<FetchError> = None;
        let mut all_missing = true;
        for s in self.replicas(key) {
            let Some(ctr) = self.counters.get(s) else { continue };
            ctr.fetches.fetch_add(1, Ordering::Relaxed);
            if self.is_killed(s) {
                // Whole-shard permanent loss: the replica is gone.
                let err = FetchError::Missing { level, plane };
                self.note_failure(s, &err);
                last_err = Some(err);
                continue;
            }
            let Some(child) = self.children.get(s) else { continue };
            match self.verified(child.fetch(key), key) {
                Ok(read) => {
                    ctr.consecutive.store(0, Ordering::Relaxed);
                    return Ok(read);
                }
                Err(err) => {
                    self.note_failure(s, &err);
                    if !err.is_permanent() {
                        all_missing = false;
                    }
                    last_err = Some(err);
                }
            }
        }
        match last_err {
            // Every replica is permanently gone → the segment is Missing
            // (permanent). If any replica failed retryably, surface that
            // instead so the retry layer keeps trying.
            Some(err) if all_missing => {
                if err.is_permanent() {
                    Err(err)
                } else {
                    Err(FetchError::Missing { level, plane })
                }
            }
            Some(err) => Err(err),
            None => Err(FetchError::Missing { level, plane }),
        }
    }

    fn contains(&self, key: SegmentKey) -> bool {
        self.children.iter().any(|c| c.contains(key))
            || self.hot.as_ref().is_some_and(|h| h.contains(key))
    }

    fn keys(&self) -> Vec<SegmentKey> {
        let mut all = BTreeSet::new();
        for child in &self.children {
            all.extend(child.keys());
        }
        if let Some(hot) = &self.hot {
            all.extend(hot.keys());
        }
        all.into_iter().collect()
    }
}

impl MutableSegmentStore for ShardedStore {
    fn put(&self, key: SegmentKey, payload: &[u8]) -> Result<(), PmrError> {
        self.put_batch(&[(key, payload)])
    }

    /// Route each segment to its ring replicas, and to the hot tier if its
    /// plane is pinned there, then hand every child its share as one batch.
    fn put_batch(&self, batch: &[(SegmentKey, &[u8])]) -> Result<(), PmrError> {
        let mut shards: Vec<Vec<(SegmentKey, &[u8])>> = vec![Vec::new(); self.children.len()];
        let mut hot = Vec::new();
        for &seg in batch {
            if seg.0 .1 < self.cfg.hot_planes {
                hot.push(seg);
            }
            for s in self.replicas(seg.0) {
                if let Some(share) = shards.get_mut(s) {
                    share.push(seg);
                }
            }
        }
        if let Some(store) = &self.hot {
            store.put_batch(&hot)?;
        }
        for (child, share) in self.children.iter().zip(&shards) {
            child.put_batch(share)?;
        }
        Ok(())
    }

    fn delete(&self, key: SegmentKey) -> Result<(), PmrError> {
        if let Some(hot) = &self.hot {
            hot.delete(key)?;
        }
        for child in &self.children {
            child.delete(key)?;
        }
        Ok(())
    }
}

const META_MAGIC: &str = "PMRSHARD1";

/// Crash-safe `shard.meta` write: temp file + fsync + atomic rename.
fn write_meta(dir: &Path, cfg: &ShardConfig) -> Result<(), PmrError> {
    let body = format!(
        "{META_MAGIC}\nshards {}\nreplication {}\nhot_planes {}\nvnodes {}\nseed {}\n",
        cfg.shards, cfg.replication, cfg.hot_planes, cfg.vnodes, cfg.seed
    );
    let tmp = dir.join(".shard.meta.tmp");
    let path = dir.join("shard.meta");
    let mut f = fs::File::create(&tmp).map_err(|e| PmrError::io_at(&tmp, e))?;
    f.write_all(body.as_bytes()).map_err(|e| PmrError::io_at(&tmp, e))?;
    crate::segment::sync(&f, false).map_err(|e| PmrError::io_at(&tmp, e))?;
    drop(f);
    fs::rename(&tmp, &path).map_err(|e| PmrError::io_at(&path, e))?;
    Ok(())
}

fn read_meta(dir: &Path) -> Result<ShardConfig, PmrError> {
    let path = dir.join("shard.meta");
    let body = fs::read_to_string(&path).map_err(|e| PmrError::io_at(&path, e))?;
    // `write_meta` ends every line, the last included: a file without its
    // final newline was cut short.
    let body = body
        .strip_suffix('\n')
        .ok_or_else(|| PmrError::malformed("shard.meta", "cut short: no final newline"))?;
    let mut lines = body.lines();
    if lines.next() != Some(META_MAGIC) {
        return Err(PmrError::malformed("shard.meta", "bad magic"));
    }
    let mut fields: BTreeMap<&str, u64> = BTreeMap::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(' ') else {
            return Err(PmrError::malformed("shard.meta", format!("bad line: {line}")));
        };
        let value: u64 = value
            .parse()
            .map_err(|_| PmrError::malformed("shard.meta", format!("bad value: {line}")))?;
        fields.insert(name, value);
    }
    let get = |name: &str| -> Result<u64, PmrError> {
        fields
            .get(name)
            .copied()
            .ok_or_else(|| PmrError::malformed("shard.meta", format!("missing field {name}")))
    };
    let get_usize = |name: &str| -> Result<usize, PmrError> {
        usize::try_from(get(name)?)
            .map_err(|_| PmrError::malformed("shard.meta", format!("{name} out of range")))
    };
    let cfg = ShardConfig {
        shards: get_usize("shards")?,
        replication: get_usize("replication")?,
        hot_planes: u32::try_from(get("hot_planes")?)
            .map_err(|_| PmrError::malformed("shard.meta", "hot_planes out of range"))?,
        vnodes: get_usize("vnodes")?,
        seed: get("seed")?,
    };
    cfg.validate().map_err(|e| PmrError::malformed("shard.meta", e.to_string()))?;
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmr_field::{Field, Shape};
    use pmr_mgard::CompressConfig;

    fn artifact() -> Compressed {
        let field = Field::from_fn("shard", 0, Shape::cube(9), |x, y, _| {
            ((x as f64) * 0.4).cos() + (y as f64) * 0.02
        });
        Compressed::compress(&field, &CompressConfig::default())
    }

    fn all_keys(c: &Compressed) -> Vec<SegmentKey> {
        let mut keys = Vec::new();
        for (l, lvl) in c.levels().iter().enumerate() {
            for k in 0..lvl.num_planes() {
                keys.push((l, k));
            }
        }
        keys
    }

    #[test]
    fn config_validation() {
        assert!(ShardConfig::try_new(0, 1).is_err());
        assert!(ShardConfig::try_new(2, 0).is_err());
        assert!(ShardConfig::try_new(2, 3).is_err());
        assert!(ShardConfig::try_new(4, 2).is_ok());
        let cfg = ShardConfig { vnodes: 0, ..ShardConfig::try_new(2, 1).unwrap() };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn placement_is_deterministic_and_spread() {
        let cfg = ShardConfig::try_new(4, 2).unwrap();
        let c = artifact();
        let store = ShardedStore::mem(&c, cfg.clone()).unwrap();
        let again = ShardedStore::mem(&c, cfg).unwrap();
        let mut used = BTreeSet::new();
        for key in all_keys(&c) {
            let r = store.replicas(key);
            assert_eq!(r.len(), 2);
            assert_ne!(r[0], r[1], "replicas must land on distinct shards");
            assert_eq!(r, again.replicas(key), "placement must be deterministic");
            used.extend(r);
        }
        assert_eq!(used.len(), 4, "all shards should receive segments");
    }

    #[test]
    fn serves_every_plane_and_survives_any_single_shard_loss_at_r2() {
        let c = artifact();
        let store = ShardedStore::mem(&c, ShardConfig::try_new(4, 2).unwrap()).unwrap();
        for dead in 0..4 {
            store.kill_shard(dead);
            for key in all_keys(&c) {
                let read = store.fetch(key).expect("R=2 must survive one dead shard");
                assert_eq!(read.bytes(), c.levels()[key.0].plane_payload(key.1));
            }
            store.revive_shard(dead);
        }
        let status = store.shard_status();
        assert!(status.iter().all(|s| s.state != ShardState::Dead));
        assert!(status.iter().any(|s| s.missing > 0), "kills were observed");
    }

    #[test]
    fn r1_shard_loss_is_permanent_missing() {
        let c = artifact();
        let store = ShardedStore::mem(&c, ShardConfig::try_new(3, 1).unwrap()).unwrap();
        store.kill_shard(1);
        let mut lost = 0;
        for key in all_keys(&c) {
            let on_dead = store.replicas(key) == vec![1];
            match store.fetch(key) {
                Ok(read) => {
                    assert!(!on_dead);
                    assert_eq!(read.bytes(), c.levels()[key.0].plane_payload(key.1));
                }
                Err(err) => {
                    assert!(on_dead);
                    assert!(err.is_permanent(), "dead-shard loss must be permanent");
                    lost += 1;
                }
            }
        }
        assert!(lost > 0, "shard 1 should have held something");
        assert_eq!(store.shard_status()[1].state, ShardState::Dead);
    }

    #[test]
    fn corrupt_replica_falls_through_to_good_copy() {
        let c = artifact();
        let store = ShardedStore::mem(&c, ShardConfig::try_new(3, 2).unwrap()).unwrap();
        let key = all_keys(&c)
            .into_iter()
            .find(|&k| !c.levels()[k.0].plane_payload(k.1).is_empty())
            .expect("some non-empty payload");
        let clean = c.levels()[key.0].plane_payload(key.1).to_vec();
        let primary = store.replicas(key)[0];
        let mut rotted = clean.clone();
        rotted[0] ^= 0x01;
        store.child(primary).unwrap().put(key, &rotted).unwrap();
        let read = store.fetch(key).expect("fallback replica must serve");
        assert_eq!(read.bytes(), clean, "served bytes must come from the good replica");
        let status = store.shard_status();
        assert_eq!(status[primary].corrupt, 1);
    }

    #[test]
    fn hot_tier_holds_low_planes_and_is_redundant() {
        let c = artifact();
        let cfg = ShardConfig::try_new(3, 2).unwrap().with_hot_planes(2);
        let store = ShardedStore::mem(&c, cfg).unwrap();
        let hot = store.hot_store().expect("hot tier enabled");
        for key in all_keys(&c) {
            assert_eq!(hot.contains(key), key.1 < 2, "hot tier pins exactly planes 0..2");
        }
        // Losing the hot copy costs nothing: ring replicas still serve.
        hot.delete((0, 0)).unwrap();
        let read = store.fetch((0, 0)).unwrap();
        assert_eq!(read.bytes(), c.levels()[0].plane_payload(0));
    }

    #[test]
    fn file_layout_roundtrips_through_meta() {
        let c = artifact();
        let dir = std::env::temp_dir().join("pmr_shard_meta_test");
        fs::remove_dir_all(&dir).ok();
        let cfg = ShardConfig::try_new(3, 2).unwrap().with_hot_planes(1);
        let store = ShardedStore::write_files(&c, &dir, cfg.clone()).unwrap();
        let mut reopened = ShardedStore::open_dir(&dir).unwrap();
        assert_eq!(reopened.config(), &cfg);
        reopened.attach_manifest(&c);
        assert_eq!(store.keys(), reopened.keys());
        for key in all_keys(&c) {
            assert_eq!(
                reopened.fetch(key).unwrap().bytes(),
                c.levels()[key.0].plane_payload(key.1)
            );
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_dir_rejects_missing_or_mangled_meta() {
        let dir = std::env::temp_dir().join("pmr_shard_badmeta_test");
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).unwrap();
        assert!(ShardedStore::open_dir(&dir).is_err(), "no meta file");
        fs::write(dir.join("shard.meta"), "NOTMETA\n").unwrap();
        assert!(ShardedStore::open_dir(&dir).is_err(), "bad magic");
        fs::write(dir.join("shard.meta"), "PMRSHARD1\nshards 2\n").unwrap();
        assert!(ShardedStore::open_dir(&dir).is_err(), "missing fields");
        fs::remove_dir_all(&dir).ok();
    }
}
