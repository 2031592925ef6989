//! Scrub & repair for [`ShardedStore`]: walk the manifest, verify every
//! replica of every segment against its per-plane FNV checksum, and
//! re-replicate damaged or missing copies from a surviving good one.
//!
//! The repair source is always another *replica* (or the hot-tier copy) —
//! never the manifest itself, which holds only checksums. A segment whose
//! every copy is bad is honestly reported `unrepairable`; at R=1 that is
//! exactly the case the tolerant fetch path degrades on, so scrub's report
//! and `DegradedRetrieval` agree about what is lost.

use crate::fetch::ExpectedSegment;
use crate::segment::{FetchError, MutableSegmentStore, SegmentKey};
use crate::shard::ShardedStore;
use pmr_error::PmrError;

/// Outcome of one verification pass over every replica of every segment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScrubReport {
    /// Manifest segments walked.
    pub segments: usize,
    /// Replica copies examined (ring replicas + hot-tier copies).
    pub replicas_checked: usize,
    /// Copies that verified clean.
    pub ok: usize,
    /// Copies present but failing length/checksum verification (bit rot,
    /// torn write) or unreadable.
    pub corrupt: usize,
    /// Copies absent (deleted file, dead shard).
    pub missing: usize,
    /// Segments with *no* good copy anywhere — repair has no source.
    pub unrepairable: Vec<SegmentKey>,
}

impl ScrubReport {
    /// True when every replica of every segment verified clean.
    pub fn clean(&self) -> bool {
        self.corrupt == 0 && self.missing == 0
    }

    pub fn summary(&self) -> String {
        format!(
            "scrub: {} segments, {} replicas checked, {} ok, {} corrupt, {} missing, {} unrepairable",
            self.segments,
            self.replicas_checked,
            self.ok,
            self.corrupt,
            self.missing,
            self.unrepairable.len()
        )
    }
}

/// Outcome of a scrub-then-repair pass.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairReport {
    /// The scrub findings the repair acted on.
    pub scrub: ScrubReport,
    /// Replica copies rewritten from a surviving good copy.
    pub repaired: usize,
    /// Bad copies on killed shards, left alone (nowhere to write).
    pub skipped_dead: usize,
    /// Segments with no good copy to repair from.
    pub unrepairable: Vec<SegmentKey>,
}

impl RepairReport {
    /// True when every damaged copy was restored.
    pub fn complete(&self) -> bool {
        self.skipped_dead == 0 && self.unrepairable.is_empty()
    }

    pub fn summary(&self) -> String {
        format!(
            "repair: {} replicas restored, {} skipped on dead shards, {} unrepairable ({})",
            self.repaired,
            self.skipped_dead,
            self.unrepairable.len(),
            self.scrub.summary()
        )
    }
}

/// Where one copy of a segment lives.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Loc {
    Shard(usize),
    Hot,
}

/// Per-segment audit result: which copies are bad, and one good source.
struct Audit {
    key: SegmentKey,
    bad: Vec<Loc>,
    source: Option<Loc>,
}

fn copy_of(store: &ShardedStore, loc: Loc) -> Option<&dyn MutableSegmentStore> {
    match loc {
        Loc::Shard(s) => store.child(s),
        Loc::Hot => store.hot_store(),
    }
}

/// Verify one copy: `Ok(true)` clean, `Ok(false)` corrupt/unreadable,
/// `Err(())` missing.
fn check_copy(
    store: &ShardedStore,
    loc: Loc,
    key: SegmentKey,
    exp: &ExpectedSegment,
) -> Result<bool, ()> {
    if let Loc::Shard(s) = loc {
        if store.is_killed(s) {
            return Err(());
        }
    }
    let Some(child) = copy_of(store, loc) else { return Err(()) };
    match child.fetch(key) {
        Ok(mut read) => Ok(exp.matches(&mut read)),
        Err(FetchError::Missing { .. }) => Err(()),
        Err(_) => Ok(false),
    }
}

fn audit(store: &ShardedStore) -> Result<(ScrubReport, Vec<Audit>), PmrError> {
    let expected = store.manifest_checksums();
    if expected.is_empty() {
        return Err(PmrError::invalid_config(
            "scrub needs manifest checksums: attach the artifact with attach_manifest first",
        ));
    }
    let mut report = ScrubReport::default();
    let mut audits = Vec::new();
    for (&key, exp) in expected {
        report.segments += 1;
        let mut locs: Vec<Loc> = store.replicas(key).into_iter().map(Loc::Shard).collect();
        if key.1 < store.config().hot_planes && store.hot_store().is_some() {
            locs.push(Loc::Hot);
        }
        let mut bad = Vec::new();
        let mut source = None;
        for loc in locs {
            report.replicas_checked += 1;
            match check_copy(store, loc, key, exp) {
                Ok(true) => {
                    report.ok += 1;
                    if source.is_none() {
                        source = Some(loc);
                    }
                }
                Ok(false) => {
                    report.corrupt += 1;
                    bad.push(loc);
                }
                Err(()) => {
                    report.missing += 1;
                    bad.push(loc);
                }
            }
        }
        if source.is_none() {
            report.unrepairable.push(key);
        }
        if !bad.is_empty() {
            audits.push(Audit { key, bad, source });
        }
    }
    Ok((report, audits))
}

/// Walk the manifest and verify every replica of every segment. Read-only:
/// nothing is modified. Requires manifest checksums to be attached.
pub fn scrub(store: &ShardedStore) -> Result<ScrubReport, PmrError> {
    audit(store).map(|(report, _)| report)
}

/// Scrub, then re-replicate every damaged or missing copy from a surviving
/// good replica. Copies on killed shards are skipped (there is no live
/// device to write); segments with no good copy are reported unrepairable.
pub fn repair(store: &ShardedStore) -> Result<RepairReport, PmrError> {
    let (scrub, audits) = audit(store)?;
    let mut repaired = 0;
    let mut skipped_dead = 0;
    let mut unrepairable = Vec::new();
    for a in audits {
        let Some(src) = a.source else {
            unrepairable.push(a.key);
            continue;
        };
        let payload = match copy_of(store, src).map(|c| c.fetch(a.key)) {
            Some(Ok(read)) => read.into_bytes(),
            // The source verified moments ago; losing it mid-repair makes
            // this segment unrepairable in this pass.
            _ => {
                unrepairable.push(a.key);
                continue;
            }
        };
        for loc in a.bad {
            if let Loc::Shard(s) = loc {
                if store.is_killed(s) {
                    skipped_dead += 1;
                    continue;
                }
            }
            let Some(child) = copy_of(store, loc) else { continue };
            child.put(a.key, &payload)?;
            repaired += 1;
        }
    }
    Ok(RepairReport { scrub, repaired, skipped_dead, unrepairable })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardConfig;
    use pmr_field::{Field, Shape};
    use pmr_mgard::{CompressConfig, Compressed};

    fn artifact() -> Compressed {
        let field = Field::from_fn("scrub", 0, Shape::cube(9), |x, y, _| {
            ((x as f64) * 0.3).sin() * ((y as f64) * 0.2).cos()
        });
        Compressed::compress(&field, &CompressConfig::default())
    }

    fn nonempty_key(c: &Compressed) -> SegmentKey {
        for (l, lvl) in c.levels().iter().enumerate() {
            for k in 0..lvl.num_planes() {
                if !lvl.plane_payload(k).is_empty() {
                    return (l, k);
                }
            }
        }
        unreachable!("artifact has payload bytes")
    }

    #[test]
    fn clean_store_scrubs_clean() {
        let c = artifact();
        let store = ShardedStore::mem(&c, ShardConfig::try_new(4, 2).unwrap()).unwrap();
        let report = scrub(&store).unwrap();
        assert!(report.clean(), "{}", report.summary());
        assert_eq!(report.ok, report.replicas_checked);
        assert!(report.unrepairable.is_empty());
    }

    #[test]
    fn scrub_without_manifest_is_an_error() {
        let c = artifact();
        let store = ShardedStore::mem(&c, ShardConfig::try_new(2, 1).unwrap()).unwrap();
        let mut bare = ShardedStore::try_new(
            vec![
                Box::new(crate::segment::MemStore::new()),
                Box::new(crate::segment::MemStore::new()),
            ],
            None,
            ShardConfig::try_new(2, 1).unwrap(),
        )
        .unwrap();
        assert!(scrub(&bare).is_err());
        bare.attach_manifest(&c);
        drop(store);
        // With a manifest but empty children, everything is missing.
        let report = scrub(&bare).unwrap();
        assert!(!report.clean());
        assert_eq!(report.missing, report.replicas_checked);
    }

    #[test]
    fn bit_rot_is_detected_and_repaired_bit_identically() {
        let c = artifact();
        let store = ShardedStore::mem(&c, ShardConfig::try_new(3, 2).unwrap()).unwrap();
        let key = nonempty_key(&c);
        let clean = c.levels()[key.0].plane_payload(key.1).to_vec();
        let victim = store.replicas(key)[0];
        let mut rotted = clean.clone();
        let mid = rotted.len() / 2;
        rotted[mid] ^= 0x10;
        store.child(victim).unwrap().put(key, &rotted).unwrap();

        let found = scrub(&store).unwrap();
        assert_eq!(found.corrupt, 1);
        assert!(found.unrepairable.is_empty());

        let fixed = repair(&store).unwrap();
        assert_eq!(fixed.repaired, 1);
        assert!(fixed.complete());
        assert_eq!(store.child(victim).unwrap().fetch(key).unwrap().bytes(), clean);
        assert!(scrub(&store).unwrap().clean());
    }

    #[test]
    fn deleted_replica_is_re_replicated() {
        let c = artifact();
        let store = ShardedStore::mem(&c, ShardConfig::try_new(4, 2).unwrap()).unwrap();
        let key = nonempty_key(&c);
        let victim = store.replicas(key)[1];
        store.child(victim).unwrap().delete(key).unwrap();
        let found = scrub(&store).unwrap();
        assert_eq!(found.missing, 1);
        let fixed = repair(&store).unwrap();
        assert_eq!(fixed.repaired, 1);
        assert!(fixed.complete());
        assert!(store.child(victim).unwrap().contains(key));
        assert!(scrub(&store).unwrap().clean());
    }

    #[test]
    fn all_replicas_lost_is_unrepairable() {
        let c = artifact();
        let store = ShardedStore::mem(&c, ShardConfig::try_new(3, 2).unwrap()).unwrap();
        let key = nonempty_key(&c);
        for s in store.replicas(key) {
            store.child(s).unwrap().delete(key).unwrap();
        }
        let fixed = repair(&store).unwrap();
        assert!(!fixed.complete());
        assert_eq!(fixed.unrepairable, vec![key]);
        assert_eq!(fixed.repaired, 0);
    }

    #[test]
    fn dead_shard_copies_are_skipped_not_written() {
        let c = artifact();
        let store = ShardedStore::mem(&c, ShardConfig::try_new(4, 2).unwrap()).unwrap();
        let key = nonempty_key(&c);
        let dead = store.replicas(key)[0];
        store.kill_shard(dead);
        let found = scrub(&store).unwrap();
        assert!(found.missing > 0, "dead shard copies read as missing");
        let fixed = repair(&store).unwrap();
        assert!(fixed.skipped_dead > 0);
        assert!(fixed.unrepairable.is_empty(), "the live replica still sources everything");
    }

    #[test]
    fn hot_tier_copy_is_scrubbed_and_repaired() {
        let c = artifact();
        let cfg = ShardConfig::try_new(3, 2).unwrap().with_hot_planes(1);
        let store = ShardedStore::mem(&c, cfg).unwrap();
        let key = (0usize, 0u32);
        let clean = c.levels()[0].plane_payload(0).to_vec();
        if clean.is_empty() {
            return; // nothing to rot in this artifact shape
        }
        let mut rotted = clean.clone();
        rotted[0] ^= 0x80;
        store.hot_store().unwrap().put(key, &rotted).unwrap();
        assert_eq!(scrub(&store).unwrap().corrupt, 1);
        let fixed = repair(&store).unwrap();
        assert_eq!(fixed.repaired, 1);
        assert_eq!(store.hot_store().unwrap().fetch(key).unwrap().bytes(), clean);
    }
}
