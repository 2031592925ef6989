//! Property tests for the sharded store's repair contract: at R = 2, no
//! single-replica corruption — a flipped bit, a truncated payload, a
//! deleted copy — may survive `repair()`. Afterwards every replica must be
//! bit-identical to the manifest, a re-scrub must come back clean, and
//! golden retrieval probes must match a healthy store exactly. The
//! deterministic `#[test]` twins at the bottom pin a fixed slice of the
//! same property so offline builds (where the proptest stub swallows
//! `proptest!` bodies) still execute the contract.

use pmr_field::{Field, Shape};
use pmr_mgard::{CompressConfig, Compressed};
use pmr_storage::{
    fetch_plan_tolerant, repair, scrub, SegmentKey, SegmentStore, ShardConfig, ShardedStore,
    TolerantConfig,
};
use proptest::prelude::*;

fn sample(seed: u64) -> (Field, Compressed) {
    let field = Field::from_fn("shard_prop", 0, Shape::cube(9), move |x, y, z| {
        let h =
            ((x + 31 * y + 997 * z) as u64).wrapping_mul(seed | 1).wrapping_mul(0x9E3779B97F4A7C15);
        ((h >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    });
    let c = Compressed::compress(&field, &CompressConfig { levels: 3, ..Default::default() });
    (field, c)
}

/// Segment keys with non-empty payloads (corruption needs bytes to chew).
fn payload_keys(c: &Compressed) -> Vec<SegmentKey> {
    let mut keys = Vec::new();
    for (l, lvl) in c.levels().iter().enumerate() {
        for k in 0..lvl.num_planes() {
            if !lvl.plane_payload(k).is_empty() {
                keys.push((l, k));
            }
        }
    }
    keys
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Corruption {
    BitFlip,
    Truncate,
    Delete,
}

const CORRUPTIONS: [Corruption; 3] =
    [Corruption::BitFlip, Corruption::Truncate, Corruption::Delete];

/// Apply one corruption to a single replica of `key`, leaving the other
/// replica (and any hot copy) untouched.
fn corrupt_replica(
    store: &ShardedStore,
    c: &Compressed,
    key: SegmentKey,
    kind: Corruption,
    salt: u64,
) {
    let clean = c.levels()[key.0].plane_payload(key.1);
    let victim = store.replicas(key)[(salt as usize) % 2];
    let child = store.child(victim).expect("replica shard exists");
    match kind {
        Corruption::BitFlip => {
            let mut bad = clean.to_vec();
            let pos = (salt as usize) % bad.len();
            bad[pos] ^= 1 << (salt % 8);
            child.put(key, &bad).expect("rot write");
        }
        Corruption::Truncate => {
            let cut = (salt as usize) % clean.len();
            child.put(key, &clean[..cut]).expect("truncated write");
        }
        Corruption::Delete => child.delete(key).expect("delete"),
    }
}

/// The property body: corrupt one replica, then require detection, full
/// repair, bit-identical restoration, and golden-probe equality.
fn check_single_corruption_repairs(
    field_seed: u64,
    salt: u64,
    shards: usize,
    kind: Corruption,
    key_ix: usize,
) -> Result<(), String> {
    let (_field, c) = sample(field_seed);
    let keys = payload_keys(&c);
    if keys.is_empty() {
        return Err("sample artifact has no payload".to_string());
    }
    let key = keys[key_ix % keys.len()];
    let cfg = ShardConfig::try_new(shards, 2).map_err(|e| e.to_string())?;
    let store = ShardedStore::mem(&c, cfg.clone()).map_err(|e| e.to_string())?;
    let golden = {
        let healthy = ShardedStore::mem(&c, cfg).map_err(|e| e.to_string())?;
        probe(&c, &healthy)?
    };

    corrupt_replica(&store, &c, key, kind, salt);

    // The damage is visible to scrub...
    let pre = scrub(&store).map_err(|e| e.to_string())?;
    if pre.corrupt + pre.missing == 0 {
        return Err(format!("{kind:?} on {key:?} was invisible to scrub"));
    }
    // ...and invisible to readers (the good replica serves).
    let read = store.fetch(key).map_err(|e| format!("read-one fallback failed: {e}"))?;
    if read.bytes != c.levels()[key.0].plane_payload(key.1) {
        return Err(format!("{kind:?} on {key:?}: fallback served wrong bytes"));
    }

    // Repair restores every copy bit-identically and scrubs clean.
    let rep = repair(&store).map_err(|e| e.to_string())?;
    if !rep.complete() {
        return Err(format!("repair incomplete: {}", rep.summary()));
    }
    if rep.repaired == 0 {
        return Err("repair rewrote nothing despite visible damage".to_string());
    }
    let post = scrub(&store).map_err(|e| e.to_string())?;
    if !post.clean() {
        return Err(format!("post-repair scrub dirty: {}", post.summary()));
    }
    for s in store.replicas(key) {
        let bytes = store
            .child(s)
            .and_then(|ch| ch.fetch(key).ok())
            .map(|r| r.bytes)
            .ok_or_else(|| format!("replica {s} of {key:?} unreadable after repair"))?;
        if bytes != c.levels()[key.0].plane_payload(key.1) {
            return Err(format!("replica {s} of {key:?} not restored bit-identically"));
        }
    }

    // Retrieval through the repaired store matches healthy golden probes.
    let probed = probe(&c, &store)?;
    if probed != golden {
        return Err("post-repair retrieval differs from the healthy golden probes".to_string());
    }
    Ok(())
}

/// Golden probes: tolerant retrievals at two bounds, reduced to the decoded
/// bits (field data + planes) plus a degradation marker.
fn probe(c: &Compressed, store: &ShardedStore) -> Result<Vec<(Vec<f64>, Vec<u32>, bool)>, String> {
    let mut out = Vec::new();
    for rel in [1e-2, 1e-4] {
        let bound = c.absolute_bound(rel);
        let got = fetch_plan_tolerant(
            c,
            store,
            &c.plan_theory(bound),
            bound,
            &TolerantConfig::default(),
            None,
            None,
        )
        .map_err(|e| format!("probe at rel {rel} failed: {e}"))?;
        out.push((got.field.data().to_vec(), got.planes.clone(), got.degraded.is_some()));
    }
    Ok(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// At R = 2, any single-replica corruption — arbitrary bit flips,
    /// truncations, deletions, at any segment, on any topology — is
    /// detected by scrub, invisible to readers, and fully undone by
    /// repair.
    #[test]
    fn single_replica_corruption_always_repairs_bit_identically(
        field_seed in any::<u64>(),
        salt in any::<u64>(),
        shards in 2usize..6,
        kind_ix in 0usize..3,
        key_ix in any::<usize>(),
    ) {
        let kind = CORRUPTIONS[kind_ix];
        if let Err(msg) = check_single_corruption_repairs(field_seed, salt, shards, kind, key_ix) {
            prop_assert!(false, "{}", msg);
        }
    }
}

/// Deterministic twin: a fixed slice of the property above, executed even
/// offline where the proptest stub swallows `proptest!` bodies.
#[test]
fn fixed_corruption_grid_repairs_bit_identically() {
    for (i, &kind) in CORRUPTIONS.iter().enumerate() {
        for (j, &shards) in [2usize, 3, 5].iter().enumerate() {
            let seed = 0xC0FFEE ^ ((i as u64) << 8) ^ (j as u64);
            check_single_corruption_repairs(seed, seed.rotate_left(17), shards, kind, i * 11 + j)
                .unwrap_or_else(|msg| panic!("{kind:?} x {shards} shards: {msg}"));
        }
    }
}

/// Deterministic twin: corruption at the *same* segment on both runs of
/// the same seed produces the same repair report — the whole path is
/// deterministic.
#[test]
fn repair_outcome_is_deterministic() {
    let run = || {
        let (_f, c) = sample(0xDE7E12);
        let store = ShardedStore::mem(&c, ShardConfig::try_new(4, 2).expect("cfg")).expect("mem");
        let key = *payload_keys(&c).first().expect("payload");
        corrupt_replica(&store, &c, key, Corruption::BitFlip, 0x5EED);
        let rep = repair(&store).expect("repair");
        (rep.scrub.corrupt, rep.scrub.missing, rep.repaired, rep.unrepairable.clone())
    };
    assert_eq!(run(), run());
}
