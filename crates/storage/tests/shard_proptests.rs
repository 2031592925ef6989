//! Property tests for the sharded store's repair contract: at R = 2, no
//! single-replica corruption — a flipped bit, a truncated payload, a
//! deleted copy — may survive `repair()`. Afterwards every replica must be
//! bit-identical to the manifest, a re-scrub must come back clean, and
//! golden retrieval probes must match a healthy store exactly. On the
//! seeded case driver `pmr_rng::cases`; the tests at the bottom walk a fixed
//! grid of the same property.

use pmr_field::{Field, Shape};
use pmr_mgard::{CompressConfig, Compressed};
use pmr_rng::{cases, Rng};
use pmr_storage::{
    fetch_plan_tolerant, repair, scrub, SegmentKey, SegmentStore, ShardConfig, ShardedStore,
    TolerantConfig,
};

fn sample(seed: u64) -> (Field, Compressed) {
    let mut rng = Rng::seed_from_u64(seed);
    let shape = Shape::cube(9);
    let data = (0..shape.len()).map(|_| rng.range(-1.0..1.0)).collect();
    let field = Field::new("shard_prop", 0, shape, data);
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
) {
    let (_field, c) = sample(field_seed);
    let keys = payload_keys(&c);
    let key = keys[key_ix % keys.len()];
    let clean = c.levels()[key.0].plane_payload(key.1);
    let cfg = ShardConfig::try_new(shards, 2).expect("cfg");
    let store = ShardedStore::mem(&c, cfg.clone()).expect("mem");
    let golden = probe(&c, &ShardedStore::mem(&c, cfg).expect("mem"));

    corrupt_replica(&store, &c, key, kind, salt);

    // The damage is visible to scrub...
    let pre = scrub(&store).expect("scrub");
    assert!(pre.corrupt + pre.missing > 0, "{kind:?} on {key:?} was invisible to scrub");
    // ...and invisible to readers (the good replica serves).
    let read = store.fetch(key).expect("read-one fallback");
    assert!(read.bytes() == clean, "{kind:?} on {key:?}: fallback served wrong bytes");

    // Repair restores every copy bit-identically and scrubs clean.
    let rep = repair(&store).expect("repair");
    assert!(rep.complete(), "repair incomplete: {}", rep.summary());
    assert!(rep.repaired > 0, "repair rewrote nothing despite visible damage");
    let post = scrub(&store).expect("scrub");
    assert!(post.clean(), "post-repair scrub dirty: {}", post.summary());
    for s in store.replicas(key) {
        let restored = store.child(s).and_then(|ch| ch.fetch(key).ok()).map(|r| r.into_bytes());
        assert!(
            restored.as_deref() == Some(clean),
            "replica {s} of {key:?} not restored bit-identically"
        );
    }

    // Retrieval through the repaired store matches healthy golden probes.
    assert!(probe(&c, &store) == golden, "post-repair retrieval differs from the golden probes");
}

/// One golden probe: the decoded bits (field data + planes) plus a
/// degradation marker.
type Probe = (Vec<f64>, Vec<u32>, bool);

/// Golden probes: tolerant retrievals at two bounds.
fn probe(c: &Compressed, store: &ShardedStore) -> Vec<Probe> {
    [1e-2, 1e-4]
        .map(|rel| {
            let bound = c.absolute_bound(rel);
            let plan = c.plan_theory(bound);
            let got = fetch_plan_tolerant(c, store, &plan, bound, &TolerantConfig::default())
                .unwrap_or_else(|e| panic!("probe at rel {rel} failed: {e}"));
            (got.field.data().to_vec(), got.planes.clone(), got.degraded.is_some())
        })
        .to_vec()
}

/// At R = 2, any single-replica corruption — arbitrary bit flips,
/// truncations, deletions, at any segment, on any topology — is
/// detected by scrub, invisible to readers, and fully undone by
/// repair.
#[test]
fn single_replica_corruption_always_repairs_bit_identically() {
    cases("single_replica_corruption_always_repairs_bit_identically", 32, |g| {
        let (field_seed, salt) = (g.next_u64(), g.next_u64());
        let shards = g.range(2usize..6);
        let kind = g.one_of(&CORRUPTIONS);
        check_single_corruption_repairs(field_seed, salt, shards, kind, g.range(0..=usize::MAX));
    });
}

/// A fixed slice of the property above: every corruption on three
/// topologies.
#[test]
fn fixed_corruption_grid_repairs_bit_identically() {
    for (i, &kind) in CORRUPTIONS.iter().enumerate() {
        for (j, &shards) in [2usize, 3, 5].iter().enumerate() {
            let seed = 0xC0FFEE ^ ((i as u64) << 8) ^ (j as u64);
            check_single_corruption_repairs(seed, seed.rotate_left(17), shards, kind, i * 11 + j);
        }
    }
}

/// Corruption at the *same* segment on both runs of the same seed produces
/// the same repair report — the whole path is deterministic.
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
