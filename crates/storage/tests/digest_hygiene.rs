//! A read may carry its payload's digest up to the layers that compare it
//! with the manifest's, so they need not hash the bytes again. These tests
//! pin what that must never cost: a payload that is not the manifest's is
//! still refused, whoever vouched for its digest and whatever happened to
//! its bytes on the way up.

use pmr_error::PmrError;
use pmr_field::{Field, Shape};
use pmr_mgard::{CompressConfig, Compressed};
use pmr_rng::cases;
use pmr_storage::{
    ExpectedSegment, FaultConfig, FaultInjector, FaultKind, FetchError, FetchExecutor, FileStore,
    MutableSegmentStore, RetryPolicy, SegmentKey, SegmentStore, ShardConfig, ShardedStore,
};
use std::path::PathBuf;

fn artifact() -> Compressed {
    let field = Field::from_fn("digest", 0, Shape::cube(9), |x, y, z| {
        ((x as f64) * 0.5).sin() + ((y as f64) * 0.3).cos() * 0.4 + (z as f64) * 0.02
    });
    Compressed::compress(&field, &CompressConfig::default())
}

fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pmr_digest_{test}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn expect(c: &Compressed, key: SegmentKey) -> ExpectedSegment {
    ExpectedSegment::of_plane(&c.levels()[key.0], key.1)
}

/// Keys whose payloads have bytes to corrupt.
fn payload_keys(c: &Compressed, store: &dyn SegmentStore) -> Vec<SegmentKey> {
    store.keys().into_iter().filter(|&(l, k)| !c.levels()[l].plane_payload(k).is_empty()).collect()
}

#[test]
fn an_injector_above_file_stores_cannot_pass_a_stale_digest_on() {
    let c = artifact();
    let dir = scratch("injector");
    // File stores prove a digest, the sharded store compares it and hands
    // the read up with it; the injector then alters the bytes.
    let cfg = ShardConfig::try_new(3, 2).unwrap().with_hot_planes(1);
    let always = |truncate: f64, bit_flip: f64| {
        let sharded = ShardedStore::write_files(&c, &dir, cfg.clone()).unwrap();
        FaultInjector::new(sharded, FaultConfig { truncate, bit_flip, ..FaultConfig::quiet(3) })
            .unwrap()
    };
    for inj in [always(1.0, 0.0), always(0.0, 1.0)] {
        let policy = RetryPolicy { max_attempts: 3 };
        let mut exec = FetchExecutor::new(&inj, policy);
        for key in payload_keys(&c, &inj) {
            let err = exec.fetch_verified(key, expect(&c, key)).expect_err("every read is rotted");
            assert!(matches!(err, FetchError::Corrupt { .. }), "{key:?}: {err}");
        }
        assert_eq!(exec.stats().bytes, 0, "no corrupted read may count as verified");
    }
    // Half the attempts rotted: whatever is returned is the manifest's.
    let cfg_half = FaultConfig { truncate: 0.25, bit_flip: 0.25, ..FaultConfig::quiet(4) };
    let inj =
        FaultInjector::new(ShardedStore::write_files(&c, &dir, cfg).unwrap(), cfg_half).unwrap();
    let policy = RetryPolicy { max_attempts: 64 };
    let mut exec = FetchExecutor::new(&inj, policy);
    for key in inj.keys() {
        let bytes = exec.fetch_verified(key, expect(&c, key)).expect("retries find a clean read");
        assert_eq!(bytes, c.levels()[key.0].plane_payload(key.1));
    }
    let rotted = inj
        .log()
        .iter()
        .filter(|e| matches!(e.kind, FaultKind::Truncate(_) | FaultKind::BitFlip { .. }))
        .count() as u64;
    assert!(rotted > 0, "the schedule must have corrupted something");
    assert_eq!(exec.stats().corruptions, rotted, "each rotted read was caught, none slipped by");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_self_consistent_file_with_the_wrong_payload_is_corrupt_against_the_manifest() {
    let c = artifact();
    let dir = scratch("forged");
    let cfg = ShardConfig::try_new(2, 1).unwrap();
    let store = ShardedStore::write_files(&c, &dir, cfg).unwrap();
    let key = payload_keys(&c, &store)[0];
    let mut wrong = c.levels()[key.0].plane_payload(key.1).to_vec();
    wrong[0] ^= 0x10;
    // `put` writes a header whose checksum matches the wrong payload: the
    // file verifies, and its read carries a digest the file store proved.
    let holder = store.replicas(key)[0];
    store.child(holder).unwrap().put(key, &wrong).unwrap();
    assert_eq!(store.child(holder).unwrap().fetch(key).unwrap().bytes(), wrong);

    // With the manifest attached the sharded store refuses the replica...
    assert!(matches!(store.fetch(key), Err(FetchError::Corrupt { .. })));
    // ...and without it the executor does, comparing the carried digest.
    let unattached = ShardedStore::open_dir(&dir).unwrap();
    assert_eq!(unattached.fetch(key).unwrap().bytes(), wrong, "no manifest, no opinion");
    for store in [&store, &unattached] {
        let mut exec = FetchExecutor::new(store, RetryPolicy::default());
        let err = exec.fetch_verified(key, expect(&c, key)).expect_err("not the manifest's bytes");
        assert!(matches!(err, FetchError::Corrupt { .. }), "{err}");
        assert_eq!(exec.stats().corruptions, u64::from(RetryPolicy::default().max_attempts));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Bytes 0..26 of a log record: magic, level, plane, length, checksum.
const SEG_HEADER: usize = 26;

/// Where the live record of `key` sits in a `segments.pmrs`: the last
/// segment record naming it, found by walking the documented headers.
fn record_span(log: &[u8], key: SegmentKey) -> std::ops::Range<usize> {
    let word = |at: usize| u32::from_le_bytes(log[at..at + 4].try_into().unwrap());
    let (mut at, mut span) = (0, None);
    while at + SEG_HEADER <= log.len() {
        let end = at + SEG_HEADER + word(at + 14) as usize;
        if &log[at..at + 6] == b"PMRS1\0" && (word(at + 6) as usize, word(at + 10)) == key {
            span = Some(at..end);
        }
        at = end;
    }
    span.expect("the key has a record")
}

#[test]
fn mutated_segment_files_are_corrupt_or_missing_never_served() {
    let c = artifact();
    let dir = scratch("mutated");
    let store = FileStore::write_from(&c, &dir).unwrap();
    let log = dir.join("segments.pmrs");
    let keys = store.keys();
    cases("mutated_segment_files_are_corrupt_or_missing_never_served", 256, |g| {
        let key = g.one_of(&keys);
        let payload = c.levels()[key.0].plane_payload(key.1);
        let clean = std::fs::read(&log).unwrap();
        let span = record_span(&clean, key);
        let mut bytes = clean.clone();
        let mutation = g.range(0..8u32);
        match mutation {
            0 => store.delete(key).unwrap(),
            1 => bytes.truncate(g.range(span.clone())),
            2 => {
                let at = g.range(span.start + 1..span.end);
                let junk: Vec<u8> = (0..g.range(1..9usize)).map(|_| g.u8()).collect();
                bytes.splice(at..at, junk);
            }
            _ => {
                for _ in 0..g.range(1..5usize) {
                    // Half the hits land in the header, where every byte
                    // is load-bearing.
                    let at = if g.bool() {
                        g.range(span.start..span.start + SEG_HEADER)
                    } else {
                        g.range(span.clone())
                    };
                    bytes[at] = g.u8();
                }
            }
        }
        if mutation != 0 {
            std::fs::write(&log, &bytes).unwrap();
        }
        let changed = bytes.get(span.clone()) != clean.get(span.clone());
        let want = expect(&c, key);
        match store.fetch(key) {
            // A mutation can write a byte's old value back.
            Ok(mut read) => {
                assert!(mutation != 0 && !changed, "{key:?}: a changed record was served");
                assert!(want.matches(&mut read));
            }
            Err(FetchError::Corrupt { .. }) => assert!(changed),
            Err(FetchError::Missing { .. }) => assert_eq!(mutation, 0),
            Err(other) => panic!("{key:?}: {other}"),
        }
        // Through the verifying executor nothing but the manifest's bytes
        // ever comes back.
        let mut exec = FetchExecutor::new(&store, RetryPolicy::default());
        if let Ok(served) = exec.fetch_verified(key, want) {
            assert_eq!(served, payload);
        }
        if mutation == 0 {
            store.put(key, payload).unwrap();
        } else {
            std::fs::write(&log, &clean).unwrap();
        }
    });
    std::fs::remove_dir_all(&dir).ok();
}

/// `shard.meta` is read from disk too. A topology whose ring would not fit
/// in memory is malformed, not an allocation abort.
#[test]
fn a_shard_meta_naming_a_huge_topology_is_malformed() {
    let c = artifact();
    let dir = scratch("huge_meta");
    let cfg = ShardConfig::try_new(3, 2).unwrap().with_hot_planes(1);
    ShardedStore::write_files(&c, &dir, cfg).unwrap();
    let meta = dir.join("shard.meta");
    let clean = std::fs::read_to_string(&meta).unwrap();
    for (field, value) in [("vnodes", "40000000000"), ("shards", "2000000000000")] {
        let line = clean.lines().find(|l| l.starts_with(field)).unwrap();
        std::fs::write(&meta, clean.replace(line, &format!("{field} {value}"))).unwrap();
        let err = ShardedStore::open_dir(&dir).err().expect("refused");
        assert!(matches!(err, PmrError::Malformed { .. }), "{field} {value}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Whatever a mutation leaves in `shard.meta`, the corpus either refuses to
/// open or serves only the manifest's bytes.
#[test]
fn mutated_shard_meta_is_refused_or_serves_only_manifest_bytes() {
    let c = artifact();
    let dir = scratch("meta");
    let cfg = ShardConfig::try_new(3, 2).unwrap().with_hot_planes(1);
    ShardedStore::write_files(&c, &dir, cfg).unwrap();
    let meta = dir.join("shard.meta");
    let clean = std::fs::read_to_string(&meta).unwrap();
    let lines: Vec<&str> = clean.lines().collect();
    let keys: Vec<SegmentKey> = c
        .levels()
        .iter()
        .enumerate()
        .flat_map(|(l, lvl)| (0..lvl.num_planes()).map(move |k| (l, k)))
        .collect();
    cases("mutated_shard_meta_is_refused_or_serves_only_manifest_bytes", 256, |g| {
        let mut bytes = clean.clone().into_bytes();
        match g.range(0..4u32) {
            0 => bytes.truncate(g.range(0..clean.len())),
            1 => {
                for _ in 0..g.range(1..4usize) {
                    let at = g.range(0..bytes.len());
                    bytes[at] = g.u8();
                }
            }
            2 => {
                let at = g.range(0..bytes.len());
                bytes.splice(at..at, g.next_u64().to_string().into_bytes());
            }
            _ => {
                let line = lines[g.range(1..lines.len())];
                let field = line.split(' ').next().unwrap();
                let value = g.one_of(&[
                    "0",
                    "1",
                    "2",
                    "1024",
                    "1025",
                    "1048576",
                    "40000000000",
                    "2000000000000",
                    "18446744073709551615",
                    "18446744073709551616",
                    "-1",
                ]);
                bytes = clean.replace(line, &format!("{field} {value}")).into_bytes();
            }
        }
        std::fs::write(&meta, &bytes).unwrap();
        let Ok(mut store) = ShardedStore::open_dir(&dir) else { return };
        store.attach_manifest(&c);
        for &key in &keys {
            if let Ok(read) = store.fetch(key) {
                assert_eq!(read.bytes(), c.levels()[key.0].plane_payload(key.1), "{key:?}");
            }
        }
    });
    std::fs::remove_dir_all(&dir).ok();
}
