//! Integration: the public retrieval API over the sharded, replicated
//! segment store, plus the crash-safety contract of the file backend.
//!
//! Three promises from the sharded-storage design are pinned here end to
//! end, through `Backend::Store` rather than the storage crate's own unit
//! tests:
//!
//! * R = 2 survives the loss of *any single shard* with bit-identical
//!   reconstruction and no degradation report.
//! * R = 1 degrades *honestly*: the measured error of the degraded
//!   reconstruction stays within the `achievable_bound` the reader reports.
//! * A crash at any byte of a segment append leaves the old generation or
//!   the new one — never a torn record — and a later append is not lost
//!   behind the torn tail.

mod common;

use pmr::conformance::{check_outcome, Verdict};
use pmr::core::{retrieve, Backend, Dataset, RetrievalRequest, Theory};
use pmr::field::{Field, Shape};
use pmr::mgard::{CompressConfig, Compressed};
use pmr::storage::{
    FileStore, MutableSegmentStore, SegmentStore, ShardConfig, ShardedStore, QUARANTINE_SUFFIX,
};
use std::path::Path;

fn artifact() -> (Field, Compressed) {
    let field = Field::from_fn("sharded_int", 0, Shape::cube(11), |x, y, z| {
        (x as f64 * 0.23).sin() * (y as f64 * 0.31).cos() + (z as f64 * 0.11).sin() * 0.5
    });
    let c = Compressed::compress(&field, &CompressConfig { levels: 3, ..Default::default() });
    (field, c)
}

#[test]
fn r2_survives_any_single_shard_loss_bit_identically_through_backend_store() {
    let (field, c) = artifact();
    let cfg = ShardConfig::try_new(4, 2).expect("4 shards, R=2").with_hot_planes(1);
    let ds = Dataset::new(&c);
    let req = RetrievalRequest::rel(1e-3);
    let bound = c.absolute_bound(1e-3);
    let direct = retrieve(&ds, &Theory, &req, &Backend::Direct).expect("direct retrieval");

    for dead in 0..4 {
        let store = ShardedStore::mem(&c, cfg.clone()).expect("sharded mem store");
        store.kill_shard(dead);
        let backend = Backend::store(&store);
        let got = retrieve(&ds, &Theory, &req, &backend)
            .unwrap_or_else(|e| panic!("retrieval with shard {dead} dead failed: {e}"));
        let verdict =
            check_outcome(&field, &c, bound, &got.field, got.degraded.as_ref(), &direct.field);
        assert_eq!(verdict, Ok(Verdict::BitIdentical), "R=2 must hide the loss of shard {dead}");
        assert_eq!(got.planes, direct.planes, "shard {dead} dead: plane counts diverged");
    }
}

#[test]
fn r1_shard_loss_degrades_honestly_through_backend_store() {
    let (field, c) = artifact();
    let cfg = ShardConfig::try_new(3, 1).expect("3 shards, R=1");
    let ds = Dataset::new(&c);
    let req = RetrievalRequest::rel(1e-4);
    let bound = c.absolute_bound(1e-4);
    let direct = retrieve(&ds, &Theory, &req, &Backend::Direct).expect("direct");

    let mut degraded_seen = 0usize;
    for dead in 0..3 {
        let store = ShardedStore::mem(&c, cfg.clone()).expect("sharded mem store");
        store.kill_shard(dead);
        let backend = Backend::store(&store);
        let got = retrieve(&ds, &Theory, &req, &backend)
            .unwrap_or_else(|e| panic!("R=1 retrieval with shard {dead} dead failed: {e}"));
        // Undegraded: the dead shard held nothing this plan needed, and the
        // result is indistinguishable from a healthy store.
        check_outcome(&field, &c, bound, &got.field, got.degraded.as_ref(), &direct.field)
            .unwrap_or_else(|e| panic!("shard {dead} dead: {e}"));
        if let Some(deg) = &got.degraded {
            degraded_seen += 1;
            assert!(
                deg.achievable_bound >= deg.requested_bound,
                "a degraded retrieval cannot claim a tighter bound than requested"
            );
        }
    }
    assert!(
        degraded_seen > 0,
        "at R=1 losing a shard should degrade at least one of the three kills"
    );
}

/// Every byte a store appends to its log for `payload` under `key`, read
/// back from a scratch store written through the public API.
fn encoded_record(dir: &Path, key: (usize, u32), payload: &[u8]) -> Vec<u8> {
    let scratch = dir.join("encode_scratch");
    FileStore::create(&scratch).expect("scratch store").put(key, payload).expect("scratch write");
    std::fs::read(scratch.join("segments.pmrs")).expect("read encoded record")
}

#[test]
fn crash_during_write_leaves_old_or_new_segment_never_torn() {
    let root = std::env::temp_dir().join(format!("pmr_crash_test_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("test root");
    let dir = root.join("segs");
    let log = dir.join("segments.pmrs");
    let quarantine = dir.join(format!("segments.pmrs{QUARANTINE_SUFFIX}"));
    let key = (0usize, 0u32);
    let old: Vec<u8> = (0..512u32).map(|i| (i % 251) as u8).collect();
    let new: Vec<u8> = (0..768u32).map(|i| (i.wrapping_mul(37) % 253) as u8).collect();

    FileStore::create(&dir).expect("create store").put(key, &old).expect("write old generation");
    let base = std::fs::read(&log).expect("log after the old generation");
    let record = encoded_record(&root, key, &new);

    // A crash at every byte of the new generation's append: reopening
    // serves the old payload until the whole record landed, and moves a
    // torn tail aside before anything can be appended behind it.
    for cut in 0..=record.len() {
        let mut torn = base.clone();
        torn.extend_from_slice(&record[..cut]);
        std::fs::write(&log, &torn).expect("plant torn append");
        let _ = std::fs::remove_file(&quarantine);
        let reopened = FileStore::open(&dir).expect("reopen after mid-append crash");
        let want = if cut == record.len() { &new } else { &old };
        let read = reopened.fetch(key).expect("one generation must survive");
        assert_eq!(read.bytes(), want, "crash at append byte {cut}");
        if 0 < cut && cut < record.len() {
            assert_eq!(
                std::fs::read(&quarantine).expect("quarantined tail"),
                &record[..cut],
                "the torn tail (cut {cut}) is kept for post-mortem"
            );
            assert_eq!(std::fs::read(&log).unwrap(), base, "and cut off the log (cut {cut})");
        } else {
            assert!(!quarantine.exists(), "nothing torn at cut {cut}");
        }
        // Garbage left in place would hide every later append from the
        // next open.
        reopened.put(key, &new).expect("append after the reopen");
        drop(reopened);
        let again = FileStore::open(&dir).expect("second reopen");
        assert_eq!(again.fetch(key).expect("new generation").bytes(), new, "cut {cut}");
    }

    // Rot in one mid-log header loses that record only. A rotted level or
    // plane field still verifies (the checksum covers the payload) and so
    // names some other key; only the manifest check above a store can
    // refuse that copy.
    let keys = [(0usize, 0u32), (0, 1), (0, 2)];
    let dir = root.join("rot");
    let store = FileStore::create(&dir).expect("create store");
    for (i, key) in keys.iter().enumerate() {
        store.put(*key, &old[i * 100..]).expect("write");
    }
    drop(store);
    let log = dir.join("segments.pmrs");
    let clean = std::fs::read(&log).unwrap();
    let (_, middle) = common::segment_records(&clean)[1].clone();
    for at in middle.start..middle.start + common::SEG_HEADER {
        let mut rotted = clean.clone();
        rotted[at] ^= 0xa5;
        std::fs::write(&log, &rotted).unwrap();
        let reopened = FileStore::open(&dir).expect("reopen over a rotted header");
        assert!(!reopened.contains(keys[1]), "rotted header byte {at} still served");
        for i in [0, 2] {
            let read = reopened.fetch(keys[i]).expect("neighbours of the rot survive");
            assert_eq!(read.bytes(), &old[i * 100..], "header byte {at}");
        }
        assert_eq!(std::fs::read(&log).unwrap(), rotted, "mid-log rot stays in place");
    }
    let _ = std::fs::remove_dir_all(&root);
}
