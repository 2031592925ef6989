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
//! * A crash at any point of a segment write leaves the old file or the
//!   new file under the final name — never a torn one.

use pmr::core::{retrieve, Backend, Dataset, RetrievalRequest, Theory};
use pmr::field::{Field, Shape};
use pmr::mgard::{CompressConfig, Compressed};
use pmr::storage::{
    FileStore, MutableSegmentStore, SegmentStore, ShardConfig, ShardedStore, QUARANTINE_SUFFIX,
};

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
    let ds = Dataset::new(&c).with_original(&field);
    let req = RetrievalRequest::rel(1e-3).measured();
    let direct = retrieve(&ds, &Theory, &req, &Backend::Direct).expect("direct retrieval");

    for dead in 0..4 {
        let store = ShardedStore::mem(&c, cfg.clone()).expect("sharded mem store");
        store.kill_shard(dead);
        let backend = Backend::Store { store: &store, model: None };
        let got = retrieve(&ds, &Theory, &req, &backend)
            .unwrap_or_else(|e| panic!("retrieval with shard {dead} dead failed: {e}"));
        assert!(
            !got.is_degraded(),
            "R=2 must hide the loss of shard {dead}, got {:?}",
            got.degraded
        );
        assert_eq!(
            got.field.data(),
            direct.field.data(),
            "shard {dead} dead: reconstruction differs from Backend::Direct"
        );
        assert_eq!(got.planes, direct.planes, "shard {dead} dead: plane counts diverged");
    }
}

#[test]
fn r1_shard_loss_degrades_honestly_through_backend_store() {
    let (field, c) = artifact();
    let cfg = ShardConfig::try_new(3, 1).expect("3 shards, R=1");
    let ds = Dataset::new(&c).with_original(&field);
    let req = RetrievalRequest::rel(1e-4).measured();

    let mut degraded_seen = 0usize;
    for dead in 0..3 {
        let store = ShardedStore::mem(&c, cfg.clone()).expect("sharded mem store");
        store.kill_shard(dead);
        let backend = Backend::Store { store: &store, model: None };
        let got = retrieve(&ds, &Theory, &req, &backend)
            .unwrap_or_else(|e| panic!("R=1 retrieval with shard {dead} dead failed: {e}"));
        let measured = got.achieved_error.expect("measured() requested");
        match &got.degraded {
            Some(deg) => {
                degraded_seen += 1;
                assert!(
                    measured <= deg.achievable_bound,
                    "shard {dead} dead: measured error {measured} exceeds the \
                     reported achievable bound {}",
                    deg.achievable_bound
                );
                assert!(
                    deg.achievable_bound >= deg.requested_bound,
                    "a degraded retrieval cannot claim a tighter bound than requested"
                );
            }
            None => {
                // The dead shard held nothing this plan needed; the result
                // must then be indistinguishable from a healthy store.
                let direct = retrieve(&ds, &Theory, &req, &Backend::Direct).expect("direct");
                assert_eq!(got.field.data(), direct.field.data());
            }
        }
    }
    assert!(
        degraded_seen > 0,
        "at R=1 losing a shard should degrade at least one of the three kills"
    );
}

/// Read back the exact on-disk encoding the store produces for `payload`,
/// by writing it through the public API in a scratch directory.
fn encoded_segment_bytes(dir: &std::path::Path, payload: &[u8]) -> Vec<u8> {
    let scratch = dir.join("encode_scratch");
    let fs = FileStore::create(&scratch).expect("scratch store");
    fs.put((0, 0), payload).expect("scratch write");
    std::fs::read(scratch.join("seg_000_000.pmrs")).expect("read encoded segment")
}

#[test]
fn crash_during_write_leaves_old_or_new_segment_never_torn() {
    let root = std::env::temp_dir().join(format!("pmr_crash_test_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("test root");
    let dir = root.join("segs");
    let key = (0usize, 0u32);
    let old: Vec<u8> = (0..512u32).map(|i| (i % 251) as u8).collect();
    let new: Vec<u8> = (0..768u32).map(|i| (i.wrapping_mul(37) % 253) as u8).collect();

    let store = FileStore::create(&dir).expect("create store");
    store.put(key, &old).expect("write old generation");
    let encoded_new = encoded_segment_bytes(&root, &new);
    let tmp_name = dir.join(".seg_000_000.pmrs.tmp");
    let final_name = dir.join("seg_000_000.pmrs");
    drop(store);

    // Crash at every prefix of the temp-file write: the rename never ran,
    // so reopening must serve the OLD payload and sweep the stale temp.
    for cut in [0, 1, 6, 25, 26, encoded_new.len() / 2, encoded_new.len()] {
        std::fs::write(&tmp_name, &encoded_new[..cut]).expect("plant torn tmp");
        let reopened = FileStore::open(&dir).expect("reopen after mid-write crash");
        let read = reopened.fetch(key).expect("old generation must survive");
        assert_eq!(read.bytes(), old, "crash at tmp byte {cut} must leave the old payload");
        assert!(!tmp_name.exists(), "stale tmp (cut {cut}) must be swept on open");
    }

    // Crash immediately after the rename: the NEW payload is complete under
    // the final name and must be served verbatim.
    std::fs::write(&final_name, &encoded_new).expect("complete rename state");
    let reopened = FileStore::open(&dir).expect("reopen after post-rename crash");
    assert_eq!(reopened.fetch(key).expect("new generation").bytes(), new);

    // A torn file under the FINAL name (what a non-atomic writer would
    // leave) is the one state that must never be served: open quarantines
    // it rather than indexing garbage.
    std::fs::write(&final_name, &encoded_new[..encoded_new.len() - 7]).expect("tear final");
    let reopened = FileStore::open(&dir).expect("reopen over torn final file");
    assert!(
        reopened.fetch(key).is_err(),
        "a torn final file must not be served as a clean segment"
    );
    assert!(!final_name.exists(), "torn file must be moved aside");
    let mut quarantined = final_name.clone().into_os_string();
    quarantined.push(QUARANTINE_SUFFIX);
    assert!(
        std::path::Path::new(&quarantined).exists(),
        "torn final file must be quarantined for post-mortem, not deleted"
    );
    let _ = std::fs::remove_dir_all(&root);
}
