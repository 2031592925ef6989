//! Fault-tolerant retrieval end to end: file-backed segment stores under
//! injected faults, on-disk corruption caught by checksums, and
//! backward-compatible loading of pre-checksum (`PMRC1`) artifacts.

mod common;

use std::path::PathBuf;

use pmr::conformance::{check_outcome, Verdict};
use pmr::core::{retrieve, Backend, Dataset, RetrievalRequest, Theory};
use pmr::field::{Field, Shape};
use pmr::mgard::{persist, CompressConfig, Compressed};
use pmr::storage::{FaultConfig, FaultInjector, FileStore, TolerantConfig};

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pmr_fault_test_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn artifact() -> (Field, Compressed) {
    let field = Field::from_fn("ridge", 0, Shape::d2(33, 21), |x, y, _| {
        let u = x as f64 / 33.0 - 0.5;
        let v = y as f64 / 21.0 - 0.5;
        4.0 * u * u - 2.0 * v * v + 3.0 * u * v
    });
    let cfg = CompressConfig { levels: 4, num_planes: 24, ..Default::default() };
    let c = Compressed::compress(&field, &cfg);
    (field, c)
}

/// The reported-bound contract holds over a file-backed store wrapped in a
/// seeded injector: clean runs satisfy the requested bound, degraded runs
/// satisfy the honest re-estimated one.
#[test]
fn file_store_under_injected_faults_honours_reported_bound() {
    let dir = tempdir("injected");
    let (field, c) = artifact();
    let store = FileStore::write_from(&c, &dir).expect("persist segments");
    let cfg = TolerantConfig::default();
    for seed in 0..4u64 {
        let inj = FaultInjector::new(
            FileStore::open(store.dir()).expect("reopen"),
            FaultConfig::flaky(seed),
        )
        .expect("valid config");
        let bound = c.absolute_bound(1e-3);
        let req = RetrievalRequest::abs(bound).with_tolerant(cfg.clone());
        let backend = Backend::store(&inj);
        let out = retrieve(&Dataset::new(&c), &Theory, &req, &backend).expect("no hard failure");
        let healthy = c.retrieve(&c.plan_theory(bound));
        check_outcome(&field, &c, bound, &out.field, out.degraded.as_ref(), &healthy)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        if let Some(deg) = &out.degraded {
            assert!(!deg.lost_segments.is_empty());
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Bit rot on disk (no injector involved): the per-segment checksum in the
/// segment's log record catches the damage, the level's prefix is truncated at the
/// corrupt plane, and the degraded report stays honest.
#[test]
fn on_disk_corruption_is_caught_and_degrades_honestly() {
    let dir = tempdir("bitrot");
    let (field, c) = artifact();
    let store = FileStore::write_from(&c, &dir).expect("persist segments");
    let bound = c.absolute_bound(1e-4);
    let plan = c.plan_theory(bound);
    assert!(plan.planes[0] > 2, "plan must want the plane we corrupt");

    // Flip the last payload byte of segment (level 0, plane 1) in the log.
    let log = dir.join("segments.pmrs");
    let mut bytes = std::fs::read(&log).expect("segment log present");
    let (_, span) = common::segment_records(&bytes)
        .into_iter()
        .find(|(key, _)| *key == (0, 1))
        .expect("segment (0, 1) in the log");
    bytes[span.end - 1] ^= 0x40;
    std::fs::write(&log, &bytes).unwrap();

    let backend = Backend::store(&store);
    let out = retrieve(&Dataset::new(&c), &Theory, &RetrievalRequest::abs(bound), &backend)
        .expect("corruption must degrade, not hard-fail");
    let deg = out.degraded.as_ref().expect("unrecoverable corruption degrades the retrieval");
    assert!(deg.lost_segments.contains(&(0, 1)), "lost: {:?}", deg.lost_segments);
    assert!(out.planes[0] <= 1, "level 0 prefix must stop before the corrupt plane");
    let stats = out.stats.as_ref().expect("store path records stats");
    assert!(stats.corruptions > 0, "checksum mismatches must be counted");
    let healthy = c.retrieve(&plan);
    let verdict = check_outcome(&field, &c, bound, &out.field, Some(deg), &healthy);
    assert_eq!(verdict, Ok(Verdict::HonestVerified));
    std::fs::remove_dir_all(&dir).ok();
}

/// Pre-checksum (`PMRC1`) blobs written before this release still load —
/// the checked-in legacy golden is the proof — and upgrade to a `PMRC2`
/// blob that retrieves the very same field.
#[test]
fn legacy_v1_golden_artifact_still_loads() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/poly-1d.legacy-v1.pmr");
    let blob = std::fs::read(&path).expect("legacy fixture checked in");
    assert_eq!(&blob[..6], b"PMRC1\0");

    let c = persist::from_bytes(&blob).expect("v1 blob must keep loading");
    assert_eq!(c.name(), "poly-1d");

    // The current writer upgrades it to a checksummed v2 blob that also
    // round-trips (`persist::tests` pins the byte layout of the upgrade).
    let v2 = persist::to_bytes(&c).expect("serialize");
    assert_eq!(&v2[..6], b"PMRC2\0");
    assert!(v2.len() > blob.len(), "v2 adds the checksum table");
    let reparsed = persist::from_bytes(&v2).expect("v2 round-trip");
    assert_eq!(persist::to_bytes(&reparsed).unwrap(), v2);

    // And the decoded artifact still honours the theory contract, with the
    // upgraded blob retrieving exactly what the legacy one does.
    let bound = c.absolute_bound(1e-3);
    let plan = c.plan_theory(bound);
    assert!(plan.estimated_error <= bound);
    assert_eq!(c.retrieve(&plan).data(), reparsed.retrieve(&plan).data());
}
