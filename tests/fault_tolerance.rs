//! Fault-tolerant retrieval end to end: file-backed segment stores under
//! injected faults, on-disk corruption caught by checksums, and no artifact
//! loaded without them.

mod common;

use std::path::PathBuf;
use std::process::Command;

use pmr::conformance::{check_outcome, Verdict};
use pmr::core::{retrieve, Backend, Dataset, RetrievalRequest, Theory};
use pmr::field::{Field, Shape};
use pmr::mgard::{persist, CompressConfig, Compressed};
use pmr::storage::{FaultConfig, FaultInjector, FileStore, TolerantConfig};
use pmr::PmrError;

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

/// A pre-checksum `PMRC1` blob — a golden without its checksum table, under
/// the retired magic — is refused, by the loader and by `pmrtool info`:
/// no load skips verification.
#[test]
fn a_pre_checksum_blob_is_refused() {
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/poly-1d.pmr");
    let v2 = std::fs::read(&golden).expect("golden checked in");
    let c = persist::from_bytes(&v2).expect("golden loads");
    // Magic, name, timestep, shape, level count, mode and value range
    // precede the table.
    let at = 6 + 4 + c.name().len() + 8 + 16 + 4 + 1 + 8;
    let table: usize = c.levels().iter().map(|l| 4 + 8 * l.num_planes() as usize).sum();
    let v1 = [&b"PMRC1\0"[..], &v2[6..at], &v2[at + table..]].concat();
    let err = persist::from_bytes(&v1).expect_err("a PMRC1 blob is refused");
    assert!(matches!(&err, PmrError::Malformed { detail, .. } if detail == "bad magic"), "{err}");

    let dir = tempdir("pmrc1");
    let path = dir.join("v1.pmrc");
    std::fs::write(&path, &v1).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_pmrtool")).arg("info").arg(&path).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    std::fs::remove_dir_all(&dir).ok();
}
