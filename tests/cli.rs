//! End-to-end tests of the `pmrtool` command-line interface.

mod common;

use pmr_json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

fn pmrtool() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pmrtool"))
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pmrtool_test_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn gen_compress_info_retrieve_pipeline() {
    let dir = tempdir("pipeline");
    // Generate two WarpX snapshots.
    let out = pmrtool()
        .args(["gen", "warpx"])
        .arg(&dir)
        .args(["--size", "12", "--snapshots", "2", "--field", "Ex"])
        .output()
        .expect("run pmrtool gen");
    assert!(out.status.success(), "gen failed: {}", String::from_utf8_lossy(&out.stderr));
    let field_path = dir.join("E_x_t0000.pmrf");
    assert!(field_path.exists());

    // Compress.
    let artifact = dir.join("ex.pmrc");
    let out = pmrtool()
        .arg("compress")
        .arg(&field_path)
        .arg(&artifact)
        .args(["--levels", "4", "--planes", "20", "--mode", "l2"])
        .output()
        .unwrap();
    assert!(out.status.success(), "compress failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(artifact.exists());

    // Info prints the metadata.
    let out = pmrtool().arg("info").arg(&artifact).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("E_x"), "info output missing field name: {text}");
    assert!(text.contains("12x12x12"));
    assert!(text.contains("4 x 20 planes"));

    // Retrieve at a relative bound and verify the reconstruction obeys it.
    let restored = dir.join("restored.pmrf");
    let out = pmrtool()
        .arg("retrieve")
        .arg(&artifact)
        .arg(&restored)
        .args(["--rel", "1e-3"])
        .output()
        .unwrap();
    assert!(out.status.success(), "retrieve failed: {}", String::from_utf8_lossy(&out.stderr));
    let original = pmr::field::io::load(&field_path).unwrap();
    let approx = pmr::field::io::load(&restored).unwrap();
    let bound = 1e-3 * original.value_range();
    let err = pmr::field::error::max_abs_error(original.data(), approx.data());
    assert!(err <= bound, "bound {bound:.3e} violated ({err:.3e})");

    std::fs::remove_dir_all(&dir).ok();
}

/// A blob in the retired block-codec artifact layout (`PMRB1`, which had
/// no checksums) is refused by the loader and by every `pmrtool` command
/// that reads an artifact: the one artifact format is the verified one.
#[test]
fn a_block_codec_artifact_is_refused() {
    use pmr::mgard::LevelEncoding;
    use pmr::sim::{warpx_field, WarpXConfig, WarpXField};

    let field = warpx_field(
        &WarpXConfig { size: 12, snapshots: 1, ..Default::default() },
        WarpXField::Bx,
        0,
    );
    // Magic, then name, timestep and shape as an mgard artifact lays them
    // out, the value range, and an embedded plane stream (the layout
    // carried the block-transform coefficients; the loader stops at the
    // magic, so the field's own values stand in for them).
    let mut blob = b"PMRB1\0".to_vec();
    blob.extend((field.name().len() as u32).to_le_bytes());
    blob.extend(field.name().as_bytes());
    blob.extend((field.timestep() as u64).to_le_bytes());
    let shape = field.shape();
    for v in [shape.ndim(), shape.dim(0), shape.dim(1), shape.dim(2)] {
        blob.extend((v as u32).to_le_bytes());
    }
    blob.extend(field.value_range().to_le_bytes());
    blob.extend(LevelEncoding::encode(field.data(), 32).to_bytes().expect("serialize"));
    let err = pmr::mgard::persist::from_bytes(&blob).expect_err("a PMRB1 blob is refused");
    assert!(
        matches!(&err, pmr::PmrError::Malformed { detail, .. } if detail == "bad magic"),
        "{err}"
    );

    let dir = tempdir("pmrb1");
    let artifact = dir.join("bx.pmrb");
    std::fs::write(&artifact, &blob).unwrap();
    let out = pmrtool().arg("info").arg(&artifact).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "info: {}", String::from_utf8_lossy(&out.stdout));
    let out = pmrtool()
        .arg("retrieve")
        .arg(&artifact)
        .arg(dir.join("restored.pmrf"))
        .args(["--rel", "1e-3"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "retrieve: {}", String::from_utf8_lossy(&out.stdout));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn grayscott_generation_works() {
    let dir = tempdir("gs");
    let out = pmrtool()
        .args(["gen", "grayscott"])
        .arg(&dir)
        .args(["--size", "8", "--snapshots", "2", "--species", "v"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(dir.join("D_v_t0000.pmrf").exists());
    assert!(dir.join("D_v_t0001.pmrf").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_invocations_fail_cleanly() {
    // Unknown subcommand.
    let out = pmrtool().arg("explode").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    // Retrieve without a bound.
    let out = pmrtool().args(["retrieve", "a.pmrc", "b.pmrf"]).output().unwrap();
    assert!(!out.status.success());

    // Missing input file.
    let out = pmrtool().args(["info", "/nonexistent/definitely_missing.pmrc"]).output().unwrap();
    assert!(!out.status.success());

    // A flag a subcommand does not know fails, it is not ignored.
    let out = pmrtool().args(["faultsim", "--diff", "baseline.json"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--diff"));
}

#[test]
fn missing_input_reports_path_and_exits_nonzero() {
    let out =
        pmrtool().args(["compress", "/nonexistent/in.pmrf", "/tmp/out.pmrc"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "no error line: {stderr}");
    assert!(stderr.contains("/nonexistent/in.pmrf"), "message must name the path: {stderr}");
}

#[test]
fn corrupt_artifact_is_rejected_with_a_readable_message() {
    let dir = tempdir("corrupt");

    // Garbage bytes: wrong magic.
    let garbage = dir.join("garbage.pmrc");
    std::fs::write(&garbage, b"not an artifact at all").unwrap();
    let out = pmrtool().arg("info").arg(&garbage).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "{stderr}");

    // Right magic, mangled payload: must fail parsing, not panic.
    let blob_src = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/poly-1d.pmr");
    let mut blob = std::fs::read(&blob_src).expect("golden blob present");
    let mid = blob.len() / 2;
    blob[mid] ^= 0xFF;
    blob.truncate(blob.len() - 7);
    let mangled = dir.join("mangled.pmrc");
    std::fs::write(&mangled, &blob).unwrap();
    let out = pmrtool()
        .arg("retrieve")
        .arg(&mangled)
        .arg(dir.join("out.pmrf"))
        .args(["--rel", "1e-3"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "mangled artifact must not succeed");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "panic instead of error? {stderr}");
    assert!(!stderr.contains("panicked"), "decoder panicked on corrupt input: {stderr}");

    // Hostile `.pmrf` headers (`ndim, dx, dy, dz`): a zero extent, and 2^21
    // per side, whose byte count wraps to 0 and used to match an empty tail.
    for (tag, header) in [("zero", [1u32, 0, 1, 1]), ("wrap", [3, 1 << 21, 1 << 21, 1 << 21])] {
        let mut bytes = b"PMRF1\0\0\0".to_vec();
        bytes.extend(header.iter().flat_map(|v| v.to_le_bytes()));
        bytes.extend([0u8; 12]); // timestep, empty name, no data
        let hostile = dir.join(format!("{tag}.pmrf"));
        std::fs::write(&hostile, &bytes).unwrap();
        let out =
            pmrtool().arg("compress").arg(&hostile).arg(dir.join("out.pmrc")).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{tag}: {stderr}");
        assert!(stderr.contains("error: malformed field"), "{tag}: {stderr}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn zero_threads_is_rejected_by_the_builder() {
    let dir = tempdir("threads");
    pmrtool()
        .args(["gen", "warpx"])
        .arg(&dir)
        .args(["--size", "8", "--snapshots", "1"])
        .output()
        .unwrap();
    let field_path = dir.join("J_x_t0000.pmrf");
    assert!(field_path.exists());
    let out = pmrtool()
        .arg("compress")
        .arg(&field_path)
        .arg(dir.join("out.pmrc"))
        .args(["--threads", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "{stderr}");
    assert!(stderr.to_lowercase().contains("thread"), "message should mention threads: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn conformance_verifies_checked_in_golden_artifacts() {
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let out =
        pmrtool().args(["conformance", "--golden-only", "--golden"]).arg(&golden).output().unwrap();
    assert!(
        out.status.success(),
        "golden verification failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("verified"));

    // A tampered copy must fail with a checksum complaint and exit 1.
    let dir = tempdir("golden_tamper");
    for entry in std::fs::read_dir(&golden).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
    let victim = dir.join("ridge-2d.pmr");
    let mut blob = std::fs::read(&victim).unwrap();
    let last = blob.len() - 1;
    blob[last] ^= 0x01;
    std::fs::write(&victim, &blob).unwrap();
    let out =
        pmrtool().args(["conformance", "--golden-only", "--golden"]).arg(&dir).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("checksum"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn faultsim_runs_the_quick_grid_and_writes_a_report() {
    let dir = tempdir("faultsim");
    let report = dir.join("faults.json");
    let out = pmrtool()
        .args(["faultsim", "--grid", "quick", "--seed", "17", "--report"])
        .arg(&report)
        .output()
        .unwrap();
    assert!(out.status.success(), "faultsim failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("fault grid:"), "missing summary line: {stdout}");
    let json = read_json(&report);
    assert_eq!(json.get("grid").and_then(Json::as_str), Some("quick"), "{json:?}");
    let grid = json.get("report").expect("report object");
    assert_eq!(
        grid.get("passed"),
        Some(&Json::Bool(true)),
        "fault grid reported failures: {json:?}"
    );
    assert!(grid.get("honest_verified").and_then(Json::as_usize).is_some(), "{json:?}");
    assert!(grid.get("rot_detected").and_then(Json::as_usize).is_some(), "the sharded cells ran");

    // Unknown grid names are rejected cleanly.
    let out = pmrtool().args(["faultsim", "--grid", "bogus"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn faultsim_rejects_flags_it_does_not_take() {
    // The sharded cells are part of the one grid: a leftover `--shards`
    // must fail loudly rather than run the grid without it.
    let out = pmrtool().args(["faultsim", "--shards", "--grid", "quick"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("not --shards"), "{stderr}");
}

#[test]
fn shard_and_scrub_roundtrip_detects_and_repairs_rot() {
    let dir = tempdir("shard_scrub");
    pmrtool()
        .args(["gen", "warpx"])
        .arg(&dir)
        .args(["--size", "10", "--snapshots", "1", "--field", "Jx"])
        .output()
        .unwrap();
    let field_path = dir.join("J_x_t0000.pmrf");
    let artifact = dir.join("jx.pmrc");
    let out = pmrtool().arg("compress").arg(&field_path).arg(&artifact).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // Lay the artifact out as a 3-shard R=2 corpus with a hot tier.
    let corpus = dir.join("corpus");
    let out = pmrtool()
        .arg("shard")
        .arg(&artifact)
        .arg(&corpus)
        .args(["--shards", "3", "--replication", "2", "--hot-planes", "1"])
        .output()
        .unwrap();
    assert!(out.status.success(), "shard failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(corpus.join("shard.meta").exists());
    assert!(corpus.join("shard_000").is_dir() && corpus.join("hot").is_dir());

    // A fresh corpus scrubs clean. Flags go first: a bare `--repair` must
    // not swallow the corpus directory as its value.
    let scrub = |extra: &[&str]| {
        let mut cmd = pmrtool();
        cmd.arg("scrub").args(extra).arg(&corpus).arg("--manifest").arg(&artifact);
        cmd.output().unwrap()
    };
    let out = scrub(&[]);
    assert!(out.status.success(), "clean scrub failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("scrub:"));

    // Rot one replica on disk: flip a payload byte of some shard segment.
    let victim = corpus.join("shard_000/segments.pmrs");
    let mut bytes = std::fs::read(&victim).unwrap();
    let (_, span) = common::segment_records(&bytes)
        .into_iter()
        .find(|(_, span)| span.len() > common::SEG_HEADER)
        .expect("a non-empty segment on shard 0");
    bytes[span.end - 1] ^= 0x40;
    std::fs::write(&victim, &bytes).unwrap();

    // Scrub detects the rot and exits non-zero.
    let report = dir.join("scrub.json");
    let out = scrub(&["--report", report.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "dirty corpus must exit 1");
    assert_eq!(read_json(&report).get("clean"), Some(&Json::Bool(false)));

    // Repair rewrites the replica from the surviving good copy...
    let out = scrub(&["--repair"]);
    assert!(out.status.success(), "repair failed: {}", String::from_utf8_lossy(&out.stderr));
    // ...after which the corpus scrubs clean again.
    let out = scrub(&[]);
    assert!(
        out.status.success(),
        "post-repair scrub dirty: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    std::fs::remove_dir_all(&dir).ok();
}

fn read_json(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).expect("report written");
    pmr_json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}\n{text}", path.display()))
}
