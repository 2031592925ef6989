//! End-to-end tests of the `pmrtool` command-line interface.

mod common;

use pmr_analyze::lints::LINT_IDS;
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

#[test]
fn block_codec_pipeline() {
    let dir = tempdir("block");
    pmrtool()
        .args(["gen", "warpx"])
        .arg(&dir)
        .args(["--size", "12", "--snapshots", "1", "--field", "Bx"])
        .output()
        .unwrap();
    let field_path = dir.join("B_x_t0000.pmrf");
    let artifact = dir.join("bx.pmrb");
    let out = pmrtool()
        .arg("compress")
        .arg(&field_path)
        .arg(&artifact)
        .args(["--codec", "block", "--planes", "28"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // Info dispatches on the magic.
    let out = pmrtool().arg("info").arg(&artifact).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("block codec"));

    // Retrieval respects the bound.
    let restored = dir.join("restored.pmrf");
    let out = pmrtool()
        .arg("retrieve")
        .arg(&artifact)
        .arg(&restored)
        .args(["--rel", "1e-4"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let original = pmr::field::io::load(&field_path).unwrap();
    let approx = pmr::field::io::load(&restored).unwrap();
    let bound = 1e-4 * original.value_range();
    let err = pmr::field::error::max_abs_error(original.data(), approx.data());
    assert!(err <= bound, "bound {bound:.3e} violated ({err:.3e})");
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

    // `analyze` has one mode: a flag it does not know fails, it is not ignored.
    let out = pmrtool().args(["analyze", "--diff", "baseline.json"]).output().unwrap();
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

#[test]
fn analyze_reports_violations_with_exit_1_and_stable_json() {
    // Build a miniature workspace with one deliberate violation on a
    // lint-scoped path.
    let dir = tempdir("analyze");
    let src = dir.join("crates/mgard/src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(src.join("lib.rs"), "pub fn f(v: &[u8]) -> u8 { *v.first().unwrap() }\n")
        .unwrap();

    let report = dir.join("analyze.json");
    let run = || {
        pmrtool()
            .args(["analyze", "--root"])
            .arg(&dir)
            .arg("--report")
            .arg(&report)
            .output()
            .unwrap()
    };
    let out = run();
    assert_eq!(out.status.code(), Some(1), "violations must exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("panic_reach"), "summary names the lint: {stdout}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("static-analysis violation"),
        "stderr names the failure"
    );
    let json1 = read_json(&report);
    assert_eq!(lint_count(&json1, "panic_reach"), Some(1), "{json1:?}");
    let violations = json1.get("violations").and_then(Json::as_arr).expect("violations");
    assert_eq!(violations[0].get("file").and_then(Json::as_str), Some("crates/mgard/src/lib.rs"));
    let timing = json1.get("timing").and_then(|t| t.get("wall_ms"));
    assert!(timing.and_then(Json::as_f64).is_some(), "workspace runs record timing: {json1:?}");

    // The report is the same across runs, timing aside (wall time is the
    // one legitimately volatile field).
    let out = run();
    assert_eq!(out.status.code(), Some(1));
    let json2 = read_json(&report);
    assert_eq!(strip_timing(json1), strip_timing(json2), "analyze report must be deterministic");

    // An inline waiver flips the run green but keeps the audit trail.
    std::fs::write(
        src.join("lib.rs"),
        "// lint:allow(panic_reach): fixture\npub fn f(v: &[u8]) -> u8 { *v.first().unwrap() }\n",
    )
    .unwrap();
    let out = run();
    assert!(out.status.success(), "waived run must pass: {}", String::from_utf8_lossy(&out.stderr));
    let json3 = read_json(&report);
    assert_eq!(lint_count(&json3, "panic_reach"), Some(0), "{json3:?}");
    let allowed = json3.get("allowed").and_then(Json::as_arr).expect("allowed");
    assert_eq!(allowed[0].get("reason").and_then(Json::as_str), Some("fixture"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Parse a JSON report the CLI wrote to `path`.
fn read_json(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).expect("report written");
    pmr_json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}\n{text}", path.display()))
}

/// An analyze report's summary count for `lint`.
fn lint_count(report: &Json, lint: &str) -> Option<usize> {
    report.get("summary")?.get(lint)?.as_usize()
}

/// An analyze report minus its one volatile key, `timing`.
fn strip_timing(report: Json) -> Json {
    match report {
        Json::Obj(pairs) => Json::Obj(pairs.into_iter().filter(|(k, _)| k != "timing").collect()),
        other => other,
    }
}

#[test]
fn analyze_catches_planted_regressions() {
    // The analyzer's real catches, replayed: copy the workspace's sources to
    // a scratch root (no config file exists anywhere — the scope table is in
    // the binary), plant one regression at a time, expect exit 1 naming the
    // lint. Each plant is an exact-string replace, so a refactor that moves
    // an anchor fails here loudly instead of turning a probe into a no-op.
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = tempdir("analyze_planted");
    common::copy_tree(&repo.join("src"), &root.join("src"));
    for member in std::fs::read_dir(repo.join("crates")).unwrap() {
        let member = member.unwrap();
        let src = member.path().join("src");
        if src.is_dir() {
            common::copy_tree(&src, &root.join("crates").join(member.file_name()).join("src"));
        }
    }
    let analyze = || pmrtool().args(["analyze", "--root"]).arg(&root).output().unwrap();
    let out = analyze();
    assert!(
        out.status.success(),
        "the unedited copy must be clean:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );

    // Each probe: the file, its exact-string edits, and the lint that must
    // name the planted bug in that file.
    type Probe = (&'static str, &'static [(&'static str, &'static str)], &'static str);
    let probes: &[Probe] = &[
        // PR 19: a header field sizes an allocation before the cap.
        (
            "crates/field/src/io.rs",
            &[(
                "    let points = dx.checked_mul(dy)",
                "    let early: Vec<u8> = Vec::with_capacity(dx);\n    let points = dx.checked_mul(dy)",
            )],
            "taint_alloc",
        ),
        // PR 20: a level is decoded with its digests never compared.
        (
            "crates/mgard/src/persist.rs",
            &[("            verify_checksums(l, &enc, &table[l])?;\n", "")],
            "checksum_gate",
        ),
        // PR 9: a wire count sizes a Vec without the frame cap.
        (
            "crates/pmrd/src/protocol.rs",
            &[(
                "    if n > MAX_WIRE_LIST {\n        \
                 return Err(proto_err(format!(\"{what} count {n} exceeds {MAX_WIRE_LIST}\")));\n    \
                 }\n",
                "",
            )],
            "taint_alloc",
        ),
        // A wire string length slices the frame directly instead of going
        // through the shared reader's bounds-checked string read.
        (
            "crates/pmrd/src/protocol.rs",
            &[("Ok(r.str(len)?.to_owned())", "Ok(String::from_utf8_lossy(&r.rest()[..len]).into_owned())")],
            "taint_index",
        ),
        // A sleep under the plane-cache lock, in `get_or_fetch`.
        (
            "crates/pmrd/src/cache.rs",
            &[(
                "        let mut guard = self.lock();\n        guard.inflight.remove(&key);",
                "        let mut guard = self.lock();\n        \
                 std::thread::sleep(std::time::Duration::from_millis(1));\n        \
                 guard.inflight.remove(&key);",
            )],
            "blocking_under_lock",
        ),
        // A sleep under the worker pool's lock, in `offer_task`.
        (
            "crates/mgard/src/exec.rs",
            &[(
                "            let mut st = self.lock();\n",
                "            let mut st = self.lock();\n            \
                 std::thread::sleep(std::time::Duration::from_millis(1));\n",
            )],
            "blocking_under_lock",
        ),
        // The pool's lock taken twice in `offer_task`: a self-deadlock.
        (
            "crates/mgard/src/exec.rs",
            &[(
                "            let mut st = self.lock();\n",
                "            let mut st = self.lock();\n            let _again = self.lock();\n",
            )],
            "lock_order",
        ),
        // An AB/BA cycle in `FaultInjector`: `log()` takes `attempts` under
        // `log`, while `fetch` records a fault under `attempts`.
        (
            "crates/storage/src/fault.rs",
            &[
                (
                    "        self.log.lock().unwrap_or_else(|p| p.into_inner()).clone()\n",
                    "        let log = self.log.lock().unwrap_or_else(|p| p.into_inner());\n        \
                     let _seen = self.attempts.lock().unwrap_or_else(|p| p.into_inner()).len();\n        \
                     log.clone()\n",
                ),
                (
                    "            *n += 1;\n",
                    "            *n += 1;\n            self.record(key, *n, FaultKind::Transient);\n",
                ),
            ],
            "lock_order",
        ),
        // A batch result unwrapped in `fan_out` instead of flattened.
        (
            "crates/mgard/src/exec.rs",
            &[("out.into_iter().flatten().collect()", "out.into_iter().map(|s| s.unwrap()).collect()")],
            "panic_reach",
        ),
        // A pool retraction asserted `Send` by hand.
        (
            "crates/mgard/src/exec.rs",
            &[(
                "struct Retract<'a>(&'a Shared);\n",
                "struct Retract<'a>(&'a Shared);\n\n\
                 // SAFETY: a retraction only touches the pool's mutex.\n\
                 unsafe impl Send for Retract<'_> {}\n",
            )],
            "send_sync_impl",
        ),
    ];
    // Every lint proves a catch on this code base; `stale_suppression` has
    // its own test. The probes of the checks handed to clippy and rustc
    // (undocumented `unsafe`, lossy casts, nondeterminism, discarded
    // `Result`s) are `tools/clippy_probes.sh`'s.
    for id in LINT_IDS.iter().filter(|&&id| id != "stale_suppression") {
        assert!(probes.iter().any(|&(.., lint)| lint == *id), "lint {id} has no probe here");
    }
    for &(file, edits, lint) in probes {
        let path = root.join(file);
        let original = std::fs::read_to_string(&path).unwrap();
        let mut planted = original.clone();
        for &(anchor, edit) in edits {
            assert!(planted.contains(anchor), "anchor moved in {file}: {anchor:?}");
            planted = planted.replacen(anchor, edit, 1);
        }
        std::fs::write(&path, planted).unwrap();
        let out = analyze();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(1), "{lint} probe in {file} went silent:\n{stdout}");
        let finding = format!("{file}:");
        assert!(
            stdout.lines().any(|l| l.starts_with(&finding) && l.contains(&format!("[{lint}]"))),
            "{lint} probe in {file} must be named:\n{stdout}"
        );
        std::fs::write(&path, original).unwrap();
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn analyze_explain_prints_lint_documentation() {
    // One doc table drives --explain; each entry renders semantics, known
    // false-positive patterns, and the waiver syntax.
    let out = pmrtool().args(["analyze", "--explain", "blocking_under_lock"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("What it checks"), "{stdout}");
    assert!(stdout.contains("Known false-positive patterns"), "{stdout}");
    assert!(stdout.contains("lint:allow(blocking_under_lock)"), "{stdout}");

    let out = pmrtool().args(["analyze", "--explain", "no_such_lint"]).output().unwrap();
    assert!(!out.status.success(), "unknown lint ids must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no_such_lint"), "{stderr}");
    assert!(stderr.contains("checksum_gate"), "the error lists the known lints: {stderr}");
}

#[test]
fn analyze_fails_on_stale_suppressions() {
    let dir = tempdir("analyze_stale");
    let src = dir.join("crates/mgard/src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(
        src.join("lib.rs"),
        "// lint:allow(panic_reach): nothing panics here anymore\npub fn calm() {}\n",
    )
    .unwrap();
    let out = pmrtool().args(["analyze", "--root"]).arg(&dir).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "a waiver that matches nothing must fail");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("stale_suppression"), "{stdout}");
    assert!(stdout.contains("crates/mgard/src/lib.rs:1:"), "the finding points at it: {stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_passes_on_this_workspace() {
    // The repository itself must stay lint-clean under its own analyzer —
    // the same invariant CI enforces — and the answer must not depend on
    // where the command is run from: `--root .` at the repo root and
    // `--root <abs path>` from elsewhere write the same report.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let elsewhere = tempdir("analyze_self");
    let run = |cwd: &Path, root_arg: &Path, name: &str| {
        let report = elsewhere.join(name);
        let out = pmrtool()
            .current_dir(cwd)
            .args(["analyze", "--root"])
            .arg(root_arg)
            .arg("--report")
            .arg(&report)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "workspace has unwaived violations:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
        strip_timing(read_json(&report))
    };
    let here = run(root, Path::new("."), "here.json");
    let there = run(&elsewhere, root, "there.json");
    assert_eq!(here, there, "the report depends on the working directory");

    // The whole waiver surface, pinned in report order: a new inline waiver
    // is a reviewed edit of this list, never a silent one.
    let waived: Vec<(&str, &str)> = here
        .get("allowed")
        .and_then(Json::as_arr)
        .expect("allowed")
        .iter()
        .map(|a| {
            (
                a.get("lint").and_then(Json::as_str).unwrap(),
                a.get("file").and_then(Json::as_str).unwrap(),
            )
        })
        .collect();
    let expected = [
        ("panic_reach", "crates/core/src/emgard.rs"),
        ("panic_reach", "crates/core/src/records.rs"),
        ("blocking_under_lock", "crates/pmrd/src/server.rs"),
        ("blocking_under_lock", "crates/storage/src/segment.rs"),
        ("blocking_under_lock", "crates/storage/src/segment.rs"),
    ];
    assert_eq!(waived, expected);
    std::fs::remove_dir_all(&elsewhere).ok();
}
