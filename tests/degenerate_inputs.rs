//! Regression tests for the error-path hardening pass: degenerate and
//! malformed inputs on the compress/retrieve/fetch paths, and truncated or
//! overlong encodings of every persisted format, must surface as `Err`,
//! never as a panic inside library code.

use pmr::core::{retrieve, Backend, Dataset, RetrievalRequest, Theory};
use pmr::field::{io as field_io, Field, Shape};
use pmr::mgard::{
    persist, CompressConfig, Compressed, DecodeOptions, LevelEncoding, RetrievalPlan,
};
use pmr::nn::{Activation, Matrix, Mlp, Standardizer};
use pmr::storage::{
    ExpectedSegment, FetchError, FetchExecutor, MemStore, RetryPolicy, SegmentStore,
};

fn wave(n: usize) -> Field {
    Field::from_fn("w", 0, Shape::cube(n), |x, y, z| {
        ((x as f64) * 0.4).sin() + ((y as f64) * 0.3).cos() + (z as f64) * 0.02
    })
}

/// `parses` accepts `valid` but rejects, without a panic, every strict
/// prefix of it and `valid` with one byte appended.
fn rejects_truncation_and_trailing_bytes(what: &str, valid: &[u8], parses: impl Fn(&[u8]) -> bool) {
    assert!(parses(valid), "{what}: the valid encoding must parse");
    for cut in 0..valid.len() {
        assert!(!parses(&valid[..cut]), "{what}: {cut}-byte prefix of {} accepted", valid.len());
    }
    let mut longer = valid.to_vec();
    longer.push(0);
    assert!(!parses(&longer), "{what}: a trailing byte was accepted");
}

#[test]
fn zero_sized_field_bytes_are_an_error() {
    // The empty buffer is the ultimate degenerate field file; no header that
    // claims data it does not carry parses either.
    rejects_truncation_and_trailing_bytes("field", &field_io::to_bytes(&wave(5)), |b| {
        field_io::from_bytes(b).is_ok()
    });
}

#[test]
fn truncated_artifact_bytes_are_an_error() {
    let field = wave(9);
    let c = Compressed::compress(&field, &CompressConfig::default());
    rejects_truncation_and_trailing_bytes(
        "mgard artifact",
        &persist::to_bytes(&c).expect("serialize"),
        |b| persist::from_bytes(b).is_ok(),
    );
    // A level is embedded in other formats, so it reports what it consumed
    // instead of rejecting what follows it.
    rejects_truncation_and_trailing_bytes(
        "level encoding",
        &c.levels()[1].to_bytes().expect("serialize"),
        |b| LevelEncoding::from_bytes(b).is_some_and(|(_, used)| used == b.len()),
    );

    let mlp = Mlp::new(&[3, 4, 2], Activation::LeakyRelu(0.01), Activation::Identity, 7);
    rejects_truncation_and_trailing_bytes("mlp model", &mlp.to_bytes(), |b| {
        Mlp::from_bytes(b).is_some()
    });
    let rows = Matrix::from_vec(2, 3, vec![1.0, -2.0, 0.5, 3.0, 4.0, -1.5]);
    rejects_truncation_and_trailing_bytes(
        "standardizer",
        &Standardizer::fit(&rows).to_bytes(),
        |b| Standardizer::from_bytes(b).is_some(),
    );
    // D-MGARD and E-MGARD: `pmr-core`'s proptests, beside their hostile
    // length fields.
}

#[test]
fn mismatched_plan_is_an_error_not_a_panic() {
    let field = wave(9);
    let c = Compressed::compress(&field, &CompressConfig::default());
    // A plan for the wrong number of levels is a caller bug that must be
    // reported, not a panic mid-retrieval.
    let bad = RetrievalPlan { planes: vec![1; c.levels().len() + 2], estimated_error: 0.0 };
    assert!(c.decode_plan(&bad, &DecodeOptions::default()).is_err());
    let ds = Dataset::new(&c).with_original(&field);
    let over = RetrievalRequest::plane_set(bad.planes.clone());
    assert!(retrieve(&ds, &Theory, &over, &Backend::Direct).is_err());
    // A mismatched original (wrong shape) is equally an error.
    let wrong = wave(5);
    let ds = Dataset::new(&c).with_original(&wrong);
    let req = RetrievalRequest::rel(1e-2).measured();
    assert!(retrieve(&ds, &Theory, &req, &Backend::Direct).is_err());
}

#[test]
fn fetch_from_emptied_store_reports_missing() {
    // A store whose segments have all been lost has nothing to retry
    // against: the executor must come back with `Missing`, not panic
    // unwinding `last_err`.
    let c = Compressed::compress(&wave(9), &CompressConfig::default());
    let full = MemStore::from_compressed(&c);
    let keys = full.keys();
    let store = full.without(&keys);
    let mut exec = FetchExecutor::new(&store, RetryPolicy::default());
    let err = exec
        .fetch_verified((0, 0), ExpectedSegment::of(c.levels()[0].plane_payload(0)))
        .expect_err("emptied store cannot serve segments");
    assert!(matches!(err, FetchError::Missing { .. }), "got {err:?}");
}
