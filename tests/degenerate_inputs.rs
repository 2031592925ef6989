//! Regression tests for the error-path hardening pass: degenerate and
//! malformed inputs on the compress/retrieve/fetch paths must surface as
//! `Err`, never as a panic inside library code.

use pmr::core::{retrieve, Backend, Dataset, RetrievalRequest, Theory};
use pmr::field::{io as field_io, Field, Shape};
use pmr::mgard::{CompressConfig, Compressed, DecodeOptions, RetrievalPlan};
use pmr::storage::{
    ExpectedSegment, FetchError, FetchExecutor, MemStore, RetryPolicy, SegmentStore,
};

fn wave(n: usize) -> Field {
    Field::from_fn("w", 0, Shape::cube(n), |x, y, z| {
        ((x as f64) * 0.4).sin() + ((y as f64) * 0.3).cos() + (z as f64) * 0.02
    })
}

#[test]
fn zero_sized_field_bytes_are_an_error() {
    // The empty buffer is the ultimate degenerate field file, and a header
    // that claims a zero-sized grid is refused, not read as an empty field.
    // (Truncations, extreme counts and flips of every format are
    // `pmr_conformance::hostile`'s; a zero count there need only be safe.)
    assert!(field_io::from_bytes(&[]).is_err());
    let valid = field_io::to_bytes(&wave(5));
    for dim in 0..3 {
        let mut zero = valid.clone();
        zero[12 + 4 * dim..16 + 4 * dim].copy_from_slice(&0u32.to_le_bytes());
        let err = field_io::from_bytes(&zero).expect_err("a zero extent").to_string();
        assert!(err.contains("out of range"), "dimension {dim}: {err}");
    }
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
