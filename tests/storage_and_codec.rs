//! Integration: storage-tier accounting over real compressed artifacts and
//! codec behaviour on real bit-plane payloads.

use pmr::field::{Field, Shape};
use pmr::mgard::{CompressConfig, Compressed};
use pmr::sim::{warpx_field, WarpXConfig, WarpXField};
use pmr::storage::{retrieval_cost, Placement, StorageHierarchy, StorageTier};

fn artifact() -> (Field, Compressed) {
    let wcfg = WarpXConfig { size: 16, snapshots: 4, ..Default::default() };
    let field = warpx_field(&wcfg, WarpXField::Bx, 2);
    let c = Compressed::compress(&field, &CompressConfig::default());
    (field, c)
}

#[test]
fn tiered_cost_scales_with_accuracy() {
    let (_, c) = artifact();
    let h = StorageHierarchy::summit_like();
    let p = Placement::coarse_fast(c.num_levels(), &h);
    let mut prev = 0.0f64;
    for rel in [1e-1, 1e-3, 1e-5, 1e-7] {
        let plan = c.plan_theory(c.absolute_bound(rel));
        let cost = retrieval_cost(&c, &plan, &h, &p);
        assert!(cost.seconds >= prev, "cost must grow as bounds tighten");
        prev = cost.seconds;
    }
}

#[test]
fn single_tier_hierarchy_matches_bandwidth_model() {
    let (_, c) = artifact();
    let disk = StorageTier::try_new("disk", 0.0, 1e6).expect("valid tier parameters");
    let h = StorageHierarchy::try_new(vec![disk]).expect("single disk tier is a valid hierarchy");
    let p = Placement::coarse_fast(c.num_levels(), &h);
    let plan = c.plan_theory(c.absolute_bound(1e-4));
    let cost = retrieval_cost(&c, &plan, &h, &p);
    let expected = cost.bytes as f64 / 1e6;
    assert!((cost.seconds - expected).abs() < 1e-9);
}

#[test]
fn plane_payloads_roundtrip_through_codec() {
    // The lossless layer must be transparent for every plane the encoder
    // produced (exercised indirectly through retrieve, asserted directly
    // here on raw bytes).
    let data: Vec<u8> = (0..10_000u32).map(|i| (i % 7 == 0) as u8 * 0xA5).collect();
    let compressed = pmr::codec::lossless::compress(&data);
    assert!(compressed.len() < data.len());
    assert_eq!(pmr::codec::lossless::decompress(&compressed).unwrap(), data);
}

#[test]
fn compressed_payload_smaller_than_raw_for_smooth_fields() {
    let field = Field::from_fn("smooth", 0, Shape::cube(17), |x, y, z| {
        (x as f64 * 0.1).sin() + (y as f64 * 0.07).cos() + z as f64 * 0.01
    });
    let c = Compressed::compress(&field, &CompressConfig::default());
    let raw = (field.len() * 8) as u64;
    assert!(
        c.total_bytes() < raw,
        "smooth field should compress below raw ({} vs {raw})",
        c.total_bytes()
    );
}
