//! Integration: codec behaviour on real bit-plane payloads.

use pmr::field::{Field, Shape};
use pmr::mgard::{CompressConfig, Compressed};

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
