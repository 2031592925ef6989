//! Deterministic mutational robustness sweep over the PRQ1 codec.
//!
//! Starting from a corpus of valid frames, a seeded `pmr_rng::Rng` stream
//! drives byte flips and truncations; every mutant must decode to either
//! a clean value or a clean error — never a panic — and the framing layer
//! must never allocate beyond the frame cap no matter what the length
//! prefix claims. The seed is a constant, so a failure reproduces exactly.

use pmr_rng::Rng;
use pmrd::protocol::{
    decode_frame, decode_request, encode_health, encode_health_request, encode_plane,
    encode_report, encode_request, read_frame_limited, write_frame, DatasetHealth, Health, Report,
    Request, ShardHealth, Status, Target, MAX_REQUEST_FRAME,
};

/// A corpus of valid frame payloads covering every frame shape.
fn corpus() -> Vec<Vec<u8>> {
    let requests = [
        Request {
            tenant: "tenant-a".into(),
            dataset: "turbulence".into(),
            target: Target::Abs(1.5e-3),
            strategy: 0,
            flags: 0,
        },
        Request {
            tenant: "t".into(),
            dataset: "d".into(),
            target: Target::Planes(vec![3, 2, 1]),
            strategy: 0,
            flags: 1,
        },
        Request {
            tenant: "x".into(),
            dataset: "y".into(),
            target: Target::Bytes(1 << 20),
            strategy: 0,
            flags: 0,
        },
    ];
    let report = Report {
        status: Status::Ok,
        planes: vec![4, 3, 2],
        estimated_error: 2.5e-4,
        bytes: 9001,
        lost: vec![(1, 7)],
        attempts: 12,
        retries: 2,
        cache_hits: 3,
        coalesced: 1,
        detail: "ok".into(),
    };
    let health = Health {
        cache_hits: 5,
        datasets: vec![DatasetHealth {
            dataset: "turbulence".into(),
            shards: vec![ShardHealth {
                shard: 0,
                state: 0,
                fetches: 4,
                failures: 0,
                corrupt: 0,
                missing: 0,
            }],
        }],
        ..Health::default()
    };
    let mut frames: Vec<Vec<u8>> = Vec::new();
    for r in &requests {
        frames.push(encode_request(r).expect("encode request"));
    }
    frames.push(encode_health_request());
    frames.push(encode_report(&report).expect("encode report"));
    frames.push(encode_health(&health).expect("encode health"));
    frames.push(encode_plane(2, 5, &[0xAB; 64]).expect("encode plane"));
    frames
}

/// Decode a mutated payload through both decoders; the only acceptable
/// outcomes are `Ok` or a typed error.
fn decode_both(payload: &[u8]) {
    let _ = decode_request(payload);
    let _ = decode_frame(payload);
}

#[test]
fn seeded_byte_flips_and_truncations_never_panic() {
    let mut rng = Rng::seed_from_u64(0x5EED_CAFE_F00D);
    for frame in corpus() {
        // Every truncation point of every frame.
        for cut in 0..frame.len() {
            decode_both(&frame[..cut]);
        }
        // 256 seeded single-byte flips plus 64 seeded double mutations.
        for _ in 0..256 {
            let mut m = frame.clone();
            let at = rng.range(0..m.len());
            m[at] ^= rng.range(1..=u8::MAX);
            decode_both(&m);
        }
        for _ in 0..64 {
            let mut m = frame.clone();
            for _ in 0..2 {
                let at = rng.range(0..m.len());
                m[at] = rng.u8();
            }
            let cut = rng.range(0..=m.len());
            decode_both(&m[..cut]);
        }
    }
}

#[test]
fn mutated_length_prefixes_never_outgrow_the_frame_cap() {
    let mut rng = Rng::seed_from_u64(0xD15E_A5ED);
    for frame in corpus() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).expect("write");
        // Mutate the 4-byte length prefix to arbitrary values: the reader
        // either returns the intact frame, a clean error, or a payload no
        // longer than the bytes actually on the wire — never a panic and
        // never a buffer sized past the cap.
        for _ in 0..512 {
            let mut m = wire.clone();
            m[rng.range(0..4usize)] = rng.u8();
            let mut cursor = std::io::Cursor::new(m);
            if let Ok(Some(payload)) = read_frame_limited(&mut cursor, MAX_REQUEST_FRAME) {
                assert!(payload.len() <= MAX_REQUEST_FRAME, "cap violated");
                assert!(payload.len() <= wire.len(), "read more than the wire holds");
                decode_both(&payload);
            }
        }
    }
}

#[test]
fn every_strict_prefix_and_a_trailing_byte_are_rejected() {
    // Requests, reports and health snapshots end exactly where their last
    // field does: cutting any byte off or adding one is an error. A plane
    // frame's payload is the rest of the frame, so only a cut into its
    // head (`'P'`, `u16` level, `u32` plane) can be detected. The health
    // probe is a bare magic, matched whole by `is_health_request`.
    for frame in corpus().into_iter().filter(|f| *f != encode_health_request()) {
        let request = frame.starts_with(b"PRQ1");
        let decode =
            |b: &[u8]| if request { decode_request(b).is_ok() } else { decode_frame(b).is_ok() };
        assert!(decode(&frame), "the valid frame {frame:?} must decode");
        let plane = !request && frame[0] == b'P';
        for cut in 0..if plane { 7 } else { frame.len() } {
            assert!(!decode(&frame[..cut]), "{cut}-byte prefix of {frame:?} accepted");
        }
        let mut longer = frame.clone();
        longer.push(0);
        assert_eq!(decode(&longer), plane, "a trailing byte after {frame:?}");
    }
}
