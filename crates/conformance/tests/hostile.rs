//! Every parser of untrusted bytes under the one hostile-input oracle,
//! `pmr_conformance::hostile`: artifacts, segment logs, `shard.meta`, field
//! files, model blobs, pmrd frames and lossless planes.
//!
//! This binary installs the capping test allocator, so it holds nothing
//! but these registrations.

use pmr_conformance::heap::TestAlloc;
use pmr_conformance::hostile::{Count, Format};
use pmr_conformance::within_reported_bound;
use pmr_core::emgard::build_samples;
use pmr_core::{collect_records, DMgard, DMgardConfig, EMgard, EMgardConfig};
use pmr_error::PmrError;
use pmr_field::{io as field_io, Field, Shape};
use pmr_mgard::{persist, CompressConfig, Compressed};
use pmr_nn::{Activation, Matrix, Mlp, Standardizer, TrainConfig};
use pmr_storage::{
    FileStore, MutableSegmentStore, SegmentKey, SegmentStore, ShardConfig, ShardedStore,
    QUARANTINE_SUFFIX,
};
use pmrd::protocol::{
    decode_frame, decode_request, encode_health, encode_report, encode_request, read_frame,
    read_frame_limited, write_frame, write_plane_frames, DatasetHealth, Frame, Health, Report,
    Request, ShardHealth, Status, Target, MAX_REQUEST_FRAME, MAX_WIRE_LIST,
};
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::Arc;

#[global_allocator]
static HEAP: TestAlloc = TestAlloc::new();

fn le(at: usize, width: usize) -> Count {
    Count::Le { at, width }
}

fn word(bytes: &[u8], at: usize) -> usize {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize
}

/// A fresh scratch directory for a format that lives in files; a passing
/// test removes it.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pmr_hostile_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn wave(shape: Shape) -> Field {
    Field::from_fn("J_x", 11, shape, |x, y, z| {
        ((x as f64) * 0.6).sin() * ((y as f64) * 0.2).cos() + (z as f64) * 0.03
    })
}

/// A `PMRC2` artifact, and its undigested bytes by region.
fn artifact() -> (Format<Compressed>, Vec<(&'static str, Range<usize>)>) {
    let field = wave(Shape::d3(9, 7, 5));
    let c = Compressed::compress(&field, &CompressConfig { levels: 4, ..Default::default() });
    let b = persist::to_bytes(&c).expect("serialize");
    // Walk the documented layout (`pmr_mgard::persist`).
    let name = word(&b, 6);
    let dims = 10 + name + 8 + 4;
    let levels = dims + 12;
    let mut counts = vec![le(6, 4), le(dims, 4), le(dims + 4, 4), le(dims + 8, 4), le(levels, 4)];
    let mut covered = vec![0..6, levels..levels + 4];
    let table = levels + 4 + 1 + 8;
    let mut regions = vec![
        ("header", 6..levels),
        ("header", levels + 4..table - 8),
        ("value range", table - 8..table),
    ];
    let mut at = table;
    for _ in 0..word(&b, levels) {
        counts.push(le(at, 4));
        at += 4 + 8 * word(&b, at);
    }
    covered.push(table..at);
    for _ in 0..word(&b, levels) {
        let planes = word(&b, at + 8);
        counts.extend([le(at, 8), le(at + 8, 4)]);
        covered.push(at..at + 12);
        regions.push(("steps", at + 12..at + 20));
        regions.push(("error rows", at + 20..at + 28 + 8 * planes));
        at += 28 + 8 * planes;
        let payloads = at;
        for _ in 0..planes {
            counts.push(le(at, 4));
            at += 4 + word(&b, at);
        }
        covered.push(payloads..at);
    }
    assert_eq!(at, b.len(), "the layout walk covers the artifact");
    let sound = move |c: &Compressed| {
        for rel in [1e-3, 1e-5] {
            let plan = c.plan_theory(c.absolute_bound(rel));
            within_reported_bound(&field, &c.retrieve(&plan), plan.estimated_error)
                .map_err(|e| format!("at rel {rel:e}: {e}"))?;
        }
        Ok(())
    };
    let mut format = Format::new("mgard artifact", b, persist::from_bytes).sound(sound);
    for range in covered {
        format = format.covered(range);
    }
    for count in counts {
        format = format.count(count);
    }
    (format, regions)
}

#[test]
fn mgard_artifact() {
    artifact().0.check();
}

/// The flips outside what `PMRC2` digests that load, retrieve and break the
/// reported bound. Widening the covered ranges (ROADMAP item 13) is what
/// makes this pass.
#[test]
#[ignore = "PMRC2 leaves header, value range, steps and error rows undigested: ROADMAP item 13"]
fn mgard_artifact_flips_outside_the_digests_keep_the_bound() {
    let (format, regions) = artifact();
    let broken = format.unsound_flips();
    let mut per_region: BTreeMap<&str, usize> = BTreeMap::new();
    for (bit, _) in &broken {
        let region = regions.iter().find(|(_, r)| r.contains(&(bit / 8))).map_or("?", |(n, _)| n);
        *per_region.entry(region).or_default() += 1;
    }
    assert!(
        broken.is_empty(),
        "{} single-bit flips of a {}-byte artifact load and break the reported bound: \
         {per_region:?}; the first: {:?}",
        broken.len(),
        format.bytes().len(),
        broken.first()
    );
}

#[test]
fn segment_log() {
    // A record a tombstone supersedes, three live records and the
    // tombstone, read back through `FileStore::open` and a fetch of every
    // live key. A torn tail the open sets aside is a refusal too: it means
    // the log was not what was written. Only the superseded record may
    // change unnoticed, since nothing reads it.
    let root = scratch("segment_log");
    let dir = root.clone();
    let store = FileStore::create(&dir).expect("create");
    let live: [(SegmentKey, &[u8]); 3] = [
        ((0, 0), b"level zero, plane zero"),
        ((0, 1), b"plane one"),
        ((1, 0), b"\x00\x01\x02\xff"),
    ];
    store.put_batch(&[&[((2, 0), b"deleted".as_slice())], &live[..]].concat()).expect("put");
    store.delete((2, 0)).expect("delete");
    drop(store);
    let log = dir.join("segments.pmrs");
    let quarantine = dir.join(format!("segments.pmrs{QUARANTINE_SUFFIX}"));
    let clean = std::fs::read(&log).expect("log");
    let mut counts = Vec::new();
    let mut at = 0;
    while at < clean.len() {
        counts.push(le(at + 14, 4));
        at += 26 + word(&clean, at + 14);
    }
    let keys: Vec<SegmentKey> = live.iter().map(|&(key, _)| key).collect();
    let refused = |why: String| PmrError::malformed("segment log", why);
    let decode = move |bytes: &[u8]| {
        std::fs::write(&log, bytes).expect("write the log");
        std::fs::remove_file(&quarantine).ok();
        let store = FileStore::open(&dir)?;
        if quarantine.exists() {
            return Err(refused("open set a torn tail aside".into()));
        }
        if store.keys() != keys {
            return Err(refused(format!("keys {:?}", store.keys())));
        }
        keys.iter().try_for_each(|&key| match store.fetch(key) {
            Ok(_) => Ok(()),
            Err(e) => Err(refused(e.to_string())),
        })
    };
    let (superseded, len) = (26 + word(&clean, 14), clean.len());
    counts
        .into_iter()
        .fold(Format::new("segment log", clean, decode), Format::count)
        .covered(superseded..len)
        .check();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn shard_meta() {
    let root = scratch("shard_meta");
    let dir = root.clone();
    let c = Compressed::compress(
        &wave(Shape::d1(9)),
        &CompressConfig { levels: 2, num_planes: 3, ..Default::default() },
    );
    let cfg = ShardConfig::try_new(2, 2).expect("topology").with_hot_planes(1);
    ShardedStore::write_files(&c, &dir, cfg).expect("write");
    let meta = dir.join("shard.meta");
    let clean = std::fs::read(&meta).expect("shard.meta");
    let text = String::from_utf8(clean.clone()).expect("text");
    let decimal = |key: &str| {
        let at = text.find(&format!("\n{key} ")).expect("field") + key.len() + 2;
        let len = text[at..].find('\n').expect("line end");
        Count::Decimal { at, len }
    };
    let counts = ["shards", "replication", "hot_planes", "vnodes"].map(decimal);
    let decode = move |bytes: &[u8]| {
        std::fs::write(&meta, bytes).expect("write shard.meta");
        Ok(ShardedStore::open_dir(&dir)?.config().clone())
    };
    let magic = "PMRSHARD1".len();
    counts
        .into_iter()
        .fold(Format::new("shard.meta", clean, decode), Format::count)
        .covered(0..magic)
        .check();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn field_file() {
    let clean = field_io::to_bytes(&wave(Shape::d3(3, 4, 2)));
    // Magic, then `ndim`, the three extents and the name length, which the
    // byte count cross-checks.
    Format::new("field file", clean, field_io::from_bytes)
        .covered(0..24)
        .covered(32..36)
        .count(le(12, 4))
        .count(le(16, 4))
        .count(le(20, 4))
        .count(le(32, 4))
        .check();
}

#[test]
fn mlp_model() {
    let clean =
        Mlp::new(&[3, 4, 2], Activation::LeakyRelu(0.01), Activation::Identity, 7).to_bytes();
    // `n_layers`, then each layer's `fan_in`, `fan_out`, activation and
    // parameters.
    let mut format =
        Format::new("mlp model", clean.clone(), Mlp::from_bytes).covered(0..6).count(le(6, 4));
    let mut at = 10;
    while at < clean.len() {
        format = format.count(le(at, 4)).count(le(at + 4, 4));
        at += 13 + 4 * (word(&clean, at) * word(&clean, at + 4) + word(&clean, at + 4));
    }
    format.check();
}

#[test]
fn standardizer() {
    let rows = Matrix::from_vec(2, 3, vec![1.0, -2.0, 0.5, 3.0, 4.0, -1.5]);
    Format::new("standardizer", Standardizer::fit(&rows).to_bytes(), Standardizer::from_bytes)
        .count(le(0, 4))
        .check();
}

/// A small trained D-MGARD and E-MGARD, as bytes.
fn trained_models() -> (Vec<u8>, Vec<u8>) {
    let field = Field::from_fn("m", 0, Shape::cube(9), |x, y, z| {
        ((x as f64) * 0.3).sin() + ((y + z) as f64 * 0.2).cos()
    });
    let c = Compressed::compress(&field, &CompressConfig { levels: 3, ..Default::default() });
    let records = collect_records(&field, &c, &[1e-3, 1e-1]);
    let dcfg = DMgardConfig {
        hidden: vec![4],
        train: TrainConfig { epochs: 1, ..Default::default() },
        ..Default::default()
    };
    let (d, _) = DMgard::train(&records, c.num_levels(), c.num_planes(), &dcfg);
    let ecfg =
        EMgardConfig { hidden: vec![4], epochs: 1, samples_per_artifact: 4, ..Default::default() };
    let (e, _) = EMgard::train(&build_samples(&field, &c, &ecfg, 0), &ecfg);
    (d.to_bytes(), e.to_bytes())
}

/// A learned planner's blob: the level count at 6, then per level a `u64`
/// model length and model, and a `u64` standardizer length and
/// standardizer, the first pair starting at `first`.
fn planner<T: 'static>(
    name: &'static str,
    clean: Vec<u8>,
    first: usize,
    decode: fn(&[u8]) -> Result<T, PmrError>,
) -> Format<T> {
    let model = u64::from_le_bytes(clean[first..first + 8].try_into().expect("8 bytes")) as usize;
    Format::new(name, clean, decode)
        .covered(0..6)
        .count(le(6, 4))
        .count(le(first, 8))
        .count(le(first + 8 + model, 8))
}

#[test]
fn dmgard_and_emgard_models() {
    let (d, e) = trained_models();
    planner("dmgard model", d, 16, DMgard::from_bytes).check();
    planner("emgard model", e, 10, EMgard::from_bytes).check();
}

/// A pmrd request as the server reads it: one frame under
/// `MAX_REQUEST_FRAME`, and nothing after it.
fn read_request(mut wire: &[u8]) -> Result<Request, PmrError> {
    let frame = read_frame_limited(&mut wire, MAX_REQUEST_FRAME)
        .map_err(|e| PmrError::malformed("pmrd frame", e.to_string()))?
        .ok_or_else(|| PmrError::malformed("pmrd frame", "no request"))?;
    let req = decode_request(&frame)?;
    match wire {
        [] => Ok(req),
        rest => Err(PmrError::malformed(
            "pmrd frame",
            format!("{} bytes after the request", rest.len()),
        )),
    }
}

/// A pmrd response as the client reads it: plane frames then one report,
/// or one health frame.
fn read_response(mut wire: &[u8]) -> Result<Vec<Frame>, PmrError> {
    let mut frames = Vec::new();
    while let Some(frame) =
        read_frame(&mut wire).map_err(|e| PmrError::malformed("pmrd frame", e.to_string()))?
    {
        frames.push(decode_frame(&frame)?);
    }
    let whole = match frames.split_last() {
        Some((Frame::Report(_), planes)) => planes.iter().all(|f| matches!(f, Frame::Plane(_))),
        Some((Frame::Health(_), rest)) => rest.is_empty(),
        _ => false,
    };
    if whole {
        Ok(frames)
    } else {
        Err(PmrError::malformed(
            "pmrd frame",
            "not plane frames and a report, nor one health frame",
        ))
    }
}

#[test]
fn pmrd_request() {
    let req = Request {
        tenant: "jet".into(),
        dataset: "Jx_t0004".into(),
        target: Target::Planes(vec![4, 9, 0]),
        strategy: 0,
        flags: 1,
    };
    let mut wire = Vec::new();
    write_frame(&mut wire, &encode_request(&req).expect("encode")).expect("frame");
    // Frame length; magic; tenant, dataset and plane-list lengths.
    Format::new("pmrd request", wire, read_request)
        .count(le(0, 4))
        .covered(4..8)
        .count(le(8, 2))
        .count(le(13, 2))
        .count(le(24, 2))
        .check();
}

/// The cap of a response: a frame may size any list at the protocol's bound,
/// `MAX_WIRE_LIST` of its largest element, before the elements parse.
fn response_cap(wire: &[u8]) -> usize {
    let largest = size_of::<DatasetHealth>().max(size_of::<ShardHealth>());
    64 * wire.len() + (64 << 10) + MAX_WIRE_LIST * largest
}

#[test]
fn pmrd_response() {
    let report = Report {
        status: Status::Ok,
        planes: vec![4, 3],
        estimated_error: 2.5e-4,
        bytes: 9001,
        lost: vec![(1, 7)],
        attempts: 12,
        retries: 2,
        cache_hits: 3,
        coalesced: 1,
        detail: "ok".into(),
    };
    let mut wire = Vec::new();
    write_plane_frames(&mut wire, &[(2, 5, Arc::new(vec![0xAB; 16]))]).expect("planes");
    let r = wire.len();
    write_frame(&mut wire, &encode_report(&report).expect("encode")).expect("report");
    // Two frame lengths; the report's plane-list, lost-list and detail
    // lengths.
    let cap = response_cap(&wire);
    Format::new("pmrd response", wire, read_response)
        .cap(cap)
        .count(le(0, 4))
        .count(le(r, 4))
        .count(le(r + 6, 2))
        .count(le(r + 33, 2))
        .count(le(r + 73, 2))
        .check();
}

#[test]
fn pmrd_health() {
    let shard = ShardHealth { shard: 0, state: 1, fetches: 4, failures: 1, corrupt: 1, missing: 0 };
    let health = Health {
        cache_hits: 5,
        datasets: vec![DatasetHealth { dataset: "alpha".into(), shards: vec![shard] }],
        ..Health::default()
    };
    let mut wire = Vec::new();
    write_frame(&mut wire, &encode_health(&health).expect("encode")).expect("frame");
    // Frame length; dataset count, name length and shard count.
    let cap = response_cap(&wire);
    Format::new("pmrd health", wire, read_response)
        .cap(cap)
        .count(le(0, 4))
        .count(le(77, 2))
        .count(le(79, 2))
        .count(le(86, 2))
        .check();
}

#[test]
fn lossless_plane() {
    let mut plane = vec![0u8; 4096];
    for i in (0..plane.len()).step_by(397) {
        plane[i] = (i % 251) as u8 | 1;
    }
    let clean = pmr_codec::lossless::compress(&plane);
    let expected = plane.len();
    Format::new("lossless plane", clean, move |b: &[u8]| {
        pmr_codec::lossless::try_decompress(b, expected)
    })
    .covered(0..1)
    .count(le(1, 1))
    .check();
}
