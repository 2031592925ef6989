//! The parallel data path must be bit-identical to the serial one: same
//! serialized artifact bytes, same error matrix `Err[l][b]`, same
//! reconstructed samples — across dimensionalities and above/below the
//! size gates that demote small inputs to serial execution. The same holds
//! for the data generators that feed it.

use pmr::field::{Field, Shape};
use pmr::mgard::{persist, CompressConfig, Compressed};
use pmr::sim::{
    warpx_field, warpx_field_with_workers, GrayScott, GrayScottConfig, GsSpecies, WarpXConfig,
    WarpXField,
};

fn wavy(shape: Shape) -> Field {
    Field::from_fn("det", 3, shape, |x, y, z| {
        ((x as f64) * 0.37).sin() * ((y as f64) * 0.21).cos()
            + ((z as f64) * 0.11).sin() * 0.25
            + (x + 2 * y + 3 * z) as f64 * 1e-3
    })
}

fn serial_cfg() -> CompressConfig {
    CompressConfig { threads: 1, ..Default::default() }
}

fn parallel_cfg() -> CompressConfig {
    CompressConfig { threads: 4, ..Default::default() }
}

/// Serial and parallel compression of the same field must produce
/// byte-identical artifacts and identical error matrices, and retrieval
/// from either must reconstruct identical data.
#[test]
fn parallel_compression_is_bit_identical() {
    // 1-D/2-D/3-D, sized above and below the parallel gates (16384 points).
    let shapes = [
        Shape::d1(40_000),
        Shape::d1(500),
        Shape::d2(210, 190),
        Shape::d2(21, 17),
        Shape::cube(36),
        Shape::cube(9),
    ];
    for shape in shapes {
        let field = wavy(shape);
        let cs = Compressed::compress(&field, &serial_cfg());
        let cp = Compressed::compress(&field, &parallel_cfg());

        assert_eq!(
            persist::to_bytes(&cs).expect("serialize"),
            persist::to_bytes(&cp).expect("serialize"),
            "artifact bytes differ for {shape}"
        );
        for (ls, lp) in cs.levels().iter().zip(cp.levels()) {
            let es: Vec<u64> = ls.error_row().iter().map(|e| e.to_bits()).collect();
            let ep: Vec<u64> = lp.error_row().iter().map(|e| e.to_bits()).collect();
            assert_eq!(es, ep, "error matrix differs for {shape}");
        }

        for rel in [1e-2, 1e-5] {
            let abs = cs.absolute_bound(rel);
            let plan_s = cs.plan_theory(abs);
            let plan_p = cp.plan_theory(abs);
            assert_eq!(plan_s.planes, plan_p.planes, "plans differ for {shape}");
            let rs = cs.retrieve(&plan_s);
            let rp = cp.retrieve(&plan_p);
            let bs: Vec<u64> = rs.data().iter().map(|v| v.to_bits()).collect();
            let bp: Vec<u64> = rp.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(bs, bp, "reconstructions differ for {shape} at rel {rel}");
        }
    }
}

/// The data generators fill z-slabs on scoped workers; no operation combines
/// two grid points, so every worker count must give the one-worker field.
#[test]
fn generators_are_bit_identical_to_one_worker() {
    let bits = |a: &[f64]| a.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();

    let cfg = WarpXConfig { size: 33, snapshots: 8, ..Default::default() };
    let serial = warpx_field_with_workers(&cfg, WarpXField::Bx, 5, 1);
    for field in
        [warpx_field(&cfg, WarpXField::Bx, 5), warpx_field_with_workers(&cfg, WarpXField::Bx, 5, 4)]
    {
        assert_eq!(bits(field.data()), bits(serial.data()), "WarpX B_x at 33^3");
    }

    let cfg = GrayScottConfig { size: 33, ..Default::default() };
    let mut sims =
        [GrayScott::with_workers(cfg, 1), GrayScott::new(cfg), GrayScott::with_workers(cfg, 4)];
    for _ in 0..5 {
        sims.iter_mut().for_each(GrayScott::step);
    }
    for species in [GsSpecies::U, GsSpecies::V] {
        let serial = bits(sims[0].snapshot(species, 0).data());
        for sim in &sims[1..] {
            assert_eq!(bits(sim.snapshot(species, 0).data()), serial, "Gray-Scott at 33^3");
        }
    }
}

/// The batch compress API must agree exactly with per-snapshot calls.
#[test]
fn batch_apis_match_individual_calls() {
    let fields: Vec<Field> = (0..5)
        .map(|t| {
            Field::from_fn("batch", t, Shape::cube(11), move |x, y, z| {
                ((x as f64) * (0.3 + 0.04 * t as f64)).sin() + ((y + z) as f64 * 0.2).cos() * 0.5
            })
        })
        .collect();
    let cfg = parallel_cfg();

    let batch = Compressed::compress_many(&fields, &cfg);
    assert_eq!(batch.len(), fields.len());
    for (f, c) in fields.iter().zip(&batch) {
        let single = Compressed::compress(f, &cfg);
        assert_eq!(persist::to_bytes(&single).unwrap(), persist::to_bytes(c).unwrap());
    }
}

/// Artifact bytes and full-bound reconstruction bits of one field.
fn compress_and_retrieve(field: &Field, cfg: &CompressConfig) -> (Vec<u8>, Vec<u64>) {
    let c = Compressed::compress(field, cfg);
    let plan = c.plan_theory(c.absolute_bound(1e-4));
    let bits = c.retrieve(&plan).data().iter().map(|v| v.to_bits()).collect();
    (persist::to_bytes(&c).expect("serialize"), bits)
}

/// Threads that compress and retrieve at the same time share one worker
/// pool, and a submitter that finds it busy runs its jobs itself. Whoever
/// runs a job, every artifact and reconstruction must be the serial one.
#[test]
fn concurrent_submitters_match_a_serial_run() {
    let fields = [Shape::d1(40_000), Shape::d2(210, 190), Shape::cube(36)].map(wavy);
    let serial: Vec<_> = fields.iter().map(|f| compress_and_retrieve(f, &serial_cfg())).collect();
    std::thread::scope(|scope| {
        let submitters: Vec<_> = (0..4)
            .map(|t| {
                let fields = &fields;
                scope.spawn(move || {
                    (0..fields.len())
                        .map(|k| (t + k) % fields.len())
                        .map(|i| (i, compress_and_retrieve(&fields[i], &parallel_cfg())))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for submitter in submitters {
            for (i, got) in submitter.join().expect("submitter thread") {
                assert!(got == serial[i], "concurrent run differs for {}", fields[i].shape());
            }
        }
    });
}
