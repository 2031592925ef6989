//! `retrieve-ladder`: the paper's experiment as a progressive session.
//!
//! Two artifacts × rungs rel 1e-1 → 1e-3 → 1e-5 × three variants:
//! theory planning decoded directly, the learned DE-MGARD planner decoded
//! directly, and theory planning fetched through a reopened `FileStore`.
//! Op = one `pmr_core::retrieve`. Decode and recompose dominate; encode
//! and pmrd do nothing; it is the only place the learned planners run.

use super::{Workload, RUNGS, SMOKE_SIZE};
use crate::clock::process_cpu_ns;
use crate::harness::{digest, Ctx, Mode, OpSample, Recorder};
use crate::inputs;
use crate::stats::geometric_mean;
use crate::trace;
use crate::workdir::WorkDir;
use pmr_core::api::{plan_for_target, RetrievalTarget, Tolerance};
use pmr_core::experiment::{train_models, ExperimentConfig};
use pmr_core::features::retrieval_features;
use pmr_core::{
    retrieve, Backend, Combined, DMgardConfig, Dataset, EMgardConfig, RetrievalOutcome,
    RetrievalRequest, Retriever, Theory,
};
use pmr_field::error::max_abs_error;
use pmr_field::Field;
use pmr_mgard::exec::{PARALLEL_MIN_COEFFS, PARALLEL_MIN_POINTS};
use pmr_mgard::{CompressConfig, Compressed};
use pmr_sim::WarpXField;
use pmr_storage::{ExpectedSegment, FetchExecutor, FileStore, TolerantConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Grid side of the two artifacts: 97³ `f64` = 7.3 MB raw (33³ in smoke
/// mode), sized so a round of 18 retrievals takes about a second.
const SIZE: usize = 97;
/// Grid side of the training snapshots.
const TRAIN_SIZE: usize = 33;
const SMOKE_TRAIN_SIZE: usize = 17;
/// Early snapshots the planners train on; the artifacts are later ones.
const WARPX_TRAIN: [usize; 3] = [4, 10, 16];
const GS_TRAIN: [usize; 3] = [0, 1, 2];
const GS_LATE: usize = 3;
/// Generator seed of the training run. The planners are trained once per
/// set-up on early snapshots of this one simulation, like models shipped
/// with the system; `--seed` varies the later data they are applied to.
/// (Trained on each seed's own early snapshots, the byte count of the
/// `Combined` classes swung by 30 % from seed to seed.)
const TRAIN_SEED: u64 = 0x7EA1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    TheoryDirect,
    CombinedDirect,
    TheoryStore,
}

const VARIANTS: [Variant; 3] =
    [Variant::TheoryDirect, Variant::CombinedDirect, Variant::TheoryStore];

impl Variant {
    fn label(self) -> &'static str {
        match self {
            Variant::TheoryDirect => "theory-direct",
            Variant::CombinedDirect => "combined-direct",
            Variant::TheoryStore => "theory-store",
        }
    }
}

pub struct Artifact {
    pub field: Field,
    pub compressed: Compressed,
    pub features: Vec<f32>,
    pub store: FileStore,
}

#[derive(Debug, Clone, Copy)]
struct Class {
    artifact: usize,
    rung: usize,
    variant: Variant,
}

/// What `verify` learned about one class, for the per-layer counts.
#[derive(Debug, Clone, Copy, Default)]
struct Measured {
    bytes: u64,
    requested: f64,
    achieved: f64,
    fetch_attempts: u64,
    fetch_bytes: u64,
    fetch_retries: u64,
}

pub struct RetrieveLadder {
    artifacts: Vec<Artifact>,
    classes: Vec<Class>,
    combined: Combined,
    measured: Vec<Measured>,
    replay_checked: Vec<bool>,
    work: WorkDir,
}

/// The planners' training configuration: small networks and a sparse
/// bound list, so that training fits in a set-up of a few seconds.
fn experiment_config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_defaults();
    cfg.dmgard = DMgardConfig { hidden: vec![32, 32], ..DMgardConfig::default() };
    cfg.dmgard.train.epochs = 40;
    cfg.emgard = EMgardConfig {
        hidden: vec![32, 8],
        epochs: 40,
        samples_per_artifact: 12,
        ..EMgardConfig::default()
    };
    cfg.train_bounds = vec![3e-1, 1e-1, 3e-2, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6];
    cfg
}

/// Check one retrieval against the library's guarantees: not degraded,
/// bit-identical to `Backend::Direct` at the planes it reports, and a
/// reported bound that is not below the measured L∞ error. Returns the
/// measured error.
pub fn check_retrieval(art: &Artifact, outcome: &RetrievalOutcome) -> Result<f64, String> {
    if outcome.is_degraded() {
        return Err("retrieval degraded on a healthy store".into());
    }
    let direct = retrieve(
        &Dataset::new(&art.compressed),
        &Theory,
        &RetrievalRequest::plane_set(outcome.planes.clone()),
        &Backend::Direct,
    )
    .map_err(|e| e.to_string())?;
    if direct.field.data() != outcome.field.data() {
        return Err(format!("field differs from Backend::Direct at planes {:?}", outcome.planes));
    }
    if direct.bytes != outcome.bytes {
        return Err(format!("reported {} bytes, planes hold {}", outcome.bytes, direct.bytes));
    }
    let measured = max_abs_error(art.field.data(), outcome.field.data());
    if outcome.estimated_error < measured {
        return Err(format!(
            "reported bound {:e} is below the measured error {measured:e}",
            outcome.estimated_error
        ));
    }
    Ok(measured)
}

impl RetrieveLadder {
    fn retriever(&self, variant: Variant) -> &dyn Retriever {
        match variant {
            Variant::CombinedDirect => &self.combined,
            Variant::TheoryDirect | Variant::TheoryStore => &Theory,
        }
    }

    /// The op as a caller runs it: one `retrieve`.
    fn retrieve_plain(&self, class: Class) -> Result<RetrievalOutcome, String> {
        let art = &self.artifacts[class.artifact];
        let dataset = Dataset::new(&art.compressed).with_features(&art.features);
        let request = RetrievalRequest::rel(RUNGS[class.rung]);
        let backend = match class.variant {
            Variant::TheoryStore => Backend::Store { store: &art.store, model: None },
            Variant::TheoryDirect | Variant::CombinedDirect => Backend::Direct,
        };
        retrieve(&dataset, self.retriever(class.variant), &request, &backend)
            .map_err(|e| e.to_string())
    }

    /// The same op as the public stage calls `retrieve` is made of, each
    /// in a span. Returns `(planes, bytes, field)`.
    fn retrieve_replay(&self, index: usize) -> Result<(Vec<u32>, u64, Field), String> {
        let class = self.classes[index];
        let art = &self.artifacts[class.artifact];
        let c = &art.compressed;
        let _root = trace::op(index, "replay");
        let target = RetrievalTarget::Tolerance(Tolerance::Rel(RUNGS[class.rung]));
        let plan = {
            let _s = trace::span(match class.variant {
                Variant::CombinedDirect => "core.plan.combined",
                Variant::TheoryDirect | Variant::TheoryStore => "core.plan.theory",
            });
            plan_for_target(c, self.retriever(class.variant), &art.features, &target)
                .map_err(|e| e.to_string())?
        };
        c.validate_plan(&plan).map_err(|e| e.to_string())?;
        let exec = c.exec();
        let mut coeffs = Vec::with_capacity(c.num_levels());
        match class.variant {
            Variant::TheoryDirect | Variant::CombinedDirect => {
                for (lvl, &b) in c.levels().iter().zip(&plan.planes) {
                    let _s = trace::span("mgard.bitplane.decode");
                    coeffs.push(lvl.decode_with(b, &exec.gate(lvl.count(), PARALLEL_MIN_COEFFS)));
                }
            }
            Variant::TheoryStore => {
                let mut fetch = FetchExecutor::new(&art.store, TolerantConfig::default().policy);
                let mut payloads = Vec::with_capacity(c.num_levels());
                for (l, (lvl, &b)) in c.levels().iter().zip(&plan.planes).enumerate() {
                    let _s = trace::span("storage.fetch");
                    let level: Result<Vec<Vec<u8>>, _> = (0..b)
                        .map(|k| {
                            fetch.fetch_verified((l, k), ExpectedSegment::of(lvl.plane_payload(k)))
                        })
                        .collect();
                    payloads.push(level.map_err(|e| e.to_string())?);
                }
                for (lvl, level_payloads) in c.levels().iter().zip(&payloads) {
                    let _s = trace::span("mgard.bitplane.decode");
                    coeffs
                        .push(lvl.decode_from_payloads(level_payloads).map_err(|e| e.to_string())?);
                }
            }
        }
        let mut data = {
            let _s = trace::span("mgard.deinterleave");
            c.decomposer().deinterleave(&coeffs)
        };
        {
            let gated = exec.gate(data.len(), PARALLEL_MIN_POINTS);
            let _s = trace::span("mgard.recompose");
            c.decomposer().recompose_with(&mut data, &gated);
        }
        let field = Field::new(c.name(), c.timestep(), c.shape(), data);
        // `retrieve` also sizes the plan and re-derives the sound bound.
        let bytes = c.retrieved_bytes(&plan);
        std::hint::black_box(c.estimate_for(&plan.planes));
        Ok((plan.planes, bytes, field))
    }

    fn op(&mut self, index: usize, mode: Mode) -> OpSample {
        let class = self.classes[index];
        let cpu0 = process_cpu_ns();
        let t0 = Instant::now();
        let result = match mode {
            Mode::Plain => self.retrieve_plain(class).map(|o| (o.planes, o.bytes, o.field)),
            Mode::Traced => self.retrieve_replay(index),
        };
        let latency_ns = t0.elapsed().as_nanos() as u64;
        let cpu_ns = process_cpu_ns() - cpu0;
        let mut sample = OpSample {
            class: index,
            latency_ns,
            // The loosest rung is the first picture the user sees.
            first_ns: (class.rung == 0).then_some(latency_ns),
            cpu_ns,
            bytes: 0,
            raw_bytes: inputs::raw_bytes(&self.artifacts[class.artifact].field),
            fingerprint: 0,
            error: None,
        };
        match result {
            Err(e) => sample.error = Some(e),
            Ok((planes, bytes, field)) => {
                sample.bytes = bytes;
                sample.fingerprint = digest(planes.iter().map(|&p| u64::from(p)));
                // The decomposed op must produce the one-call op's field.
                if mode == Mode::Traced && !self.replay_checked[index] {
                    self.replay_checked[index] = true;
                    match self.retrieve_plain(class) {
                        Ok(o) if o.field.data() == field.data() && o.planes == planes => {}
                        Ok(_) => {
                            sample.error = Some(
                                "decomposed stages decode a different field than retrieve".into(),
                            )
                        }
                        Err(e) => sample.error = Some(e),
                    }
                }
            }
        }
        sample
    }
}

impl Workload for RetrieveLadder {
    fn set_up(ctx: &Ctx) -> Result<Self, String> {
        let (n, train_n) =
            if ctx.smoke { (SMOKE_SIZE, SMOKE_TRAIN_SIZE) } else { (SIZE, TRAIN_SIZE) };
        let work = WorkDir::create(&ctx.root, "retrieve-ladder").map_err(|e| e.to_string())?;

        let mut train: Vec<Field> = WARPX_TRAIN
            .iter()
            .map(|&t| inputs::warpx(TRAIN_SEED, train_n, WarpXField::Jx, t))
            .collect();
        train.extend(inputs::gray_scott_u(TRAIN_SEED, train_n, &GS_TRAIN));
        let (models, _) = train_models(train, &experiment_config());
        let combined = Combined { dmgard: models.dmgard, emgard: models.emgard };

        let mut fields = vec![inputs::warpx(ctx.seed, n, WarpXField::Jx, inputs::WARPX_LATE)];
        fields.extend(inputs::gray_scott_u(ctx.seed, n, &[GS_LATE]));
        let cfg = CompressConfig::default();
        let mut artifacts = Vec::new();
        for (i, field) in fields.into_iter().enumerate() {
            let compressed = Compressed::compress(&field, &cfg);
            let features = retrieval_features(&field, &compressed);
            let dir = work.path().join(format!("artifact-{i}"));
            FileStore::write_from(&compressed, &dir).map_err(|e| e.to_string())?;
            let store = FileStore::open(&dir).map_err(|e| e.to_string())?;
            artifacts.push(Artifact { field, compressed, features, store });
        }

        let mut classes = Vec::new();
        for artifact in 0..artifacts.len() {
            for rung in 0..RUNGS.len() {
                for variant in VARIANTS {
                    classes.push(Class { artifact, rung, variant });
                }
            }
        }
        let mut w = RetrieveLadder {
            measured: vec![Measured::default(); classes.len()],
            replay_checked: vec![false; classes.len()],
            artifacts,
            classes,
            combined,
            work,
        };
        super::warm_up(&mut w)?;
        Ok(w)
    }

    fn class_names(&self) -> Vec<String> {
        self.classes
            .iter()
            .map(|c| {
                let f = &self.artifacts[c.artifact].field;
                format!(
                    "{}-t{}/rel{:e}/{}",
                    f.name(),
                    f.timestep(),
                    RUNGS[c.rung],
                    c.variant.label()
                )
            })
            .collect()
    }

    fn describe(&self) -> String {
        let f = &self.artifacts[0].field;
        format!(
            "{} artifacts of {:?} f64 ({:.1} MB raw each) x {} rungs x {} variants, 1 driver, \
             ExecPolicy::default() ({} library threads), Store = reopened FileStore",
            self.artifacts.len(),
            f.shape().dims(),
            inputs::raw_bytes(f) as f64 / 1e6,
            RUNGS.len(),
            VARIANTS.len(),
            self.artifacts[0].compressed.exec().resolved_threads(),
        )
    }

    fn run_round(
        &mut self,
        order: &[usize],
        mode: Mode,
        rec: &mut Recorder,
    ) -> Result<Option<(u64, u64)>, String> {
        for &index in order {
            let sample = self.op(index, mode);
            rec.record(sample);
        }
        Ok(None)
    }

    fn verify(&mut self, rec: &mut Recorder) -> Result<(), String> {
        for (index, &class) in self.classes.iter().enumerate() {
            let art = &self.artifacts[class.artifact];
            let outcome = match self.retrieve_plain(class) {
                Ok(outcome) => outcome,
                Err(why) => {
                    rec.fail(index, why);
                    continue;
                }
            };
            match check_retrieval(art, &outcome) {
                Err(why) => rec.fail(index, why),
                Ok(achieved) => {
                    let stats = outcome.stats.unwrap_or_default();
                    self.measured[index] = Measured {
                        bytes: outcome.bytes,
                        requested: art.compressed.absolute_bound(RUNGS[class.rung]),
                        achieved,
                        fetch_attempts: stats.attempts,
                        fetch_bytes: stats.bytes,
                        fetch_retries: stats.retries,
                    };
                }
            }
        }
        Ok(())
    }

    fn layer_counts(&mut self) -> Result<BTreeMap<&'static str, f64>, String> {
        let of = |variant: Variant| {
            self.classes.iter().zip(&self.measured).filter(move |(c, _)| c.variant == variant)
        };
        let bytes = |variant: Variant| of(variant).map(|(_, m)| m.bytes).sum::<u64>() as f64;
        // requested ÷ measured, per class: > 1 is bound left unused.
        let slack: Vec<f64> = self
            .measured
            .iter()
            .filter(|m| m.achieved > 0.0)
            .map(|m| m.requested / m.achieved)
            .collect();
        let misses = self.measured.iter().filter(|m| m.achieved > m.requested).count();
        let store = |f: fn(&Measured) -> u64| {
            of(Variant::TheoryStore).map(|(_, m)| f(m)).sum::<u64>() as f64
        };
        Ok(BTreeMap::from([
            (
                "core.plan.bytes_vs_theory",
                bytes(Variant::CombinedDirect) / bytes(Variant::TheoryDirect),
            ),
            ("core.plan.err_slack_gm", geometric_mean(&slack).unwrap_or(0.0)),
            ("core.plan.miss_share", misses as f64 / self.measured.len() as f64),
            ("storage.fetch.segments", store(|m| m.fetch_attempts)),
            ("storage.fetch.bytes", store(|m| m.fetch_bytes)),
            ("storage.fetch.retries", store(|m| m.fetch_retries)),
        ]))
    }

    fn written_dir(&self) -> PathBuf {
        self.work.path().to_path_buf()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(seed: u64, tag: &str) -> Ctx {
        Ctx { seed, smoke: true, root: crate::workdir::test_root(&format!("rl-{tag}")) }
    }

    #[test]
    fn a_retrieval_with_one_plane_dropped_fails_the_check() {
        let ctx = ctx(3, "drop");
        let w = RetrieveLadder::set_up(&ctx).expect("set-up");
        let class = w.classes[4];
        let art = &w.artifacts[class.artifact];
        let good = w.retrieve_plain(class).expect("retrieve");
        check_retrieval(art, &good).expect("the library's own outcome passes");

        // Decode one plane fewer at the finest level than the outcome reports.
        let mut fewer = good.planes.clone();
        *fewer.last_mut().expect("levels") -= 1;
        let short = retrieve(
            &Dataset::new(&art.compressed),
            &Theory,
            &RetrievalRequest::plane_set(fewer),
            &Backend::Direct,
        )
        .expect("plane-set retrieve");
        let tampered = RetrievalOutcome { field: short.field, ..good.clone() };
        let err = check_retrieval(art, &tampered).expect_err("dropped plane must be caught");
        assert!(err.contains("differs from Backend::Direct"), "unexpected reason: {err}");

        // A bound reported below the measured error is caught too.
        let optimistic = RetrievalOutcome { estimated_error: 0.0, ..good };
        assert!(check_retrieval(art, &optimistic).expect_err("unsound bound").contains("below"));
        drop(w);
        let _ = std::fs::remove_dir_all(&ctx.root);
    }

    #[test]
    fn same_seed_repeats_bytes_and_plan_counts_and_another_seed_changes_inputs() {
        let run = |seed: u64, tag: &str| {
            let ctx = ctx(seed, tag);
            let mut w = RetrieveLadder::set_up(&ctx).expect("set-up");
            let mut rec = Recorder::new(w.class_names());
            let order: Vec<usize> = (0..w.classes.len()).collect();
            w.run_round(&order, Mode::Plain, &mut rec).expect("round");
            w.verify(&mut rec).expect("verify");
            assert_eq!(rec.failed, 0, "{:?}", rec.failures);
            let counts = w.layer_counts().expect("counts");
            let first = w.artifacts[0].field.data()[..64].to_vec();
            drop(w);
            let _ = std::fs::remove_dir_all(&ctx.root);
            (rec.bytes_per_field_byte().expect("bytes"), counts, first)
        };
        let a = run(11, "a");
        let b = run(11, "b");
        let c = run(12, "c");
        assert_eq!(a.0.to_bits(), b.0.to_bits());
        for key in [
            "core.plan.bytes_vs_theory",
            "core.plan.err_slack_gm",
            "core.plan.miss_share",
            "storage.fetch.bytes",
        ] {
            assert_eq!(a.1[key].to_bits(), b.1[key].to_bits(), "{key}");
        }
        assert_eq!(a.2, b.2);
        assert_ne!(a.2, c.2);
    }
}
