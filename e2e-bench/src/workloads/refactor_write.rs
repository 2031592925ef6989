//! `refactor-write`: the in-situ write path.
//!
//! Op = `Compressed::compress` → `persist::save` of the artifact into a
//! fresh directory → `ShardedStore::mem` (every plane placed on its
//! replicas and the hot tier). The only workload where decomposition and
//! bit-plane *encode* do the work; planning, decode and pmrd do none.
//!
//! The crash-safe on-disk layout (`ShardedStore::write_files`: tmp +
//! fsync + rename per segment, ~660 fsyncs per artifact) is *not* in the
//! gated op: on this VM's disk one such write takes 0.24 s or 1.1 s
//! depending on what the journal is doing, so it cannot repeat within a
//! tenth. It runs once per class in `verify` (scrubbed and read back) and
//! in every traced round under its own root span, which is where
//! `storage.shard.write_ms` comes from.

use super::{Workload, REPLICATION, SHARDS, SMOKE_SIZE};
use crate::clock::process_cpu_ns;
use crate::harness::{digest, Ctx, Mode, OpSample, Recorder};
use crate::inputs;
use crate::trace;
use crate::workdir::{usage, WorkDir};
use pmr_core::{retrieve, Backend, Dataset, RetrievalRequest, Theory};
use pmr_field::Field;
use pmr_mgard::exec::{PARALLEL_MIN_COEFFS, PARALLEL_MIN_POINTS};
use pmr_mgard::{persist, theory_constants, CompressConfig, Compressed, Decomposer, LevelEncoding};
use pmr_sim::WarpXField;
use pmr_storage::{scrub, ShardConfig, ShardedStore};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Grid side: 129³ `f64` = 17.2 MB raw per field (33³ in smoke mode).
const SIZE: usize = 129;
/// Gray-Scott snapshots written: early (10 Euler steps in) and late (30).
const GS_SNAPSHOTS: [usize; 2] = [0, 2];
const WARPX_FIELDS: [WarpXField; 2] = [WarpXField::Ex, WarpXField::Jx];

const HOT_PLANES: u32 = 2;

struct Class {
    name: String,
    field: Field,
    /// What one-call `compress` produces for `field`: the manifest the
    /// traced replay persists, and the reference every check compares to.
    reference: Compressed,
    replay_checked: bool,
}

pub struct RefactorWrite {
    classes: Vec<Class>,
    cfg: CompressConfig,
    shard: ShardConfig,
    work: WorkDir,
    ops_started: u64,
    /// The last store directory `verify` wrote, for the raw-read probe.
    kept: Option<PathBuf>,
    /// Bytes and files of the last crash-safe write.
    written: (u64, u64),
}

pub fn shard_config() -> Result<ShardConfig, String> {
    Ok(ShardConfig::try_new(SHARDS, REPLICATION)
        .map_err(|e| e.to_string())?
        .with_hot_planes(HOT_PLANES))
}

/// What a populated store must be: clean under `scrub` against the
/// manifest attached to it, and serving a retrieval bit-identical to
/// decoding `reference` directly.
pub fn check_store(store: &ShardedStore, reference: &Compressed) -> Result<(), String> {
    let report = scrub(store).map_err(|e| e.to_string())?;
    if !report.clean() {
        return Err(format!("scrub after write is not clean: {}", report.summary()));
    }
    let request = RetrievalRequest::rel(1e-3);
    let through_store = retrieve(
        &Dataset::new(reference),
        &Theory,
        &request,
        &Backend::Store { store, model: None },
    )
    .map_err(|e| e.to_string())?;
    let direct = retrieve(&Dataset::new(reference), &Theory, &request, &Backend::Direct)
        .map_err(|e| e.to_string())?;
    if through_store.is_degraded() || through_store.field.data() != direct.field.data() {
        return Err("retrieval through the written store differs from Backend::Direct".into());
    }
    Ok(())
}

/// What a write must leave on disk: an artifact file that loads back to
/// `reference` byte for byte, and a sharded store that reopens and passes
/// [`check_store`] against the loaded manifest.
pub fn check_written(dir: &Path, reference: &Compressed) -> Result<(), String> {
    let loaded = persist::load(&dir.join("manifest.pmrc")).map_err(|e| e.to_string())?;
    let same = persist::to_bytes(&loaded).map_err(|e| e.to_string())?
        == persist::to_bytes(reference).map_err(|e| e.to_string())?;
    if !same {
        return Err("artifact on disk differs from the compressed artifact".into());
    }
    let mut store = ShardedStore::open_dir(&dir.join("segments")).map_err(|e| e.to_string())?;
    store.attach_manifest(&loaded);
    check_store(&store, reference)
}

/// Bytes an op stored: the artifact file plus every copy of every plane
/// the sharded store holds (ring replicas and hot tier), and the number
/// of those copies.
fn stored(dir: &Path, c: &Compressed, store: &ShardedStore) -> std::io::Result<(u64, u64)> {
    let (mut bytes, mut copies) = (usage(dir)?.0, 0u64);
    for (l, lvl) in c.levels().iter().enumerate() {
        for k in 0..lvl.num_planes() {
            let n = store.replicas((l, k)).len() as u64 + u64::from(k < store.config().hot_planes);
            bytes += n * lvl.plane_size(k);
            copies += n;
        }
    }
    Ok((bytes, copies))
}

impl RefactorWrite {
    fn size(ctx: &Ctx) -> usize {
        if ctx.smoke {
            SMOKE_SIZE
        } else {
            SIZE
        }
    }

    /// The op as a caller runs it. Returns the time `compress` took and
    /// what the op produced.
    fn write_plain(
        &self,
        class: usize,
        dir: &Path,
    ) -> Result<(u64, Compressed, ShardedStore), String> {
        let t0 = Instant::now();
        let c = Compressed::compress(&self.classes[class].field, &self.cfg);
        let first_ns = t0.elapsed().as_nanos() as u64;
        persist::save(&c, &dir.join("manifest.pmrc")).map_err(|e| e.to_string())?;
        let store = ShardedStore::mem(&c, self.shard.clone()).map_err(|e| e.to_string())?;
        Ok((first_ns, c, store))
    }

    /// The same op as the public stage calls `compress` is made of, each
    /// in a span. Returns the encoded levels for the bit-identity check.
    fn write_replay(
        &self,
        class: usize,
        dir: &Path,
    ) -> Result<(u64, Vec<LevelEncoding>, ShardedStore), String> {
        let Class { field, reference, .. } = &self.classes[class];
        let _root = trace::op(class, "replay");
        let t0 = Instant::now();
        let exec = self.cfg.exec();
        let decomposer = Decomposer::new(field.shape(), self.cfg.levels, self.cfg.mode);
        let mut data = field.data().to_vec();
        {
            let gated = exec.gate(data.len(), PARALLEL_MIN_POINTS);
            let _s = trace::span("mgard.decompose");
            decomposer.decompose_with(&mut data, &gated);
        }
        let coeffs = {
            let _s = trace::span("mgard.interleave");
            decomposer.interleave(&data)
        };
        let levels: Vec<LevelEncoding> = coeffs
            .iter()
            .map(|c| {
                let _s = trace::span("mgard.bitplane.encode");
                LevelEncoding::encode_with(
                    c,
                    self.cfg.num_planes,
                    &exec.gate(c.len(), PARALLEL_MIN_COEFFS),
                )
            })
            .collect();
        // `compress` also derives the theory constants and the value range.
        std::hint::black_box((theory_constants(&decomposer), field.value_range()));
        let first_ns = t0.elapsed().as_nanos() as u64;
        {
            let _s = trace::span("mgard.persist");
            persist::save(reference, &dir.join("manifest.pmrc")).map_err(|e| e.to_string())?;
        }
        let store = {
            let _s = trace::span("storage.shard.place");
            ShardedStore::mem(reference, self.shard.clone()).map_err(|e| e.to_string())?
        };
        Ok((first_ns, levels, store))
    }

    /// The crash-safe on-disk write of `class`, under its own root span.
    fn write_files(&mut self, class: usize, dir: &Path) -> Result<(), String> {
        {
            let _root = trace::op(class, "write");
            ShardedStore::write_files(
                &self.classes[class].reference,
                &dir.join("segments"),
                self.shard.clone(),
            )
            .map_err(|e| e.to_string())?;
        }
        self.written =
            usage(&dir.join("segments")).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(())
    }

    /// Run one op into a fresh directory. What it produced is measured,
    /// checked if `check` is set, and removed outside the timed region.
    fn op(&mut self, class: usize, mode: Mode, check: bool) -> Result<OpSample, String> {
        self.ops_started += 1;
        let dir = self.work.path().join(format!("op-{:06}", self.ops_started));
        let cpu0 = process_cpu_ns();
        let t0 = Instant::now();
        let outcome = match mode {
            Mode::Plain => {
                self.write_plain(class, &dir).map(|(first, c, store)| (first, Some(c), None, store))
            }
            Mode::Traced => self
                .write_replay(class, &dir)
                .map(|(first, lv, store)| (first, None, Some(lv), store)),
        };
        let latency_ns = t0.elapsed().as_nanos() as u64;
        let cpu_ns = process_cpu_ns() - cpu0;

        let mut sample = OpSample {
            class,
            latency_ns,
            first_ns: None,
            cpu_ns,
            bytes: 0,
            raw_bytes: inputs::raw_bytes(&self.classes[class].field),
            fingerprint: 0,
            error: None,
        };
        match outcome {
            Err(e) => sample.error = Some(e),
            Ok((first_ns, compressed, levels, store)) => {
                sample.first_ns = Some(first_ns);
                let check_replay = levels.is_some() && !self.classes[class].replay_checked;
                self.classes[class].replay_checked |= check_replay;
                let reference = &self.classes[class].reference;
                let (bytes, copies) =
                    stored(&dir, compressed.as_ref().unwrap_or(reference), &store)
                        .map_err(|e| format!("{}: {e}", dir.display()))?;
                sample.bytes = bytes;
                sample.fingerprint = digest([copies]);
                // The decomposed op must produce the one-call op's bytes.
                if let (Some(levels), true) = (levels, check_replay) {
                    let same = levels.len() == reference.levels().len()
                        && levels
                            .iter()
                            .zip(reference.levels())
                            .all(|(a, b)| a.to_bytes().ok() == b.to_bytes().ok());
                    if !same {
                        sample.error =
                            Some("decomposed stages encode different bytes than compress".into());
                    }
                }
                if check {
                    let loaded =
                        persist::load(&dir.join("manifest.pmrc")).map_err(|e| e.to_string());
                    let same = loaded.and_then(|l| {
                        Ok(persist::to_bytes(&l).map_err(|e| e.to_string())?
                            == persist::to_bytes(reference).map_err(|e| e.to_string())?)
                    });
                    sample.error = match same {
                        Err(e) => Some(e),
                        Ok(false) => Some("artifact on disk differs from the reference".into()),
                        Ok(true) => check_store(&store, reference).err(),
                    };
                }
            }
        }
        if dir.exists() {
            fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        Ok(sample)
    }
}

impl Workload for RefactorWrite {
    fn set_up(ctx: &Ctx) -> Result<Self, String> {
        let n = Self::size(ctx);
        let cfg = CompressConfig::default();
        let mut fields = inputs::gray_scott_u(ctx.seed, n, &GS_SNAPSHOTS);
        fields.extend(
            WARPX_FIELDS.iter().map(|&f| inputs::warpx(ctx.seed, n, f, inputs::WARPX_LATE)),
        );
        let classes = fields
            .into_iter()
            .map(|field| Class {
                name: format!("{}-t{}", field.name(), field.timestep()),
                reference: Compressed::compress(&field, &cfg),
                field,
                replay_checked: false,
            })
            .collect();
        let work = WorkDir::create(&ctx.root, "refactor-write").map_err(|e| e.to_string())?;
        let mut w = RefactorWrite {
            classes,
            cfg,
            shard: shard_config()?,
            work,
            ops_started: 0,
            kept: None,
            written: (0, 0),
        };
        super::warm_up(&mut w)?;
        Ok(w)
    }

    fn class_names(&self) -> Vec<String> {
        self.classes.iter().map(|c| c.name.clone()).collect()
    }

    fn describe(&self) -> String {
        let f = &self.classes[0].field;
        format!(
            "{} classes of {:?} f64 ({:.1} MB raw each), 1 driver, {} shards x R={} + {} hot planes \
             placed in memory (crash-safe file layout: verify and traced rounds only), \
             CompressConfig::default() ({} library threads)",
            self.classes.len(),
            f.shape().dims(),
            inputs::raw_bytes(f) as f64 / 1e6,
            SHARDS,
            REPLICATION,
            HOT_PLANES,
            self.cfg.exec().resolved_threads(),
        )
    }

    fn run_round(
        &mut self,
        order: &[usize],
        mode: Mode,
        rec: &mut Recorder,
    ) -> Result<Option<(u64, u64)>, String> {
        for &class in order {
            let sample = self.op(class, mode, false)?;
            rec.record(sample);
        }
        if mode == Mode::Traced {
            // The fsync-bound layout, timed under its own root span.
            for class in 0..self.classes.len() {
                let dir = self.work.path().join(format!("traced-write-{class}"));
                self.write_files(class, &dir)?;
                fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
        }
        Ok(None)
    }

    fn verify(&mut self, rec: &mut Recorder) -> Result<(), String> {
        for class in 0..self.classes.len() {
            let sample = self.op(class, Mode::Plain, true)?;
            if let Some(why) = sample.error {
                rec.fail(class, why);
            }
            // The crash-safe layout, written, reopened, scrubbed, read back.
            let dir = self.work.path().join(format!("verify-{class}"));
            let reference = &self.classes[class].reference;
            persist::save(reference, &dir.join("manifest.pmrc")).map_err(|e| e.to_string())?;
            self.write_files(class, &dir)?;
            if let Err(why) = check_written(&dir, &self.classes[class].reference) {
                rec.fail(class, why);
            }
            if let Some(old) = self.kept.replace(dir) {
                fs::remove_dir_all(&old).map_err(|e| format!("{}: {e}", old.display()))?;
            }
        }
        Ok(())
    }

    fn layer_counts(&mut self) -> Result<BTreeMap<&'static str, f64>, String> {
        let (bytes, files) = self.written;
        Ok(BTreeMap::from([
            ("storage.shard.write_bytes", bytes as f64),
            ("storage.shard.files", files as f64),
        ]))
    }

    fn written_dir(&self) -> PathBuf {
        self.kept.clone().unwrap_or_else(|| self.work.path().to_path_buf())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workdir::test_root;
    use pmr_field::Shape;

    fn artifact() -> Compressed {
        let field = Field::from_fn("t", 0, Shape::cube(17), |x, y, z| {
            ((x as f64) * 0.4).sin() + (y as f64) * 0.05 + ((z as f64) * 0.3).cos()
        });
        Compressed::compress(&field, &CompressConfig::default())
    }

    fn write(dir: &Path, c: &Compressed) {
        persist::save(c, &dir.join("manifest.pmrc")).expect("save");
        ShardedStore::write_files(c, &dir.join("segments"), shard_config().expect("cfg"))
            .expect("write_files");
    }

    #[test]
    fn a_clean_write_passes_and_a_corrupted_segment_file_fails_the_check() {
        let root = test_root("rw-corrupt");
        let c = artifact();
        write(&root, &c);
        check_written(&root, &c).expect("clean store");

        // Flip one payload byte of one replica of one segment.
        let seg = fs::read_dir(root.join("segments/shard_000"))
            .expect("shard dir")
            .flatten()
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|e| e == "pmrs"))
            .expect("a segment file");
        let mut bytes = fs::read(&seg).expect("read segment");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&seg, bytes).expect("rewrite segment");
        let err = check_written(&root, &c).expect_err("corruption must be caught");
        assert!(err.contains("scrub"), "unexpected reason: {err}");
        // The in-memory placement of the same artifact is clean.
        let mem = ShardedStore::mem(&c, shard_config().expect("cfg")).expect("mem");
        check_store(&mem, &c).expect("clean in-memory store");
        fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn a_manifest_of_another_artifact_fails_the_check() {
        let root = test_root("rw-other");
        let c = artifact();
        write(&root, &c);
        let other = Compressed::compress(
            &Field::from_fn("t", 0, Shape::cube(17), |x, _, _| x as f64),
            &CompressConfig::default(),
        );
        assert!(check_written(&root, &other).is_err());
        fs::remove_dir_all(&root).expect("cleanup");
    }
}
