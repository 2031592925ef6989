//! The four workloads and the interface the driver runs them through.

pub mod refactor_write;
pub mod retrieve_ladder;
pub mod serve;

use crate::harness::{Ctx, Mode, Recorder};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Grid side of every field in `--smoke` mode.
pub const SMOKE_SIZE: usize = 33;
/// The ladder of relative tolerances, loosest first.
pub const RUNGS: [f64; 3] = [1e-1, 1e-3, 1e-5];
/// The sharded layout every store is written in: `refactor-write` writes
/// what the serve workloads read.
pub const SHARDS: usize = 4;
pub const REPLICATION: usize = 2;

pub trait Workload: Sized {
    /// Everything `setup_s` times: generate the inputs from the seed,
    /// build what the ops run against, and run one warm-up round.
    fn set_up(ctx: &Ctx) -> Result<Self, String>;

    fn class_names(&self) -> Vec<String>;

    /// Sizes, client count and topology, for the run header.
    fn describe(&self) -> String;

    /// How many times a round runs each class.
    fn reps_per_round(&self) -> usize {
        1
    }

    /// Run the classes in `order` once each and record every op; the
    /// caller closes the round. A round whose clients ran concurrently
    /// returns the `(wall_ns, cpu_ns)` it measured around itself. `Err` is
    /// a harness failure (the run aborts); a failed op is a sample.
    fn run_round(
        &mut self,
        order: &[usize],
        mode: Mode,
        rec: &mut Recorder,
    ) -> Result<Option<(u64, u64)>, String>;

    /// The expensive correctness checks, once per class, outside timing.
    /// Failures are counted on `rec`.
    fn verify(&mut self, rec: &mut Recorder) -> Result<(), String>;

    /// Counts and ratios taken at the layer boundaries (traced run).
    fn layer_counts(&mut self) -> Result<BTreeMap<&'static str, f64>, String>;

    /// A directory of files this workload wrote, read back raw for
    /// `env.file_read_gbps`.
    fn written_dir(&self) -> PathBuf;
}

/// Run the warm-up round that ends every set-up; a failing op there means
/// the steady phase would measure errors.
pub fn warm_up<W: Workload>(w: &mut W) -> Result<(), String> {
    let names = w.class_names();
    let order: Vec<usize> = (0..names.len()).collect();
    let mut rec = Recorder::new(names);
    w.run_round(&order, Mode::Plain, &mut rec)?;
    if rec.failed > 0 {
        return Err(format!("warm-up round failed: {}", rec.failures.join("; ")));
    }
    Ok(())
}
