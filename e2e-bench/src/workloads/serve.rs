//! `serve-hot` and `serve-cold`: pmrd over a unix socket.
//!
//! An in-process `Daemon` serves a corpus of sharded, file-backed
//! artifacts to closed-loop clients (pmrd's callers are analysis codes
//! that wait for their reply). Op = request sent → last plane and report
//! received, every plane compared with the manifest's payload (cheaper
//! than hashing it, and nothing a checksum catches gets past it); the
//! client does not reconstruct (that is `retrieve-ladder`'s job).
//!
//! The two workloads share the daemon, the clients and the request mix
//! and differ in one number: `serve-hot` gives the `PlaneCache` twice the
//! corpus, so protocol, admission, cache lookup and socket writes are the
//! whole op; `serve-cold` gives it an eighth of the working set, so most
//! planes miss and the sharded file reads, their verification and the
//! cache's eviction dominate. "Cold" is cold for the `PlaneCache`, not
//! for the OS page cache.

use super::{Workload, REPLICATION, RUNGS, SHARDS, SMOKE_SIZE};
use crate::clock::process_cpu_ns;
use crate::harness::{digest, Ctx, Mode, OpSample, Recorder};
use crate::inputs;
use crate::trace;
use crate::workdir::WorkDir;
use pmr_core::{retrieve, Backend, Dataset, RetrievalRequest, Theory};
use pmr_field::error::max_abs_error;
use pmr_field::Field;
use pmr_mgard::checksum::fnv1a64;
use pmr_mgard::{persist, CompressConfig, Compressed};
use pmr_sim::WarpXField;
use pmr_storage::segment::{FetchError, SegmentKey, SegmentRead, SegmentStore};
use pmr_storage::{ShardConfig, ShardedStore};
use pmrd::protocol::{self, Frame};
use pmrd::{
    AdmissionConfig, CacheStats, Corpus, Daemon, DaemonConfig, DaemonHandle, Report, Request,
    ServedRetrieval, Status, Target,
};
use std::collections::BTreeMap;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Grid side of the corpus: 65³ `f64` = 2.2 MB raw (33³ in smoke mode).
const SIZE: usize = 65;
const WARPX_FIELDS: [WarpXField; 2] = [WarpXField::Ex, WarpXField::Jx];
const GS_SNAPSHOTS: [usize; 2] = [0, 2];
/// Times a round runs each class, per client: rounds last about a second.
const HOT_REPS: usize = 160;
const COLD_REPS: usize = 28;

/// The corpus's segment store as pmrd sees it: the sharded store, with a
/// span around every fetch. On a thread with no traced op open (pmrd's
/// workers) the span is inert.
struct TimedStore(Arc<ShardedStore>);

impl SegmentStore for TimedStore {
    fn fetch(&self, key: SegmentKey) -> Result<SegmentRead, FetchError> {
        let _s = trace::span("storage.fetch");
        self.0.fetch(key)
    }

    fn contains(&self, key: SegmentKey) -> bool {
        self.0.contains(key)
    }

    fn keys(&self) -> Vec<SegmentKey> {
        self.0.keys()
    }
}

pub struct Served {
    name: String,
    field: Field,
    manifest: Compressed,
    /// Manifest checksum of every plane, by `[level][plane]`: what a
    /// response's digest is made of.
    plane_fnv: Vec<Vec<u64>>,
    sharded: Arc<ShardedStore>,
}

#[derive(Debug, Clone, Copy)]
struct Class {
    dataset: usize,
    rung: usize,
}

/// What one request brought back.
pub struct Response {
    pub first_ns: u64,
    /// Bytes received on the socket, length prefixes included.
    pub wire_bytes: u64,
    pub report: Report,
    /// Digest of every plane's address and payload checksum and of the
    /// report's result fields: equal for any two correct responses to the
    /// same request.
    pub digest: u64,
    /// The plane payloads, when the caller asked to keep them.
    pub planes: Vec<(usize, u32, Vec<u8>)>,
}

/// The fields of a report that depend on the request only (cache hits,
/// attempts and retries depend on what the daemon served before).
fn report_digest(r: &Report) -> u64 {
    digest(
        [r.status as u64, r.estimated_error.to_bits(), r.bytes, r.lost.len() as u64]
            .into_iter()
            .chain(r.planes.iter().map(|&p| u64::from(p))),
    )
}

/// Send `request` and read the response to its report, checking every
/// plane frame against the manifest as it arrives.
pub fn socket_op(
    stream: &mut UnixStream,
    request: &Request,
    served: &Served,
    keep_planes: bool,
) -> Result<Response, String> {
    let t0 = Instant::now();
    let mut laps = trace::Laps::start();
    let payload = protocol::encode_request(request).map_err(|e| e.to_string())?;
    protocol::write_frame(stream, &payload).map_err(|e| e.to_string())?;
    laps.lap("pmrd.wire.send");
    let mut first_ns = None;
    let mut wire_bytes = 0u64;
    let mut frames_digest = Vec::new();
    let mut planes = Vec::new();
    let levels = served.manifest.levels();
    let mut held: Vec<u32> = vec![0; levels.len()];
    loop {
        let frame = protocol::read_frame(stream)
            .map_err(|e| e.to_string())?
            .ok_or("daemon closed the stream mid-response")?;
        laps.lap("pmrd.wire.read");
        first_ns.get_or_insert_with(|| t0.elapsed().as_nanos() as u64);
        wire_bytes += 4 + frame.len() as u64;
        let decoded = protocol::decode_frame(&frame).map_err(|e| e.to_string())?;
        laps.lap("pmrd.protocol.decode");
        match decoded {
            Frame::Plane(p) => {
                let level =
                    levels.get(p.level).filter(|l| p.plane < l.num_planes()).ok_or_else(|| {
                        format!("plane ({}, {}) is not in the manifest", p.level, p.plane)
                    })?;
                if p.payload != level.plane_payload(p.plane) {
                    return Err(format!(
                        "plane ({}, {}) differs from the manifest's",
                        p.level, p.plane
                    ));
                }
                if p.plane != held[p.level] {
                    return Err(format!("level {} planes arrived out of order", p.level));
                }
                held[p.level] += 1;
                let fnv = served.plane_fnv[p.level][p.plane as usize];
                frames_digest.extend([p.level as u64, u64::from(p.plane), fnv]);
                if keep_planes {
                    planes.push((p.level, p.plane, p.payload));
                }
                laps.lap("driver.client_verify");
            }
            Frame::Report(report) => {
                if report.status != Status::Ok {
                    return Err(format!("{:?}: {}", report.status, report.detail));
                }
                if report.planes != held || !report.lost.is_empty() {
                    return Err(format!(
                        "report names planes {:?} (lost {:?}) but {held:?} arrived",
                        report.planes, report.lost
                    ));
                }
                frames_digest.push(report_digest(&report));
                return Ok(Response {
                    first_ns: first_ns.unwrap_or(0),
                    wire_bytes,
                    report,
                    digest: digest(frames_digest),
                    planes,
                });
            }
            Frame::Health(_) => return Err("health frame in a retrieval response".into()),
        }
    }
}

/// The expensive check of one response: the planes reconstruct a field
/// bit-identical to `Backend::Direct` at the reported plane counts, the
/// reported byte count is what arrived, and the reported bound is not
/// below the measured L∞ error.
pub fn check_served(served: &Served, response: Response) -> Result<(), String> {
    let payload_bytes: u64 = response.planes.iter().map(|(_, _, p)| p.len() as u64).sum();
    if payload_bytes != response.report.bytes {
        return Err(format!(
            "report counts {} bytes, {payload_bytes} arrived",
            response.report.bytes
        ));
    }
    let direct = retrieve(
        &Dataset::new(&served.manifest),
        &Theory,
        &RetrievalRequest::plane_set(response.report.planes.clone()),
        &Backend::Direct,
    )
    .map_err(|e| e.to_string())?;
    let bound = response.report.estimated_error;
    let field = ServedRetrieval { report: response.report, planes: response.planes }
        .reconstruct(&served.manifest)
        .map_err(|e| e.to_string())?;
    if field.data() != direct.field.data() {
        return Err("served planes reconstruct a different field than Backend::Direct".into());
    }
    let measured = max_abs_error(served.field.data(), field.data());
    if bound < measured {
        return Err(format!("reported bound {bound:e} is below the measured error {measured:e}"));
    }
    Ok(())
}

/// Daemon-side counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    cache: CacheStats,
    rejected: u64,
    shard_fetches: u64,
    shard_failures: u64,
}

pub struct Serve<const COLD: bool> {
    served: Vec<Served>,
    classes: Vec<Class>,
    daemon: Arc<Daemon>,
    handle: Option<DaemonHandle>,
    clients: Vec<UnixStream>,
    cache_bytes: u64,
    working_set: u64,
    /// Counters when the set-up ended; the steady phase is the difference.
    baseline: Counters,
    /// Digest of the latest socket response per class, for the replay check.
    socket_digest: Vec<Option<u64>>,
    replay_checked: Vec<bool>,
    // Declared last: the store files outlive the daemon reading them.
    work: WorkDir,
}

pub type ServeHot = Serve<false>;
pub type ServeCold = Serve<true>;

impl<const COLD: bool> Drop for Serve<COLD> {
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(handle) = self.handle.take() {
            // Joins the acceptor and every worker thread.
            handle.stop();
        }
    }
}

impl<const COLD: bool> Serve<COLD> {
    const NAME: &'static str = if COLD { "serve-cold" } else { "serve-hot" };

    /// Clients, and as many daemon workers: half the cores each.
    fn client_count() -> usize {
        (std::thread::available_parallelism().map_or(1, |n| n.get()) / 2).max(1)
    }

    fn request(&self, class: Class, client: usize) -> Request {
        Request {
            tenant: format!("client-{client}"),
            dataset: self.served[class.dataset].name.clone(),
            target: Target::Rel(RUNGS[class.rung]),
            strategy: 0,
            flags: 0,
        }
    }

    fn counters(&self) -> Counters {
        let status: Vec<_> = self.served.iter().flat_map(|s| s.sharded.shard_status()).collect();
        Counters {
            cache: self.daemon.cache().stats(),
            rejected: self.daemon.admission().rejected(),
            shard_fetches: status.iter().map(|s| s.fetches).sum(),
            shard_failures: status.iter().map(|s| s.failures).sum(),
        }
    }

    /// Build the corpus on disk, start the daemon with `admission` and
    /// connect the clients. No warm-up round.
    pub fn build(ctx: &Ctx, admission: AdmissionConfig) -> Result<Self, String> {
        let n = if ctx.smoke { SMOKE_SIZE } else { SIZE };
        let work = WorkDir::create(&ctx.root, Self::NAME).map_err(|e| e.to_string())?;
        let mut fields: Vec<Field> = WARPX_FIELDS
            .iter()
            .map(|&f| inputs::warpx(ctx.seed, n, f, inputs::WARPX_LATE))
            .collect();
        fields.extend(inputs::gray_scott_u(ctx.seed, n, &GS_SNAPSHOTS));

        let shard_cfg = ShardConfig::try_new(SHARDS, REPLICATION).map_err(|e| e.to_string())?;
        let compress_cfg = CompressConfig::default();
        let mut corpus = Corpus::new();
        let mut served = Vec::new();
        let (mut corpus_bytes, mut working_set) = (0u64, 0u64);
        for field in fields {
            let name = format!("{}-t{}", field.name(), field.timestep());
            let dir = work.path().join("corpus").join(&name);
            let written = Compressed::compress(&field, &compress_cfg);
            persist::save(&written, &dir.join("manifest.pmrc")).map_err(|e| e.to_string())?;
            ShardedStore::write_files(&written, &dir.join("segments"), shard_cfg.clone())
                .map_err(|e| e.to_string())?;
            drop(written);
            // The daemon starts from what is on disk.
            let manifest = persist::load(&dir.join("manifest.pmrc")).map_err(|e| e.to_string())?;
            let mut store =
                ShardedStore::open_dir(&dir.join("segments")).map_err(|e| e.to_string())?;
            store.attach_manifest(&manifest);
            let sharded = Arc::new(store);
            corpus.insert(
                name.clone(),
                manifest.clone(),
                Box::new(TimedStore(Arc::clone(&sharded))),
            );
            corpus_bytes += manifest.total_bytes();
            // Rungs fetch nested prefixes, so the tightest one is the union.
            let tightest = manifest.plan_theory(manifest.absolute_bound(RUNGS[RUNGS.len() - 1]));
            working_set += manifest.retrieved_bytes(&tightest);
            let plane_fnv = manifest
                .levels()
                .iter()
                .map(|l| (0..l.num_planes()).map(|k| fnv1a64(l.plane_payload(k))).collect())
                .collect();
            served.push(Served { name, field, manifest, plane_fnv, sharded });
        }

        let clients = Self::client_count();
        let cache_bytes = if COLD { working_set / 8 } else { 2 * corpus_bytes };
        let daemon = Daemon::new(
            corpus,
            DaemonConfig { workers: clients, cache_bytes, admission, ..DaemonConfig::default() },
        );
        let socket = work.path().join("pmrd.sock");
        let handle = daemon.spawn_unix(&socket).map_err(|e| {
            format!("bind {}: {e} (unix socket paths hold ~100 bytes)", socket.display())
        })?;
        let mut w = Serve {
            classes: (0..served.len())
                .flat_map(|dataset| (0..RUNGS.len()).map(move |rung| Class { dataset, rung }))
                .collect(),
            served,
            daemon,
            handle: Some(handle),
            clients: Vec::new(),
            cache_bytes,
            working_set,
            baseline: Counters::default(),
            socket_digest: Vec::new(),
            replay_checked: Vec::new(),
            work,
        };
        w.socket_digest = vec![None; w.classes.len()];
        w.replay_checked = vec![false; w.classes.len()];
        for _ in 0..clients {
            let stream = UnixStream::connect(&socket).map_err(|e| format!("connect: {e}"))?;
            w.clients.push(stream);
        }
        Ok(w)
    }

    /// One class over the socket, as a sample.
    fn sample(
        &self,
        stream: &mut UnixStream,
        client: usize,
        index: usize,
        mode: Mode,
    ) -> (OpSample, Option<u64>) {
        let class = self.classes[index];
        let served = &self.served[class.dataset];
        let request = self.request(class, client);
        let _root = (mode == Mode::Traced).then(|| trace::op(index, "op"));
        let t0 = Instant::now();
        let result = socket_op(stream, &request, served, false);
        let latency_ns = t0.elapsed().as_nanos() as u64;
        let mut sample = OpSample {
            class: index,
            latency_ns,
            first_ns: None,
            cpu_ns: 0,
            bytes: 0,
            raw_bytes: inputs::raw_bytes(&served.field),
            fingerprint: 0,
            error: None,
        };
        let mut response_digest = None;
        match result {
            Err(e) => sample.error = Some(e),
            Ok(r) => {
                sample.first_ns = Some(r.first_ns);
                sample.bytes = r.wire_bytes;
                sample.fingerprint = digest(r.report.planes.iter().map(|&p| u64::from(p)));
                response_digest = Some(r.digest);
            }
        }
        (sample, response_digest)
    }

    /// The server's side of one op as in-process stage calls, each in a
    /// span: the request handler (its store fetches nest inside it
    /// through `TimedStore`), then the response's encode. The client's
    /// side — read, decode, verify — is spanned in the socket op itself.
    fn replay(&mut self, index: usize) -> Result<(), String> {
        let class = self.classes[index];
        let request = self.request(class, 0);
        let frames: Vec<Vec<u8>> = {
            let _root = trace::op(index, "replay");
            let (planes, report) = {
                let _s = trace::span("pmrd.handle");
                self.daemon.handle_request(&request)
            };
            let _s = trace::span("pmrd.protocol.encode");
            let mut frames = Vec::with_capacity(planes.len() + 1);
            for (l, k, data) in &planes {
                frames.push(protocol::encode_plane(*l, *k, data).map_err(|e| e.to_string())?);
            }
            frames.push(protocol::encode_report(&report).map_err(|e| e.to_string())?);
            frames
        };
        // The decomposed op must produce the frames the socket delivered.
        if !self.replay_checked[index] {
            self.replay_checked[index] = true;
            let mut digests = Vec::new();
            for frame in &frames {
                match protocol::decode_frame(frame).map_err(|e| e.to_string())? {
                    Frame::Plane(p) => {
                        digests.extend([p.level as u64, u64::from(p.plane), fnv1a64(&p.payload)]);
                    }
                    Frame::Report(r) => digests.push(report_digest(&r)),
                    Frame::Health(_) => return Err("health frame in a replayed response".into()),
                }
            }
            if self.socket_digest[index] != Some(digest(digests)) {
                return Err(format!(
                    "replayed response differs from the socket's for class {index}"
                ));
            }
        }
        Ok(())
    }
}

impl<const COLD: bool> Workload for Serve<COLD> {
    fn set_up(ctx: &Ctx) -> Result<Self, String> {
        let mut w = Self::build(ctx, AdmissionConfig::default())?;
        super::warm_up(&mut w)?;
        w.baseline = w.counters();
        Ok(w)
    }

    fn class_names(&self) -> Vec<String> {
        self.classes
            .iter()
            .map(|c| format!("{}/rel{:e}", self.served[c.dataset].name, RUNGS[c.rung]))
            .collect()
    }

    fn describe(&self) -> String {
        let f = &self.served[0].field;
        format!(
            "closed loop, {} client(s) and {} worker(s) on a unix socket; corpus of {} artifacts of \
             {:?} f64 ({:.1} MB raw each) on {} shards x R={} FileStores; PlaneCache {:.2} MB = \
             {:.2} x working set ({:.2} MB); cold means PlaneCache-cold, the OS page cache stays warm",
            self.clients.len(),
            self.clients.len(),
            self.served.len(),
            f.shape().dims(),
            inputs::raw_bytes(f) as f64 / 1e6,
            SHARDS,
            REPLICATION,
            self.cache_bytes as f64 / 1e6,
            self.cache_bytes as f64 / self.working_set as f64,
            self.working_set as f64 / 1e6,
        )
    }

    fn reps_per_round(&self) -> usize {
        if COLD {
            COLD_REPS
        } else {
            HOT_REPS
        }
    }

    fn run_round(
        &mut self,
        order: &[usize],
        mode: Mode,
        rec: &mut Recorder,
    ) -> Result<Option<(u64, u64)>, String> {
        let mut clients = std::mem::take(&mut self.clients);
        let cpu0 = process_cpu_ns();
        let t0 = Instant::now();
        let this = &*self;
        let per_client: Vec<Vec<(OpSample, Option<u64>)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(client, stream)| {
                    scope.spawn(move || {
                        // Each client walks the same order from its own offset.
                        let start = client * order.len() / Self::client_count();
                        (0..order.len())
                            .map(|i| order[(start + i) % order.len()])
                            .map(|index| this.sample(stream, client, index, mode))
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let cpu_ns = process_cpu_ns() - cpu0;
        self.clients = clients;
        for (sample, response_digest) in per_client.into_iter().flatten() {
            if let Some(d) = response_digest {
                self.socket_digest[sample.class] = Some(d);
            }
            rec.record(sample);
        }
        if mode == Mode::Traced {
            // One replay per class, in the round's own (shuffled) order so
            // the cache sees the mix the socket ops see.
            let mut seen = vec![false; self.classes.len()];
            for &index in order {
                if std::mem::replace(&mut seen[index], true) {
                    continue;
                }
                if let Err(why) = self.replay(index) {
                    rec.fail(index, why);
                }
            }
        }
        Ok(Some((wall_ns, cpu_ns)))
    }

    fn verify(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let mut stream = self.clients.pop().ok_or("no client connection")?;
        for (index, &class) in self.classes.iter().enumerate() {
            let served = &self.served[class.dataset];
            let checked = socket_op(&mut stream, &self.request(class, 0), served, true)
                .and_then(|response| check_served(served, response));
            if let Err(why) = checked {
                rec.fail(index, why);
            }
        }
        self.clients.push(stream);
        Ok(())
    }

    fn layer_counts(&mut self) -> Result<BTreeMap<&'static str, f64>, String> {
        let now = self.counters();
        let base = self.baseline;
        let hits = now.cache.hits - base.cache.hits;
        let coalesced = now.cache.coalesced - base.cache.coalesced;
        let lookups = hits + coalesced + (now.cache.misses - base.cache.misses);
        Ok(BTreeMap::from([
            ("pmrd.cache.hit_ratio", if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 }),
            ("pmrd.cache.evictions", (now.cache.evictions - base.cache.evictions) as f64),
            ("pmrd.cache.coalesced", coalesced as f64),
            ("pmrd.cache.resident_mb", now.cache.resident_bytes as f64 / (1u64 << 20) as f64),
            ("pmrd.admission.rejected", (now.rejected - base.rejected) as f64),
            ("storage.shard.fetches", (now.shard_fetches - base.shard_fetches) as f64),
            ("storage.shard.fallbacks", (now.shard_failures - base.shard_failures) as f64),
        ]))
    }

    fn written_dir(&self) -> PathBuf {
        self.work.path().join("corpus")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(tag: &str) -> Ctx {
        Ctx { seed: 9, smoke: true, root: crate::workdir::test_root(tag) }
    }

    #[test]
    fn a_too_small_admission_cap_counts_every_op_as_failed() {
        let ctx = ctx("busy");
        let mut w =
            ServeHot::build(&ctx, AdmissionConfig { max_inflight: 0, max_inflight_per_tenant: 0 })
                .expect("build");
        let mut rec = Recorder::new(w.class_names());
        let order: Vec<usize> = (0..w.classes.len()).collect();
        w.run_round(&order, Mode::Plain, &mut rec).expect("round");
        let attempted = (order.len() * w.clients.len()) as u64;
        assert_eq!((rec.attempted, rec.failed), (attempted, attempted));
        assert!(rec.failures[0].contains("Busy"), "{:?}", rec.failures);
        assert_eq!(rec.op_ms_p50(), None);
        drop(w);
        let _ = std::fs::remove_dir_all(&ctx.root);
    }

    #[test]
    fn served_planes_pass_the_check_and_tampered_ones_fail_it() {
        let ctx = ctx("check");
        let mut w = ServeCold::set_up(&ctx).expect("set-up");
        let mut rec = Recorder::new(w.class_names());
        w.verify(&mut rec).expect("verify");
        assert_eq!(rec.failed, 0, "{:?}", rec.failures);

        let class = w.classes[1];
        let mut stream = w.clients.pop().expect("client");
        let request = w.request(class, 0);
        // A response that claims one plane more than it carries.
        let mut short =
            socket_op(&mut stream, &request, &w.served[class.dataset], true).expect("op");
        short.planes.pop();
        assert!(check_served(&w.served[class.dataset], short).is_err());
        // Checked against another dataset's manifest, the stream itself
        // fails (and is left half-read, which is why this comes last).
        let other = &w.served[(class.dataset + 1) % w.served.len()];
        let err = socket_op(&mut stream, &request, other, false).err().expect("payload mismatch");
        assert!(err.contains("differs from the manifest"), "unexpected reason: {err}");
        drop((stream, w));
        let _ = std::fs::remove_dir_all(&ctx.root);
    }

    #[test]
    fn the_cold_cache_misses_and_the_hot_cache_hits() {
        let hit_ratio = |cold: bool| {
            let ctx = ctx(if cold { "cold" } else { "hot" });
            let ratio = if cold {
                let mut w = ServeCold::set_up(&ctx).expect("set-up");
                let mut rec = Recorder::new(w.class_names());
                let order: Vec<usize> = (0..w.classes.len()).collect();
                w.run_round(&order, Mode::Plain, &mut rec).expect("round");
                assert_eq!(rec.failed, 0, "{:?}", rec.failures);
                w.layer_counts().expect("counts")["pmrd.cache.hit_ratio"]
            } else {
                let mut w = ServeHot::set_up(&ctx).expect("set-up");
                let mut rec = Recorder::new(w.class_names());
                let order: Vec<usize> = (0..w.classes.len()).collect();
                w.run_round(&order, Mode::Plain, &mut rec).expect("round");
                assert_eq!(rec.failed, 0, "{:?}", rec.failures);
                w.layer_counts().expect("counts")["pmrd.cache.hit_ratio"]
            };
            let _ = std::fs::remove_dir_all(&ctx.root);
            ratio
        };
        assert!(hit_ratio(false) >= 0.95);
        assert!(hit_ratio(true) <= 0.5);
    }
}
