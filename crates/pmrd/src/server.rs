//! The daemon: a thread-pool reactor serving retrieval requests over
//! TCP or a unix socket.
//!
//! One acceptor thread hands connections to a fixed pool of workers over
//! an mpsc channel; each worker runs the per-connection request loop
//! (connections are persistent — a client may issue many requests).
//! Request handling is the library's retrieval pipeline
//! ([`pmr_storage::fetch_planes_tolerant`]) with a daemon-level source
//! and sink: every plane comes through the shared single-flight
//! [`PlaneCache`] in front of a per-request verifying [`FetchExecutor`],
//! and goes out as a wire frame while the next one is fetched — or, for
//! [`Daemon::handle_request`], into a `Vec`; the core is the same.
//! Admission control caps in-flight retrievals globally and per tenant,
//! answering `Busy` instead of queueing invisibly; every socket read and
//! write is bounded by [`IO_TIMEOUT`], so a peer that goes silent or stops
//! reading costs a worker and a slot for two of those at most.

use crate::admission::{Admission, AdmissionConfig, Permit};
use crate::cache::{Origin, PlaneCache};
use crate::corpus::{Corpus, CorpusEntry};
use crate::protocol::{self, Report, Request, Status, Target, FLAG_NO_PLANES};
use pmr_core::api::{plan_for_target, requested_bound, RetrievalTarget};
use pmr_core::Theory;
use pmr_error::sync::{rank, Mutex};
use pmr_storage::{fetch_planes_tolerant, ExpectedSegment, FetchExecutor, Stopped, TolerantConfig};
use std::convert::Infallible;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

/// Longest a single socket read or write of a served connection may
/// block. A response holds its admission slot while it is written, so a
/// peer that stops reading — or stalls mid-request — is dropped rather than
/// pinning the slot and the worker; so is a connection that sends nothing
/// for this long between requests (a client that idles longer reconnects).
/// A write the deadline cut short comes back as a short count and is
/// resumed; against a peer that still takes nothing the resumed write
/// fails at the next deadline, so one that never reads is gone within two.
pub const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Daemon knobs.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Connection-serving worker threads. A worker holds one connection
    /// until the client closes it or [`IO_TIMEOUT`] drops it, so size this to
    /// at least the number of concurrent client connections — fewer workers
    /// than connections means the excess connections queue unserved behind
    /// the held ones.
    pub workers: usize,
    /// Shared plane cache capacity, in payload bytes.
    pub cache_bytes: u64,
    /// Admission caps (global and per tenant).
    pub admission: AdmissionConfig,
    /// Retry policy of the fetch path.
    pub tolerant: TolerantConfig,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            workers: 8,
            cache_bytes: 64 << 20,
            admission: AdmissionConfig::default(),
            tolerant: TolerantConfig::default(),
        }
    }
}

/// The daemon state shared by every worker.
pub struct Daemon {
    corpus: Corpus,
    cache: PlaneCache,
    admission: Admission,
    cfg: DaemonConfig,
}

/// Planes served for one request, by `(level, plane, payload)`.
/// Payloads are shared with the cache — streaming a hot plane to many
/// clients never copies it.
pub type ServedPlanes = Vec<(usize, u32, Arc<Vec<u8>>)>;

impl Daemon {
    /// Build a daemon over `corpus`.
    pub fn new(corpus: Corpus, cfg: DaemonConfig) -> Arc<Daemon> {
        Arc::new(Daemon {
            corpus,
            cache: PlaneCache::new(cfg.cache_bytes),
            admission: Admission::new(cfg.admission),
            cfg,
        })
    }

    /// The shared cache (counters are exposed for tests and ops).
    pub fn cache(&self) -> &PlaneCache {
        &self.cache
    }

    /// Admission state (rejection counter, in-flight gauge).
    pub fn admission(&self) -> &Admission {
        &self.admission
    }

    /// The served corpus.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// A health snapshot: cache effectiveness, admission pressure, and
    /// per-shard degraded/dead counters for every sharded dataset. This
    /// backs the wire-level Health op, so operators see shard loss
    /// without reading logs.
    pub fn health(&self) -> protocol::Health {
        let cache = self.cache.stats();
        let mut shards_degraded = 0u64;
        let mut shards_dead = 0u64;
        let mut datasets = Vec::new();
        for (name, entry) in self.corpus.entries() {
            let Some(sharded) = &entry.sharded else { continue };
            let shards = sharded
                .shard_status()
                .into_iter()
                .map(|s| {
                    let state = match s.state {
                        pmr_storage::ShardState::Healthy => protocol::SHARD_STATE_HEALTHY,
                        pmr_storage::ShardState::Degraded => {
                            shards_degraded += 1;
                            protocol::SHARD_STATE_DEGRADED
                        }
                        pmr_storage::ShardState::Dead => {
                            shards_dead += 1;
                            protocol::SHARD_STATE_DEAD
                        }
                    };
                    protocol::ShardHealth {
                        shard: u32::try_from(s.shard).unwrap_or(u32::MAX),
                        state,
                        fetches: s.fetches,
                        failures: s.failures,
                        corrupt: s.corrupt,
                        missing: s.missing,
                    }
                })
                .collect();
            datasets.push(protocol::DatasetHealth { dataset: name.to_string(), shards });
        }
        protocol::Health {
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_coalesced: cache.coalesced,
            cache_evictions: cache.evictions,
            cache_resident_bytes: cache.resident_bytes,
            admission_rejected: self.admission.rejected(),
            admission_inflight: u64::try_from(self.admission.inflight()).unwrap_or(u64::MAX),
            shards_degraded,
            shards_dead,
            datasets,
        }
    }

    /// Handle one parsed request in process, collecting the planes a
    /// socket would have been sent, in the order it would have been sent
    /// them. Public so tests and tools can exercise the server path without
    /// sockets: it is [`Daemon::serve`], the one request core, with a sink
    /// that cannot fail.
    pub fn handle_request(&self, req: &Request) -> (ServedPlanes, Report) {
        let mut planes = Vec::new();
        let Ok(report) = self.serve(req, |l, k, data| {
            planes.push((l, k, data));
            Ok::<(), Infallible>(())
        });
        (planes, report)
    }

    /// The request core: admit, plan, and hand every plane to `sink` as it
    /// lands, then account for what was delivered. `Err` is the sink's own
    /// error and means the response cannot be finished (the peer is gone);
    /// every other failure is a `Report` for the peer to read.
    fn serve<E>(
        &self,
        req: &Request,
        sink: impl FnMut(usize, u32, Arc<Vec<u8>>) -> Result<(), E>,
    ) -> Result<Report, E> {
        let reject = |status, detail: String| Ok(Report::error(status, detail));
        if req.strategy != 0 {
            let n = req.strategy;
            return reject(
                Status::Failed,
                format!("strategy {n} not available (corpus serves theory plans only)"),
            );
        }
        let Some(entry) = self.corpus.get(&req.dataset) else {
            return reject(
                Status::NotFound,
                format!("no dataset {:?} in corpus of {}", req.dataset, self.corpus.len()),
            );
        };
        let Some(permit) = self.admission.try_acquire(&req.tenant) else {
            return reject(
                Status::Busy,
                format!("tenant {:?} over admission cap; retry later", req.tenant),
            );
        };
        match self.serve_admitted(entry, &req.target, permit, sink) {
            Ok(report) => Ok(report),
            Err(Stopped::Invalid(e)) => reject(Status::Malformed, e.to_string()),
            Err(Stopped::Sink(e)) => Err(e),
        }
    }

    /// Holds `_permit` until the last plane has gone to the sink: a slot is
    /// a retrieval in progress, and over a socket that includes the writes.
    fn serve_admitted<E>(
        &self,
        entry: &CorpusEntry,
        target: &Target,
        _permit: Permit,
        mut sink: impl FnMut(usize, u32, Arc<Vec<u8>>) -> Result<(), E>,
    ) -> Result<Report, Stopped<E>> {
        let manifest = &entry.manifest;
        let target = RetrievalTarget::from(target);
        let plan = plan_for_target(manifest, &Theory, &[], &target)?;
        let bound = requested_bound(manifest, &target, &plan)?;

        // Source: the shared single-flight cache over a verifying
        // executor. The cache sits above verification, so a hit is never
        // re-hashed; the executor is per-request, so retries and attempts
        // are accounted to the request that ran them. The sink runs after
        // `get_or_fetch` has returned — never under the cache's lock or
        // while this request leads a flight others wait on.
        let mut exec = FetchExecutor::new(entry.store.as_ref(), self.cfg.tolerant.policy.clone());
        let levels = manifest.levels();
        let mut cache_hits = 0u64;
        let mut coalesced = 0u64;
        let got = fetch_planes_tolerant(
            manifest,
            &plan,
            bound,
            |(l, k)| {
                let (data, origin) = self.cache.get_or_fetch((entry.id, l, k), || {
                    exec.fetch_verified((l, k), ExpectedSegment::of_plane(&levels[l], k))
                })?;
                match origin {
                    Origin::Hit => cache_hits += 1,
                    Origin::Coalesced => coalesced += 1,
                    Origin::Fetched => {}
                }
                Ok(data)
            },
            |(l, k), data| sink(l, k, data),
        )?;

        let stats = exec.stats();
        Ok(Report {
            status: Status::Ok,
            estimated_error: manifest.estimate_for(&got.planes),
            bytes: levels.iter().zip(&got.planes).map(|(lvl, &n)| lvl.size_of_first(n)).sum(),
            planes: got.planes,
            lost: got.lost,
            attempts: stats.attempts,
            retries: stats.retries,
            cache_hits,
            coalesced,
            detail: String::new(),
        })
    }

    /// Serve one connection until the peer closes it, goes quiet for
    /// [`IO_TIMEOUT`], or a protocol / transport error makes the stream
    /// unusable. Plane frames leave as their fetches land: a run of them
    /// is queued (the `Arc`s the cache holds, nothing copied) and written
    /// with one vectored write when the next level starts, when the run is
    /// full, and before the report — so the only per-connection buffer is
    /// `MAX_PLANE_RUN` queued handles. The admission slot is held while
    /// planes are fetched and runs written; the last partial run and the
    /// report follow once the fetch loop, and with it the slot, is done. A
    /// short write is resumed; a write error — the deadline's `WouldBlock`
    /// or `TimedOut` included — ends the connection.
    fn serve_connection(&self, stream: &mut PmrdStream) {
        let mut run: ServedPlanes = Vec::with_capacity(protocol::MAX_PLANE_RUN);
        loop {
            // Requests are tiny; read them under the tight request cap so
            // an unauthenticated peer can never size a MAX_FRAME buffer.
            let frame = match protocol::read_frame_limited(stream, protocol::MAX_REQUEST_FRAME) {
                Ok(Some(frame)) => frame,
                Ok(None) | Err(_) => return, // clean EOF, deadline, or dead transport
            };
            if protocol::is_health_request(&frame) {
                let Ok(payload) = protocol::encode_health(&self.health()) else { return };
                if protocol::write_frame(stream, &payload).is_err() {
                    return;
                }
                continue;
            }
            let report = match protocol::decode_request(&frame) {
                Ok(req) => {
                    let send_planes = req.flags & FLAG_NO_PLANES == 0;
                    let served = self.serve(&req, |l, k, data| {
                        if !send_planes {
                            return Ok(());
                        }
                        if run.last().is_some_and(|&(held, _, _)| held != l) {
                            send_run(stream, &mut run)?;
                        }
                        run.push((l, k, data));
                        if run.len() == protocol::MAX_PLANE_RUN {
                            send_run(stream, &mut run)?;
                        }
                        Ok::<(), std::io::Error>(())
                    });
                    match served {
                        Ok(report) => report,
                        Err(_) => return, // the peer stopped reading; the permit is already back
                    }
                }
                Err(e) => Report::error(Status::Malformed, e.to_string()),
            };
            let Ok(payload) = protocol::encode_report(&report) else { return };
            if send_run(stream, &mut run).is_err()
                || protocol::write_frame(stream, &payload).is_err()
            {
                return;
            }
        }
    }

    /// Bind a TCP listener (use port 0 for an ephemeral port) and serve in
    /// background threads until [`DaemonHandle::stop`].
    pub fn spawn_tcp(self: &Arc<Self>, addr: &str) -> std::io::Result<DaemonHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        self.spawn_on(Listener::Tcp(listener), Endpoint::Tcp(local))
    }

    /// Bind a unix socket listener (the path must not exist) and serve in
    /// background threads until [`DaemonHandle::stop`].
    #[cfg(unix)]
    pub fn spawn_unix(self: &Arc<Self>, path: impl Into<PathBuf>) -> std::io::Result<DaemonHandle> {
        let path = path.into();
        let listener = UnixListener::bind(&path)?;
        self.spawn_on(Listener::Unix(listener), Endpoint::Unix(path))
    }

    fn spawn_on(
        self: &Arc<Self>,
        listener: Listener,
        endpoint: Endpoint,
    ) -> std::io::Result<DaemonHandle> {
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns: ConnRegistry =
            Arc::new(Mutex::new(rank::DAEMON_CONNS, std::collections::BTreeMap::new()));
        let next_conn = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let (tx, rx) = mpsc::channel::<PmrdStream>();
        let rx = Arc::new(Mutex::new(rank::DAEMON_QUEUE, rx));
        let mut workers = Vec::with_capacity(self.cfg.workers.max(1));
        for _ in 0..self.cfg.workers.max(1) {
            let daemon = Arc::clone(self);
            let rx = Arc::clone(&rx);
            let conns = Arc::clone(&conns);
            let next_conn = Arc::clone(&next_conn);
            let shutdown = Arc::clone(&shutdown);
            workers.push(std::thread::spawn(move || loop {
                let next = {
                    // The guard is the dequeue permit: `mpsc::Receiver` has
                    // one consumer, so one worker at a time waits in `recv`.
                    let guard = rx.lock();
                    guard.recv()
                };
                match next {
                    Ok(mut stream) => {
                        if shutdown.load(Ordering::SeqCst) {
                            continue; // draining: refuse late connections
                        }
                        // Register a shutdown handle so `stop()` can cut a
                        // persistent connection out from under a blocked
                        // read; re-check the flag afterwards to close the
                        // race with a concurrent sweep.
                        let id = next_conn.fetch_add(1, Ordering::SeqCst);
                        if let Ok(handle) = stream.try_clone_handle() {
                            conns.lock().insert(id, handle);
                            if shutdown.load(Ordering::SeqCst) {
                                stream.shutdown_both();
                            }
                        }
                        // A stream that cannot take its deadlines is not
                        // served: without them one stalled peer holds this
                        // worker for good.
                        if stream.set_io_timeout(IO_TIMEOUT).is_ok() {
                            daemon.serve_connection(&mut stream);
                        }
                        conns.lock().remove(&id);
                    }
                    Err(_) => return, // acceptor gone: drain complete
                }
            }));
        }
        let accept_shutdown = Arc::clone(&shutdown);
        let acceptor = std::thread::spawn(move || {
            loop {
                if accept_shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match listener.accept() {
                    Ok(stream) => {
                        if tx.send(stream).is_err() {
                            break;
                        }
                    }
                    Err(_) => {
                        if accept_shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                }
            }
            // Dropping `tx` lets the workers drain and exit.
        });
        Ok(DaemonHandle { endpoint, shutdown, conns, acceptor: Some(acceptor), workers })
    }
}

/// Shutdown handles for connections currently being served.
type ConnRegistry = Arc<Mutex<std::collections::BTreeMap<u64, PmrdStream>>>;

/// Where a spawned daemon listens.
#[derive(Debug, Clone)]
pub enum Endpoint {
    Tcp(SocketAddr),
    Unix(PathBuf),
}

impl Endpoint {
    /// Open and drop one connection: what wakes an acceptor parked in
    /// `accept` to see the shutdown flag.
    fn poke(&self) -> std::io::Result<()> {
        match self {
            Endpoint::Tcp(addr) => TcpStream::connect(addr).map(drop),
            #[cfg(unix)]
            Endpoint::Unix(path) => UnixStream::connect(path).map(drop),
            #[cfg(not(unix))]
            Endpoint::Unix(_) => Ok(()),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    fn accept(&self) -> std::io::Result<PmrdStream> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| PmrdStream::Tcp(s)),
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| PmrdStream::Unix(s)),
        }
    }
}

/// A connected byte stream, TCP or unix.
pub enum PmrdStream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl PmrdStream {
    /// A second handle to the same OS socket (for out-of-band shutdown).
    fn try_clone_handle(&self) -> std::io::Result<PmrdStream> {
        match self {
            PmrdStream::Tcp(s) => s.try_clone().map(PmrdStream::Tcp),
            #[cfg(unix)]
            PmrdStream::Unix(s) => s.try_clone().map(PmrdStream::Unix),
        }
    }

    /// Bound every later read and write on this socket to `timeout`.
    fn set_io_timeout(&self, timeout: Duration) -> std::io::Result<()> {
        match self {
            PmrdStream::Tcp(s) => {
                s.set_read_timeout(Some(timeout))?;
                s.set_write_timeout(Some(timeout))
            }
            #[cfg(unix)]
            PmrdStream::Unix(s) => {
                s.set_read_timeout(Some(timeout))?;
                s.set_write_timeout(Some(timeout))
            }
        }
    }

    /// Shut the socket down in both directions, unblocking any thread
    /// mid-read on another handle to it.
    #[expect(
        clippy::let_underscore_must_use,
        reason = "on a live handle this fails only with ENOTCONN, a peer already gone: the state it asks for"
    )]
    fn shutdown_both(&self) {
        match self {
            PmrdStream::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            #[cfg(unix)]
            PmrdStream::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

impl Read for PmrdStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            PmrdStream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            PmrdStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for PmrdStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            PmrdStream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            PmrdStream::Unix(s) => s.write(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
        match self {
            PmrdStream::Tcp(s) => s.write_vectored(bufs),
            #[cfg(unix)]
            PmrdStream::Unix(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            PmrdStream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            PmrdStream::Unix(s) => s.flush(),
        }
    }
}

/// Write the queued run of plane frames, if any, and empty the queue.
fn send_run(out: &mut impl Write, run: &mut ServedPlanes) -> std::io::Result<()> {
    let sent = protocol::write_plane_frames(out, run);
    run.clear();
    sent
}

/// Handle to a running daemon's listener and worker threads.
pub struct DaemonHandle {
    endpoint: Endpoint,
    shutdown: Arc<AtomicBool>,
    conns: ConnRegistry,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl DaemonHandle {
    /// Where the daemon is listening.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The TCP address, when TCP-bound.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        match &self.endpoint {
            Endpoint::Tcp(a) => Some(*a),
            Endpoint::Unix(_) => None,
        }
    }

    /// Stop accepting, cut live connections, and join every thread.
    /// Persistent clients see their connection close; an in-flight
    /// request may still complete its current write. A thread that
    /// panicked re-raises its panic here, once every thread is joined.
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Cut connections being served so blocked reads return. Workers
        // that pick a queued connection up after this sweep see the flag
        // and drop it unserved.
        {
            let conns = self.conns.lock();
            for conn in conns.values() {
                conn.shutdown_both();
            }
        }
        let mut panicked = None;
        if let Some(acceptor) = self.acceptor.take() {
            // A throwaway connection wakes the acceptor to see the flag. A
            // failed connect (descriptors exhausted) is retried: without it
            // the join below never returns.
            while self.endpoint.poke().is_err() && !acceptor.is_finished() {
                std::thread::sleep(Duration::from_millis(1));
            }
            panicked = acceptor.join().err();
        }
        for worker in self.workers.drain(..) {
            if let Err(panic) = worker.join() {
                panicked.get_or_insert(panic);
            }
        }
        if let Endpoint::Unix(path) = &self.endpoint {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "`stop` has no caller to tell; a socket file left behind fails the next bind at this path loudly"
            )]
            let _ = std::fs::remove_file(path);
        }
        // Not while this thread unwinds already (`stop` from a `Drop`): a
        // second panic would abort the process and lose the first.
        if let Some(panic) = panicked.filter(|_| !std::thread::panicking()) {
            std::panic::resume_unwind(panic);
        }
    }
}
