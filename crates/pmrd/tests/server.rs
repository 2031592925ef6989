//! End-to-end tests of the daemon: socket transport, concurrency,
//! coalescing, admission control, and faults under load.

use pmr_core::{retrieve, Backend, Dataset, RetrievalRequest, Theory};
use pmr_field::{Field, Shape};
use pmr_json::Json;
use pmr_mgard::{CompressConfig, Compressed};
use pmr_storage::{
    FaultConfig, FaultInjector, FetchError, MemStore, RetryPolicy, SegmentKey, SegmentRead,
    SegmentStore, ShardConfig, TolerantConfig,
};
use pmrd::{
    run_load, AdmissionConfig, Client, ConnectAddr, Corpus, Daemon, DaemonConfig, LoadSpec,
    Request, Status, Target,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn artifact(name: &str) -> (Field, Compressed) {
    let field = Field::from_fn(name, 0, Shape::cube(17), |x, y, z| {
        ((x as f64) * 0.45).sin() + ((y as f64) * 0.3).cos() * 0.6 + (z as f64) * 0.015
    });
    let c = Compressed::compress(&field, &CompressConfig::default());
    (field, c)
}

/// A store wrapper counting fetch attempts per segment.
struct CountingStore<S> {
    inner: S,
    counts: Mutex<BTreeMap<SegmentKey, u64>>,
}

impl<S> CountingStore<S> {
    fn new(inner: S) -> Self {
        CountingStore { inner, counts: Mutex::new(BTreeMap::new()) }
    }
}

impl<S: SegmentStore> SegmentStore for CountingStore<S> {
    fn fetch(&self, key: SegmentKey) -> Result<SegmentRead, FetchError> {
        *self.counts.lock().unwrap().entry(key).or_insert(0) += 1;
        self.inner.fetch(key)
    }
    fn contains(&self, key: SegmentKey) -> bool {
        self.inner.contains(key)
    }
    fn keys(&self) -> Vec<SegmentKey> {
        self.inner.keys()
    }
}

/// A store wrapper adding real wall-clock latency per fetch, so that
/// concurrent requests genuinely overlap in the daemon.
struct SlowStore<S> {
    inner: S,
    delay: Duration,
}

impl<S: SegmentStore> SegmentStore for SlowStore<S> {
    fn fetch(&self, key: SegmentKey) -> Result<SegmentRead, FetchError> {
        std::thread::sleep(self.delay);
        self.inner.fetch(key)
    }
    fn contains(&self, key: SegmentKey) -> bool {
        self.inner.contains(key)
    }
    fn keys(&self) -> Vec<SegmentKey> {
        self.inner.keys()
    }
}

#[test]
fn concurrent_socket_clients_are_bit_identical_to_direct_retrieval() {
    let (_field, c) = artifact("jet");
    let mut corpus = Corpus::new();
    corpus.insert_mem("jet", c.clone());
    let daemon = Daemon::new(corpus, DaemonConfig { workers: 8, ..DaemonConfig::default() });
    let handle = daemon.spawn_tcp("127.0.0.1:0").expect("bind");
    let addr = handle.tcp_addr().expect("tcp").to_string();

    let rels = [1e-2, 1e-3, 1e-4, 5e-3];
    let mut threads = Vec::new();
    for t in 0..8 {
        let addr = addr.clone();
        let c = c.clone();
        threads.push(std::thread::spawn(move || {
            let mut client = Client::connect_tcp(&addr).expect("connect");
            for m in 0..3 {
                let rel = rels[(t + m) % rels.len()];
                let served = client
                    .retrieve(&format!("tenant{t}"), "jet", Target::Rel(rel))
                    .expect("served retrieval");
                assert_eq!(served.report.status, Status::Ok);
                assert!(!served.report.is_degraded());
                let over_wire = served.reconstruct(&c).expect("reconstruct");

                let ds = Dataset::new(&c);
                let direct = retrieve(&ds, &Theory, &RetrievalRequest::rel(rel), &Backend::Direct)
                    .expect("direct retrieval");
                assert_eq!(
                    over_wire.data(),
                    direct.field.data(),
                    "daemon bytes must decode bit-identically to the library path"
                );
                assert_eq!(served.report.planes, direct.planes);
                assert!((served.report.estimated_error - direct.estimated_error).abs() < 1e-12);
            }
        }));
    }
    for t in threads {
        t.join().expect("client thread");
    }
    handle.stop();
}

#[test]
fn shared_planes_hit_the_store_exactly_once() {
    let (_field, c) = artifact("shared");
    let counting = Arc::new(CountingStore::new(SlowStore {
        inner: MemStore::from_compressed(&c),
        delay: Duration::from_millis(2),
    }));

    struct ArcStore(Arc<CountingStore<SlowStore<MemStore>>>);
    impl SegmentStore for ArcStore {
        fn fetch(&self, key: SegmentKey) -> Result<SegmentRead, FetchError> {
            self.0.fetch(key)
        }
        fn contains(&self, key: SegmentKey) -> bool {
            self.0.contains(key)
        }
        fn keys(&self) -> Vec<SegmentKey> {
            self.0.keys()
        }
    }

    let mut corpus = Corpus::new();
    corpus.insert("shared", c.clone(), Box::new(ArcStore(Arc::clone(&counting))));
    let daemon = Daemon::new(corpus, DaemonConfig { workers: 8, ..DaemonConfig::default() });
    let handle = daemon.spawn_tcp("127.0.0.1:0").expect("bind");
    let addr = handle.tcp_addr().expect("tcp").to_string();

    // Every client asks for the same plan at the same time: with
    // single-flight coalescing plus the cache, each plane is fetched from
    // the backing store exactly once across all 8 requests.
    let mut threads = Vec::new();
    let coalesced_total = Arc::new(AtomicU64::new(0));
    let hits_total = Arc::new(AtomicU64::new(0));
    for t in 0..8 {
        let addr = addr.clone();
        let coalesced_total = Arc::clone(&coalesced_total);
        let hits_total = Arc::clone(&hits_total);
        threads.push(std::thread::spawn(move || {
            let mut client = Client::connect_tcp(&addr).expect("connect");
            let served =
                client.retrieve(&format!("t{t}"), "shared", Target::Rel(1e-3)).expect("served");
            assert_eq!(served.report.status, Status::Ok);
            coalesced_total.fetch_add(served.report.coalesced, Ordering::SeqCst);
            hits_total.fetch_add(served.report.cache_hits, Ordering::SeqCst);
        }));
    }
    for t in threads {
        t.join().expect("client thread");
    }
    handle.stop();

    let counts = counting.counts.lock().unwrap();
    assert!(!counts.is_empty(), "the plan must have fetched something");
    for (key, &n) in counts.iter() {
        assert_eq!(n, 1, "segment {key:?} fetched {n} times; coalescing must dedupe");
    }
    assert!(
        coalesced_total.load(Ordering::SeqCst) + hits_total.load(Ordering::SeqCst) > 0,
        "with 8 identical concurrent requests, some planes must be shared"
    );
}

#[test]
fn flaky_store_under_concurrent_load_stays_within_bounds() {
    let (field, c) = artifact("flaky");
    let cfg = FaultConfig { transient: 0.25, bit_flip: 0.1, ..FaultConfig::quiet(77) };
    let inj = FaultInjector::new(MemStore::from_compressed(&c), cfg).expect("injector");
    let mut corpus = Corpus::new();
    corpus.insert("flaky", c.clone(), Box::new(inj));
    let daemon = Daemon::new(
        corpus,
        DaemonConfig {
            workers: 6,
            tolerant: TolerantConfig { policy: RetryPolicy { max_attempts: 64 } },
            ..DaemonConfig::default()
        },
    );
    let handle = daemon.spawn_tcp("127.0.0.1:0").expect("bind");
    let addr = handle.tcp_addr().expect("tcp").to_string();

    let mut threads = Vec::new();
    for t in 0..6 {
        let addr = addr.clone();
        let c = c.clone();
        let field = field.clone();
        threads.push(std::thread::spawn(move || {
            let mut client = Client::connect_tcp(&addr).expect("connect");
            let rel = [1e-2, 1e-3][t % 2];
            let served = client.retrieve("ft", "flaky", Target::Rel(rel)).expect("served");
            assert_eq!(served.report.status, Status::Ok);
            assert!(!served.report.is_degraded(), "transient faults must be retried away");
            let out = served.reconstruct(&c).expect("reconstruct");
            let bound = c.absolute_bound(rel);
            let err = pmr_field::error::max_abs_error(field.data(), out.data());
            assert!(err <= bound, "rel {rel}: measured {err} must be within {bound}");
        }));
    }
    let mut retries_seen = false;
    for t in threads {
        t.join().expect("client thread");
    }
    // The retry accounting is aggregate across requests; at 25% transient
    // odds over dozens of fetches, at least one retry is near-certain and
    // cache stats must show actual misses (the store was really exercised).
    retries_seen |= daemon.cache().stats().misses > 0;
    assert!(retries_seen);
    handle.stop();
}

#[test]
fn admission_cap_answers_busy_instead_of_queueing() {
    let (_field, c) = artifact("busy");
    let mut corpus = Corpus::new();
    corpus.insert(
        "busy",
        c.clone(),
        Box::new(SlowStore {
            inner: MemStore::from_compressed(&c),
            delay: Duration::from_millis(30),
        }),
    );
    let daemon = Daemon::new(
        corpus,
        DaemonConfig {
            workers: 4,
            cache_bytes: 0, // no cache: every request must run the slow fetches
            admission: AdmissionConfig { max_inflight: 1, max_inflight_per_tenant: 1 },
            ..DaemonConfig::default()
        },
    );
    let handle = daemon.spawn_tcp("127.0.0.1:0").expect("bind");
    let addr = handle.tcp_addr().expect("tcp").to_string();

    let mut threads = Vec::new();
    for t in 0..4 {
        let addr = addr.clone();
        threads.push(std::thread::spawn(move || {
            // Stagger so one request is mid-flight when the others arrive.
            std::thread::sleep(Duration::from_millis(5 * t as u64));
            let mut client = Client::connect_tcp(&addr).expect("connect");
            let served = client.retrieve("same-tenant", "busy", Target::Rel(1e-3)).expect("reply");
            served.report.status
        }));
    }
    let statuses: Vec<Status> = threads.into_iter().map(|t| t.join().expect("thread")).collect();
    handle.stop();

    assert!(statuses.contains(&Status::Ok), "someone must get through: {statuses:?}");
    assert!(
        statuses.contains(&Status::Busy),
        "with a 1-slot cap and 30ms-per-plane fetches, someone must be rejected: {statuses:?}"
    );
    assert!(daemon.admission().rejected() > 0);
}

#[test]
fn unknown_dataset_and_bad_strategy_are_clean_rejections() {
    let (_field, c) = artifact("known");
    let mut corpus = Corpus::new();
    corpus.insert_mem("known", c);
    let daemon = Daemon::new(corpus, DaemonConfig::default());
    let handle = daemon.spawn_tcp("127.0.0.1:0").expect("bind");
    let addr = handle.tcp_addr().expect("tcp").to_string();

    let mut client = Client::connect_tcp(&addr).expect("connect");
    let nf = client.retrieve("t", "nope", Target::Rel(1e-3)).expect("reply");
    assert_eq!(nf.report.status, Status::NotFound);
    assert!(nf.planes.is_empty());

    let bad = client.retrieve_with("t", "known", Target::Rel(1e-3), 9, 0).expect("reply");
    assert_eq!(bad.report.status, Status::Failed);

    let neg = client.retrieve("t", "known", Target::Abs(-1.0)).expect("reply");
    assert_eq!(neg.report.status, Status::Malformed);

    // The connection survives rejections: a good request still works.
    let ok = client.retrieve("t", "known", Target::Rel(1e-2)).expect("reply");
    assert_eq!(ok.report.status, Status::Ok);
    handle.stop();
}

#[test]
fn byte_budget_and_plane_set_targets_serve_over_the_wire() {
    let (_field, c) = artifact("targets");
    let mut corpus = Corpus::new();
    corpus.insert_mem("targets", c.clone());
    let daemon = Daemon::new(corpus, DaemonConfig::default());
    let handle = daemon.spawn_tcp("127.0.0.1:0").expect("bind");
    let addr = handle.tcp_addr().expect("tcp").to_string();
    let mut client = Client::connect_tcp(&addr).expect("connect");

    let budget = 32 << 10;
    let served = client.retrieve("t", "targets", Target::Bytes(budget)).expect("budget");
    assert_eq!(served.report.status, Status::Ok);
    assert!(served.report.bytes <= budget, "served {} bytes over budget", served.report.bytes);
    served.reconstruct(&c).expect("budget decode");

    let planes = vec![2u32; c.num_levels()];
    let served = client.retrieve("t", "targets", Target::Planes(planes.clone())).expect("planes");
    assert_eq!(served.report.status, Status::Ok);
    assert_eq!(served.report.planes, planes);
    handle.stop();
}

#[cfg(unix)]
#[test]
fn unix_socket_transport_serves_report_only_probes() {
    let (_field, c) = artifact("sock");
    let mut corpus = Corpus::new();
    corpus.insert_mem("sock", c);
    let daemon = Daemon::new(corpus, DaemonConfig::default());
    let path = std::env::temp_dir().join(format!("pmrd_test_{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let handle = daemon.spawn_unix(&path).expect("bind unix");

    let mut client = Client::connect_unix(&path).expect("connect");
    let served = client
        .retrieve_with("t", "sock", Target::Rel(1e-3), 0, pmrd::FLAG_NO_PLANES)
        .expect("probe");
    assert_eq!(served.report.status, Status::Ok);
    assert!(served.planes.is_empty(), "report-only probes must not stream planes");
    assert!(served.report.bytes > 0, "the report still accounts the plan's bytes");
    handle.stop();
    assert!(!path.exists(), "stop() cleans up the socket file");
}

#[test]
fn open_loop_load_run_reports_clean_percentiles() {
    let (_field, c) = artifact("load");
    let mut corpus = Corpus::new();
    corpus.insert_mem("load", c);
    let daemon = Daemon::new(corpus, DaemonConfig { workers: 8, ..DaemonConfig::default() });
    let handle = daemon.spawn_tcp("127.0.0.1:0").expect("bind");
    let addr = ConnectAddr::Tcp(handle.tcp_addr().expect("tcp").to_string());

    let spec = LoadSpec {
        datasets: vec!["load".to_string()],
        targets: vec![Target::Rel(1e-2), Target::Rel(1e-3)],
        requests: 60,
        rate_rps: 400.0,
        connections: 6,
        ..LoadSpec::default()
    };
    let report = run_load(&addr, &spec).expect("load run");
    handle.stop();

    assert_eq!(report.errors, 0, "healthy daemon must not produce protocol errors");
    assert_eq!(report.ok + report.busy, 60);
    assert!(report.ok > 0);
    assert!(report.p50_ms.is_finite() && report.p99_ms >= report.p50_ms);
    let json = pmr_json::parse(&pmrd::load::reports_to_json(&[report], "test").to_pretty())
        .expect("load report JSON parses");
    let run = &json.get("runs").and_then(Json::as_arr).expect("runs")[0];
    assert_eq!(run.get("offered_rps").and_then(Json::as_f64), Some(400.0));
}

#[test]
fn sharded_corpus_survives_single_shard_loss_bit_identically_at_r2() {
    let (_field, c) = artifact("sharded");
    let cfg = ShardConfig::try_new(4, 2).expect("topology").with_hot_planes(2);
    let mut corpus = Corpus::new();
    corpus.insert_sharded_mem("sharded", c.clone(), cfg).expect("sharded corpus");
    let daemon = Daemon::new(
        corpus,
        DaemonConfig {
            workers: 4,
            cache_bytes: 0, // no cache: every request exercises the sharded read path
            ..DaemonConfig::default()
        },
    );
    let handle = daemon.spawn_tcp("127.0.0.1:0").expect("bind");
    let addr = handle.tcp_addr().expect("tcp").to_string();
    let mut client = Client::connect_tcp(&addr).expect("connect");

    let ds = Dataset::new(&c);
    let direct =
        retrieve(&ds, &Theory, &RetrievalRequest::rel(1e-4), &Backend::Direct).expect("direct");

    let healthy = client.retrieve("t", "sharded", Target::Rel(1e-4)).expect("healthy");
    assert_eq!(healthy.report.status, Status::Ok);
    let healthy_field = healthy.reconstruct(&c).expect("reconstruct");
    assert_eq!(healthy_field.data(), direct.field.data());

    // Kill every shard in turn; at R=2 the served bytes must stay
    // bit-identical and undegraded regardless of which shard dies.
    for dead in 0..4 {
        let sharded = daemon
            .corpus()
            .get("sharded")
            .and_then(|e| e.sharded.as_ref())
            .expect("sharded handle")
            .clone();
        sharded.kill_shard(dead);
        let served = client.retrieve("t", "sharded", Target::Rel(1e-4)).expect("degraded serve");
        assert_eq!(served.report.status, Status::Ok, "shard {dead} dead");
        assert!(
            !served.report.is_degraded(),
            "R=2 must absorb the loss of shard {dead} without degradation"
        );
        let out = served.reconstruct(&c).expect("reconstruct");
        assert_eq!(
            out.data(),
            direct.field.data(),
            "shard {dead} dead: served bytes must stay bit-identical"
        );
        sharded.revive_shard(dead);
    }
    handle.stop();
}

#[test]
fn health_op_reports_cache_counters_and_dead_shards() {
    let (_field, c) = artifact("health");
    let cfg = ShardConfig::try_new(3, 2).expect("topology");
    let mut corpus = Corpus::new();
    corpus.insert_sharded_mem("health", c.clone(), cfg).expect("sharded corpus");
    let daemon = Daemon::new(corpus, DaemonConfig { workers: 2, ..DaemonConfig::default() });
    let handle = daemon.spawn_tcp("127.0.0.1:0").expect("bind");
    let addr = handle.tcp_addr().expect("tcp").to_string();
    let mut client = Client::connect_tcp(&addr).expect("connect");

    let h0 = client.health().expect("initial health");
    assert_eq!(h0.shards_dead, 0);
    assert_eq!(h0.datasets.len(), 1);
    assert_eq!(h0.datasets[0].dataset, "health");
    assert_eq!(h0.datasets[0].shards.len(), 3);

    // A first retrieval misses the cache; a repeat hits it.
    client.retrieve("t", "health", Target::Rel(1e-3)).expect("miss pass");
    client.retrieve("t", "health", Target::Rel(1e-3)).expect("hit pass");
    let h1 = client.health().expect("health after traffic");
    assert!(h1.cache_misses > 0, "first retrieval must miss the cache");
    assert!(h1.cache_hits > 0, "repeat retrieval must hit the cache");
    let fetched: u64 = h1.datasets[0].shards.iter().map(|s| s.fetches).sum();
    assert!(fetched > 0, "shard fetch counters must account the traffic");

    // Shard loss is visible without reading logs.
    daemon
        .corpus()
        .get("health")
        .and_then(|e| e.sharded.as_ref())
        .expect("sharded handle")
        .kill_shard(1);
    let h2 = client.health().expect("health after kill");
    assert_eq!(h2.shards_dead, 1, "the killed shard must report dead");
    let state = h2.datasets[0].shards.iter().find(|s| s.shard == 1).expect("shard 1").state;
    assert_eq!(state, pmrd::protocol::SHARD_STATE_DEAD);

    // Health probes and retrievals interleave on one connection.
    let served = client.retrieve("t", "health", Target::Rel(1e-2)).expect("post-probe serve");
    assert_eq!(served.report.status, Status::Ok);
    handle.stop();
}

#[test]
fn in_process_handle_request_matches_socket_path() {
    // The socket tests above exercise transport; this pins the in-process
    // entry point tests and tools use directly.
    let (_field, c) = artifact("direct");
    let mut corpus = Corpus::new();
    corpus.insert_mem("direct", c.clone());
    let daemon = Daemon::new(corpus, DaemonConfig::default());
    let req = Request {
        tenant: "t".into(),
        dataset: "direct".into(),
        target: Target::Rel(1e-3),
        strategy: 0,
        flags: 0,
    };
    let (planes, report) = daemon.handle_request(&req);
    assert_eq!(report.status, Status::Ok);
    let ds = Dataset::new(&c);
    let direct =
        retrieve(&ds, &Theory, &RetrievalRequest::rel(1e-3), &Backend::Direct).expect("direct");
    assert_eq!(report.planes, direct.planes);
    assert_eq!(planes.len() as u64, report.planes.iter().map(|&p| u64::from(p)).sum::<u64>());
}

/// Serve `c` from `store` with permanently `dead` segments and check the
/// wire response against the library's Store backend on the same store:
/// same planes, bound and losses in the `Report`, a bit-identical
/// reconstruction, and a reported bound the measured error respects.
/// Returns the served plane counts.
fn degraded_response_matches_library(
    field: &Field,
    c: &Compressed,
    dead: SegmentKey,
    rel: f64,
) -> Vec<u32> {
    let store = MemStore::from_compressed(c).without(&[dead]);
    let library = retrieve(
        &Dataset::new(c).with_original(field),
        &Theory,
        &RetrievalRequest::rel(rel).measured(),
        &Backend::store(&store),
    )
    .expect("library retrieval");
    let degraded = library.degraded.as_ref().expect("a dead segment must degrade");

    let mut corpus = Corpus::new();
    corpus.insert("d", c.clone(), Box::new(store.clone()));
    // Both sides run the same degradation loop, re-planning included.
    let handle =
        Daemon::new(corpus, DaemonConfig::default()).spawn_tcp("127.0.0.1:0").expect("bind");
    let mut client =
        Client::connect_tcp(&handle.tcp_addr().expect("tcp").to_string()).expect("connect");
    let served = client.retrieve("t", "d", Target::Rel(rel)).expect("served retrieval");
    handle.stop();

    assert_eq!(served.report.status, Status::Ok);
    assert_eq!(served.report.planes, library.planes);
    assert_eq!(served.report.estimated_error, library.estimated_error);
    assert_eq!(served.report.lost, degraded.lost_segments);
    assert_eq!(served.report.lost, vec![dead]);
    let over_wire = served.reconstruct(c).expect("reconstruct");
    assert_eq!(over_wire.data(), library.field.data());
    let measured = library.achieved_error.expect("measured");
    assert!(
        measured <= served.report.estimated_error,
        "measured {measured:e} above the reported bound {:e}",
        served.report.estimated_error
    );
    served.report.planes
}

#[test]
fn lost_segment_is_compensated_at_surviving_levels_like_the_library() {
    let (field, c) = artifact("replan");
    let rel = 1e-3;
    let plan = c.plan_theory(c.absolute_bound(rel));
    assert!(plan.planes[0] > 2, "plan must lean on level 0 for this bound");
    // Plane 1 of level 0 is gone: the level is cut to a single plane and
    // the re-plan must buy the accuracy back elsewhere.
    let served = degraded_response_matches_library(&field, &c, (0, 1), rel);
    assert_eq!(served[0], 1, "prefix truncated at the loss");
    let deeper = served.iter().zip(&plan.planes).skip(1).any(|(&got, &want)| got > want);
    assert!(deeper, "re-plan should spend planes at surviving levels: {served:?} vs {plan:?}");
}

#[test]
fn total_loss_of_a_level_is_served_honestly_like_the_library() {
    let (field, c) = artifact("gone");
    // Plane 0 of the finest level missing: that level contributes nothing.
    let finest = c.num_levels() - 1;
    let served = degraded_response_matches_library(&field, &c, (finest, 0), 1e-4);
    assert_eq!(served[finest], 0);
}

/// The socket twin of the two tests above: the segment is lost *after*
/// the response's first frames have reached the client. The store parks
/// the doomed fetch until the client has read a plane frame off the
/// socket, so the interleaving is forced, not hoped for. A frame already
/// sent stays sent; the report that closes the response is the honest one.
#[test]
fn segment_lost_after_the_first_frame_was_sent_is_reported_like_the_library() {
    use pmrd::protocol::{self, Frame};
    use std::sync::mpsc;

    struct Parked {
        inner: MemStore,
        doomed: SegmentKey,
        released: Mutex<mpsc::Receiver<()>>,
    }
    impl SegmentStore for Parked {
        fn fetch(&self, key: SegmentKey) -> Result<SegmentRead, FetchError> {
            if key == self.doomed {
                self.released.lock().unwrap().recv().expect("the client lets the fetch go");
            }
            self.inner.fetch(key)
        }
        fn contains(&self, key: SegmentKey) -> bool {
            self.inner.contains(key)
        }
        fn keys(&self) -> Vec<SegmentKey> {
            self.inner.keys()
        }
    }

    let (field, c) = artifact("late-loss");
    let rel = 1e-3;
    // Level 0 goes out when level 1's first plane lands; the next fetch is
    // the doomed one.
    let doomed: SegmentKey = (1, 1);
    let plan = c.plan_theory(c.absolute_bound(rel));
    assert!(plan.planes[1] > 2, "the plan must want more of level 1 than it will get");
    let store = MemStore::from_compressed(&c).without(&[doomed]);
    let library = retrieve(
        &Dataset::new(&c).with_original(&field),
        &Theory,
        &RetrievalRequest::rel(rel).measured(),
        &Backend::store(&store),
    )
    .expect("library retrieval");

    let (release, released) = mpsc::channel();
    let mut corpus = Corpus::new();
    corpus.insert(
        "d",
        c.clone(),
        Box::new(Parked { inner: store.clone(), doomed, released: Mutex::new(released) }),
    );
    let handle =
        Daemon::new(corpus, DaemonConfig::default()).spawn_tcp("127.0.0.1:0").expect("bind");
    let mut socket =
        std::net::TcpStream::connect(handle.tcp_addr().expect("tcp")).expect("connect");
    let request = Request {
        tenant: "t".into(),
        dataset: "d".into(),
        target: Target::Rel(rel),
        strategy: 0,
        flags: 0,
    };
    protocol::write_frame(&mut socket, &protocol::encode_request(&request).expect("encode"))
        .expect("send");

    let mut planes = Vec::new();
    let report = loop {
        let frame = protocol::read_frame(&mut socket).expect("read").expect("a frame");
        match protocol::decode_frame(&frame).expect("decode") {
            Frame::Plane(p) => {
                if planes.is_empty() {
                    // In hand while the daemon is still parked on the
                    // segment it is about to lose.
                    assert_eq!((p.level, p.plane), (0, 0));
                    release.send(()).expect("daemon is waiting");
                }
                planes.push((p.level, p.plane, p.payload));
            }
            Frame::Report(report) => break report,
            Frame::Health(_) => panic!("health frame in a retrieval response"),
        }
    };
    handle.stop();

    let degraded = library.degraded.as_ref().expect("a dead segment must degrade");
    assert_eq!(report.status, Status::Ok);
    assert_eq!(report.planes, library.planes);
    assert_eq!(report.estimated_error, library.estimated_error);
    assert_eq!(report.lost, degraded.lost_segments);
    assert_eq!(report.lost, vec![doomed]);
    assert_eq!(report.planes[1], 1, "level 1 ends where the loss cut it");
    // The re-plan's planes follow the first round's on the wire.
    let deeper = report.planes.iter().zip(&plan.planes).skip(2).any(|(&got, &want)| got > want);
    assert!(deeper, "re-plan should spend planes at surviving levels: {report:?} vs {plan:?}");
    let over_wire = pmrd::ServedRetrieval { report, planes }.reconstruct(&c).expect("reconstruct");
    assert_eq!(over_wire.data(), library.field.data());
}
