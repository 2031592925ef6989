//! Clients that stall, vanish or never read, against a one-worker daemon.
//! A silent one costs the daemon one `IO_TIMEOUT`, one that never reads at
//! most two: the worker comes back, the admission slot comes back, and the
//! next client is served.
//!
//! One worker makes the order a fact rather than a race: the well-behaved
//! client's connection is queued behind the hostile one, so an answer to it
//! proves the hostile connection was dropped first.
//!
//! The deadline is the daemon's real one (30 s), so three of these tests
//! sleep for one or two of it; they sleep in parallel.
#![cfg(unix)]

use pmr_field::{Field, Shape};
use pmr_mgard::{CompressConfig, Compressed};
use pmrd::protocol::{self, Frame, Request, Target};
use pmrd::server::IO_TIMEOUT;
use pmrd::{Client, Corpus, Daemon, DaemonConfig, DaemonHandle, Status};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Scheduling and the work between two deadlines, on a loaded CI machine.
const MARGIN: Duration = Duration::from_secs(10);
/// How long a test waits for something the daemon owes it within
/// `2 * IO_TIMEOUT` before calling the daemon stuck.
const PATIENCE: Duration = Duration::from_secs(3 * IO_TIMEOUT.as_secs());

/// Every plane of this artifact is ~0.9 MB on the wire: several times a
/// unix socket's send buffer, so a peer that does not read stops the
/// daemon's writes long before the response is out.
fn artifact() -> &'static Compressed {
    static ARTIFACT: OnceLock<Compressed> = OnceLock::new();
    ARTIFACT.get_or_init(|| {
        let mut rng = pmr_rng::Rng::seed_from_u64(22);
        let field = Field::from_fn("big", 0, Shape::cube(65), |x, y, z| {
            ((x as f64) * 0.3).sin() + ((y + z) as f64) * 0.01 + rng.range(-0.5..0.5)
        });
        Compressed::compress(&field, &CompressConfig::default())
    })
}

fn everything() -> Target {
    let c = artifact();
    Target::Planes(c.levels().iter().map(|l| l.num_planes()).collect())
}

struct Served {
    daemon: Arc<Daemon>,
    handle: Option<DaemonHandle>,
    path: PathBuf,
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.stop();
        }
    }
}

fn serve(test: &str) -> Served {
    serve_with(test, 1)
}

fn serve_with(test: &str, workers: usize) -> Served {
    let mut corpus = Corpus::new();
    corpus.insert_mem("big", artifact().clone());
    let daemon = Daemon::new(corpus, DaemonConfig { workers, ..DaemonConfig::default() });
    let path =
        std::env::temp_dir().join(format!("pmrd_hostile_{test}_{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let handle = Some(daemon.spawn_unix(&path).expect("bind unix"));
    Served { daemon, handle, path }
}

impl Served {
    fn connect(&self) -> UnixStream {
        let stream = UnixStream::connect(&self.path).expect("connect");
        stream.set_read_timeout(Some(PATIENCE)).expect("client read timeout");
        stream
    }

    /// A fresh, well-behaved client gets `Health` and the whole artifact,
    /// and leaves no admission slot behind.
    fn assert_serves_the_next_client(&self) {
        let mut client = Client::connect_unix(&self.path).expect("connect");
        let health = client.health().expect("health after a hostile client");
        assert_eq!(health.admission_inflight, 0, "the hostile client's slot must be back");
        let served = client.retrieve("good", "big", everything()).expect("retrieval");
        assert_eq!(served.report.status, Status::Ok);
        served.reconstruct(artifact()).expect("the response is whole");
        assert_eq!(self.daemon.admission().inflight(), 0);
    }
}

fn request_everything(stream: &mut UnixStream) {
    let request = Request {
        tenant: "hostile".into(),
        dataset: "big".into(),
        target: everything(),
        strategy: 0,
        flags: 0,
    };
    let payload = protocol::encode_request(&request).expect("encode");
    protocol::write_frame(stream, &payload).expect("send request");
}

/// Block until the daemon closes `stream` (EOF or reset), failing if it is
/// still open after `PATIENCE`.
fn assert_dropped(stream: &mut UnixStream) {
    let mut sink = [0u8; 4096];
    loop {
        match stream.read(&mut sink) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                panic!("the daemon still holds the connection after {PATIENCE:?}")
            }
            Err(_) => return,
        }
    }
}

#[test]
fn slowloris_header_is_dropped_at_the_deadline() {
    let served = serve("slowloris");
    let mut slow = served.connect();
    slow.write_all(&[9, 0]).expect("half a length prefix");
    let t0 = Instant::now();
    assert_dropped(&mut slow);
    assert!(t0.elapsed() >= IO_TIMEOUT / 2, "dropped before its deadline");
    served.assert_serves_the_next_client();
}

#[test]
fn connect_and_idle_is_dropped_at_the_deadline() {
    let served = serve("idle");
    let mut idle = served.connect();
    assert_dropped(&mut idle);
    served.assert_serves_the_next_client();
}

#[test]
fn a_client_that_never_reads_cannot_pin_the_slot_or_the_worker() {
    let served = serve("never_reads");
    let mut deaf = served.connect();
    let t0 = Instant::now();
    request_everything(&mut deaf);
    // Queued behind `deaf` on the only worker: answered only once the
    // daemon has given up writing to it.
    let mut client = Client::connect_unix(&served.path).expect("connect");
    let health = client.health().expect("health behind a never-reading client");
    let waited = t0.elapsed();
    assert!(waited >= IO_TIMEOUT / 2, "the response cannot have fitted the socket buffer");
    // The write that filled the socket buffer comes back short at its
    // deadline and is resumed; the resumed one moves nothing and fails at
    // the next. Two deadlines, each counted from when its write blocked.
    assert!(waited < 2 * IO_TIMEOUT + MARGIN, "second client waited {waited:?}");
    assert_eq!(health.admission_inflight, 0, "the abandoned retrieval's slot must be back");
    let got = client.retrieve("good", "big", everything()).expect("retrieval");
    assert_eq!(got.report.status, Status::Ok);
    got.reconstruct(artifact()).expect("the response is whole");
    assert_eq!(served.daemon.admission().inflight(), 0);
    // What `deaf` was sent is a whole number of frames' worth of bytes or
    // not — either way the daemon hung up on it.
    assert_dropped(&mut deaf);
}

#[test]
fn a_client_that_never_reads_holds_up_nobody_who_wants_the_same_planes() {
    // Two workers: the never-reading client keeps one blocked in a write for
    // a deadline or two, far longer than the other takes. Its planes
    // were published to the cache before they were queued for that write, so
    // a second client asking for the same planes is served from the cache at
    // once — it would wait out the deadline instead if a socket write ever
    // ran inside the cache's single-flight fetch.
    let served = serve_with("same_planes", 2);
    let mut deaf = served.connect();
    request_everything(&mut deaf);
    let t0 = Instant::now();
    while served.daemon.admission().inflight() == 0 {
        assert!(t0.elapsed() < PATIENCE, "the never-reading client's request was never admitted");
        std::thread::yield_now();
    }
    let mut client = Client::connect_unix(&served.path).expect("connect");
    let t0 = Instant::now();
    let got = client.retrieve("good", "big", everything()).expect("retrieval");
    assert_eq!(got.report.status, Status::Ok);
    assert!(t0.elapsed() < IO_TIMEOUT / 4, "served only after {:?}", t0.elapsed());
    got.reconstruct(artifact()).expect("the response is whole");
    // `stop()` cuts the blocked write loose.
}

#[test]
fn disconnect_in_the_middle_of_a_request_frame() {
    let served = serve("mid_frame");
    let mut torn = served.connect();
    torn.write_all(&100u32.to_le_bytes()).expect("length prefix");
    torn.write_all(b"PRQ1 and then").expect("part of the payload");
    drop(torn);
    served.assert_serves_the_next_client();
}

#[test]
fn peer_closes_in_the_middle_of_a_response() {
    let served = serve("mid_response");
    let mut quitter = served.connect();
    request_everything(&mut quitter);
    let first = protocol::read_frame(&mut quitter).expect("read").expect("a frame");
    assert!(matches!(protocol::decode_frame(&first), Ok(Frame::Plane(_))));
    drop(quitter);
    served.assert_serves_the_next_client();
}
