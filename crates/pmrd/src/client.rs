//! A blocking pmrd client.
//!
//! Connects over TCP or a unix socket, issues requests, and collects the
//! streamed plane frames plus the terminating report. Reconstruction is
//! client-side: [`ServedRetrieval::reconstruct`] regroups the plane
//! payloads into per-level prefixes and decodes them against the
//! dataset's manifest, bit-identically to a direct library retrieval.
//!
//! Everything here is error-returning, never panicking: a daemon speaking
//! garbage produces a [`PmrError`], not a client crash.

use crate::protocol::{self, Frame, Report, Request, Target};
use crate::server::PmrdStream;
use pmr_error::PmrError;
use pmr_field::Field;
use pmr_mgard::Compressed;
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};

/// A parsed `tcp:HOST:PORT` / `unix:PATH` connection address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConnectAddr {
    Tcp(String),
    Unix(PathBuf),
}

impl ConnectAddr {
    /// Parse `tcp:host:port` or `unix:/path/to.sock`.
    pub fn parse(s: &str) -> Result<ConnectAddr, PmrError> {
        if let Some(rest) = s.strip_prefix("tcp:") {
            Ok(ConnectAddr::Tcp(rest.to_string()))
        } else if let Some(rest) = s.strip_prefix("unix:") {
            Ok(ConnectAddr::Unix(PathBuf::from(rest)))
        } else {
            Err(PmrError::invalid_config(format!("address {s:?} must start with tcp: or unix:")))
        }
    }
}

/// One response: the report plus the plane payloads that preceded it.
#[derive(Debug, Clone)]
pub struct ServedRetrieval {
    /// The achieved-bound report.
    pub report: Report,
    /// Streamed planes in arrival order: `(level, plane, payload)`.
    pub planes: Vec<(usize, u32, Vec<u8>)>,
}

impl ServedRetrieval {
    /// Decode the served planes against `manifest`. The daemon streams
    /// each level's planes as a contiguous prefix `0..n`; anything else is
    /// a protocol violation, reported as malformed rather than decoded
    /// into silent garbage.
    pub fn reconstruct(&self, manifest: &Compressed) -> Result<Field, PmrError> {
        let mut payloads: Vec<Vec<&[u8]>> = vec![Vec::new(); manifest.num_levels()];
        for (level, plane, payload) in &self.planes {
            let slot = payloads.get_mut(*level).ok_or_else(|| {
                PmrError::malformed(
                    "pmrd frame",
                    format!("plane frame for level {level} out of range"),
                )
            })?;
            let expected = u32::try_from(slot.len()).unwrap_or(u32::MAX);
            if *plane != expected {
                return Err(PmrError::malformed(
                    "pmrd frame",
                    format!(
                        "level {level} planes arrived out of order: got {plane}, want {expected}"
                    ),
                ));
            }
            slot.push(payload);
        }
        manifest.retrieve_from_payloads(&payloads, None)
    }
}

/// A persistent connection to a pmrd daemon.
///
/// The daemon closes a connection that sends nothing for
/// [`IO_TIMEOUT`](crate::server::IO_TIMEOUT) between requests; the next
/// request on it fails with a transport error and there is no automatic
/// reconnect — a caller that idles that long connects again.
pub struct Client {
    stream: PmrdStream,
}

impl Client {
    /// Connect to `addr` (TCP or unix).
    pub fn connect(addr: &ConnectAddr) -> Result<Client, PmrError> {
        match addr {
            ConnectAddr::Tcp(hostport) => Client::connect_tcp(hostport),
            ConnectAddr::Unix(path) => Client::connect_unix(path),
        }
    }

    /// Connect over TCP, e.g. `"127.0.0.1:7070"`.
    pub fn connect_tcp(addr: &str) -> Result<Client, PmrError> {
        let stream = TcpStream::connect(addr).map_err(|e| PmrError::io_at(addr, e))?;
        stream.set_nodelay(true).map_err(|e| PmrError::io_at(addr, e))?;
        Ok(Client { stream: PmrdStream::Tcp(stream) })
    }

    /// Connect over a unix socket.
    #[cfg(unix)]
    pub fn connect_unix(path: &Path) -> Result<Client, PmrError> {
        let stream = UnixStream::connect(path).map_err(|e| PmrError::io_at(path, e))?;
        Ok(Client { stream: PmrdStream::Unix(stream) })
    }

    #[cfg(not(unix))]
    pub fn connect_unix(path: &Path) -> Result<Client, PmrError> {
        Err(PmrError::invalid_config(format!(
            "unix sockets unavailable on this platform: {path:?}"
        )))
    }

    /// Issue one retrieval with the default strategy and flags.
    pub fn retrieve(
        &mut self,
        tenant: &str,
        dataset: &str,
        target: Target,
    ) -> Result<ServedRetrieval, PmrError> {
        self.retrieve_with(tenant, dataset, target, 0, 0)
    }

    /// Issue one retrieval, choosing the strategy byte and flags (e.g.
    /// [`protocol::FLAG_NO_PLANES`] for a report-only probe).
    pub fn retrieve_with(
        &mut self,
        tenant: &str,
        dataset: &str,
        target: Target,
        strategy: u8,
        flags: u8,
    ) -> Result<ServedRetrieval, PmrError> {
        let req = Request {
            tenant: tenant.to_string(),
            dataset: dataset.to_string(),
            target,
            strategy,
            flags,
        };
        let payload = protocol::encode_request(&req)?;
        protocol::write_frame(&mut self.stream, &payload)
            .map_err(|e| PmrError::io_at("pmrd connection", e))?;
        let mut planes = Vec::new();
        loop {
            let frame = protocol::read_frame(&mut self.stream)
                .map_err(|e| PmrError::io_at("pmrd connection", e))?
                .ok_or_else(|| {
                    PmrError::malformed("pmrd frame", "daemon closed the stream mid-response")
                })?;
            match protocol::decode_frame(&frame)? {
                Frame::Plane(p) => planes.push((p.level, p.plane, p.payload)),
                Frame::Report(report) => return Ok(ServedRetrieval { report, planes }),
                Frame::Health(_) => {
                    return Err(PmrError::malformed(
                        "pmrd frame",
                        "unexpected health frame in a retrieval response",
                    ));
                }
            }
        }
    }

    /// Probe the daemon's health: cache hit/miss counters, admission
    /// rejections, and per-shard degraded/dead state.
    pub fn health(&mut self) -> Result<protocol::Health, PmrError> {
        let payload = protocol::encode_health_request();
        protocol::write_frame(&mut self.stream, &payload)
            .map_err(|e| PmrError::io_at("pmrd connection", e))?;
        let frame = protocol::read_frame(&mut self.stream)
            .map_err(|e| PmrError::io_at("pmrd connection", e))?
            .ok_or_else(|| {
                PmrError::malformed("pmrd frame", "daemon closed the stream mid-response")
            })?;
        match protocol::decode_frame(&frame)? {
            Frame::Health(h) => Ok(h),
            _ => Err(PmrError::malformed(
                "pmrd frame",
                "expected a health frame in response to a health probe",
            )),
        }
    }
}
