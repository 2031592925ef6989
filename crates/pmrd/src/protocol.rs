//! The pmrd wire protocol: length-prefixed binary frames over a byte
//! stream (TCP or a unix socket).
//!
//! Every frame is `u32 LE length || payload`, with the length capped at
//! [`MAX_FRAME`] so a corrupt prefix cannot make either side allocate
//! unboundedly. One request frame yields a stream of response frames:
//! zero or more plane frames (tag `P`) carrying the encoded bit-plane
//! payloads the plan fetched, terminated by exactly one report frame
//! (tag `R`) with the achieved-bound accounting. Rejections (busy,
//! unknown dataset, malformed request) are a lone report frame with the
//! corresponding [`Status`].
//!
//! Request layout (after the frame header):
//!
//! ```text
//! "PRQ1"                       magic
//! u16 len || utf8              tenant
//! u16 len || utf8              dataset
//! u8  kind                     0 abs, 1 rel, 2 byte budget, 3 plane set
//!   kind 0/1: f64 LE bound
//!   kind 2:   u64 LE budget
//!   kind 3:   u16 count || count x u32 LE planes
//! u8  strategy                 0 = theory (greedy over sound estimates)
//! u8  flags                    bit 0: omit plane frames (report only)
//! ```
//!
//! Report layout: `'R'`, `u8` status, `u16 || u32...` achieved planes,
//! `f64` estimated (achieved) bound, `u64` payload bytes, `u8` degraded
//! flag with `u16 || (u16,u32)...` lost segments, four `u64` counters
//! (attempts, retries, cache hits, coalesced waits), and a `u16 || utf8`
//! detail string.

use pmr_error::{ByteReader, PmrError};
use std::io::{IoSlice, Read, Write};
use std::sync::Arc;

/// Hard ceiling on a single frame, request or response.
pub const MAX_FRAME: usize = 64 << 20;

/// Hard ceiling on a *request* frame. Requests are tiny (magic, two short
/// strings, a target); the daemon must never let an unauthenticated peer
/// size a 64 MiB allocation, so the server reads requests under this much
/// tighter cap.
pub const MAX_REQUEST_FRAME: usize = 1 << 20;

/// Hard ceiling on any length-prefixed list inside a frame body. Counts
/// above this are protocol errors, so a hostile count can never size an
/// allocation: real plane/shard/dataset lists are far smaller.
pub const MAX_WIRE_LIST: usize = 4096;

/// Increment for chunked payload reads: allocation growth is paced by
/// bytes actually received, never by the (attacker-controlled) length
/// prefix alone.
const READ_CHUNK: usize = 64 << 10;

/// Request magic: protocol version 1.
pub const REQ_MAGIC: [u8; 4] = *b"PRQ1";

/// Health-request magic: a four-byte frame asking for a [`Health`]
/// snapshot instead of a retrieval.
pub const HEALTH_MAGIC: [u8; 4] = *b"PHQ1";

/// Flag bit: the client wants the report only, no plane frames.
pub const FLAG_NO_PLANES: u8 = 1;

/// Outcome of a request, carried in the report frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Planes streamed and the reported bound holds.
    Ok = 0,
    /// Admission control rejected the request; retry later.
    Busy = 1,
    /// The daemon serves no dataset by that name.
    NotFound = 2,
    /// The request frame did not parse or asked something invalid.
    Malformed = 3,
    /// The retrieval itself failed (storage error, bad strategy, ...).
    Failed = 4,
}

impl Status {
    /// Decode a wire byte.
    pub fn from_u8(b: u8) -> Option<Status> {
        match b {
            0 => Some(Status::Ok),
            1 => Some(Status::Busy),
            2 => Some(Status::NotFound),
            3 => Some(Status::Malformed),
            4 => Some(Status::Failed),
            _ => None,
        }
    }
}

/// What the client asks for — mirrors `pmr_core::api::RetrievalTarget`
/// plus the relative-bound spelling resolved server-side.
#[derive(Debug, Clone, PartialEq)]
pub enum Target {
    /// Absolute `L∞` bound.
    Abs(f64),
    /// Bound relative to the artifact's value range.
    Rel(f64),
    /// Byte budget: best bound the bytes can buy.
    Bytes(u64),
    /// Explicit per-level plane counts.
    Planes(Vec<u32>),
}

impl From<&Target> for pmr_core::api::RetrievalTarget {
    fn from(target: &Target) -> Self {
        use pmr_core::api::{RetrievalTarget, Tolerance};
        match target {
            Target::Abs(e) => RetrievalTarget::Tolerance(Tolerance::Abs(*e)),
            Target::Rel(r) => RetrievalTarget::Tolerance(Tolerance::Rel(*r)),
            Target::Bytes(b) => RetrievalTarget::ByteBudget(*b),
            Target::Planes(p) => RetrievalTarget::PlaneSet(p.clone()),
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Tenant name for admission control and quota accounting.
    pub tenant: String,
    /// Dataset name in the daemon's corpus.
    pub dataset: String,
    /// What to retrieve.
    pub target: Target,
    /// Strategy selector; `0` = theory planner (the only one a corpus
    /// without trained models can serve).
    pub strategy: u8,
    /// See [`FLAG_NO_PLANES`].
    pub flags: u8,
}

/// The achieved-bound report terminating every response.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub status: Status,
    /// Per-level plane counts actually served.
    pub planes: Vec<u32>,
    /// Sound theory estimate at the served planes — the bound the
    /// reconstruction is guaranteed to satisfy.
    pub estimated_error: f64,
    /// Compressed payload bytes of the served planes.
    pub bytes: u64,
    /// Segments given up as unrecoverable (empty when healthy).
    pub lost: Vec<(usize, u32)>,
    /// Fetch attempts issued against the backing store.
    pub attempts: u64,
    /// Attempts beyond the first per segment.
    pub retries: u64,
    /// Planes served straight from the shared cache.
    pub cache_hits: u64,
    /// Planes obtained by waiting on another request's in-flight fetch.
    pub coalesced: u64,
    /// Human-readable detail (error text for non-`Ok` statuses).
    pub detail: String,
}

impl Report {
    /// A rejection/error report with empty accounting.
    pub fn error(status: Status, detail: impl Into<String>) -> Self {
        Report {
            status,
            planes: Vec::new(),
            estimated_error: f64::INFINITY,
            bytes: 0,
            lost: Vec::new(),
            attempts: 0,
            retries: 0,
            cache_hits: 0,
            coalesced: 0,
            detail: detail.into(),
        }
    }

    /// Did the retrieval lose segments?
    pub fn is_degraded(&self) -> bool {
        !self.lost.is_empty()
    }
}

/// One plane frame: the payload of `(level, plane)`.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaneFrame {
    pub level: usize,
    pub plane: u32,
    pub payload: Vec<u8>,
}

/// Shard state bytes in a [`ShardHealth`] record.
pub const SHARD_STATE_HEALTHY: u8 = 0;
pub const SHARD_STATE_DEGRADED: u8 = 1;
pub const SHARD_STATE_DEAD: u8 = 2;

/// Per-shard counters of one sharded dataset, as reported by the Health op.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardHealth {
    pub shard: u32,
    /// One of the `SHARD_STATE_*` bytes.
    pub state: u8,
    pub fetches: u64,
    pub failures: u64,
    pub corrupt: u64,
    pub missing: u64,
}

/// Shard health of one dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetHealth {
    pub dataset: String,
    pub shards: Vec<ShardHealth>,
}

/// The daemon-wide health snapshot returned by the Health op: cache
/// effectiveness, admission pressure, and per-shard degraded/dead
/// counters — shard loss is visible here without reading logs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Health {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_coalesced: u64,
    pub cache_evictions: u64,
    pub cache_resident_bytes: u64,
    pub admission_rejected: u64,
    pub admission_inflight: u64,
    /// Shards currently reporting `Degraded`, across all datasets.
    pub shards_degraded: u64,
    /// Shards currently reporting `Dead`, across all datasets.
    pub shards_dead: u64,
    /// Per-dataset shard detail (empty for unsharded datasets).
    pub datasets: Vec<DatasetHealth>,
}

/// A decoded response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    Plane(PlaneFrame),
    Report(Report),
    Health(Health),
}

fn proto_err(detail: impl Into<String>) -> PmrError {
    PmrError::malformed("pmrd frame", detail)
}

// ---------------------------------------------------------------- encoding

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) -> Result<(), PmrError> {
    let len = u16::try_from(s.len())
        .map_err(|_| proto_err(format!("string of {} bytes exceeds u16 length", s.len())))?;
    put_u16(out, len);
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

/// A `u16`-length-prefixed UTF-8 string.
fn read_string(r: &mut ByteReader<'_>) -> Result<String, PmrError> {
    let len = usize::from(r.u16()?);
    Ok(r.str(len)?.to_owned())
}

/// A `u16`-counted list of `item`s. The count is bounded by
/// [`MAX_WIRE_LIST`]. Every item takes at least one byte, so no more are
/// reserved than the frame has bytes left: a hostile count sizes nothing
/// the frame does not hold.
fn read_list<'a, T>(
    r: &mut ByteReader<'a>,
    what: &str,
    mut item: impl FnMut(&mut ByteReader<'a>) -> Result<T, PmrError>,
) -> Result<Vec<T>, PmrError> {
    let n = usize::from(r.u16()?);
    if n > MAX_WIRE_LIST {
        return Err(proto_err(format!("{what} count {n} exceeds {MAX_WIRE_LIST}")));
    }
    let mut list = Vec::with_capacity(n.min(r.left()));
    for _ in 0..n {
        list.push(item(r)?);
    }
    Ok(list)
}

/// Serialise a request into a frame payload.
pub fn encode_request(req: &Request) -> Result<Vec<u8>, PmrError> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&REQ_MAGIC);
    put_str(&mut out, &req.tenant)?;
    put_str(&mut out, &req.dataset)?;
    match &req.target {
        Target::Abs(e) => {
            out.push(0);
            put_f64(&mut out, *e);
        }
        Target::Rel(r) => {
            out.push(1);
            put_f64(&mut out, *r);
        }
        Target::Bytes(b) => {
            out.push(2);
            put_u64(&mut out, *b);
        }
        Target::Planes(planes) => {
            out.push(3);
            let n = u16::try_from(planes.len())
                .map_err(|_| proto_err("plane set exceeds u16 length"))?;
            put_u16(&mut out, n);
            for &p in planes {
                put_u32(&mut out, p);
            }
        }
    }
    out.push(req.strategy);
    out.push(req.flags);
    Ok(out)
}

/// Parse a request frame payload.
pub fn decode_request(buf: &[u8]) -> Result<Request, PmrError> {
    let mut r = ByteReader::new(buf, "pmrd frame");
    if r.take(4)? != REQ_MAGIC {
        return Err(proto_err("bad request magic (want PRQ1)"));
    }
    let req = Request {
        tenant: read_string(&mut r)?,
        dataset: read_string(&mut r)?,
        target: match r.u8()? {
            0 => Target::Abs(r.f64()?),
            1 => Target::Rel(r.f64()?),
            2 => Target::Bytes(r.u64()?),
            3 => Target::Planes(read_list(&mut r, "plane", ByteReader::u32)?),
            k => return Err(proto_err(format!("unknown target kind {k}"))),
        },
        strategy: r.u8()?,
        flags: r.u8()?,
    };
    r.done()?;
    Ok(req)
}

/// Bytes of a plane frame before its payload: `u32` frame length, `'P'`,
/// `u16` level, `u32` plane.
const PLANE_HEAD: usize = 11;

/// The head of a plane frame, length prefix included — the one place its
/// layout is written down.
fn plane_head(level: usize, plane: u32, payload_len: usize) -> Result<[u8; PLANE_HEAD], PmrError> {
    let lvl = u16::try_from(level).map_err(|_| proto_err("level exceeds u16"))?;
    let body = payload_len + PLANE_HEAD - 4;
    let len = u32::try_from(body)
        .ok()
        .filter(|_| body <= MAX_FRAME)
        .ok_or_else(|| proto_err(format!("plane frame of {body} bytes exceeds MAX_FRAME")))?;
    let mut head = [0u8; PLANE_HEAD];
    head[..4].copy_from_slice(&len.to_le_bytes());
    head[4] = b'P';
    head[5..7].copy_from_slice(&lvl.to_le_bytes());
    head[7..].copy_from_slice(&plane.to_le_bytes());
    Ok(head)
}

/// Serialise a plane frame payload.
pub fn encode_plane(level: usize, plane: u32, payload: &[u8]) -> Result<Vec<u8>, PmrError> {
    let head = plane_head(level, plane, payload.len())?;
    let mut out = Vec::with_capacity(payload.len() + PLANE_HEAD - 4);
    out.extend_from_slice(&head[4..]);
    out.extend_from_slice(payload);
    Ok(out)
}

/// Serialise a report frame payload.
pub fn encode_report(rep: &Report) -> Result<Vec<u8>, PmrError> {
    let mut out = Vec::with_capacity(64 + rep.detail.len());
    out.push(b'R');
    out.push(rep.status as u8);
    let n = u16::try_from(rep.planes.len()).map_err(|_| proto_err("planes exceed u16 length"))?;
    put_u16(&mut out, n);
    for &p in &rep.planes {
        put_u32(&mut out, p);
    }
    put_f64(&mut out, rep.estimated_error);
    put_u64(&mut out, rep.bytes);
    out.push(u8::from(!rep.lost.is_empty()));
    let nl = u16::try_from(rep.lost.len()).map_err(|_| proto_err("lost list exceeds u16"))?;
    put_u16(&mut out, nl);
    for &(l, k) in &rep.lost {
        let lvl = u16::try_from(l).map_err(|_| proto_err("lost level exceeds u16"))?;
        put_u16(&mut out, lvl);
        put_u32(&mut out, k);
    }
    put_u64(&mut out, rep.attempts);
    put_u64(&mut out, rep.retries);
    put_u64(&mut out, rep.cache_hits);
    put_u64(&mut out, rep.coalesced);
    put_str(&mut out, &rep.detail)?;
    Ok(out)
}

/// The health-request frame payload.
pub fn encode_health_request() -> Vec<u8> {
    HEALTH_MAGIC.to_vec()
}

/// Is this request frame a health probe (as opposed to a retrieval)?
pub fn is_health_request(buf: &[u8]) -> bool {
    buf == HEALTH_MAGIC
}

/// Serialise a health snapshot frame payload.
pub fn encode_health(h: &Health) -> Result<Vec<u8>, PmrError> {
    let mut out = Vec::with_capacity(64 + h.datasets.len() * 64);
    out.push(b'H');
    put_u64(&mut out, h.cache_hits);
    put_u64(&mut out, h.cache_misses);
    put_u64(&mut out, h.cache_coalesced);
    put_u64(&mut out, h.cache_evictions);
    put_u64(&mut out, h.cache_resident_bytes);
    put_u64(&mut out, h.admission_rejected);
    put_u64(&mut out, h.admission_inflight);
    put_u64(&mut out, h.shards_degraded);
    put_u64(&mut out, h.shards_dead);
    let nd = u16::try_from(h.datasets.len()).map_err(|_| proto_err("dataset count exceeds u16"))?;
    put_u16(&mut out, nd);
    for d in &h.datasets {
        put_str(&mut out, &d.dataset)?;
        let ns = u16::try_from(d.shards.len()).map_err(|_| proto_err("shard count exceeds u16"))?;
        put_u16(&mut out, ns);
        for s in &d.shards {
            put_u32(&mut out, s.shard);
            out.push(s.state);
            put_u64(&mut out, s.fetches);
            put_u64(&mut out, s.failures);
            put_u64(&mut out, s.corrupt);
            put_u64(&mut out, s.missing);
        }
    }
    Ok(out)
}

/// Parse one response frame payload (plane, report or health). Struct
/// fields are read in the order they are written, which is wire order.
pub fn decode_frame(buf: &[u8]) -> Result<Frame, PmrError> {
    let mut r = ByteReader::new(buf, "pmrd frame");
    let frame = match r.u8()? {
        b'P' => Frame::Plane(PlaneFrame {
            level: usize::from(r.u16()?),
            plane: r.u32()?,
            payload: r.rest().to_vec(),
        }),
        b'R' => Frame::Report(Report {
            status: Status::from_u8(r.u8()?)
                .ok_or_else(|| proto_err("unknown status byte in report"))?,
            planes: read_list(&mut r, "plane", ByteReader::u32)?,
            estimated_error: r.f64()?,
            bytes: r.u64()?,
            lost: {
                let _degraded_flag = r.u8()?;
                read_list(&mut r, "lost", |r| Ok((usize::from(r.u16()?), r.u32()?)))?
            },
            attempts: r.u64()?,
            retries: r.u64()?,
            cache_hits: r.u64()?,
            coalesced: r.u64()?,
            detail: read_string(&mut r)?,
        }),
        b'H' => Frame::Health(Health {
            cache_hits: r.u64()?,
            cache_misses: r.u64()?,
            cache_coalesced: r.u64()?,
            cache_evictions: r.u64()?,
            cache_resident_bytes: r.u64()?,
            admission_rejected: r.u64()?,
            admission_inflight: r.u64()?,
            shards_degraded: r.u64()?,
            shards_dead: r.u64()?,
            datasets: read_list(&mut r, "dataset", |r| {
                Ok(DatasetHealth {
                    dataset: read_string(r)?,
                    shards: read_list(r, "shard", read_shard_health)?,
                })
            })?,
        }),
        t => return Err(proto_err(format!("unknown response frame tag {t:#04x}"))),
    };
    r.done()?;
    Ok(frame)
}

/// One [`ShardHealth`] record of a health frame.
fn read_shard_health(r: &mut ByteReader<'_>) -> Result<ShardHealth, PmrError> {
    let shard = r.u32()?;
    let state = r.u8()?;
    if state > SHARD_STATE_DEAD {
        return Err(proto_err(format!("unknown shard state byte {state}")));
    }
    Ok(ShardHealth {
        shard,
        state,
        fetches: r.u64()?,
        failures: r.u64()?,
        corrupt: r.u64()?,
        missing: r.u64()?,
    })
}

// ---------------------------------------------------------------- framing

/// Write one length-prefixed frame: prefix and payload in one vectored write.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    let len = (payload.len() as u32).to_le_bytes();
    write_all_vectored(w, &mut [IoSlice::new(&len), IoSlice::new(payload)])
}

/// Most plane frames one [`write_plane_frames`] call puts in a single
/// vectored write: two slices a frame, well under the kernel's limit of
/// 1024 per call.
pub const MAX_PLANE_RUN: usize = 32;

/// Write each `(level, plane, payload)` as a plane frame — byte for byte
/// what `write_frame(w, &encode_plane(level, plane, payload)?)` writes —
/// without copying a payload: the heads are built on the stack and every
/// run of up to [`MAX_PLANE_RUN`] frames goes out as one vectored write of
/// `head, payload, head, payload, ...`, resumed after a short write.
pub fn write_plane_frames(
    w: &mut impl Write,
    planes: &[(usize, u32, Arc<Vec<u8>>)],
) -> std::io::Result<()> {
    for run in planes.chunks(MAX_PLANE_RUN) {
        let mut heads = [[0u8; PLANE_HEAD]; MAX_PLANE_RUN];
        for (head, (level, plane, payload)) in heads.iter_mut().zip(run) {
            *head = plane_head(*level, *plane, payload.len()).map_err(|e| {
                std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string())
            })?;
        }
        let mut slices = [IoSlice::new(&[]); 2 * MAX_PLANE_RUN];
        for (pair, (head, (_, _, payload))) in slices.chunks_mut(2).zip(heads.iter().zip(run)) {
            pair[0] = IoSlice::new(head);
            pair[1] = IoSlice::new(payload);
        }
        write_all_vectored(w, &mut slices[..2 * run.len()])?;
    }
    Ok(())
}

/// `write_vectored` until every slice is out, resuming after short writes
/// (std's `write_all_vectored` is unstable).
fn write_all_vectored(w: &mut impl Write, mut bufs: &mut [IoSlice<'_>]) -> std::io::Result<()> {
    // Advancing drops the empty slices at the front, so `Ok(0)` below can
    // only mean the peer takes no more bytes.
    IoSlice::advance_slices(&mut bufs, 0);
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Read one length-prefixed frame under the protocol-wide [`MAX_FRAME`]
/// cap. `Ok(None)` means clean EOF at a frame boundary (the peer closed
/// the connection).
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    read_frame_limited(r, MAX_FRAME)
}

/// Read one length-prefixed frame, rejecting any length prefix above
/// `max`. The payload is read in [`READ_CHUNK`]-sized increments, so even
/// under the cap, memory growth is paced by bytes actually received — a
/// lying length prefix buys an attacker an error, not an allocation.
pub fn read_frame_limited(r: &mut impl Read, max: usize) -> std::io::Result<Option<Vec<u8>>> {
    let mut hdr = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        match r.read(&mut hdr[got..])? {
            0 if got == 0 => return Ok(None),
            0 => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof inside frame header",
                ))
            }
            n => got += n,
        }
    }
    let len = u32::from_le_bytes(hdr) as usize;
    if len > max {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {max}"),
        ));
    }
    let mut payload = Vec::with_capacity(len.min(READ_CHUNK));
    while payload.len() < len {
        let start = payload.len();
        let end = len.min(start + READ_CHUNK);
        payload.resize(end, 0);
        r.read_exact(&mut payload[start..end])?;
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips_all_target_kinds() {
        let targets = [
            Target::Abs(1.5e-3),
            Target::Rel(1e-4),
            Target::Bytes(123_456),
            Target::Planes(vec![4, 9, 0, 31]),
        ];
        for target in targets {
            let req = Request {
                tenant: "jet".into(),
                dataset: "Jx_t0004".into(),
                target,
                strategy: 0,
                flags: FLAG_NO_PLANES,
            };
            let bytes = encode_request(&req).expect("encode");
            assert_eq!(decode_request(&bytes).expect("decode"), req);
        }
    }

    #[test]
    fn report_roundtrips_degraded_and_clean() {
        let clean = Report {
            status: Status::Ok,
            planes: vec![10, 7, 3],
            estimated_error: 3.25e-4,
            bytes: 9001,
            lost: Vec::new(),
            attempts: 20,
            retries: 2,
            cache_hits: 5,
            coalesced: 1,
            detail: String::new(),
        };
        let degraded =
            Report { lost: vec![(0, 3), (2, 0)], detail: "lost two".into(), ..clean.clone() };
        for rep in [clean, degraded] {
            let bytes = encode_report(&rep).expect("encode");
            match decode_frame(&bytes).expect("decode") {
                Frame::Report(back) => assert_eq!(back, rep),
                other => panic!("report decoded as {other:?}"),
            }
        }
    }

    #[test]
    fn plane_frame_roundtrips() {
        let bytes = encode_plane(3, 17, &[1, 2, 3, 250]).expect("encode");
        match decode_frame(&bytes).expect("decode") {
            Frame::Plane(p) => {
                assert_eq!((p.level, p.plane), (3, 17));
                assert_eq!(p.payload, vec![1, 2, 3, 250]);
            }
            other => panic!("plane decoded as {other:?}"),
        }
    }

    #[test]
    fn health_roundtrips_with_and_without_shards() {
        let empty = Health::default();
        let full = Health {
            cache_hits: 10,
            cache_misses: 4,
            cache_coalesced: 2,
            cache_evictions: 1,
            cache_resident_bytes: 4096,
            admission_rejected: 3,
            admission_inflight: 7,
            shards_degraded: 1,
            shards_dead: 1,
            datasets: vec![
                DatasetHealth {
                    dataset: "alpha".into(),
                    shards: vec![
                        ShardHealth {
                            shard: 0,
                            state: SHARD_STATE_HEALTHY,
                            fetches: 9,
                            failures: 0,
                            corrupt: 0,
                            missing: 0,
                        },
                        ShardHealth {
                            shard: 1,
                            state: SHARD_STATE_DEAD,
                            fetches: 5,
                            failures: 5,
                            corrupt: 0,
                            missing: 5,
                        },
                    ],
                },
                DatasetHealth {
                    dataset: "beta".into(),
                    shards: vec![ShardHealth {
                        shard: 0,
                        state: SHARD_STATE_DEGRADED,
                        fetches: 3,
                        failures: 1,
                        corrupt: 1,
                        missing: 0,
                    }],
                },
            ],
        };
        for h in [empty, full] {
            let bytes = encode_health(&h).expect("encode");
            match decode_frame(&bytes).expect("decode") {
                Frame::Health(back) => assert_eq!(back, h),
                other => panic!("health decoded as {other:?}"),
            }
        }
    }

    #[test]
    fn health_request_is_distinguishable_from_retrieval() {
        let probe = encode_health_request();
        assert!(is_health_request(&probe));
        assert!(decode_request(&probe).is_err(), "health magic is not a retrieval request");
        let req = encode_request(&Request {
            tenant: "t".into(),
            dataset: "d".into(),
            target: Target::Abs(0.1),
            strategy: 0,
            flags: 0,
        })
        .expect("encode");
        assert!(!is_health_request(&req));
        // A mangled shard-state byte is a decode error, not a panic.
        let mut bad = encode_health(&Health {
            datasets: vec![DatasetHealth {
                dataset: "x".into(),
                shards: vec![ShardHealth {
                    shard: 0,
                    state: SHARD_STATE_HEALTHY,
                    fetches: 0,
                    failures: 0,
                    corrupt: 0,
                    missing: 0,
                }],
            }],
            ..Health::default()
        })
        .expect("encode");
        let state_at = bad.len() - (4 * 8) - 1;
        bad[state_at] = 9;
        assert!(decode_frame(&bad).is_err());
    }

    #[test]
    fn malformed_frames_are_errors_not_panics() {
        assert!(decode_request(b"").is_err());
        assert!(decode_request(b"NOPE").is_err());
        assert!(decode_request(&REQ_MAGIC).is_err()); // truncated after magic
        let mut ok = encode_request(&Request {
            tenant: "t".into(),
            dataset: "d".into(),
            target: Target::Abs(0.1),
            strategy: 0,
            flags: 0,
        })
        .expect("encode");
        ok.push(0xFF); // trailing garbage
        assert!(decode_request(&ok).is_err());
        assert!(decode_frame(&[0x5A, 1, 2]).is_err()); // unknown tag
    }

    #[test]
    fn framing_roundtrips_and_rejects_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").expect("write");
        write_frame(&mut buf, b"").expect("write empty");
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).expect("frame 1"), Some(b"hello".to_vec()));
        assert_eq!(read_frame(&mut cursor).expect("frame 2"), Some(Vec::new()));
        assert_eq!(read_frame(&mut cursor).expect("eof"), None);

        // A header claiming more than MAX_FRAME must be refused up front.
        let huge = (MAX_FRAME as u32 + 1).to_le_bytes();
        let mut cursor = std::io::Cursor::new(huge.to_vec());
        assert!(read_frame(&mut cursor).is_err());
    }

    /// A peer that takes `1..=most` bytes per call, across slice boundaries.
    struct ShortWriter {
        out: Vec<u8>,
        most: usize,
        calls: usize,
    }

    impl Write for ShortWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            let mut room = 1 + self.calls % self.most;
            let before = self.out.len();
            for buf in bufs {
                let n = room.min(buf.len());
                self.out.extend_from_slice(&buf[..n]);
                room -= n;
            }
            Ok(self.out.len() - before)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn vectored_plane_frames_are_the_copied_frames_byte_for_byte() {
        let payload = |i: usize| -> Vec<u8> {
            // Empty payloads at both ends and in the middle of a run.
            let len = if i.is_multiple_of(5) { 0 } else { i * 37 % 300 };
            (0..len).map(|b| (b * 7 + i) as u8).collect()
        };
        for count in [0, 1, 2, MAX_PLANE_RUN, MAX_PLANE_RUN + 1, 2 * MAX_PLANE_RUN + 3] {
            let planes: Vec<(usize, u32, Arc<Vec<u8>>)> =
                (0..count).map(|i| (i / 7, (i % 7) as u32, Arc::new(payload(i)))).collect();
            let mut copied = Vec::new();
            for (l, k, data) in &planes {
                write_frame(&mut copied, &encode_plane(*l, *k, data).expect("encode"))
                    .expect("write");
            }
            let mut whole = Vec::new();
            write_plane_frames(&mut whole, &planes).expect("write to a Vec");
            assert_eq!(whole, copied, "{count} planes");
            for most in [1, 2, 10, 11, 12, 4096] {
                let mut w = ShortWriter { out: Vec::new(), most, calls: 0 };
                write_plane_frames(&mut w, &planes).expect("short writes are resumed");
                assert_eq!(w.out, copied, "{count} planes, at most {most} bytes a call");
            }
        }
        // A dead peer is an error, not a spin; an unframeable plane is refused.
        let one = [(0usize, 0u32, Arc::new(vec![1u8, 2, 3]))];
        let err = write_plane_frames(&mut [0u8; 5].as_mut_slice(), &one).expect_err("full");
        assert_eq!(err.kind(), std::io::ErrorKind::WriteZero);
        let far = [(usize::from(u16::MAX) + 1, 0u32, Arc::new(Vec::new()))];
        assert!(write_plane_frames(&mut Vec::new(), &far).is_err());
    }

    #[test]
    fn request_cap_rejects_oversized_frames() {
        // A frame legal at MAX_FRAME is still refused under the request
        // cap — the server never allocates request buffers past 1 MiB.
        let big = vec![0u8; MAX_REQUEST_FRAME + 1];
        let mut buf = Vec::new();
        write_frame(&mut buf, &big).expect("write under MAX_FRAME");
        let mut cursor = std::io::Cursor::new(buf);
        let err = read_frame_limited(&mut cursor, MAX_REQUEST_FRAME)
            .expect_err("oversized request must be refused");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        // A lying header (huge length, no payload behind it) dies with an
        // EOF after at most one chunk — not a huge up-front allocation.
        let lie = (MAX_FRAME as u32).to_le_bytes();
        let mut cursor = std::io::Cursor::new(lie.to_vec());
        let err = read_frame_limited(&mut cursor, MAX_FRAME).expect_err("truncated payload");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn chunked_reads_reassemble_multi_chunk_payloads() {
        let payload: Vec<u8> = (0..READ_CHUNK * 3 + 17).map(|i| (i % 251) as u8).collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).expect("write");
        let mut cursor = std::io::Cursor::new(buf);
        let back = read_frame_limited(&mut cursor, MAX_FRAME).expect("read").expect("frame");
        assert_eq!(back, payload);
    }

    #[test]
    fn hostile_list_counts_are_protocol_errors() {
        // A request listing MAX_WIRE_LIST well-formed planes decodes; one
        // more is refused by the bound, not by running out of bytes.
        let request = |n| Request {
            tenant: "t".into(),
            dataset: "d".into(),
            target: Target::Planes(vec![7; n]),
            strategy: 0,
            flags: 0,
        };
        let at = encode_request(&request(MAX_WIRE_LIST)).expect("encode");
        assert_eq!(decode_request(&at).expect("at the bound"), request(MAX_WIRE_LIST));
        let over = encode_request(&request(MAX_WIRE_LIST + 1)).expect("encode");
        let err = decode_request(&over).expect_err("past the bound");
        assert!(err.to_string().contains("exceeds"), "{err}");

        // Same for the report path.
        let report = |n| Report {
            status: Status::Ok,
            planes: vec![1; n],
            estimated_error: 0.5,
            bytes: 10,
            lost: Vec::new(),
            attempts: 1,
            retries: 0,
            cache_hits: 0,
            coalesced: 0,
            detail: String::new(),
        };
        assert!(decode_frame(&encode_report(&report(MAX_WIRE_LIST)).expect("encode")).is_ok());
        let over = encode_report(&report(MAX_WIRE_LIST + 1)).expect("encode");
        let err = decode_frame(&over).expect_err("past the bound");
        assert!(err.to_string().contains("exceeds"), "{err}");
    }
}
