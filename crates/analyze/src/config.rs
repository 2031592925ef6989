//! The scope table: which crates each path-scoped lint guards, and the name
//! lists the interprocedural lints key on. (`unsafe_safety`,
//! `send_sync_impl` and the lock and atomic lints — `lock_order`,
//! `lock_consistency`, `atomic_ordering`, `blocking_under_lock` — judge
//! every file they are given.)
//!
//! [`AnalyzeConfig::default`] is the only table — compiled in, so `pmrtool
//! analyze` answers the same from any working directory and on any copy of
//! the sources. The struct is public so fixture tests can narrow a scope
//! with `..Default::default()`.

/// Scoping for one analysis run.
///
/// Path fields are workspace-relative prefixes; a file is in scope for a
/// lint when its path starts with any of the lint's prefixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalyzeConfig {
    /// `panic_reach`: library code that must route failures through
    /// `PmrError` instead of panicking — every panic site in a non-test fn
    /// here is a finding, reached or not. `crates/rng/src` is listed
    /// (here, in `cast_paths` and in `nondet_paths`) because it is the one
    /// random stream, and through pmr-sim and the trained models it feeds
    /// persisted artifacts.
    pub panic_paths: &'static [&'static str],
    /// `lossy_cast`: crates whose integer arithmetic feeds persisted
    /// artifacts and must use checked conversions.
    pub cast_paths: &'static [&'static str],
    /// `nondeterminism`: code that produces artifacts, plans, or fault
    /// schedules and must be bit-reproducible. `crates/sim/src` is listed
    /// because it generates every seeded input field on worker threads.
    pub nondet_paths: &'static [&'static str],
    /// `panic_reach`: crates whose public entry points anchor the
    /// reachability walk — a panic site transitively reachable from one is
    /// a violation even outside `panic_paths`.
    pub entry_paths: &'static [&'static str],
    /// `panic_reach`: function-name prefixes that mark an entry point in
    /// `entry_paths` (e.g. `retrieve` matches `retrieve_tolerant`).
    pub entry_prefixes: &'static [&'static str],
    /// `error_swallow`: data-path crates where a discarded `Result` is a
    /// contract violation, not a style nit.
    pub swallow_paths: &'static [&'static str],
    /// `taint_alloc`/`taint_index`/`tainted_arith`: crates that ingest
    /// untrusted wire or disk bytes and must bound every length they read.
    /// Summaries are computed workspace-wide; findings are scoped here.
    pub taint_paths: &'static [&'static str],
    /// Taint sources: call names whose return value (and `&mut` out-params)
    /// carry attacker-controlled bytes or lengths. `take` is deliberately
    /// absent — it collides with `std::mem::take`/`Iterator::take`; wire
    /// consumers go through the typed reads. `pmr_field::io::from_bytes`
    /// names its header reads `u32_at`/`u64_at` too, so a header-sized
    /// allocation there is checked like one in `mgard::persist`.
    pub taint_sources: &'static [&'static str],
    /// Taint sanitizers: call names that bound or validate a value; any
    /// expression containing one is considered clean.
    pub taint_sanitizers: &'static [&'static str],
    /// `checksum_gate`: crates whose decode paths must verify checksums
    /// before structurally decoding untrusted payloads.
    pub checksum_paths: &'static [&'static str],
    /// `checksum_gate`: decode entry points that must not see unverified
    /// tainted payloads.
    pub decode_fns: &'static [&'static str],
    /// `checksum_gate`: verification calls that gate a decode (directly or
    /// transitively through a callee). `fnv1a64` is not one: a level takes
    /// its planes' digests as it is parsed (`LevelEncoding::from_parts`),
    /// so hashing alone proves nothing — the gate opens where a digest is
    /// *compared* with the stored one.
    pub verify_fns: &'static [&'static str],
    /// `blocking_under_lock`: the blocking-call taxonomy by exact name
    /// (segment fetches and backoff helpers are matched by name shape, see
    /// [`crate::concurrency`]). `Condvar::wait` is deliberately absent — it
    /// releases the guard while parked.
    pub blocking_calls: &'static [&'static str],
}

/// Whether `rel_path` lies under any prefix of the scope list `paths`.
pub(crate) fn in_scope(paths: &[&str], rel_path: &str) -> bool {
    paths.iter().any(|p| rel_path.starts_with(p))
}

impl Default for AnalyzeConfig {
    fn default() -> Self {
        AnalyzeConfig {
            panic_paths: &[
                "crates/codec/src",
                "crates/mgard/src",
                "crates/storage/src",
                "crates/blockcodec/src",
                "crates/core/src",
                "crates/rng/src",
            ],
            cast_paths: &[
                "crates/codec/src",
                "crates/mgard/src",
                "crates/storage/src",
                "crates/blockcodec/src",
                "crates/rng/src",
            ],
            nondet_paths: &[
                "crates/codec/src",
                "crates/mgard/src",
                "crates/storage/src",
                "crates/blockcodec/src",
                "crates/core/src",
                "crates/conformance/src",
                "crates/rng/src",
                "crates/sim/src",
            ],
            entry_paths: &[
                "crates/core/src",
                "crates/mgard/src",
                "crates/storage/src",
                "crates/sim/src",
                "crates/pmrd/src",
                "crates/codec/src",
            ],
            entry_prefixes: &[
                "compress",
                "retrieve",
                "fetch",
                "extract_planes",
                "reassemble_digits",
                "transpose64",
            ],
            swallow_paths: &[
                "crates/codec/src",
                "crates/mgard/src",
                "crates/storage/src",
                "crates/blockcodec/src",
                "crates/core/src",
                "crates/sim/src",
                "crates/pmrd/src",
            ],
            taint_paths: &[
                "crates/pmrd/src",
                "crates/storage/src",
                "crates/codec/src",
                "crates/mgard/src",
                "crates/field/src",
            ],
            taint_sources: &[
                "u8",
                "u16",
                "u32",
                "u64",
                "f64",
                "read_string",
                "read",
                "read_exact",
                "read_frame",
                "read_frame_limited",
                "u32_at",
                "u64_at",
                "f64_at",
            ],
            taint_sanitizers: &[
                "min",
                "clamp",
                "len",
                "len_u32",
                "decode_bounded",
                "decompress_bounded",
                "bounded_count",
                "try_from",
                "try_into",
                "checked_add",
                "checked_sub",
                "checked_mul",
                "checked_shl",
                "saturating_add",
                "saturating_sub",
                "saturating_mul",
                "verify_segment",
                "contains",
                "get",
            ],
            checksum_paths: &["crates/mgard/src", "crates/storage/src"],
            decode_fns: &["from_parts"],
            verify_fns: &["verify_segment", "verify_checksums"],
            blocking_calls: &[
                "sleep",
                "join",
                "park",
                "recv",
                "recv_timeout",
                "recv_deadline",
                "sync_all",
                "sync_data",
                "read_to_end",
                "read_exact",
                "write_all",
                "write_vectored",
                "accept",
                "connect",
            ],
        }
    }
}
