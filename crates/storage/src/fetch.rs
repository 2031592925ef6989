//! Retrying segment fetches under a virtual clock.
//!
//! [`FetchExecutor`] drives one [`SegmentStore`] with a [`RetryPolicy`]:
//! every attempt is charged modelled time (tier latency + bytes/bandwidth +
//! any injected spike), verified against the manifest's expected length and
//! FNV-1a checksum, and retried with exponential backoff on retryable
//! failures. Time is *virtual* — the executor never sleeps, it accounts the
//! seconds a real reader would have spent, which keeps fault-grid suites
//! fast and their timing reproducible.
//!
//! Deadlines are per tier: an attempt whose modelled time exceeds the
//! tier's deadline is a [`FetchError::Timeout`] even though the backend
//! "succeeded" — exactly how an HPC reader treats a stuck tape mount.

use crate::segment::{FetchError, SegmentKey, SegmentRead, SegmentStore};
use crate::{Placement, StorageHierarchy};
use pmr_error::PmrError;
use pmr_mgard::checksum::fnv1a64;
use pmr_mgard::LevelEncoding;
use pmr_rng::{mix, unit_f64};

/// Retry schedule: attempts, exponential backoff, deterministic jitter.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per segment (>= 1; 1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the second attempt, in seconds.
    pub base_backoff_s: f64,
    /// Multiplier applied per further attempt (>= 1).
    pub multiplier: f64,
    /// Backoff ceiling, in seconds.
    pub max_backoff_s: f64,
    /// Jitter fraction in `[0, 1]`: each backoff is scaled by a
    /// deterministic factor in `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_s: 0.01,
            multiplier: 2.0,
            max_backoff_s: 1.0,
            jitter: 0.1,
        }
    }
}

impl RetryPolicy {
    /// Validate the schedule parameters.
    pub fn try_new(
        max_attempts: u32,
        base_backoff_s: f64,
        multiplier: f64,
        max_backoff_s: f64,
        jitter: f64,
    ) -> Result<Self, PmrError> {
        if max_attempts == 0 {
            return Err(PmrError::invalid_config("max_attempts must be >= 1"));
        }
        if !base_backoff_s.is_finite() || base_backoff_s < 0.0 {
            return Err(PmrError::invalid_config(format!(
                "base_backoff_s must be finite and >= 0, got {base_backoff_s}"
            )));
        }
        if !multiplier.is_finite() || multiplier < 1.0 {
            return Err(PmrError::invalid_config(format!(
                "multiplier must be finite and >= 1, got {multiplier}"
            )));
        }
        if !max_backoff_s.is_finite() || max_backoff_s < base_backoff_s {
            return Err(PmrError::invalid_config(format!(
                "max_backoff_s must be finite and >= base_backoff_s, got {max_backoff_s}"
            )));
        }
        if !(0.0..=1.0).contains(&jitter) {
            return Err(PmrError::invalid_config(format!(
                "jitter must be in [0, 1], got {jitter}"
            )));
        }
        Ok(RetryPolicy { max_attempts, base_backoff_s, multiplier, max_backoff_s, jitter })
    }

    /// Backoff charged before attempt `attempt + 1` (so `attempt` >= 1),
    /// with deterministic per-segment jitter.
    pub fn backoff_s(&self, key: SegmentKey, attempt: u32) -> f64 {
        let exponent = i32::try_from(attempt.saturating_sub(1)).unwrap_or(i32::MAX);
        let raw = self.base_backoff_s * self.multiplier.powi(exponent);
        let capped = raw.min(self.max_backoff_s);
        // Hash of (key, attempt) -> factor in [1-j, 1+j].
        let h = mix(((key.0 as u64) << 40)
            .wrapping_add((key.1 as u64) << 20)
            .wrapping_add(attempt as u64));
        capped * (1.0 - self.jitter + 2.0 * self.jitter * unit_f64(h))
    }
}

/// What the manifest says a segment must look like; fetched bytes failing
/// either check are [`FetchError::Corrupt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpectedSegment {
    pub len: usize,
    pub fnv: u64,
}

impl ExpectedSegment {
    /// What `payload` itself looks like (hashes it).
    pub fn of(payload: &[u8]) -> Self {
        ExpectedSegment { len: payload.len(), fnv: fnv1a64(payload) }
    }

    /// What plane `k` of a manifest level must look like: the length and
    /// the digest the level already carries, so nothing is hashed here.
    pub fn of_plane(level: &LevelEncoding, k: u32) -> Self {
        ExpectedSegment { len: level.plane_payload(k).len(), fnv: level.plane_checksum(k) }
    }

    /// Is `read` this segment? Compares the digest the read carries, which
    /// hashes the payload only if nobody below has.
    pub fn matches(&self, read: &mut SegmentRead) -> bool {
        read.bytes().len() == self.len && read.fnv() == self.fnv
    }
}

/// Aggregate accounting of an executor's fetches.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FetchStats {
    /// Attempts issued (including successes).
    pub attempts: u64,
    /// Attempts beyond the first per segment.
    pub retries: u64,
    /// Payload bytes of *successful, verified* reads.
    pub bytes: u64,
    /// Payload bytes delivered but discarded (failed verification or
    /// blew the deadline).
    pub wasted_bytes: u64,
    /// Failed-attempt counts by class.
    pub transients: u64,
    pub timeouts: u64,
    pub corruptions: u64,
    /// Segments abandoned as unrecoverable.
    pub lost_segments: u64,
    /// Modelled wall time, seconds (fetch + backoff; serial reader).
    pub virtual_time_s: f64,
}

/// Per-tier timing used by the virtual clock. Detached from
/// [`StorageHierarchy`] so the executor also runs without a tier model
/// (zero-cost clock, deadline disabled).
#[derive(Debug, Clone, PartialEq)]
struct TierTiming {
    latency_s: f64,
    bandwidth_bps: f64,
    deadline_s: f64,
}

/// Retrying, verifying, time-accounting fetch driver.
pub struct FetchExecutor<'a> {
    store: &'a dyn SegmentStore,
    policy: RetryPolicy,
    /// Tier timing per *level* (resolved through the placement), or `None`
    /// for an unmodelled store.
    timing: Option<Vec<TierTiming>>,
    stats: FetchStats,
}

/// Deadline per attempt: generous multiples of the nominal cost so only
/// injected spikes/timeouts trip it, never an honest read.
const DEADLINE_LATENCY_FACTOR: f64 = 16.0;
const DEADLINE_FLOOR_S: f64 = 0.05;

impl<'a> FetchExecutor<'a> {
    /// Executor without a tier model: attempts cost zero virtual time and
    /// never hit deadlines (only injected timeouts count).
    pub fn new(store: &'a dyn SegmentStore, policy: RetryPolicy) -> Self {
        FetchExecutor { store, policy, timing: None, stats: FetchStats::default() }
    }

    /// Executor with modelled timing: each level's fetches are charged its
    /// tier's latency and bandwidth, with a per-tier deadline of
    /// `max(0.05 s, 16 x latency)` per attempt.
    pub fn with_model(
        store: &'a dyn SegmentStore,
        policy: RetryPolicy,
        hierarchy: &StorageHierarchy,
        placement: &Placement,
    ) -> Result<Self, PmrError> {
        let timing = (0..placement.num_levels())
            .map(|l| {
                let t = placement.tier_of(l);
                let tier = hierarchy.tiers().get(t).ok_or_else(|| {
                    PmrError::invalid_config(format!(
                        "placement maps level {l} to tier {t} but the hierarchy has {}",
                        hierarchy.len()
                    ))
                })?;
                Ok(TierTiming {
                    latency_s: tier.latency_s,
                    bandwidth_bps: tier.bandwidth_bps,
                    deadline_s: (tier.latency_s * DEADLINE_LATENCY_FACTOR).max(DEADLINE_FLOOR_S),
                })
            })
            .collect::<Result<Vec<_>, PmrError>>()?;
        Ok(FetchExecutor { store, policy, timing: Some(timing), stats: FetchStats::default() })
    }

    /// Accounting so far.
    pub fn stats(&self) -> &FetchStats {
        &self.stats
    }

    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    fn timing_for(&self, level: usize) -> Option<&TierTiming> {
        self.timing.as_ref().and_then(|t| t.get(level))
    }

    /// Fetch one segment with retries, verifying against `expect`.
    ///
    /// Returns the verified payload, or the error of the *last* attempt
    /// once retries are exhausted (permanent errors short-circuit).
    pub fn fetch_verified(
        &mut self,
        key: SegmentKey,
        expect: ExpectedSegment,
    ) -> Result<Vec<u8>, FetchError> {
        let (level, plane) = key;
        let mut last_err: Option<FetchError> = None;
        for attempt in 1..=self.policy.max_attempts {
            if attempt > 1 {
                self.stats.retries += 1;
                self.stats.virtual_time_s += self.policy.backoff_s(key, attempt - 1);
            }
            self.stats.attempts += 1;
            let outcome = self.store.fetch(key);
            let timing = self.timing_for(level);
            let err = match outcome {
                Err(e) => {
                    // A failed attempt still costs the tier's latency.
                    if let Some(t) = timing {
                        self.stats.virtual_time_s += t.latency_s;
                    }
                    e
                }
                Ok(mut read) => {
                    let (cost, deadline) = match timing {
                        Some(t) => (
                            t.latency_s
                                + read.bytes().len() as f64 / t.bandwidth_bps
                                + read.extra_latency_s,
                            t.deadline_s,
                        ),
                        None => (read.extra_latency_s, f64::INFINITY),
                    };
                    if cost > deadline {
                        // Abandon at the deadline; the partial read is waste.
                        self.stats.virtual_time_s += deadline;
                        self.stats.wasted_bytes += read.bytes().len() as u64;
                        FetchError::Timeout { level, plane, elapsed_s: cost, deadline_s: deadline }
                    } else {
                        self.stats.virtual_time_s += cost;
                        if read.bytes().len() != expect.len {
                            self.stats.wasted_bytes += read.bytes().len() as u64;
                            FetchError::Corrupt {
                                level,
                                plane,
                                detail: format!(
                                    "read {} bytes, manifest expects {}",
                                    read.bytes().len(),
                                    expect.len
                                ),
                            }
                        } else if read.fnv() != expect.fnv {
                            self.stats.wasted_bytes += read.bytes().len() as u64;
                            FetchError::Corrupt {
                                level,
                                plane,
                                detail: "payload checksum does not match manifest".to_string(),
                            }
                        } else {
                            self.stats.bytes += read.bytes().len() as u64;
                            return Ok(read.into_bytes());
                        }
                    }
                }
            };
            match &err {
                FetchError::Transient { .. } => self.stats.transients += 1,
                FetchError::Timeout { .. } => self.stats.timeouts += 1,
                FetchError::Corrupt { .. } => self.stats.corruptions += 1,
                _ => {}
            }
            if err.is_permanent() {
                self.stats.lost_segments += 1;
                return Err(err);
            }
            last_err = Some(err);
        }
        self.stats.lost_segments += 1;
        // `RetryPolicy::try_new` rejects `max_attempts == 0`, so the loop
        // always runs; the fallback only defends against a future policy
        // that never attempts anything.
        Err(last_err.unwrap_or(FetchError::Missing { level, plane }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultInjector};
    use crate::segment::MemStore;
    use pmr_field::{Field, Shape};
    use pmr_mgard::{CompressConfig, Compressed};

    fn artifact() -> Compressed {
        let field = Field::from_fn("x", 0, Shape::cube(9), |x, y, _| {
            ((x as f64) * 0.5).sin() + (y as f64) * 0.02
        });
        Compressed::compress(&field, &CompressConfig::default())
    }

    fn expect_for(c: &Compressed, key: SegmentKey) -> ExpectedSegment {
        ExpectedSegment::of_plane(&c.levels()[key.0], key.1)
    }

    #[test]
    fn clean_store_fetches_first_try() {
        let c = artifact();
        let store = MemStore::from_compressed(&c);
        let mut exec = FetchExecutor::new(&store, RetryPolicy::default());
        for key in store.keys() {
            let bytes = exec.fetch_verified(key, expect_for(&c, key)).unwrap();
            assert_eq!(bytes, c.levels()[key.0].plane_payload(key.1));
        }
        assert_eq!(exec.stats().retries, 0);
        assert_eq!(exec.stats().lost_segments, 0);
        assert_eq!(exec.stats().wasted_bytes, 0);
    }

    #[test]
    fn transients_are_retried_to_success() {
        let c = artifact();
        let cfg = FaultConfig { transient: 0.4, ..FaultConfig::quiet(21) };
        let inj = FaultInjector::new(MemStore::from_compressed(&c), cfg).unwrap();
        let policy = RetryPolicy { max_attempts: 32, ..RetryPolicy::default() };
        let mut exec = FetchExecutor::new(&inj, policy);
        for key in inj.keys() {
            let bytes = exec.fetch_verified(key, expect_for(&c, key)).unwrap();
            assert_eq!(bytes, c.levels()[key.0].plane_payload(key.1));
        }
        assert!(exec.stats().transients > 0, "p=0.4 over many segments must hit");
        assert!(exec.stats().retries >= exec.stats().transients);
        assert_eq!(exec.stats().lost_segments, 0);
    }

    #[test]
    fn corruption_is_detected_and_retried() {
        let c = artifact();
        let cfg = FaultConfig { bit_flip: 0.5, truncate: 0.2, ..FaultConfig::quiet(5) };
        let inj = FaultInjector::new(MemStore::from_compressed(&c), cfg).unwrap();
        let policy = RetryPolicy { max_attempts: 64, ..RetryPolicy::default() };
        let mut exec = FetchExecutor::new(&inj, policy);
        for key in inj.keys() {
            let bytes = exec.fetch_verified(key, expect_for(&c, key)).unwrap();
            // Whatever was injected, the returned payload is verified clean.
            assert_eq!(bytes, c.levels()[key.0].plane_payload(key.1));
        }
        assert!(exec.stats().corruptions > 0, "p=0.5 flips must be caught");
        assert!(exec.stats().wasted_bytes > 0);
    }

    #[test]
    fn missing_segment_fails_without_retries() {
        let c = artifact();
        let store = MemStore::from_compressed(&c).without(&[(0, 0)]);
        let mut exec = FetchExecutor::new(&store, RetryPolicy::default());
        let err = exec.fetch_verified((0, 0), expect_for(&c, (0, 0))).unwrap_err();
        assert!(err.is_permanent());
        assert_eq!(exec.stats().attempts, 1, "permanent loss must not be retried");
        assert_eq!(exec.stats().lost_segments, 1);
    }

    #[test]
    fn exhausted_retries_report_last_error() {
        let c = artifact();
        let cfg = FaultConfig { transient: 1.0, ..FaultConfig::quiet(1) };
        let inj = FaultInjector::new(MemStore::from_compressed(&c), cfg).unwrap();
        let policy = RetryPolicy { max_attempts: 3, ..RetryPolicy::default() };
        let mut exec = FetchExecutor::new(&inj, policy);
        let err = exec.fetch_verified((0, 0), expect_for(&c, (0, 0))).unwrap_err();
        assert!(matches!(err, FetchError::Transient { .. }));
        assert_eq!(exec.stats().attempts, 3);
        assert_eq!(exec.stats().lost_segments, 1);
    }

    #[test]
    fn modelled_time_accumulates_latency_and_spikes() {
        let c = artifact();
        let h = StorageHierarchy::summit_like();
        let p = Placement::coarse_fast(c.num_levels(), &h);
        let store = MemStore::from_compressed(&c);
        let mut exec = FetchExecutor::with_model(&store, RetryPolicy::default(), &h, &p).unwrap();
        for key in store.keys() {
            exec.fetch_verified(key, expect_for(&c, key)).unwrap();
        }
        let clean_time = exec.stats().virtual_time_s;
        assert!(clean_time > 0.0);

        // Latency spikes slow the modelled reader down deterministically.
        let cfg = FaultConfig { latency_spike: 1.0, spike_s: 0.004, ..FaultConfig::quiet(2) };
        let inj = FaultInjector::new(MemStore::from_compressed(&c), cfg).unwrap();
        let mut spiky = FetchExecutor::with_model(&inj, RetryPolicy::default(), &h, &p).unwrap();
        for key in inj.keys() {
            spiky.fetch_verified(key, expect_for(&c, key)).unwrap();
        }
        assert!(spiky.stats().virtual_time_s > clean_time);
    }

    #[test]
    fn backoff_grows_and_respects_cap() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_backoff_s: 0.01,
            multiplier: 2.0,
            max_backoff_s: 0.05,
            jitter: 0.0,
        };
        assert!((p.backoff_s((0, 0), 1) - 0.01).abs() < 1e-12);
        assert!((p.backoff_s((0, 0), 2) - 0.02).abs() < 1e-12);
        assert!((p.backoff_s((0, 0), 7) - 0.05).abs() < 1e-12, "cap must hold");
        // Jitter stays within its band and is deterministic.
        let j = RetryPolicy { jitter: 0.5, ..p };
        let b = j.backoff_s((1, 2), 1);
        assert!((0.005..=0.015).contains(&b));
        assert_eq!(b, j.backoff_s((1, 2), 1));
    }

    #[test]
    fn invalid_policies_rejected() {
        assert!(RetryPolicy::try_new(0, 0.1, 2.0, 1.0, 0.1).is_err());
        assert!(RetryPolicy::try_new(3, -0.1, 2.0, 1.0, 0.1).is_err());
        assert!(RetryPolicy::try_new(3, 0.1, 0.5, 1.0, 0.1).is_err());
        assert!(RetryPolicy::try_new(3, 0.1, 2.0, 0.05, 0.1).is_err());
        assert!(RetryPolicy::try_new(3, 0.1, 2.0, 1.0, 1.5).is_err());
        assert!(RetryPolicy::try_new(3, 0.1, 2.0, 1.0, 0.5).is_ok());
    }
}
