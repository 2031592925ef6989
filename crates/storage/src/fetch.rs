//! Retrying, verifying segment fetches.
//!
//! [`FetchExecutor`] drives one [`SegmentStore`] with a [`RetryPolicy`]:
//! every attempt is verified against the manifest's expected length and
//! FNV-1a checksum, and a retryable failure is retried at once until the
//! policy's attempts run out. The executor never times out on its own: a
//! store that gives up on a read reports it as [`FetchError::Transient`].

use crate::segment::{FetchError, SegmentKey, SegmentRead, SegmentStore};
use pmr_error::PmrError;
use pmr_mgard::checksum::fnv1a64;
use pmr_mgard::LevelEncoding;

/// Retry schedule: attempts per segment, retried without waiting.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per segment (>= 1; 1 = no retries).
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 4 }
    }
}

impl RetryPolicy {
    /// A policy of `max_attempts` (>= 1) attempts per segment.
    pub fn try_new(max_attempts: u32) -> Result<Self, PmrError> {
        if max_attempts == 0 {
            return Err(PmrError::invalid_config("max_attempts must be >= 1"));
        }
        Ok(RetryPolicy { max_attempts })
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
    /// Payload bytes delivered but discarded (failed verification).
    pub wasted_bytes: u64,
    /// Failed-attempt counts by class.
    pub transients: u64,
    pub corruptions: u64,
    /// Segments abandoned as unrecoverable.
    pub lost_segments: u64,
}

/// Retrying, verifying fetch driver.
pub struct FetchExecutor<'a> {
    store: &'a dyn SegmentStore,
    policy: RetryPolicy,
    stats: FetchStats,
}

impl<'a> FetchExecutor<'a> {
    /// An executor over `store` whose counters start at zero.
    pub fn new(store: &'a dyn SegmentStore, policy: RetryPolicy) -> Self {
        FetchExecutor { store, policy, stats: FetchStats::default() }
    }

    /// Accounting so far.
    pub fn stats(&self) -> &FetchStats {
        &self.stats
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
            }
            self.stats.attempts += 1;
            let err = match self.store.fetch(key) {
                Err(e) => e,
                Ok(mut read) => {
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
            };
            match &err {
                FetchError::Transient { .. } => self.stats.transients += 1,
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
        let policy = RetryPolicy { max_attempts: 32 };
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
        let policy = RetryPolicy { max_attempts: 64 };
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
        let policy = RetryPolicy { max_attempts: 3 };
        let mut exec = FetchExecutor::new(&inj, policy);
        let err = exec.fetch_verified((0, 0), expect_for(&c, (0, 0))).unwrap_err();
        assert!(matches!(err, FetchError::Transient { .. }));
        assert_eq!(exec.stats().attempts, 3);
        assert_eq!(exec.stats().lost_segments, 1);
    }

    #[test]
    fn invalid_policies_rejected() {
        assert!(RetryPolicy::try_new(0).is_err());
        assert_eq!(RetryPolicy::try_new(1).unwrap(), RetryPolicy { max_attempts: 1 });
        assert_eq!(RetryPolicy::try_new(4).unwrap(), RetryPolicy::default());
    }
}
