//! Deterministic, seed-driven fault injection over a [`SegmentStore`].
//!
//! Reproducibility is the whole design: every fault decision is a pure
//! function of `(seed, level, plane, attempt)` via [`pmr_rng::mix`], so a
//! given seed produces a bit-identical fault schedule on every run and
//! on every platform — independent of the order segments are fetched in,
//! because each segment carries its own attempt counter. That is what lets
//! the conformance suite replay a failing schedule from nothing but its
//! seed, and what makes the determinism tests meaningful.
//!
//! Fault taxonomy (checked in this priority order, one fault per attempt):
//! permanent loss → flap → transient error (a timed-out read included) →
//! truncated read → bit flip. Truncation and bit flips *return bytes* — the corruption is only
//! caught downstream by checksum verification, exactly like real bit rot.
//!
//! A certain fault makes the injector a whole-store fault domain: wrapped
//! around one child of a [`crate::ShardedStore`], `flap_period` is a
//! flapping shard (a dead shard is [`crate::ShardedStore::kill_shard`]).

use crate::segment::{FetchError, MutableSegmentStore, SegmentKey, SegmentRead, SegmentStore};
use pmr_error::sync::{rank, Mutex};
use pmr_error::PmrError;
use pmr_rng::{mix, unit_f64};
use std::collections::BTreeMap;

/// Probabilities (per attempt, except `permanent` which is per segment) of
/// the injected fault classes, all in `[0, 1]`, and the flap period.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed of the deterministic schedule.
    pub seed: u64,
    /// Per-segment probability the segment is permanently lost.
    pub permanent: f64,
    /// Per-attempt probability of a transient error (a reset connection,
    /// an `EIO`, a read the store gave up on in time).
    pub transient: f64,
    /// Per-attempt probability the read returns truncated bytes.
    pub truncate: f64,
    /// Per-attempt probability one bit of the payload is flipped.
    pub bit_flip: f64,
    /// A flapping store: each segment's attempts fail as transients in runs
    /// of `flap_period`, alternating with runs that are served (attempts
    /// `1..=p` fail, `p+1..=2p` serve, and so on). 0 turns flapping off.
    pub flap_period: u32,
}

impl FaultConfig {
    /// No faults at all — the injector becomes a transparent wrapper.
    pub fn quiet(seed: u64) -> Self {
        FaultConfig {
            seed,
            permanent: 0.0,
            transient: 0.0,
            truncate: 0.0,
            bit_flip: 0.0,
            flap_period: 0,
        }
    }

    /// A moderately hostile tier: occasional transients, rare corruption.
    /// The transient rate is `1 − (1 − 0.15)(1 − 0.05)`, what transients at
    /// 0.15 and time-outs at 0.05 used to fail together.
    pub fn flaky(seed: u64) -> Self {
        FaultConfig {
            transient: 0.1925,
            truncate: 0.05,
            bit_flip: 0.05,
            ..FaultConfig::quiet(seed)
        }
    }

    /// Validate every probability is in `[0, 1]`.
    pub fn validate(&self) -> Result<(), PmrError> {
        let probs = [
            ("permanent", self.permanent),
            ("transient", self.transient),
            ("truncate", self.truncate),
            ("bit_flip", self.bit_flip),
        ];
        for (name, p) in probs {
            if !(0.0..=1.0).contains(&p) {
                return Err(PmrError::invalid_config(format!(
                    "fault probability {name} must be in [0, 1], got {p}"
                )));
            }
        }
        Ok(())
    }
}

/// One injected fault, for the replayable fault log.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    pub key: SegmentKey,
    /// 1-based attempt number at which the fault fired.
    pub attempt: u32,
    pub kind: FaultKind,
}

/// What the injector did to an attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    PermanentLoss,
    /// A retryable error: rolled, or a failing run of a flapping store.
    Transient,
    /// Payload cut to this many bytes.
    Truncate(usize),
    /// Bit `bit` of byte `byte` flipped.
    BitFlip {
        byte: usize,
        bit: u8,
    },
}

// Distinct salts keep the per-kind fault streams independent: hitting the
// transient roll at one probability must not correlate with the bit-flip
// roll of the same attempt.
const SALT_PERMANENT: u64 = 0x9e37_79b9_7f4a_7c15;
const SALT_TRANSIENT: u64 = 0xd1b5_4a32_d192_ed03;
const SALT_TRUNCATE: u64 = 0xaef1_7502_108e_f2d9;
const SALT_BITFLIP: u64 = 0x6c62_272e_07bb_0142;

/// A seed-driven fault wrapper around any [`SegmentStore`].
///
/// Attempt counters are per segment, so the fault decision for attempt `n`
/// of segment `(l, k)` is independent of what the caller fetched in
/// between — two runs with the same seed and the same per-segment attempt
/// sequence see bit-identical faults.
pub struct FaultInjector<S> {
    inner: S,
    cfg: FaultConfig,
    // BTreeMap keeps every traversal of the counter table ordered — the
    // fault schedule itself is order-free by design, but nothing downstream
    // should ever observe map-iteration nondeterminism.
    attempts: Mutex<BTreeMap<SegmentKey, u32>>,
    log: Mutex<Vec<FaultEvent>>,
}

impl<S: SegmentStore> FaultInjector<S> {
    pub fn new(inner: S, cfg: FaultConfig) -> Result<Self, PmrError> {
        cfg.validate()?;
        Ok(FaultInjector {
            inner,
            cfg,
            attempts: Mutex::new(rank::FAULT_ATTEMPTS, BTreeMap::new()),
            log: Mutex::new(rank::FAULT_LOG, Vec::new()),
        })
    }

    /// Uniform roll in `[0, 1)` for a `(kind, key, attempt)` triple.
    fn roll(&self, salt: u64, key: SegmentKey, attempt: u32) -> f64 {
        unit_f64(mix(self
            .cfg
            .seed
            .wrapping_mul(0x100_0000_01b3)
            .wrapping_add(salt)
            .wrapping_add((key.0 as u64) << 40)
            .wrapping_add((key.1 as u64) << 20)
            .wrapping_add(attempt as u64)))
    }

    /// Raw entropy for picking fault positions (truncation point, bit index).
    fn entropy(&self, salt: u64, key: SegmentKey, attempt: u32) -> u64 {
        mix(self
            .cfg
            .seed
            .wrapping_add(salt.rotate_left(17))
            .wrapping_add((key.0 as u64) << 40)
            .wrapping_add((key.1 as u64) << 20)
            .wrapping_add(attempt as u64))
    }

    fn record(&self, key: SegmentKey, attempt: u32, kind: FaultKind) {
        self.log.lock().push(FaultEvent { key, attempt, kind });
    }

    /// The faults injected so far, in fetch order.
    pub fn log(&self) -> Vec<FaultEvent> {
        self.log.lock().clone()
    }

    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: SegmentStore> SegmentStore for FaultInjector<S> {
    fn fetch(&self, key: SegmentKey) -> Result<SegmentRead, FetchError> {
        let attempt = {
            let mut map = self.attempts.lock();
            let n = map.entry(key).or_insert(0);
            *n += 1;
            *n
        };
        let (level, plane) = key;

        // Permanent loss is a property of the segment, not the attempt.
        if self.roll(SALT_PERMANENT, key, 0) < self.cfg.permanent {
            if attempt == 1 {
                self.record(key, attempt, FaultKind::PermanentLoss);
            }
            return Err(FetchError::Missing { level, plane });
        }
        let period = self.cfg.flap_period;
        let flapping = period > 0 && ((attempt - 1) / period).is_multiple_of(2);
        if flapping || self.roll(SALT_TRANSIENT, key, attempt) < self.cfg.transient {
            self.record(key, attempt, FaultKind::Transient);
            return Err(FetchError::Transient {
                level,
                plane,
                detail: format!("injected transient (attempt {attempt})"),
            });
        }

        let mut read = self.inner.fetch(key)?;

        // `bytes_mut` forgets any digest the read carried: what leaves here
        // corrupted is hashed afresh by whoever verifies it.
        if self.roll(SALT_TRUNCATE, key, attempt) < self.cfg.truncate && !read.bytes().is_empty() {
            #[expect(clippy::cast_possible_truncation, reason = "any bits of a hash draw do")]
            let keep = (self.entropy(SALT_TRUNCATE, key, attempt) as usize) % read.bytes().len();
            read.bytes_mut().truncate(keep);
            self.record(key, attempt, FaultKind::Truncate(keep));
        } else if self.roll(SALT_BITFLIP, key, attempt) < self.cfg.bit_flip
            && !read.bytes().is_empty()
        {
            let e = self.entropy(SALT_BITFLIP, key, attempt);
            #[expect(clippy::cast_possible_truncation, reason = "any bits of a hash draw do")]
            let byte = (e as usize) % read.bytes().len();
            // `% 8` bounds the value; the fallback is the modulus cap.
            let bit = u8::try_from((e >> 48) % 8).unwrap_or(7);
            read.bytes_mut()[byte] ^= 1 << bit;
            self.record(key, attempt, FaultKind::BitFlip { byte, bit });
        }
        Ok(read)
    }

    fn contains(&self, key: SegmentKey) -> bool {
        self.inner.contains(key)
    }

    fn keys(&self) -> Vec<SegmentKey> {
        self.inner.keys()
    }
}

/// Writes pass through unfaulted: the fault model targets the read path, and
/// repair must be able to fix a child store while it misbehaves.
impl<S: MutableSegmentStore> MutableSegmentStore for FaultInjector<S> {
    fn put(&self, key: SegmentKey, payload: &[u8]) -> Result<(), PmrError> {
        self.inner.put(key, payload)
    }

    fn put_batch(&self, batch: &[(SegmentKey, &[u8])]) -> Result<(), PmrError> {
        self.inner.put_batch(batch)
    }

    fn delete(&self, key: SegmentKey) -> Result<(), PmrError> {
        self.inner.delete(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::MemStore;
    use pmr_field::{Field, Shape};
    use pmr_mgard::{CompressConfig, Compressed};

    fn artifact() -> Compressed {
        let field = Field::from_fn("f", 0, Shape::cube(9), |x, y, _| {
            ((x as f64) * 0.5).sin() + (y as f64) * 0.01
        });
        Compressed::compress(&field, &CompressConfig::default())
    }

    #[test]
    fn quiet_config_is_transparent() {
        let c = artifact();
        let inj = FaultInjector::new(MemStore::from_compressed(&c), FaultConfig::quiet(7)).unwrap();
        for key in inj.keys() {
            let read = inj.fetch(key).unwrap();
            assert_eq!(read.bytes(), c.levels()[key.0].plane_payload(key.1));
        }
        assert!(inj.log().is_empty());
    }

    #[test]
    fn same_seed_gives_bit_identical_fault_sequence() {
        let c = artifact();
        let run = |seed: u64| {
            let inj = FaultInjector::new(MemStore::from_compressed(&c), FaultConfig::flaky(seed))
                .unwrap();
            let mut outcomes = Vec::new();
            for key in inj.keys() {
                for _ in 0..3 {
                    outcomes.push(inj.fetch(key).map(|r| r.into_bytes()));
                }
            }
            (outcomes, inj.log())
        };
        let (a_out, a_log) = run(42);
        let (b_out, b_log) = run(42);
        assert_eq!(a_out, b_out);
        assert_eq!(a_log, b_log);
        let (c_out, c_log) = run(43);
        assert!(a_out != c_out || a_log != c_log, "different seed should differ");
    }

    #[test]
    fn fault_schedule_is_fetch_order_independent() {
        let c = artifact();
        let forward =
            FaultInjector::new(MemStore::from_compressed(&c), FaultConfig::flaky(11)).unwrap();
        let backward =
            FaultInjector::new(MemStore::from_compressed(&c), FaultConfig::flaky(11)).unwrap();
        let keys = forward.keys();
        let mut fw: BTreeMap<SegmentKey, Vec<_>> = BTreeMap::new();
        for &key in &keys {
            for _ in 0..2 {
                fw.entry(key).or_default().push(forward.fetch(key).map(|r| r.into_bytes()));
            }
        }
        let mut bw: BTreeMap<SegmentKey, Vec<_>> = BTreeMap::new();
        for &key in keys.iter().rev() {
            for _ in 0..2 {
                bw.entry(key).or_default().push(backward.fetch(key).map(|r| r.into_bytes()));
            }
        }
        assert_eq!(fw, bw, "per-segment outcomes must not depend on global fetch order");
    }

    #[test]
    fn permanent_loss_is_stable_across_attempts() {
        let c = artifact();
        let cfg = FaultConfig { permanent: 0.5, ..FaultConfig::quiet(3) };
        let inj = FaultInjector::new(MemStore::from_compressed(&c), cfg).unwrap();
        let keys = inj.keys();
        let lost: Vec<bool> = keys.iter().map(|&k| inj.fetch(k).is_err()).collect();
        assert!(lost.iter().any(|&l| l), "p=0.5 should lose something");
        assert!(lost.iter().any(|&l| !l), "p=0.5 should keep something");
        for (i, &key) in keys.iter().enumerate() {
            for _ in 0..3 {
                assert_eq!(inj.fetch(key).is_err(), lost[i], "loss must not flicker");
            }
        }
    }

    #[test]
    fn invalid_probabilities_rejected() {
        let c = artifact();
        let store = MemStore::from_compressed(&c);
        let bad = FaultConfig { transient: 1.5, ..FaultConfig::quiet(0) };
        assert!(FaultInjector::new(store.clone(), bad).is_err());
        let bad = FaultConfig { bit_flip: f64::NAN, ..FaultConfig::quiet(0) };
        assert!(FaultInjector::new(store, bad).is_err());
    }

    #[test]
    fn whole_store_faults_are_certain_ones() {
        let c = artifact();
        let key = (0usize, 0u32);
        let clean = c.levels()[0].plane_payload(0).to_vec();
        let inject = |cfg| FaultInjector::new(MemStore::from_compressed(&c), cfg).unwrap();

        let dead = inject(FaultConfig { permanent: 1.0, ..FaultConfig::quiet(1) });
        assert!(dead.fetch(key).unwrap_err().is_permanent());
        assert!(dead.contains(key), "contains is a faultless existence probe");

        let flap = inject(FaultConfig { flap_period: 2, ..FaultConfig::quiet(1) });
        let outcomes: Vec<bool> = (0..6).map(|_| flap.fetch(key).is_ok()).collect();
        assert_eq!(outcomes, vec![false, false, true, true, false, false]);
        assert_eq!(flap.fetch(key).unwrap().bytes(), clean, "a served run is the clean payload");
        assert!(flap.fetch((0, 1)).is_err(), "every segment starts its own cycle");

        // Writes pass through even on a dead store.
        dead.put(key, b"fixed").unwrap();
        assert!(dead.fetch(key).unwrap_err().is_permanent());
        assert_eq!(dead.into_inner().fetch(key).unwrap().bytes(), b"fixed");
    }

    #[test]
    fn corruption_faults_change_bytes_but_not_errors() {
        let c = artifact();
        let cfg = FaultConfig { bit_flip: 1.0, ..FaultConfig::quiet(9) };
        let inj = FaultInjector::new(MemStore::from_compressed(&c), cfg).unwrap();
        for key in inj.keys() {
            let read = inj.fetch(key).expect("bit flips still deliver bytes");
            let clean = c.levels()[key.0].plane_payload(key.1);
            if !clean.is_empty() {
                assert_ne!(read.bytes(), clean, "bit flip must corrupt {key:?}");
                assert_eq!(read.bytes().len(), clean.len());
            }
        }
    }
}
