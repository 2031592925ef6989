//! One hostile-input oracle for every parser of untrusted bytes.
//!
//! Artifacts, segment logs, topology files, field files, model blobs and
//! wire frames are all read from bytes someone else wrote. Each format
//! registers a [`Format`]: a small clean instance, a decoder returning
//! `Result`, the byte ranges where every change must be refused (what its
//! digests cover, plus the magic and the counts it cross-checks), its
//! declared length and count fields, and optionally a *sound* predicate on
//! what it decoded. [`Format::check`] then holds the decoder to this:
//!
//! * the clean instance decodes, and is sound;
//! * every strict prefix, and the instance with one trailing byte, is
//!   refused;
//! * each length or count field, set to 0 and to its width's maximum, is
//!   refused or decodes, without any single allocation over the cap (64
//!   bytes per input byte plus 64 KiB);
//! * every single-bit flip inside a covered range is refused; outside them
//!   a flip may be refused or decode.
//!
//! No decode may panic (each runs under `catch_unwind`), nor the predicate
//! on anything that decodes, and every decode runs under the cap, enforced by [`crate::heap::TestAlloc`] on the
//! calling thread: a binary that registers formats must install it.
//! [`Format::unsound_flips`] runs the predicate over the flips outside the
//! covered ranges that decode: those are the changes a reader would serve.

use crate::heap;
use pmr_error::PmrError;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A declared length or count field of a format's clean instance.
#[derive(Debug, Clone, Copy)]
pub enum Count {
    /// A little-endian unsigned integer of `width` bytes at `at`.
    Le { at: usize, width: usize },
    /// An ASCII decimal at `at..at + len`, read as a `u64`.
    Decimal { at: usize, len: usize },
}

impl Count {
    /// The clean bytes with this field set to 0, and to its maximum.
    fn extremes(self, clean: &[u8]) -> [(&'static str, Vec<u8>); 2] {
        let splice =
            |at: usize, len: usize, with: &[u8]| [&clean[..at], with, &clean[at + len..]].concat();
        match self {
            Count::Le { at, width } => [
                ("0", splice(at, width, &vec![0; width])),
                ("its maximum", splice(at, width, &vec![0xFF; width])),
            ],
            Count::Decimal { at, len } => [
                ("0", splice(at, len, b"0")),
                ("its maximum", splice(at, len, u64::MAX.to_string().as_bytes())),
            ],
        }
    }

    fn at(self) -> usize {
        match self {
            Count::Le { at, .. } | Count::Decimal { at, .. } => at,
        }
    }
}

type Decoder<T> = Box<dyn Fn(&[u8]) -> Result<T, PmrError>>;
type Predicate<T> = Box<dyn Fn(&T) -> Result<(), String>>;

/// One parser under the oracle.
pub struct Format<T> {
    name: &'static str,
    clean: Vec<u8>,
    decode: Decoder<T>,
    covered: Vec<Range<usize>>,
    counts: Vec<Count>,
    sound: Option<Predicate<T>>,
    cap: usize,
}

/// What one decode of hostile bytes did.
enum Outcome<T> {
    Decoded(T),
    Refused,
    Panicked(String),
    /// A single allocation over the cap, refused without aborting.
    OverCap(usize),
}

impl<T> Format<T> {
    /// `decode` over the clean instance `clean`, with no covered range, no
    /// count field and no predicate. The cap on any single allocation of a
    /// decode is 64 bytes per input byte plus 64 KiB.
    pub fn new(
        name: &'static str,
        clean: Vec<u8>,
        decode: impl Fn(&[u8]) -> Result<T, PmrError> + 'static,
    ) -> Self {
        let cap = 64 * clean.len() + (64 << 10);
        Format {
            name,
            clean,
            decode: Box::new(decode),
            covered: Vec::new(),
            counts: Vec::new(),
            sound: None,
            cap,
        }
    }

    /// Every single-bit flip in `range` must be refused.
    pub fn covered(mut self, range: Range<usize>) -> Self {
        assert!(
            range.end <= self.clean.len(),
            "{}: covered range {range:?} out of bounds",
            self.name
        );
        self.covered.push(range);
        self
    }

    /// A length or count field, driven to 0 and to its maximum.
    pub fn count(mut self, count: Count) -> Self {
        self.counts.push(count);
        self
    }

    /// What must hold of every decoded value: checked on the clean
    /// instance, and by [`Format::unsound_flips`].
    pub fn sound(mut self, sound: impl Fn(&T) -> Result<(), String> + 'static) -> Self {
        self.sound = Some(Box::new(sound));
        self
    }

    /// The clean instance.
    pub fn bytes(&self) -> &[u8] {
        &self.clean
    }

    fn is_covered(&self, at: usize) -> bool {
        self.covered.iter().any(|r| r.contains(&at))
    }

    fn run(&self, bytes: &[u8]) -> Outcome<T> {
        let (out, refused) = heap::capped(self.cap, self.name, || {
            catch_unwind(AssertUnwindSafe(|| (self.decode)(bytes)))
        });
        match (out, refused) {
            (_, Some(size)) => Outcome::OverCap(size),
            (Ok(Ok(t)), None) => Outcome::Decoded(t),
            (Ok(Err(_)), None) => Outcome::Refused,
            (Err(payload), None) => Outcome::Panicked(panic_text(payload.as_ref())),
        }
    }

    /// The sound predicate on `t`: `Ok(Err(why))` if unsound, `Err(msg)` if
    /// it panicked.
    fn judge_sound(&self, t: &T) -> Result<Result<(), String>, String> {
        let Some(sound) = &self.sound else { return Ok(Ok(())) };
        catch_unwind(AssertUnwindSafe(|| sound(t))).map_err(|p| panic_text(p.as_ref()))
    }

    /// Why `outcome` fails the oracle, if it does. What decodes must not
    /// panic in the predicate either; whether it is sound is
    /// [`Format::unsound_flips`]' question.
    fn fault(&self, outcome: Outcome<T>, must_refuse: bool) -> Option<String> {
        match outcome {
            Outcome::Panicked(msg) => Some(format!("panicked: {msg}")),
            Outcome::OverCap(size) => {
                Some(format!("one allocation of {size} B over the cap of {} B", self.cap))
            }
            Outcome::Decoded(_) if must_refuse => Some("accepted".to_string()),
            Outcome::Decoded(t) => self
                .judge_sound(&t)
                .err()
                .map(|msg| format!("decoded, then panicked in use: {msg}")),
            Outcome::Refused => None,
        }
    }

    /// Hold the decoder to the oracle; panics listing every failure.
    pub fn check(&self) {
        let mut failures = Vec::new();
        let clean = match self.run(&self.clean) {
            Outcome::Decoded(t) => match self.judge_sound(&t) {
                Ok(Ok(())) => None,
                Ok(Err(why)) => Some(format!("unsound: {why}")),
                Err(msg) => Some(format!("panicked in use: {msg}")),
            },
            Outcome::Refused => Some("refused".to_string()),
            other => self.fault(other, false),
        };
        failures.extend(clean.map(|why| format!("the clean instance: {why}")));
        let mut judge = |case: &dyn Fn() -> String, bytes: &[u8], must_refuse: bool| {
            if let Some(why) = self.fault(self.run(bytes), must_refuse) {
                failures.push(format!("{}: {why}", case()));
            }
        };
        for cut in 0..self.clean.len() {
            judge(&|| format!("the {cut}-byte prefix"), &self.clean[..cut], true);
        }
        judge(&|| "a trailing byte".to_string(), &[&self.clean[..], &[0]].concat(), true);
        for count in &self.counts {
            for (value, bytes) in count.extremes(&self.clean) {
                judge(
                    &|| format!("the count at byte {} set to {value}", count.at()),
                    &bytes,
                    false,
                );
            }
        }
        let mut flipped = self.clean.clone();
        for bit in 0..8 * self.clean.len() {
            let (at, mask) = (bit / 8, 1u8 << (bit % 8));
            let covered = self.is_covered(at);
            flipped[at] ^= mask;
            let case = || {
                format!("bit {} of byte {at}{}", bit % 8, if covered { " (covered)" } else { "" })
            };
            judge(&case, &flipped, covered);
            flipped[at] ^= mask;
        }
        if !failures.is_empty() {
            let shown = failures.iter().take(20).cloned().collect::<Vec<_>>().join("\n  ");
            panic!(
                "hostile: {}: {} failure(s) on a {}-byte instance:\n  {shown}",
                self.name,
                failures.len(),
                self.clean.len()
            );
        }
    }

    /// The flips outside the covered ranges that decode to something the
    /// sound predicate rejects (or that panics in it), as
    /// `(bit index, why)`.
    pub fn unsound_flips(&self) -> Vec<(usize, String)> {
        let mut flipped = self.clean.clone();
        let mut unsound = Vec::new();
        for bit in 0..8 * self.clean.len() {
            let (at, mask) = (bit / 8, 1u8 << (bit % 8));
            if self.is_covered(at) {
                continue;
            }
            flipped[at] ^= mask;
            if let Outcome::Decoded(t) = self.run(&flipped) {
                match self.judge_sound(&t) {
                    Ok(Ok(())) => {}
                    Ok(Err(why)) => unsound.push((bit, why)),
                    Err(msg) => unsound.push((bit, format!("panicked: {msg}"))),
                }
            }
            flipped[at] ^= mask;
        }
        unsound
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "a non-text panic".to_string())
}
