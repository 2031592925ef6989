//! In-memory spans around the calls into each layer.
//!
//! A traced op opens a root span with [`op`] on the thread that runs it;
//! [`span`] then opens a child of whatever span is innermost on the
//! calling thread, and does nothing on a thread with no open op — so the
//! same wrapper code runs untraced at the cost of one thread-local read.
//! Spans are kept in memory and written out by [`write_jsonl`] at exit.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span; 0 for the root span of an op.
    pub parent: u64,
    /// Sequence number of the op this span belongs to.
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Default)]
struct Log {
    spans: Vec<Span>,
    /// Class of each op, indexed by op sequence number.
    op_class: Vec<usize>,
}

struct Tracer {
    origin: Instant,
    log: Mutex<Log>,
    next_id: AtomicU64,
}

fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer {
        origin: Instant::now(),
        log: Mutex::new(Log::default()),
        next_id: AtomicU64::new(1),
    })
}

fn log() -> std::sync::MutexGuard<'static, Log> {
    // A panic while holding the lock leaves the vectors valid.
    tracer().log.lock().unwrap_or_else(PoisonError::into_inner)
}

fn now_ns() -> u64 {
    tracer().origin.elapsed().as_nanos() as u64
}

/// What a thread has recorded of the op it is running: the shared log is
/// locked once per op, not once per span.
#[derive(Default)]
struct Local {
    /// Open spans, innermost last: `(span id, op)`.
    open: Vec<(u64, u64)>,
    /// Closed spans of the op whose root is still open.
    closed: Vec<Span>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

/// Closes its span when dropped. Inert when no op was open.
pub struct Guard(Option<Span>);

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(mut span) = self.0.take() {
            span.end_ns = now_ns();
            LOCAL.with(|local| {
                let mut local = local.borrow_mut();
                local.open.pop();
                local.closed.push(span);
                if local.open.is_empty() {
                    log().spans.append(&mut local.closed);
                }
            });
        }
    }
}

fn open(parent: u64, op: u64, name: &'static str) -> Guard {
    // The id only has to be unique: it publishes nothing.
    let id = tracer().next_id.fetch_add(1, Ordering::Relaxed);
    LOCAL.with(|local| local.borrow_mut().open.push((id, op)));
    Guard(Some(Span { id, parent, op, name, start_ns: now_ns(), end_ns: 0 }))
}

/// Open the root span of a traced op of `class` on this thread. `kind`
/// names the root span (`"op"` for the op as callers run it, `"replay"`
/// for its decomposition into stage calls).
pub fn op(class: usize, kind: &'static str) -> Guard {
    let op = {
        let mut log = log();
        log.op_class.push(class);
        log.op_class.len() as u64 - 1
    };
    open(0, op, kind)
}

/// Open a child of this thread's innermost open span, if there is one.
pub fn span(name: &'static str) -> Guard {
    match LOCAL.with(|local| local.borrow().open.last().copied()) {
        Some((parent, op)) => open(parent, op, name),
        None => Guard(None),
    }
}

/// Back-to-back child spans of this thread's innermost open span, with
/// one clock read per boundary. A loop that wraps three guards around
/// every frame reads the clock six times a frame, which alone is a
/// twentieth of a cached socket op.
pub struct Laps(Option<(u64, u64, u64)>);

impl Laps {
    /// Start the first lap now. Inert when no op is open on this thread.
    pub fn start() -> Laps {
        let innermost = LOCAL.with(|local| local.borrow().open.last().copied());
        Laps(innermost.map(|(parent, op)| (parent, op, now_ns())))
    }

    /// Close the running lap as a span called `name`; the next lap starts
    /// where it ends.
    pub fn lap(&mut self, name: &'static str) {
        if let Some((parent, op, start_ns)) = &mut self.0 {
            let end_ns = now_ns();
            let id = tracer().next_id.fetch_add(1, Ordering::Relaxed);
            let span = Span { id, parent: *parent, op: *op, name, start_ns: *start_ns, end_ns };
            LOCAL.with(|local| local.borrow_mut().closed.push(span));
            *start_ns = end_ns;
        }
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children may nest, overlap one another (work
/// on several threads) or stick out of the parent; the union of their
/// intervals, clipped to the parent, is what is subtracted.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(reach);
                    let end = end.min(s.end_ns);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// One traced op: its class, what kind of root it had, how long the root
/// took, and self time summed by span name (the root's own self time is
/// under its kind).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpBreakdown {
    pub class: usize,
    pub kind: &'static str,
    pub total_ns: u64,
    pub layers: BTreeMap<&'static str, u64>,
}

pub fn breakdown(spans: &[Span], op_class: &[usize]) -> Vec<OpBreakdown> {
    let selfs = self_times(spans);
    let mut ops: BTreeMap<u64, OpBreakdown> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent == 0) {
        ops.insert(
            s.op,
            OpBreakdown {
                class: op_class[s.op as usize],
                kind: s.name,
                total_ns: s.end_ns - s.start_ns,
                layers: BTreeMap::new(),
            },
        );
    }
    for s in spans {
        if let Some(op) = ops.get_mut(&s.op) {
            *op.layers.entry(s.name).or_default() += selfs[&s.id];
        }
    }
    ops.into_values().collect()
}

/// Everything recorded so far: the spans and the class of each op.
pub fn snapshot() -> (Vec<Span>, Vec<usize>) {
    let log = log();
    (log.spans.clone(), log.op_class.clone())
}

/// Write `spans` as one JSON object per line.
pub fn write_jsonl(
    path: &Path,
    spans: &[Span],
    op_class: &[usize],
    class_names: &[String],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"class\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.op, class_names[op_class[s.op as usize]], s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, op: 0, name, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100; a 10..60 with grandchild 20..30; b 70..90.
        let spans = vec![
            sp(1, 0, "op", 0, 100),
            sp(2, 1, "a", 10, 60),
            sp(3, 2, "a.inner", 20, 30),
            sp(4, 1, "b", 70, 90),
        ];
        let t = self_times(&spans);
        assert_eq!(t[&1], 100 - 50 - 20);
        assert_eq!(t[&2], 50 - 10);
        assert_eq!(t[&3], 10);
        assert_eq!(t[&4], 20);
        // Self times partition the root's duration.
        assert_eq!(t.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_counted_as_their_union() {
        // Two workers overlap on 30..50; a third sits inside the first;
        // one sticks out past the parent's end.
        let spans = vec![
            sp(1, 0, "op", 0, 100),
            sp(2, 1, "w", 10, 50),
            sp(3, 1, "w", 30, 70),
            sp(4, 1, "w", 20, 40),
            sp(5, 1, "late", 90, 130),
        ];
        let t = self_times(&spans);
        // Union of children inside the parent: 10..70 and 90..100.
        assert_eq!(t[&1], 100 - 60 - 10);
    }

    #[test]
    fn breakdown_sums_self_time_by_name_per_op() {
        let mut spans = vec![
            sp(1, 0, "replay", 0, 100),
            sp(2, 1, "decode", 0, 30),
            sp(3, 1, "decode", 30, 50),
            sp(4, 1, "recompose", 50, 95),
        ];
        spans.push(Span { id: 5, parent: 0, op: 1, name: "op", start_ns: 200, end_ns: 260 });
        let ops = breakdown(&spans, &[3, 7]);
        assert_eq!(ops.len(), 2);
        assert_eq!((ops[0].class, ops[0].kind, ops[0].total_ns), (3, "replay", 100));
        assert_eq!(ops[0].layers["decode"], 50);
        assert_eq!(ops[0].layers["recompose"], 45);
        assert_eq!(ops[0].layers["replay"], 5);
        assert_eq!((ops[1].class, ops[1].layers["op"]), (7, 60));
    }

    #[test]
    fn spans_attach_to_the_open_op_and_are_inert_without_one() {
        // No op open on this thread: nothing is recorded.
        let before = snapshot().0.len();
        drop(span("orphan"));
        Laps::start().lap("orphan");
        assert!(snapshot().0.iter().skip(before).all(|s| s.name != "orphan"));

        let root = op(42, "op");
        let (root_id, op_no) = root.0.as_ref().map(|s| (s.id, s.op)).expect("root span");
        let outer = span("outer");
        let outer_id = outer.0.as_ref().expect("child span").id;
        drop(span("inner"));
        drop(outer);
        let mut laps = Laps::start();
        laps.lap("first");
        laps.lap("second");
        // Another thread has no open op, so its spans are inert too.
        std::thread::scope(|s| {
            s.spawn(|| assert!(span("other-thread").0.is_none()));
        });
        // The op's spans reach the shared log when its root closes.
        assert!(snapshot().0.iter().all(|s| s.op != op_no));
        drop(root);
        let (spans, classes) = snapshot();
        let inner = spans.iter().find(|s| s.op == op_no && s.name == "inner").expect("inner");
        let outer = spans.iter().find(|s| s.op == op_no && s.name == "outer").expect("outer");
        assert_eq!((inner.parent, outer.parent), (outer_id, root_id));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(classes[op_no as usize], 42);
        // Laps are children of the span open when they started, end to end.
        let first = spans.iter().find(|s| s.op == op_no && s.name == "first").expect("first");
        let second = spans.iter().find(|s| s.op == op_no && s.name == "second").expect("second");
        assert_eq!((first.parent, second.parent), (root_id, root_id));
        assert_eq!(first.end_ns, second.start_ns);
    }
}
