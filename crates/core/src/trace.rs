//! Per-query span tracing: a lock-free, bounded ring-buffer tracer.
//!
//! [`metrics`](crate::metrics) answers *"how much time does stage X take
//! across the process?"*; this module answers *"what did **this** query
//! do?"*. Every traced query yields a tree of timed spans — one root
//! `query` span with one child per taxonomy [`Stage`] it executed, plus
//! per-morsel worker spans under the bbox scan — each carrying the thread
//! that ran it and its key attributes (rows in/out, degraded-probe and
//! fault-injection flags, stage-specific auxiliary counts).
//!
//! ## Ring buffer
//!
//! Finished spans land in a fixed-capacity ring ([`Tracer`]). Writers are
//! lock-free: a slot is claimed with one `fetch_add` on the head counter
//! and published with a per-slot sequence word (seqlock style: odd while
//! the words are being written, `2·claim+2` once stable). When the ring
//! wraps, the oldest spans are silently evicted — readers detect a lapped
//! slot because its sequence no longer matches the claim they are
//! scanning. [`Tracer::snapshot`] copies the stable suffix out without
//! blocking writers; torn slots are skipped, never mis-read.
//!
//! ## Lifecycle and cost
//!
//! Spans are RAII guards ([`SpanGuard`]): creation snapshots the parent
//! context from a thread-local, drop computes the duration and pushes one
//! record. Tracing is **off by default** and the disabled path is one
//! relaxed atomic load plus two thread-local reads per *stage* (never per
//! row — the scan kernels stay untouched, same discipline as the batched
//! `note_scans` counter flushes). Compiling the `trace` feature out
//! (`--no-default-features`) pins the activity check to `false` so every
//! guard constant-folds to a no-op.
//!
//! A taxonomy stage is timed by a [`StageGuard`] ([`stage`]) rather than
//! a bare span: its two clock readings give one duration, which the
//! registry sample, the span and the caller's `Explain` all receive, so
//! the three never disagree. With tracing off it reads the clock exactly
//! as often as a bare `Instant` would.
//!
//! Tracing turns on two ways, either of which activates a query root:
//! * process-wide: [`set_enabled`] (`benchmark/` does this for `--trace 1`);
//! * per thread/session: [`force_thread`] — the SQL layer holds this
//!   guard while executing a statement after `SET TRACE = ON`.
//!
//! Nested spans (imprint builds inside a probe, morsels inside a bbox
//! scan) activate automatically whenever an enclosing span is live on the
//! thread; worker threads adopt the spawning query's context explicitly
//! via [`adopt_parent`].
//!
//! ## Consumers
//!
//! * [`SlowQueryLog`] — a bounded ring of the K worst queries by wall
//!   time, each with its [`Explain`] and span tree;
//!   surfaced via `SlowQueryLog::global().worst()` and SQL
//!   `SHOW SLOW QUERIES`.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::metrics::{MetricsRegistry, Stage};
use crate::query::Explain;

/// Span flag: at least one imprint probe degraded to an exact scan.
pub const FLAG_DEGRADED: u64 = 1;
/// Span flag: a fault injection fired inside this span.
pub const FLAG_FAULT: u64 = 2;
/// Span flag: the query was cooperatively cancelled (deadline, `KILL`, or
/// memory-budget trip) inside or below this span.
pub const FLAG_CANCELLED: u64 = 4;

/// Spans the global ring holds before evicting the oldest. 16Ki spans ≈
/// 1.4 MiB; a traced 12M-point E9 query emits ~40 spans, so the window
/// covers hundreds of queries.
pub const DEFAULT_CAPACITY: usize = 16_384;

/// How many worst-by-wall-time queries [`SlowQueryLog`] retains.
pub const SLOW_LOG_K: usize = 8;

// ---------------------------------------------------------------------------
// Span identity
// ---------------------------------------------------------------------------

/// What a span measures: the query root or one taxonomy stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// The root span of one query.
    Query,
    /// One execution of a taxonomy stage.
    Stage(Stage),
}

impl SpanKind {
    /// Display/export name (the stage name, or `"query"` for the root).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Query => "query",
            SpanKind::Stage(s) => s.name(),
        }
    }

    fn code(self) -> u64 {
        match self {
            SpanKind::Query => u8::MAX as u64,
            SpanKind::Stage(s) => s.index() as u64,
        }
    }

    fn from_code(c: u64) -> Option<SpanKind> {
        if c == u8::MAX as u64 {
            return Some(SpanKind::Query);
        }
        Stage::ALL.get(c as usize).copied().map(SpanKind::Stage)
    }
}

/// One finished span as read back from the ring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRecord {
    /// The span's claim number in the ring — a process-wide, monotonically
    /// increasing record index (eviction order).
    pub seq: u64,
    /// Which query this span belongs to.
    pub trace_id: u64,
    /// Unique id of this span.
    pub span_id: u64,
    /// The enclosing span's id, `0` for roots.
    pub parent_id: u64,
    /// What the span measures.
    pub kind: SpanKind,
    /// Small dense id of the thread that ran the span.
    pub thread: u64,
    /// Start, in nanoseconds since the tracer epoch (first span ever).
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Rows handed to the span (stage-specific; see DESIGN.md §3.7).
    pub rows_in: u64,
    /// Rows surviving the span.
    pub rows_out: u64,
    /// [`FLAG_DEGRADED`] / [`FLAG_FAULT`] / [`FLAG_CANCELLED`] bits.
    pub flags: u64,
    /// Stage-specific extra count: imprint probes answered (probe spans),
    /// scan-kernel rows examined (bbox spans), zero elsewhere.
    pub aux: u64,
}

// ---------------------------------------------------------------------------
// The ring
// ---------------------------------------------------------------------------

const SLOT_WORDS: usize = 11;

struct Slot {
    /// Seqlock word: `2·claim+1` while the slot is being written,
    /// `2·claim+2` once stable, `0` when empty (new, or after
    /// [`Tracer::clear`]). A writer owns the slot from its odd word to its
    /// even one; the word only grows between clears.
    seq: AtomicU64,
    data: [AtomicU64; SLOT_WORDS],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            data: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The bounded, lock-free span ring. One global instance
/// ([`Tracer::global`]) receives every span; tests build small private
/// rings with [`Tracer::with_capacity`] to exercise wrap-around.
pub struct Tracer {
    slots: Box<[Slot]>,
    head: AtomicU64,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.head.load(Ordering::Relaxed))
            .finish()
    }
}

static GLOBAL_TRACER: OnceLock<Tracer> = OnceLock::new();

impl Tracer {
    /// A private ring holding at most `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Tracer {
        let capacity = capacity.max(1);
        Tracer {
            slots: (0..capacity).map(|_| Slot::new()).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// The process-wide ring every [`SpanGuard`] records into.
    pub fn global() -> &'static Tracer {
        GLOBAL_TRACER.get_or_init(|| Tracer::with_capacity(DEFAULT_CAPACITY))
    }

    /// Push one finished span: one `fetch_add` claims a slot, and the
    /// record is written and published there unless a newer claim on the
    /// same slot got there first.
    pub fn push(&self, r: &SpanRecord) {
        self.write(self.claim(), r);
    }

    fn claim(&self) -> u64 {
        self.head.fetch_add(1, Ordering::Relaxed)
    }

    /// Write `r` as claim `claim`. The slot is taken by moving its word
    /// from an even (stable or empty) value below `2·claim+1` to
    /// `2·claim+1`: a writer that finds a newer claim's word there has
    /// been lapped, and drops its record — the ring has already evicted
    /// it — instead of writing over the newer one. A writer that finds an
    /// older claim mid-write waits for it to publish, so two writers never
    /// share a slot's words.
    fn write(&self, claim: u64, r: &SpanRecord) {
        let slot = &self.slots[(claim % self.slots.len() as u64) as usize];
        let mine = 2 * claim + 1;
        let mut seq = slot.seq.load(Ordering::Relaxed);
        loop {
            if seq >= mine {
                return;
            }
            if seq % 2 == 1 {
                std::thread::yield_now();
                seq = slot.seq.load(Ordering::Relaxed);
                continue;
            }
            // Acquire pairs with the previous owner's publishing Release,
            // so its word stores happen before ours.
            match slot
                .seq
                .compare_exchange_weak(seq, mine, Ordering::Acquire, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(now) => seq = now,
            }
        }
        // Orders the odd word before the data stores for a reader that
        // sees any of them: its Acquire fence then sees the odd word too.
        std::sync::atomic::fence(Ordering::Release);
        let words = [
            r.trace_id,
            r.span_id,
            r.parent_id,
            r.kind.code(),
            r.thread,
            r.start_ns,
            r.dur_ns,
            r.rows_in,
            r.rows_out,
            r.flags,
            r.aux,
        ];
        for (cell, w) in slot.data.iter().zip(words) {
            cell.store(w, Ordering::Relaxed);
        }
        slot.seq.store(mine + 1, Ordering::Release);
    }

    /// Copy the stable contents out, oldest first, without blocking
    /// writers. Slots being overwritten concurrently are skipped (they
    /// belong to spans newer than the observed head), never torn.
    pub fn snapshot(&self) -> TraceSink {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let mut spans = Vec::new();
        for claim in head.saturating_sub(cap)..head {
            let slot = &self.slots[(claim % cap) as usize];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq != 2 * claim + 2 {
                continue; // mid-write, lapped, or cleared
            }
            let w: [u64; SLOT_WORDS] =
                std::array::from_fn(|i| slot.data[i].load(Ordering::Relaxed));
            std::sync::atomic::fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != seq {
                continue; // overwritten while copying
            }
            let Some(kind) = SpanKind::from_code(w[3]) else {
                continue;
            };
            spans.push(SpanRecord {
                seq: claim,
                trace_id: w[0],
                span_id: w[1],
                parent_id: w[2],
                kind,
                thread: w[4],
                start_ns: w[5],
                dur_ns: w[6],
                rows_in: w[7],
                rows_out: w[8],
                flags: w[9],
                aux: w[10],
            });
        }
        TraceSink { spans }
    }

    /// Drop every recorded span and restart claim numbering. Like
    /// `MetricsRegistry::reset`, not linearisable against concurrent
    /// writers — for benchmarks and tests.
    pub fn clear(&self) {
        self.head.store(0, Ordering::Release);
        for s in self.slots.iter() {
            s.seq.store(0, Ordering::Release);
        }
    }
}

// ---------------------------------------------------------------------------
// Activation
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_TAG: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// The innermost live span on this thread: `(trace_id, span_id)`,
    /// `(0, 0)` when none.
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// Nesting depth of [`force_thread`] guards.
    static FORCED: Cell<u32> = const { Cell::new(0) };
    /// Small dense thread id, assigned on first span.
    static THREAD_TAG: Cell<u64> = const { Cell::new(0) };
}

/// Turn process-wide tracing on or off at runtime.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// RAII guard from [`force_thread`]: tracing stays active on this thread
/// until the guard drops.
#[derive(Debug)]
pub struct ThreadTraceGuard(());

impl Drop for ThreadTraceGuard {
    fn drop(&mut self) {
        FORCED.with(|f| f.set(f.get().saturating_sub(1)));
    }
}

/// Activate tracing for the current thread (nests). The SQL session layer
/// holds this guard while executing statements after `SET TRACE = ON`.
pub fn force_thread() -> ThreadTraceGuard {
    FORCED.with(|f| f.set(f.get() + 1));
    ThreadTraceGuard(())
}

/// Whether a span started now on this thread would record: the feature is
/// compiled in and the process flag, a thread guard, or an enclosing live
/// span activates it.
#[inline]
fn is_active() -> bool {
    cfg!(feature = "trace")
        && (ENABLED.load(Ordering::Relaxed)
            || CURRENT.with(|c| c.get().1 != 0)
            || FORCED.with(|f| f.get() > 0))
}

fn thread_tag() -> u64 {
    THREAD_TAG.with(|t| {
        let mut v = t.get();
        if v == 0 {
            v = NEXT_THREAD_TAG.fetch_add(1, Ordering::Relaxed);
            t.set(v);
        }
        v
    })
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

// ---------------------------------------------------------------------------
// Span guards
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct ActiveSpan {
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
    kind: SpanKind,
    start: Instant,
    start_ns: u64,
    rows_in: u64,
    rows_out: u64,
    flags: u64,
    aux: u64,
    prev: (u64, u64),
}

/// RAII span handle: finishing (drop) computes the duration and records
/// into the global ring. Inert — a handful of no-op method calls — when
/// tracing is not active.
#[derive(Debug)]
pub struct SpanGuard(Option<ActiveSpan>);

/// Open a span. Records only if tracing is active on this thread (process
/// flag, thread guard, or an enclosing live span).
pub fn span(kind: SpanKind) -> SpanGuard {
    open(kind).0
}

/// Open a span if tracing is active, then read the clock: the instant
/// returned is the span's start, so its own bookkeeping is not timed.
fn open(kind: SpanKind) -> (SpanGuard, Instant) {
    if !cfg!(feature = "trace") || !is_active() {
        return (SpanGuard(None), Instant::now());
    }
    let prev = CURRENT.with(Cell::get);
    let trace_id = if prev.0 != 0 {
        prev.0
    } else {
        NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed)
    };
    let span_id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    CURRENT.with(|c| c.set((trace_id, span_id)));
    let epoch = epoch();
    let start = Instant::now();
    let span = ActiveSpan {
        trace_id,
        span_id,
        parent_id: prev.1,
        kind,
        start,
        start_ns: start.duration_since(epoch).as_nanos() as u64,
        rows_in: 0,
        rows_out: 0,
        flags: 0,
        aux: 0,
        prev,
    };
    (SpanGuard(Some(span)), start)
}

impl SpanGuard {
    /// Whether this guard will record on drop.
    pub fn is_recording(&self) -> bool {
        self.0.is_some()
    }

    /// `(trace_id, span_id)` for handing to worker threads, `None` when
    /// inert.
    pub fn ctx(&self) -> Option<(u64, u64)> {
        self.0.as_ref().map(|a| (a.trace_id, a.span_id))
    }

    /// The query this span belongs to, `None` when inert.
    pub fn trace_id(&self) -> Option<u64> {
        self.0.as_ref().map(|a| a.trace_id)
    }

    /// Record input/output cardinalities.
    pub fn set_rows(&mut self, rows_in: u64, rows_out: u64) {
        if let Some(a) = &mut self.0 {
            a.rows_in = rows_in;
            a.rows_out = rows_out;
        }
    }

    /// Record the stage-specific auxiliary count.
    pub fn set_aux(&mut self, aux: u64) {
        if let Some(a) = &mut self.0 {
            a.aux = aux;
        }
    }

    /// Set [`FLAG_DEGRADED`] / [`FLAG_FAULT`] bits.
    pub fn add_flags(&mut self, flags: u64) {
        if let Some(a) = &mut self.0 {
            a.flags |= flags;
        }
    }

    /// Record the span into the global ring, lasting `dur` — or, when
    /// `None`, until now.
    fn close(&mut self, dur: Option<Duration>) {
        if let Some(a) = self.0.take() {
            CURRENT.with(|c| c.set(a.prev));
            Tracer::global().push(&SpanRecord {
                seq: 0, // assigned by the ring
                trace_id: a.trace_id,
                span_id: a.span_id,
                parent_id: a.parent_id,
                kind: a.kind,
                thread: thread_tag(),
                start_ns: a.start_ns,
                dur_ns: dur.unwrap_or_else(|| a.start.elapsed()).as_nanos() as u64,
                rows_in: a.rows_in,
                rows_out: a.rows_out,
                flags: a.flags,
                aux: a.aux,
            });
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.close(None);
    }
}

/// One timed execution of a taxonomy stage, from [`stage`]: a single
/// clock reading at open and one at [`finish`](Self::finish) feed the
/// registry sample, the span (when tracing is active) and, through the
/// returned duration, the caller's `Explain` or report. Dropped without
/// `finish` — an early `?` — it still records its span, but no registry
/// sample.
#[derive(Debug)]
#[must_use = "a stage reaches the registry only through `finish`"]
pub struct StageGuard {
    stage: Stage,
    start: Instant,
    span: SpanGuard,
}

/// Start timing `stage`, opening its span if tracing is active.
pub fn stage(stage: Stage) -> StageGuard {
    let (span, start) = open(SpanKind::Stage(stage));
    StageGuard { stage, start, span }
}

impl StageGuard {
    /// Whether the span will record.
    pub fn is_recording(&self) -> bool {
        self.span.is_recording()
    }

    /// See [`SpanGuard::ctx`].
    pub fn ctx(&self) -> Option<(u64, u64)> {
        self.span.ctx()
    }

    /// See [`SpanGuard::set_rows`].
    pub fn set_rows(&mut self, rows_in: u64, rows_out: u64) {
        self.span.set_rows(rows_in, rows_out);
    }

    /// See [`SpanGuard::set_aux`].
    pub fn set_aux(&mut self, aux: u64) {
        self.span.set_aux(aux);
    }

    /// See [`SpanGuard::add_flags`].
    pub fn add_flags(&mut self, flags: u64) {
        self.span.add_flags(flags);
    }

    /// End the stage: `rows` and the elapsed time go to the registry, the
    /// span closes with the same duration, which is returned.
    pub fn finish(self, rows: usize) -> Duration {
        self.finish_excluding(rows, Duration::ZERO)
    }

    /// [`finish`](Self::finish) for a stage that contains other stages
    /// recording their own samples (lazy imprint builds inside a probe):
    /// the registry gets, and the caller is returned, the elapsed time
    /// minus `nested`; the span keeps the whole of it, so the trace tree
    /// still nests.
    pub fn finish_excluding(mut self, rows: usize, nested: Duration) -> Duration {
        let wall = self.start.elapsed();
        let own = wall.saturating_sub(nested);
        MetricsRegistry::global().record_stage(self.stage, rows, own);
        self.span.close(Some(wall));
        own
    }
}

/// RAII guard from [`adopt_parent`].
#[derive(Debug)]
pub struct ParentScope {
    prev: (u64, u64),
}

impl Drop for ParentScope {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// Adopt a span context on the current thread — worker threads call this
/// so their morsel spans parent under the spawning query's stage span.
pub fn adopt_parent(trace_id: u64, span_id: u64) -> ParentScope {
    ParentScope {
        prev: CURRENT.with(|c| c.replace((trace_id, span_id))),
    }
}

// ---------------------------------------------------------------------------
// Consumers
// ---------------------------------------------------------------------------

/// A copied-out set of spans with exporters.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    /// Spans in ring (claim) order, oldest first.
    pub spans: Vec<SpanRecord>,
}

impl TraceSink {
    /// Number of spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the sink holds no spans.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Only the spans of one query.
    pub fn for_trace(&self, trace_id: u64) -> TraceSink {
        TraceSink {
            spans: self
                .spans
                .iter()
                .filter(|s| s.trace_id == trace_id)
                .copied()
                .collect(),
        }
    }

    /// Compact single-line tree rendering: spans in record order, each
    /// prefixed with one `>` per ancestor *present in the sink*, as
    /// `name:rows_out r:milliseconds` (cancelled spans carry a trailing
    /// `[cancelled]`). Parents evicted from the ring simply contribute no
    /// depth — links never dangle into wrong nodes.
    pub fn render_tree(&self) -> String {
        use std::collections::HashMap;
        let depth_of: HashMap<u64, usize> = {
            let mut m = HashMap::new();
            // Record order is close-time order, so parents may close after
            // children; resolve depths by walking ancestors on demand.
            let by_id: HashMap<u64, &SpanRecord> =
                self.spans.iter().map(|s| (s.span_id, s)).collect();
            for s in &self.spans {
                let mut d = 0;
                let mut p = s.parent_id;
                while p != 0 {
                    match by_id.get(&p) {
                        Some(ps) => {
                            d += 1;
                            p = ps.parent_id;
                        }
                        None => break, // evicted ancestor
                    }
                }
                m.insert(s.span_id, d);
            }
            m
        };
        let mut parts = Vec::with_capacity(self.spans.len());
        for s in &self.spans {
            parts.push(format!(
                "{}{}:{}r:{:.1}ms{}",
                ">".repeat(depth_of.get(&s.span_id).copied().unwrap_or(0)),
                s.kind.name(),
                s.rows_out,
                s.dur_ns as f64 / 1e6,
                if s.flags & FLAG_CANCELLED != 0 {
                    "[cancelled]"
                } else {
                    ""
                },
            ));
        }
        parts.join(" ")
    }
}

/// One entry of the slow-query log.
#[derive(Debug, Clone)]
pub struct SlowQuery {
    /// The query's trace id.
    pub trace_id: u64,
    /// Wall-clock seconds since the statement's `CancelToken` was created
    /// (the ranking key) — the same clock its deadline runs on, so the
    /// admission wait below is always part of it.
    pub seconds: f64,
    /// Seconds spent waiting in the admission queue before execution
    /// started — part of `seconds`, recorded separately so a slow entry
    /// can be attributed to queueing vs scanning.
    pub queue_wait_seconds: f64,
    /// Result cardinality.
    pub result_rows: usize,
    /// The query's per-operator cardinalities and timings.
    pub explain: Explain,
    /// The query's span tree as captured at completion.
    pub spans: Vec<SpanRecord>,
}

/// A bounded log of the K worst queries by wall time. Queries are entered
/// only while traced — the untraced path never touches the log's lock.
#[derive(Debug)]
pub struct SlowQueryLog {
    entries: parking_lot::Mutex<Vec<SlowQuery>>,
    k: usize,
}

static GLOBAL_SLOW_LOG: OnceLock<SlowQueryLog> = OnceLock::new();

impl SlowQueryLog {
    /// A private log keeping the `k` worst entries.
    pub fn with_capacity(k: usize) -> SlowQueryLog {
        SlowQueryLog {
            entries: parking_lot::Mutex::new(Vec::new()),
            k: k.max(1),
        }
    }

    /// The process-wide log traced queries report into.
    pub fn global() -> &'static SlowQueryLog {
        GLOBAL_SLOW_LOG.get_or_init(|| SlowQueryLog::with_capacity(SLOW_LOG_K))
    }

    /// Enter one finished query; keeps the K worst by `seconds`.
    pub fn record(&self, q: SlowQuery) {
        let mut entries = self.entries.lock();
        entries.push(q);
        entries.sort_by(|a, b| b.seconds.total_cmp(&a.seconds));
        entries.truncate(self.k);
    }

    /// The retained queries, worst first.
    pub fn worst(&self) -> Vec<SlowQuery> {
        self.entries.lock().clone()
    }

    /// Drop every entry (benchmarks and tests).
    pub fn clear(&self) {
        self.entries.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq_hint: u64, trace_id: u64, span_id: u64, parent_id: u64) -> SpanRecord {
        SpanRecord {
            seq: seq_hint,
            trace_id,
            span_id,
            parent_id,
            kind: SpanKind::Stage(Stage::BboxScan),
            thread: 1,
            start_ns: span_id * 100,
            dur_ns: 50,
            rows_in: 10,
            rows_out: 5,
            flags: 0,
            aux: 0,
        }
    }

    #[test]
    fn kind_codes_round_trip() {
        for k in Stage::ALL
            .map(SpanKind::Stage)
            .into_iter()
            .chain([SpanKind::Query])
        {
            assert_eq!(SpanKind::from_code(k.code()), Some(k), "{}", k.name());
        }
        assert_eq!(SpanKind::from_code(99), None);
    }

    #[test]
    fn ring_round_trips_below_capacity() {
        let t = Tracer::with_capacity(16);
        for i in 1..=5u64 {
            t.push(&rec(0, 1, i, i - 1));
        }
        let sink = t.snapshot();
        assert_eq!(sink.len(), 5);
        assert_eq!(
            sink.spans.iter().map(|s| s.span_id).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5],
            "oldest first"
        );
        assert_eq!(sink.spans[0].seq, 0);
        assert_eq!(sink.spans[4].parent_id, 4);
    }

    #[test]
    fn ring_wraps_and_evicts_oldest() {
        // The satellite regression test: a capacity-8 ring fed a 20-span
        // parent chain keeps exactly the newest 8, and the surviving
        // parent links still form a consistent (suffix of the) tree.
        let t = Tracer::with_capacity(8);
        for i in 1..=20u64 {
            t.push(&rec(0, 7, i, i - 1)); // span i's parent is span i-1
        }
        assert_eq!(t.head.load(Ordering::Relaxed), 20);
        let sink = t.snapshot();
        assert_eq!(sink.len(), 8, "bounded at capacity");
        let ids: Vec<u64> = sink.spans.iter().map(|s| s.span_id).collect();
        assert_eq!(ids, (13..=20).collect::<Vec<_>>(), "oldest 12 evicted");
        assert_eq!(
            sink.spans.iter().map(|s| s.seq).collect::<Vec<_>>(),
            (12..20).collect::<Vec<_>>(),
            "claim numbers keep counting across the wrap"
        );
        // Parent-link consistency after the wrap: every surviving span's
        // parent is either also present (and older) or evicted — never a
        // newer span, never a bogus id.
        for s in &sink.spans {
            if let Some(p) = sink.spans.iter().find(|p| p.span_id == s.parent_id) {
                assert!(p.seq < s.seq, "parent recorded before child");
            } else {
                assert!(
                    s.parent_id < 13,
                    "absent parent {} must be an evicted (older) span",
                    s.parent_id
                );
            }
        }
        // The tree renderer treats evicted ancestors as depth roots.
        let tree = sink.render_tree();
        assert!(tree.starts_with("bbox_scan:5r:"), "{tree}");
        assert!(tree.contains(">bbox_scan"), "{tree}");
    }

    #[test]
    fn clear_resets_claims_and_contents() {
        let t = Tracer::with_capacity(4);
        for i in 1..=9u64 {
            t.push(&rec(0, 1, i, 0));
        }
        t.clear();
        assert_eq!(t.snapshot().len(), 0);
        assert_eq!(t.head.load(Ordering::Relaxed), 0);
        t.push(&rec(0, 1, 42, 0));
        let sink = t.snapshot();
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.spans[0].span_id, 42);
        assert_eq!(sink.spans[0].seq, 0);
    }

    /// A writer preempted between claiming `c` and writing it must not
    /// write over, or publish over, the newer claim `c + capacity` that
    /// finished meanwhile: the ring keeps the newest claims whatever order
    /// their writes land in.
    #[test]
    fn a_lapped_writer_does_not_overwrite_the_newer_claim() {
        let t = Tracer::with_capacity(2);
        let stale = t.claim(); // claim 0, slot 0: its writer is preempted
        t.push(&rec(0, 1, 11, 0)); // claim 1, slot 1
        t.push(&rec(0, 1, 12, 0)); // claim 2, slot 0 again
        t.write(stale, &rec(0, 1, 10, 0));
        let sink = t.snapshot();
        let kept: Vec<(u64, u64)> = sink.spans.iter().map(|s| (s.seq, s.span_id)).collect();
        assert_eq!(kept, [(1, 11), (2, 12)]);
        // The slot stays the newer claim's for the next lap.
        t.push(&rec(0, 1, 13, 0)); // claim 3, slot 1
        let kept: Vec<u64> = t.snapshot().spans.iter().map(|s| s.span_id).collect();
        assert_eq!(kept, [12, 13]);
    }

    #[test]
    fn concurrent_pushes_are_not_torn() {
        // 4 threads × 2000 pushes through a 64-slot ring: every record a
        // snapshot returns must be internally consistent (all words from
        // the same push), and the final snapshot holds exactly the last
        // `capacity` claims.
        let t = Tracer::with_capacity(64);
        std::thread::scope(|s| {
            for th in 0..4u64 {
                let t = &t;
                s.spawn(move || {
                    for i in 0..2000u64 {
                        let id = th * 10_000 + i;
                        t.push(&SpanRecord {
                            seq: 0,
                            trace_id: id,
                            span_id: id,
                            parent_id: id,
                            kind: SpanKind::Query,
                            thread: th,
                            start_ns: id,
                            dur_ns: id,
                            rows_in: id,
                            rows_out: id,
                            flags: 0,
                            aux: id,
                        });
                    }
                });
            }
        });
        assert_eq!(t.head.load(Ordering::Relaxed), 8000);
        let sink = t.snapshot();
        assert_eq!(sink.len(), 64);
        let claims: Vec<u64> = sink.spans.iter().map(|s| s.seq).collect();
        assert_eq!(
            claims,
            (8000 - 64..8000).collect::<Vec<_>>(),
            "the last 64 claims"
        );
        for s in &sink.spans {
            // Internal consistency: every field carries the same id.
            let id = s.trace_id;
            assert!(
                s.span_id == id
                    && s.parent_id == id
                    && s.start_ns == id
                    && s.dur_ns == id
                    && s.rows_in == id
                    && s.rows_out == id
                    && s.aux == id,
                "torn record: {s:?}"
            );
        }
    }

    #[test]
    fn span_guards_nest_and_record() {
        let _g = force_thread();
        let before = Tracer::global().head.load(Ordering::Relaxed);
        let trace_id;
        {
            let mut root = span(SpanKind::Query);
            assert!(root.is_recording());
            trace_id = root.trace_id().unwrap();
            root.set_rows(100, 10);
            {
                let mut child = span(SpanKind::Stage(Stage::ImprintProbe));
                assert_eq!(child.trace_id(), Some(trace_id), "inherits the trace");
                child.add_flags(FLAG_DEGRADED);
            }
        }
        assert!(Tracer::global().head.load(Ordering::Relaxed) >= before + 2);
        let sink = Tracer::global().snapshot().for_trace(trace_id);
        assert_eq!(sink.len(), 2);
        let child = &sink.spans[0]; // children close first
        let root = &sink.spans[1];
        assert_eq!(root.kind, SpanKind::Query);
        assert_eq!(root.parent_id, 0);
        assert_eq!(root.rows_in, 100);
        assert_eq!(child.kind, SpanKind::Stage(Stage::ImprintProbe));
        assert_eq!(child.parent_id, root.span_id);
        assert_eq!(child.flags, FLAG_DEGRADED);
    }

    #[test]
    fn spans_are_inert_when_inactive() {
        // No global flag, no thread guard, no enclosing span on this
        // thread: the guard must not record.
        let g = span(SpanKind::Query);
        assert!(!g.is_recording());
        assert_eq!(g.ctx(), None);
    }

    #[test]
    fn adopt_parent_links_across_threads() {
        let _g = force_thread();
        let root = span(SpanKind::Query);
        let (tid, sid) = root.ctx().unwrap();
        std::thread::scope(|s| {
            s.spawn(move || {
                let _p = adopt_parent(tid, sid);
                let m = span(SpanKind::Stage(Stage::Morsel));
                assert_eq!(m.trace_id(), Some(tid));
            });
        });
        drop(root);
        let sink = Tracer::global().snapshot().for_trace(tid);
        let morsel = sink
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::Stage(Stage::Morsel))
            .expect("worker span present");
        assert_eq!(morsel.parent_id, sid);
        let root_rec = sink
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::Query)
            .unwrap();
        assert_ne!(
            morsel.thread, root_rec.thread,
            "worker ran on its own thread"
        );
    }

    #[test]
    fn cancelled_flag_renders_in_tree() {
        let mut r = rec(0, 9, 2, 0);
        r.flags = FLAG_CANCELLED | FLAG_FAULT;
        let sink = TraceSink { spans: vec![r] };
        let tree = sink.render_tree();
        assert!(tree.contains("[cancelled]"), "{tree}");
    }

    #[test]
    fn slow_log_keeps_k_worst() {
        let log = SlowQueryLog::with_capacity(3);
        for (i, secs) in [0.5, 0.1, 0.9, 0.3, 0.7].into_iter().enumerate() {
            log.record(SlowQuery {
                trace_id: i as u64 + 1,
                seconds: secs,
                queue_wait_seconds: secs / 10.0,
                result_rows: i,
                explain: Explain::default(),
                spans: Vec::new(),
            });
        }
        let worst = log.worst();
        assert_eq!(worst.len(), 3);
        let secs: Vec<f64> = worst.iter().map(|q| q.seconds).collect();
        assert_eq!(secs, vec![0.9, 0.7, 0.5], "worst first, 0.1/0.3 dropped");
        log.clear();
        assert!(log.worst().is_empty());
    }
}
