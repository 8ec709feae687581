//! Query lifecycle governance: deadlines, cooperative cancellation,
//! per-query memory budgets, and admission control / load shedding.
//!
//! Three cooperating pieces (DESIGN.md §3.8):
//!
//! * [`CancelToken`] — a shareable cancellation handle combining a wall
//!   clock deadline, a manual kill switch (`KILL <id>`), and a
//!   memory-budget trip. The query path polls it at bounded-stride
//!   checkpoints — stage boundaries in `core::query` and
//!   [`CHECKPOINT_STRIDE`]-row chunks inside every `core::exec` morsel
//!   loop — so cancellation latency is bounded by one stride of work,
//!   never by the whole query.
//! * [`MemBudget`] — byte accounting charged at the query's
//!   materialisation sites (candidate runs, selection rows, grid-refine
//!   buffers); exceeding the budget trips the token and the query
//!   returns [`CoreError::Cancelled`] instead of OOM-ing the process.
//! * [`AdmissionController`] — a process-wide in-flight cap with a
//!   bounded FIFO wait queue (ticketed, so admission order is fair); a
//!   full queue sheds immediately with [`CoreError::Overloaded`], and a
//!   queued entry whose wait deadline expires is shed the same way.
//!
//! Everything here is plain `std::sync` state: the module compiles, and
//! the checkpoints stay live, with the `trace` feature off.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::error::{CancelReason, CoreError};
use crate::fault::{FaultInjector, FaultKind, FaultStage};
use crate::metrics::{MetricsRegistry, Stage};

/// Maximum rows a scan/refine loop may process between two cancellation
/// checkpoints. One stride of the cheapest kernel (the exact bbox scan)
/// is well under a millisecond, which bounds cancellation latency.
pub const CHECKPOINT_STRIDE: usize = 1 << 16;

// ------------------------------------------------------------ CancelToken

const LIVE: u8 = 0;

fn reason_to_code(r: CancelReason) -> u8 {
    match r {
        CancelReason::Deadline => 1,
        CancelReason::Killed => 2,
        CancelReason::MemBudget => 3,
    }
}

fn code_to_reason(c: u8) -> Option<CancelReason> {
    match c {
        1 => Some(CancelReason::Deadline),
        2 => Some(CancelReason::Killed),
        3 => Some(CancelReason::MemBudget),
        _ => None,
    }
}

#[derive(Debug)]
struct TokenInner {
    start: Instant,
    /// Deadline as nanoseconds after `start`; 0 = none.
    deadline_ns: AtomicU64,
    /// [`LIVE`] or a `CancelReason` code. First trip wins.
    tripped: AtomicU8,
    /// Memory budget in bytes; 0 = unlimited.
    budget: AtomicU64,
    /// Bytes charged against the budget so far.
    charged: AtomicU64,
}

/// Shareable cancellation handle for one query.
///
/// Cheap to clone (one `Arc`); every execution thread of the query polls
/// the same token. The fast path of [`CancelToken::check`] is one relaxed
/// load plus, when a deadline is set, one `Instant::now()` — called only
/// at bounded strides, never per row.
#[derive(Clone, Debug)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    /// A live token with no deadline and no memory budget.
    pub fn new() -> Self {
        Self::with(None, None)
    }

    /// A live token with an optional deadline and memory budget.
    pub fn with(deadline: Option<Duration>, budget: Option<u64>) -> Self {
        CancelToken {
            inner: Arc::new(TokenInner {
                start: Instant::now(),
                deadline_ns: AtomicU64::new(
                    deadline.map_or(0, |d| (d.as_nanos() as u64).max(1)),
                ),
                tripped: AtomicU8::new(LIVE),
                budget: AtomicU64::new(budget.unwrap_or(0)),
                charged: AtomicU64::new(0),
            }),
        }
    }

    /// Time since the token (and its query) started.
    pub fn elapsed(&self) -> Duration {
        self.inner.start.elapsed()
    }

    /// Trip the token with `reason`. The first trip wins; later trips are
    /// no-ops. Returns whether this call performed the transition (the
    /// governor metrics are bumped exactly once, here).
    pub fn trip(&self, reason: CancelReason) -> bool {
        let won = self
            .inner
            .tripped
            .compare_exchange(LIVE, reason_to_code(reason), Ordering::AcqRel, Ordering::Acquire)
            .is_ok();
        if won {
            let m = MetricsRegistry::global();
            match reason {
                CancelReason::Deadline => m.queries_timed_out.inc(),
                CancelReason::Killed => m.queries_killed.inc(),
                CancelReason::MemBudget => m.budget_trips.inc(),
            }
        }
        won
    }

    /// Manually kill the query (`KILL <id>`, [`QueryRegistry::kill`]).
    pub fn kill(&self) -> bool {
        self.trip(CancelReason::Killed)
    }

    /// Why the token tripped, if it has.
    pub fn reason(&self) -> Option<CancelReason> {
        code_to_reason(self.inner.tripped.load(Ordering::Acquire))
    }

    /// Whether the token has tripped (without constructing the error).
    pub fn is_cancelled(&self) -> bool {
        self.reason().is_some()
    }

    /// Poll the token: `Ok(())` while live, the query's terminal
    /// [`CoreError::Cancelled`] once tripped. Also trips the token itself
    /// when the deadline has expired, so deadline enforcement needs no
    /// background thread.
    pub fn check(&self, partial_rows: usize) -> Result<(), CoreError> {
        let code = self.inner.tripped.load(Ordering::Relaxed);
        if code == LIVE {
            let d = self.inner.deadline_ns.load(Ordering::Relaxed);
            if d == 0 || (self.elapsed().as_nanos() as u64) < d {
                return Ok(());
            }
            self.trip(CancelReason::Deadline);
        }
        Err(self.cancelled(partial_rows))
    }

    /// Charge `bytes` against the memory budget; `false` trips the token.
    fn try_charge(&self, bytes: u64) -> bool {
        let budget = self.inner.budget.load(Ordering::Relaxed);
        if budget == 0 {
            return true;
        }
        let prev = self.inner.charged.fetch_add(bytes, Ordering::Relaxed);
        if prev.saturating_add(bytes) > budget {
            self.trip(CancelReason::MemBudget);
            return false;
        }
        true
    }

    /// The byte-accounting view of this token.
    pub fn budget(&self) -> MemBudget {
        MemBudget {
            token: self.clone(),
        }
    }

    /// Build the terminal error for this token. Display deliberately
    /// omits `elapsed` (carried for programmatic use) so a serial and a
    /// parallel cancellation of the same query render identically.
    pub fn cancelled(&self, partial_rows: usize) -> CoreError {
        CoreError::Cancelled {
            reason: self.reason().unwrap_or(CancelReason::Killed),
            elapsed: self.elapsed(),
            partial_rows,
        }
    }
}

// -------------------------------------------------------------- MemBudget

/// Byte-accounting handle for one query's materialisations.
///
/// Charge sites (see `core::query`): the candidate-run list after the
/// imprint probe, the selection `rows` vector after the exact scan and
/// after refinement, and the per-row cell-id buffer of the grid refiner.
/// The very allocation that would burst the budget is charged *before*
/// the next stage grows it further, so peak overshoot is bounded by one
/// stage's materialisation.
#[derive(Clone, Debug)]
pub struct MemBudget {
    token: CancelToken,
}

impl MemBudget {
    /// Charge `bytes`; on an exceeded budget the token trips and the
    /// query's [`CoreError::Cancelled`] comes back.
    pub fn charge(&self, bytes: u64, partial_rows: usize) -> Result<(), CoreError> {
        if self.token.try_charge(bytes) {
            Ok(())
        } else {
            Err(self.token.cancelled(partial_rows))
        }
    }

    /// Bytes charged so far.
    pub fn used(&self) -> u64 {
        self.token.inner.charged.load(Ordering::Relaxed)
    }

    /// The configured limit (0 = unlimited).
    pub fn limit(&self) -> u64 {
        self.token.inner.budget.load(Ordering::Relaxed)
    }
}

// -------------------------------------------------------------- GovernCtx

/// Per-query governance context threaded through the execution paths.
///
/// Bundles the [`CancelToken`], the optional [`FaultInjector`] (so the
/// `Cancel`/`Stall` fault kinds fire at real checkpoints), and a shared
/// partial-row counter that gives `CoreError::Cancelled::partial_rows`
/// a meaningful value from any thread.
#[derive(Clone, Debug, Default)]
pub struct GovernCtx {
    token: CancelToken,
    fault: Option<Arc<FaultInjector>>,
    partial: Arc<AtomicUsize>,
    queue_wait: Duration,
}

impl GovernCtx {
    /// Context for a governed query.
    pub fn new(token: CancelToken, fault: Option<Arc<FaultInjector>>) -> Self {
        GovernCtx {
            token,
            fault,
            partial: Arc::new(AtomicUsize::new(0)),
            queue_wait: Duration::ZERO,
        }
    }

    /// Admission queue wait paid before this query started (set by
    /// [`govern`] from [`AdmissionPermit::queue_wait`]), so the slow-query
    /// log and `sys.queries` can separate "slow because queued" from "slow
    /// because scanning".
    pub fn queue_wait(&self) -> Duration {
        self.queue_wait
    }

    /// Context with no limits and no faults — the ungoverned default.
    /// Checkpoints against it are one relaxed load.
    pub fn ungoverned() -> Self {
        Self::default()
    }

    /// The query's cancellation token.
    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    /// The query's memory budget handle.
    pub fn mem(&self) -> MemBudget {
        self.token.budget()
    }

    /// Record `n` rows materialised toward `partial_rows`.
    pub fn add_rows(&self, n: usize) {
        if n > 0 {
            self.partial.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Rows materialised so far.
    pub fn partial_rows(&self) -> usize {
        self.partial.load(Ordering::Relaxed)
    }

    /// One cooperative checkpoint. `site` names the surrounding stage for
    /// fault-rule targeting (`FaultStage::QueryCheckpoint`): an armed
    /// `Cancel` rule kills the token here, a `Stall(ms)` rule sleeps so a
    /// deadline expires deterministically mid-stage.
    pub fn checkpoint(&self, site: &str) -> Result<(), CoreError> {
        if let Some(fi) = &self.fault {
            match fi.fire(FaultStage::QueryCheckpoint, site) {
                Some(FaultKind::Cancel) => {
                    self.token.trip(CancelReason::Killed);
                }
                Some(FaultKind::Stall(ms)) => {
                    std::thread::sleep(Duration::from_millis(ms));
                }
                _ => {}
            }
        }
        self.token.check(self.partial_rows())
    }

    /// Charge `bytes` against the memory budget at this point of the
    /// query (see [`MemBudget`] for the charge sites).
    pub fn charge(&self, bytes: u64) -> Result<(), CoreError> {
        self.mem().charge(bytes, self.partial_rows())
    }
}

// ---------------------------------------------------- AdmissionController

/// RAII in-flight slot; dropping it releases the slot and wakes the next
/// queued query.
#[derive(Debug)]
pub struct AdmissionPermit<'a> {
    controller: Option<&'a AdmissionController>,
    queue_wait: Duration,
}

impl AdmissionPermit<'_> {
    /// How long this query waited in the admission queue before getting
    /// its slot ([`Duration::ZERO`] when it was admitted immediately).
    pub fn queue_wait(&self) -> Duration {
        self.queue_wait
    }
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        if let Some(c) = self.controller {
            let mut st = c.state.lock().unwrap();
            st.in_flight = st.in_flight.saturating_sub(1);
            publish_admission_gauges(&st);
            drop(st);
            c.cv.notify_all();
        }
    }
}

/// Mirror the admission state into the metrics gauges (last-writer-wins,
/// same convention as `table_rows`): the recorder and `/metrics` read
/// queue depth without taking the admission lock.
fn publish_admission_gauges(st: &AdmState) {
    let m = MetricsRegistry::global();
    m.admission_in_flight.set(st.in_flight as u64);
    m.admission_queued.set(st.queue.len() as u64);
}

#[derive(Default)]
struct AdmState {
    in_flight: usize,
    /// Tickets of waiting queries, FIFO.
    queue: VecDeque<u64>,
    next_ticket: u64,
}

/// Process-wide semaphore-style admission control with a bounded FIFO
/// wait queue.
///
/// * `max_in_flight` queries run; the rest wait in ticket order.
/// * At most `max_queue` queries wait; beyond that, [`admit`] sheds
///   immediately with [`CoreError::Overloaded`].
/// * A queued entry whose `queue_deadline` expires is shed the same way
///   (it never starts, so it cannot return a partial result).
///
/// The [global](AdmissionController::global) instance starts unlimited;
/// callers opt in via [`set_limits`](AdmissionController::set_limits) or
/// by installing a private controller on a `PointCloud`.
pub struct AdmissionController {
    max_in_flight: AtomicUsize,
    max_queue: AtomicUsize,
    state: Mutex<AdmState>,
    cv: Condvar,
}

impl fmt::Debug for AdmissionController {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdmissionController")
            .field("max_in_flight", &self.max_in_flight.load(Ordering::Relaxed))
            .field("max_queue", &self.max_queue.load(Ordering::Relaxed))
            .field("in_flight", &self.in_flight())
            .field("queued", &self.queued())
            .finish()
    }
}

impl AdmissionController {
    /// A controller admitting `max_in_flight` concurrent queries with a
    /// wait queue of `max_queue` entries.
    pub fn new(max_in_flight: usize, max_queue: usize) -> Self {
        AdmissionController {
            max_in_flight: AtomicUsize::new(max_in_flight.max(1)),
            max_queue: AtomicUsize::new(max_queue),
            state: Mutex::new(AdmState::default()),
            cv: Condvar::new(),
        }
    }

    /// A controller that admits everything (no cap, no queue, no lock on
    /// the admit fast path).
    pub fn unlimited() -> Self {
        AdmissionController {
            max_in_flight: AtomicUsize::new(usize::MAX),
            max_queue: AtomicUsize::new(0),
            state: Mutex::new(AdmState::default()),
            cv: Condvar::new(),
        }
    }

    /// The process-wide controller (unlimited until configured).
    pub fn global() -> &'static AdmissionController {
        static GLOBAL: OnceLock<AdmissionController> = OnceLock::new();
        GLOBAL.get_or_init(AdmissionController::unlimited)
    }

    /// Reconfigure the caps. `usize::MAX` in-flight disables admission
    /// control entirely.
    pub fn set_limits(&self, max_in_flight: usize, max_queue: usize) {
        self.max_in_flight
            .store(max_in_flight.max(1), Ordering::Relaxed);
        self.max_queue.store(max_queue, Ordering::Relaxed);
        self.cv.notify_all();
    }

    /// Queries currently executing under this controller.
    pub fn in_flight(&self) -> usize {
        self.state.lock().unwrap().in_flight
    }

    /// Queries currently waiting in the queue.
    pub fn queued(&self) -> usize {
        self.state.lock().unwrap().queue.len()
    }

    /// The configured `(max_in_flight, max_queue)` caps. `usize::MAX`
    /// in-flight means admission control is disabled.
    pub fn limits(&self) -> (usize, usize) {
        (
            self.max_in_flight.load(Ordering::Relaxed),
            self.max_queue.load(Ordering::Relaxed),
        )
    }

    /// Acquire an execution slot, waiting in FIFO order for at most
    /// `queue_deadline` (forever if `None`). Sheds with
    /// [`CoreError::Overloaded`] when the queue is full or the wait
    /// deadline expires. Waits longer than zero are recorded under the
    /// `governor` stage so queueing shows up in the latency histograms.
    pub fn admit(&self, queue_deadline: Option<Duration>) -> Result<AdmissionPermit<'_>, CoreError> {
        if self.max_in_flight.load(Ordering::Relaxed) == usize::MAX {
            return Ok(AdmissionPermit {
                controller: None,
                queue_wait: Duration::ZERO,
            });
        }
        let give_up_at = queue_deadline.map(|d| Instant::now() + d);
        let mut st = self.state.lock().unwrap();
        if st.queue.is_empty() && st.in_flight < self.max_in_flight.load(Ordering::Relaxed) {
            st.in_flight += 1;
            publish_admission_gauges(&st);
            return Ok(AdmissionPermit {
                controller: Some(self),
                queue_wait: Duration::ZERO,
            });
        }
        if st.queue.len() >= self.max_queue.load(Ordering::Relaxed) {
            MetricsRegistry::global().queries_shed.inc();
            return Err(CoreError::Overloaded);
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.queue.push_back(ticket);
        publish_admission_gauges(&st);
        let waited_from = Instant::now();
        loop {
            if st.queue.front() == Some(&ticket)
                && st.in_flight < self.max_in_flight.load(Ordering::Relaxed)
            {
                st.queue.pop_front();
                st.in_flight += 1;
                publish_admission_gauges(&st);
                drop(st);
                self.cv.notify_all();
                let waited = waited_from.elapsed();
                MetricsRegistry::global().record_stage(Stage::Governor, 0, waited);
                return Ok(AdmissionPermit {
                    controller: Some(self),
                    queue_wait: waited,
                });
            }
            match give_up_at {
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        st.queue.retain(|&t| t != ticket);
                        publish_admission_gauges(&st);
                        drop(st);
                        self.cv.notify_all();
                        MetricsRegistry::global().queries_shed.inc();
                        return Err(CoreError::Overloaded);
                    }
                    st = self.cv.wait_timeout(st, d - now).unwrap().0;
                }
                None => st = self.cv.wait(st).unwrap(),
            }
        }
    }
}

// ----------------------------------------------------------- QueryRegistry

/// Identifier of one query admitted to the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u64);

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

struct QueryEntry {
    id: u64,
    token: CancelToken,
    detail: String,
    queue_wait: Duration,
    /// Shared partial-row counter of the query's [`GovernCtx`].
    partial: Arc<AtomicUsize>,
}

/// One row of `SHOW QUERIES` / `sys.queries`.
#[derive(Debug, Clone)]
pub struct QueryInfo {
    /// The query's id (the `KILL` handle).
    pub id: QueryId,
    /// Wall time since the query registered.
    pub elapsed: Duration,
    /// Human-readable description of what it is doing.
    pub detail: String,
    /// Whether its token has already tripped.
    pub cancelled: bool,
    /// Admission queue wait paid before the query started.
    pub queue_wait: Duration,
    /// Bytes charged against the query's memory budget so far.
    pub mem_used: u64,
    /// Rows materialised so far.
    pub rows_so_far: usize,
}

/// Process-wide registry of in-flight queries: the backing store of
/// `SHOW QUERIES` and the lookup table of `KILL <id>`.
#[derive(Default)]
pub struct QueryRegistry {
    next_id: AtomicU64,
    entries: Mutex<Vec<QueryEntry>>,
}

/// RAII registration; dropping it removes the query from the registry.
pub struct QueryTicket {
    registry: &'static QueryRegistry,
    id: u64,
}

impl QueryTicket {
    /// The registered query's id.
    pub fn id(&self) -> QueryId {
        QueryId(self.id)
    }
}

impl Drop for QueryTicket {
    fn drop(&mut self) {
        let mut entries = self.registry.entries.lock().unwrap();
        entries.retain(|e| e.id != self.id);
        MetricsRegistry::global()
            .inflight_queries
            .set(entries.len() as u64);
    }
}

impl QueryRegistry {
    /// The process-wide registry.
    pub fn global() -> &'static QueryRegistry {
        static GLOBAL: OnceLock<QueryRegistry> = OnceLock::new();
        GLOBAL.get_or_init(QueryRegistry::default)
    }

    /// Register an in-flight query under its governance context (token,
    /// queue wait, live row progress — what `sys.queries` reports); the
    /// returned ticket deregisters on drop and carries the fresh
    /// [`QueryId`].
    pub fn register(&'static self, detail: impl Into<String>, ctx: &GovernCtx) -> QueryTicket {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let mut entries = self.entries.lock().unwrap();
        entries.push(QueryEntry {
            id,
            token: ctx.token.clone(),
            detail: detail.into(),
            queue_wait: ctx.queue_wait,
            partial: Arc::clone(&ctx.partial),
        });
        MetricsRegistry::global()
            .inflight_queries
            .set(entries.len() as u64);
        QueryTicket { registry: self, id }
    }

    /// Kill the query with `id`; `true` if it was in flight (whether or
    /// not this call was the first to trip its token).
    pub fn kill(&self, id: QueryId) -> bool {
        let entries = self.entries.lock().unwrap();
        match entries.iter().find(|e| e.id == id.0) {
            Some(e) => {
                e.token.kill();
                true
            }
            None => false,
        }
    }

    /// Snapshot of every in-flight query, oldest first.
    pub fn list(&self) -> Vec<QueryInfo> {
        let entries = self.entries.lock().unwrap();
        entries
            .iter()
            .map(|e| QueryInfo {
                id: QueryId(e.id),
                elapsed: e.token.elapsed(),
                detail: e.detail.clone(),
                cancelled: e.token.is_cancelled(),
                queue_wait: e.queue_wait,
                mem_used: e.token.budget().used(),
                rows_so_far: e.partial.load(Ordering::Relaxed),
            })
            .collect()
    }
}

/// One governed statement: its [`GovernCtx`] plus the RAII registry
/// ticket and admission permit, released (in that order) on drop. Hold it
/// for as long as the statement occupies the engine — a session layer
/// keeps it across result delivery, not just the scan.
pub struct Governed<'a> {
    /// The statement's governance context.
    pub ctx: GovernCtx,
    _ticket: QueryTicket,
    _permit: AdmissionPermit<'a>,
}

/// The governance prologue every governed statement runs, in this order:
/// the token is created *before* admission, so the deadline clock starts
/// at enqueue and time spent in the FIFO queue counts against it;
/// admission happens before any other work, so a shed query costs one
/// mutex round-trip, never a scan; the token is checked again after the
/// wait (which may have consumed the whole deadline); then the context
/// (fault injector, queue wait) is built and registered for `SHOW
/// QUERIES` / `KILL`.
pub fn govern<'a>(
    admission: &'a AdmissionController,
    fault: Option<Arc<FaultInjector>>,
    detail: impl Into<String>,
    deadline: Option<Duration>,
    budget: Option<u64>,
) -> Result<Governed<'a>, CoreError> {
    let token = CancelToken::with(deadline, budget);
    let queue_deadline = deadline.map(|d| d.saturating_sub(token.elapsed()));
    let permit = admission.admit(queue_deadline)?;
    token.check(0)?;
    let mut ctx = GovernCtx::new(token, fault);
    ctx.queue_wait = permit.queue_wait();
    let ticket = QueryRegistry::global().register(detail, &ctx);
    Ok(Governed {
        ctx,
        _ticket: ticket,
        _permit: permit,
    })
}

// ---------------------------------------------------- SessionRegistry

struct SessionEntry {
    id: u64,
    peer: String,
    started: Instant,
    statements: Arc<AtomicU64>,
}

/// One row of `sys.sessions`.
#[derive(Debug, Clone)]
pub struct SessionInfo {
    /// Session id (stable for the connection's lifetime).
    pub id: u64,
    /// The peer address (or another caller-chosen label).
    pub peer: String,
    /// Wall time since the session opened.
    pub elapsed: Duration,
    /// Statements executed on the session so far.
    pub statements: u64,
}

/// Process-wide registry of open sessions: the backing store of
/// `sys.sessions`. The network server registers one entry per
/// connection; embedded callers never touch it.
#[derive(Default)]
pub struct SessionRegistry {
    next_id: AtomicU64,
    entries: Mutex<Vec<SessionEntry>>,
}

/// RAII session registration; dropping it removes the session and
/// refreshes the `open_connections` gauge.
pub struct SessionTicket {
    registry: &'static SessionRegistry,
    id: u64,
    statements: Arc<AtomicU64>,
}

impl SessionTicket {
    /// The registered session's id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Count one executed statement against this session.
    pub fn bump_statements(&self) {
        self.statements.fetch_add(1, Ordering::Relaxed);
    }
}

impl Drop for SessionTicket {
    fn drop(&mut self) {
        let mut entries = self.registry.entries.lock().unwrap();
        entries.retain(|e| e.id != self.id);
        MetricsRegistry::global()
            .open_connections
            .set(entries.len() as u64);
    }
}

impl SessionRegistry {
    /// The process-wide registry.
    pub fn global() -> &'static SessionRegistry {
        static GLOBAL: OnceLock<SessionRegistry> = OnceLock::new();
        GLOBAL.get_or_init(SessionRegistry::default)
    }

    /// Register an open session; the ticket deregisters on drop.
    pub fn register(&'static self, peer: impl Into<String>) -> SessionTicket {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let statements = Arc::new(AtomicU64::new(0));
        let mut entries = self.entries.lock().unwrap();
        entries.push(SessionEntry {
            id,
            peer: peer.into(),
            started: Instant::now(),
            statements: Arc::clone(&statements),
        });
        MetricsRegistry::global()
            .open_connections
            .set(entries.len() as u64);
        SessionTicket {
            registry: self,
            id,
            statements,
        }
    }

    /// Snapshot of every open session, oldest first.
    pub fn list(&self) -> Vec<SessionInfo> {
        self.entries
            .lock()
            .unwrap()
            .iter()
            .map(|e| SessionInfo {
                id: e.id,
                peer: e.peer.clone(),
                elapsed: e.started.elapsed(),
                statements: e.statements.load(Ordering::Relaxed),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_registry_tracks_open_sessions() {
        let reg = SessionRegistry::global();
        let before = reg.list().len();
        let t = reg.register("127.0.0.1:9999");
        t.bump_statements();
        t.bump_statements();
        let me = reg
            .list()
            .into_iter()
            .find(|s| s.id == t.id())
            .expect("registered");
        assert_eq!(me.peer, "127.0.0.1:9999");
        assert_eq!(me.statements, 2);
        drop(t);
        assert_eq!(reg.list().len(), before, "deregistered on drop");
    }

    #[test]
    fn token_deadline_trips_on_check() {
        let t = CancelToken::with(Some(Duration::from_millis(1)), None);
        assert!(t.check(0).is_ok() || t.reason() == Some(CancelReason::Deadline));
        std::thread::sleep(Duration::from_millis(5));
        let err = t.check(42).unwrap_err();
        match err {
            CoreError::Cancelled {
                reason,
                partial_rows,
                ..
            } => {
                assert_eq!(reason, CancelReason::Deadline);
                assert_eq!(partial_rows, 42);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn first_trip_wins_and_is_sticky() {
        let t = CancelToken::new();
        assert!(t.check(0).is_ok());
        assert!(t.kill());
        assert!(!t.trip(CancelReason::MemBudget), "second trip loses");
        assert_eq!(t.reason(), Some(CancelReason::Killed));
        assert!(t.check(0).is_err());
    }

    #[test]
    fn budget_charges_until_tripped() {
        let t = CancelToken::with(None, Some(100));
        let b = t.budget();
        assert!(b.charge(60, 0).is_ok());
        assert!(b.charge(40, 0).is_ok(), "exactly at the limit is fine");
        let err = b.charge(1, 7).unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::Cancelled {
                    reason: CancelReason::MemBudget,
                    partial_rows: 7,
                    ..
                }
            ),
            "{err:?}"
        );
        assert_eq!(b.limit(), 100);
        assert!(b.used() >= 100);
    }

    #[test]
    fn unbudgeted_token_never_trips_on_charges() {
        let t = CancelToken::new();
        assert!(t.budget().charge(u64::MAX / 2, 0).is_ok());
        assert!(t.budget().charge(u64::MAX / 2, 0).is_ok());
        assert!(t.check(0).is_ok());
    }

    #[test]
    fn ctx_fault_cancel_and_stall() {
        let fi = Arc::new(FaultInjector::new());
        fi.inject(FaultStage::QueryCheckpoint, None, FaultKind::Cancel);
        let ctx = GovernCtx::new(CancelToken::new(), Some(fi));
        let err = ctx.checkpoint("bbox_scan").unwrap_err();
        assert!(matches!(
            err,
            CoreError::Cancelled {
                reason: CancelReason::Killed,
                ..
            }
        ));

        // A stall makes a short deadline expire deterministically.
        let fi = Arc::new(FaultInjector::new());
        fi.inject(FaultStage::QueryCheckpoint, None, FaultKind::Stall(20));
        let ctx = GovernCtx::new(
            CancelToken::with(Some(Duration::from_millis(5)), None),
            Some(fi),
        );
        let err = ctx.checkpoint("bbox_scan").unwrap_err();
        assert!(matches!(
            err,
            CoreError::Cancelled {
                reason: CancelReason::Deadline,
                ..
            }
        ));
    }

    #[test]
    fn admission_caps_and_sheds() {
        let c = AdmissionController::new(1, 1);
        let p1 = c.admit(None).unwrap();
        assert_eq!(c.in_flight(), 1);
        // Second query fits in the queue but times out waiting.
        let err = c.admit(Some(Duration::from_millis(10))).unwrap_err();
        assert!(matches!(err, CoreError::Overloaded), "{err:?}");
        assert_eq!(c.queued(), 0, "timed-out waiter left the queue");
        drop(p1);
        let p2 = c.admit(Some(Duration::from_millis(10))).unwrap();
        assert_eq!(c.in_flight(), 1);
        drop(p2);
        assert_eq!(c.in_flight(), 0);
    }

    #[test]
    fn admission_queue_full_sheds_immediately() {
        let c = Arc::new(AdmissionController::new(1, 1));
        let p1 = c.admit(None).unwrap();
        // Fill the single queue slot from another thread.
        let c2 = Arc::clone(&c);
        let waiter = std::thread::spawn(move || c2.admit(Some(Duration::from_secs(5))).map(|_| ()));
        while c.queued() == 0 {
            std::thread::yield_now();
        }
        let t0 = Instant::now();
        let err = c.admit(Some(Duration::from_secs(5))).unwrap_err();
        assert!(matches!(err, CoreError::Overloaded));
        assert!(
            t0.elapsed() < Duration::from_millis(500),
            "full queue sheds without waiting"
        );
        drop(p1);
        waiter.join().unwrap().unwrap();
    }

    #[test]
    fn admission_is_fifo() {
        let c: &'static AdmissionController =
            Box::leak(Box::new(AdmissionController::new(1, 16)));
        let p = c.admit(None).unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for i in 0..4u32 {
            // Stagger arrivals so ticket order is deterministic.
            while c.queued() < i as usize {
                std::thread::yield_now();
            }
            let order = Arc::clone(&order);
            handles.push(std::thread::spawn(move || {
                let permit = c.admit(None).unwrap();
                order.lock().unwrap().push(i);
                std::thread::sleep(Duration::from_millis(2));
                drop(permit);
            }));
        }
        while c.queued() < 4 {
            std::thread::yield_now();
        }
        drop(p);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3], "FIFO admission");
    }

    #[test]
    fn permit_reports_queue_wait() {
        let c: &'static AdmissionController =
            Box::leak(Box::new(AdmissionController::new(1, 4)));
        let p1 = c.admit(None).unwrap();
        assert_eq!(p1.queue_wait(), Duration::ZERO, "fast path never waits");
        assert_eq!(c.limits(), (1, 4));
        let waiter = std::thread::spawn(move || c.admit(Some(Duration::from_secs(5))).unwrap());
        while c.queued() == 0 {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(10));
        drop(p1);
        let p2 = waiter.join().unwrap();
        assert!(
            p2.queue_wait() >= Duration::from_millis(5),
            "queued permit records its wait, got {:?}",
            p2.queue_wait()
        );
    }

    #[test]
    fn unlimited_permit_has_zero_wait() {
        let c = AdmissionController::unlimited();
        assert_eq!(c.admit(None).unwrap().queue_wait(), Duration::ZERO);
        assert_eq!(c.limits().0, usize::MAX);
    }

    #[test]
    fn registry_ctx_carries_wait_and_progress() {
        let reg = QueryRegistry::global();
        let mut ctx = GovernCtx::new(CancelToken::with(None, Some(1 << 20)), None);
        ctx.queue_wait = Duration::from_millis(250);
        ctx.add_rows(17);
        ctx.charge(4096).unwrap();
        let ticket = reg.register("sys test", &ctx);
        let id = ticket.id();
        let me = reg
            .list()
            .into_iter()
            .find(|q| q.id == id)
            .expect("registered");
        assert_eq!(me.queue_wait, Duration::from_millis(250));
        assert_eq!(me.rows_so_far, 17);
        assert!(me.mem_used >= 4096, "budget charges visible: {}", me.mem_used);
        drop(ticket);
        assert!(!reg.list().iter().any(|q| q.id == id));
    }

    #[test]
    fn registry_kill_and_list() {
        let reg = QueryRegistry::global();
        let token = CancelToken::new();
        let ticket = reg.register("SELECT test", &GovernCtx::new(token.clone(), None));
        let id = ticket.id();
        let listed = reg.list();
        let me = listed.iter().find(|q| q.id == id).expect("registered");
        assert_eq!(me.detail, "SELECT test");
        assert!(!me.cancelled);
        assert!(reg.kill(id));
        assert!(token.is_cancelled());
        assert!(reg.list().iter().find(|q| q.id == id).unwrap().cancelled);
        drop(ticket);
        assert!(
            !reg.list().iter().any(|q| q.id == id),
            "deregistered on drop"
        );
        assert!(!reg.kill(id), "gone queries cannot be killed");
    }
}
