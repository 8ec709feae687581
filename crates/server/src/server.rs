//! The TCP server: one session per connection, mapped onto the governor.
//!
//! Each accepted connection gets a session catalog
//! ([`Catalog::session`]) — private `SET` knobs over the shared tables —
//! and two threads:
//!
//! * a **reader** that decodes request frames and forwards them over a
//!   channel. Because it is always parked in `read()`, a client that
//!   disconnects mid-statement is noticed immediately: the reader trips
//!   the running statement's [`CancelToken`], and the scan dies at its
//!   next governance checkpoint instead of streaming rows to a ghost.
//! * the **session** thread that executes statements via
//!   [`lidardb_sql::query_streamed`] and writes `Header`/`Batch`/`Done`
//!   frames back. A natively streamed scan hands over column-major
//!   batches whose `f64`/`i64` chunks are copied straight into the frame
//!   body ([`protocol::encode_columns`]); materialised results (aggregates,
//!   `SHOW`, `sys.*`, `INSERT` status) arrive as rows and encode to the same
//!   bytes for the same values. Every batch write is flushed, so a slow client
//!   backpressures the statement through the socket buffer — and because
//!   the admission permit is held for the statement's whole lifetime
//!   (scan *and* delivery, see `execute_streamed`), a slow consumer
//!   occupies an in-flight slot like any other running query.
//!
//! Session teardown — clean or not — force-syncs the WAL group of every
//! streaming table, so rows a dying connection inserted under
//! `Durability::GroupCommit` cannot sit applied-but-unsynced waiting for
//! traffic that will never come.
//!
//! **Graceful drain**: [`ServerHandle::shutdown`] walks the server through
//! a typed drain instead of yanking sockets. Draining servers keep
//! accepting TCP connections just long enough to answer them with a
//! [`Message::ShuttingDown`] frame (never a raw reset mid-handshake), idle
//! sessions get the same typed goodbye, in-flight statements run to the
//! drain deadline and are then cancelled through the [`QueryRegistry`],
//! every streaming table's group-commit window is force-fsynced, and the
//! observability plane (answering 503 the whole time) is stopped last.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use lidardb_core::{CancelToken, MetricsRegistry, QueryRegistry, SessionRegistry, Stage};
use lidardb_sql::{Catalog, ColumnBatch, RowSink, SqlError, SqlValue};

use crate::promtext;
use crate::protocol::{self, Message, ProtoError};

/// Default wall-clock budget a drain gives in-flight statements before
/// cancelling them (override with [`Server::with_drain_deadline`]).
pub const DEFAULT_DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// How long after the drain deadline a cancelled statement gets to surface
/// its typed `Error` frame before the socket is force-closed. Cancellation
/// is cooperative — the statement aborts at its next governance checkpoint
/// — so the farewell needs a beat to travel.
const CANCEL_GRACE: Duration = Duration::from_secs(2);

/// Idle-session poll interval: how often a parked session checks the drain
/// flag (bounds how stale a typed goodbye can be).
const DRAIN_POLL: Duration = Duration::from_millis(50);

/// One accepted connection the server is tracking for drain: the stream
/// (for a deadline force-close), a done flag the session thread sets on
/// exit, and the thread handle to join.
struct ConnSlot {
    stream: TcpStream,
    done: Arc<AtomicBool>,
    handle: thread::JoinHandle<()>,
}

type ConnTable = Arc<Mutex<Vec<ConnSlot>>>;

/// The accepting server. Construct with [`Server::bind`], then either
/// [`Server::run`] the accept loop on this thread (the binary) or
/// [`Server::spawn`] it onto a background thread (tests, benches).
pub struct Server {
    listener: TcpListener,
    metrics_listener: Option<TcpListener>,
    catalog: Catalog,
    batch_rows: usize,
    stop: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
    conns: ConnTable,
    drain_deadline: Duration,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) serving `catalog`.
    pub fn bind(addr: impl ToSocketAddrs, catalog: Catalog) -> std::io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            metrics_listener: None,
            catalog,
            batch_rows: lidardb_sql::STREAM_BATCH_ROWS,
            stop: Arc::new(AtomicBool::new(false)),
            draining: Arc::new(AtomicBool::new(false)),
            conns: Arc::new(Mutex::new(Vec::new())),
            drain_deadline: DEFAULT_DRAIN_DEADLINE,
        })
    }

    /// Override the rows-per-`Batch`-frame cap (default
    /// [`lidardb_sql::STREAM_BATCH_ROWS`]).
    pub fn with_batch_rows(mut self, rows: usize) -> Server {
        self.batch_rows = rows.max(1);
        self
    }

    /// Override how long a drain lets in-flight statements run before
    /// cancelling them (default [`DEFAULT_DRAIN_DEADLINE`]).
    pub fn with_drain_deadline(mut self, deadline: Duration) -> Server {
        self.drain_deadline = deadline;
        self
    }

    /// Bind a second listener serving the observability plane over
    /// HTTP/1.0: `GET /metrics` (Prometheus text exposition, see
    /// [`promtext`]) and `GET /healthz` (admission/WAL saturation →
    /// 200/503). Kept off the SQL port on purpose: a scrape never speaks
    /// the frame protocol, never takes an admission permit, and keeps
    /// working while the query plane is saturated.
    pub fn with_metrics_addr(mut self, addr: impl ToSocketAddrs) -> std::io::Result<Server> {
        self.metrics_listener = Some(TcpListener::bind(addr)?);
        Ok(self)
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The bound metrics address, if [`Server::with_metrics_addr`] was
    /// called.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_listener.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// Run the accept loop on this thread until the stop flag is set.
    pub fn run(self) {
        let stop = Arc::clone(&self.stop);
        if let Some(ml) = self.metrics_listener {
            let mstop = Arc::clone(&stop);
            thread::spawn(move || metrics_accept_loop(ml, mstop));
        }
        let drain_ms = self.drain_deadline.as_millis() as u64;
        for conn in self.listener.incoming() {
            if stop.load(Ordering::Acquire) {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                Err(_) => continue,
            };
            if self.draining.load(Ordering::Acquire) {
                // Draining: answer the connection with a typed goodbye
                // instead of letting the listener teardown reset it
                // mid-handshake. Untracked — a refusal is bounded by its
                // own socket timeouts, and the drain must not wait on it.
                thread::spawn(move || refuse_conn(stream, drain_ms));
                continue;
            }
            let session = self.catalog.session();
            let batch_rows = self.batch_rows;
            let draining = Arc::clone(&self.draining);
            let done = Arc::new(AtomicBool::new(false));
            let thread_done = Arc::clone(&done);
            let track = stream.try_clone();
            let handle = thread::spawn(move || {
                handle_conn(stream, session, batch_rows, &draining, drain_ms);
                thread_done.store(true, Ordering::Release);
            });
            let mut conns = self.conns.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            // Reap finished sessions so the table tracks live connections,
            // not connection history.
            for slot in conns.extract_if(.., |c| c.done.load(Ordering::Acquire)) {
                let _ = slot.handle.join();
            }
            match track {
                Ok(stream) => conns.push(ConnSlot {
                    stream,
                    done,
                    handle,
                }),
                // No clone, no force-close lever: don't track; the session
                // still drains via the flag, and join happens implicitly
                // at process exit.
                Err(_) => drop(handle),
            }
        }
    }

    /// Run the accept loop on a background thread; the returned handle
    /// stops it.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let metrics_addr = self.metrics_addr();
        let stop = Arc::clone(&self.stop);
        let draining = Arc::clone(&self.draining);
        let conns = Arc::clone(&self.conns);
        let catalog = self.catalog.clone();
        let drain_deadline = self.drain_deadline;
        let join = thread::spawn(move || self.run());
        Ok(ServerHandle {
            addr,
            metrics_addr,
            stop,
            draining,
            conns,
            catalog,
            drain_deadline,
            join: Some(join),
        })
    }
}

/// Handle to a spawned server; [`ServerHandle::shutdown`] drains it:
/// idle sessions and late connections get typed [`Message::ShuttingDown`]
/// frames, in-flight statements run to the drain deadline before being
/// cancelled, and every streaming table's WAL group is force-fsynced
/// before the handle returns.
pub struct ServerHandle {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    stop: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
    conns: ConnTable,
    catalog: Catalog,
    drain_deadline: Duration,
    join: Option<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The metrics/health address, if one was bound.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Drain and stop the server with the configured deadline.
    pub fn shutdown(self) {
        let deadline = self.drain_deadline;
        self.shutdown_with_deadline(deadline);
    }

    /// Drain and stop the server, giving in-flight statements up to
    /// `deadline` before cancelling them. Steps, in order:
    ///
    /// 1. flip the drain flag (`server_draining` gauge → 1, `/healthz` →
    ///    503): idle sessions send `ShuttingDown` and close; new
    ///    connections are refused with the same typed frame;
    /// 2. wait for in-flight sessions to finish, up to `deadline`;
    /// 3. deadline passed: trip every registered statement's
    ///    [`CancelToken`] via the [`QueryRegistry`], wait [`CANCEL_GRACE`]
    ///    for the typed `Error` farewells to flush, then force-close
    ///    whatever sockets remain;
    /// 4. stop the accept loop and join every session thread;
    /// 5. force-fsync every streaming table's WAL group (durability for
    ///    group-commit acks no future traffic will flush);
    /// 6. stop the observability listener **last** — `/healthz` answers
    ///    503 for the whole drain — and clear the gauge.
    pub fn shutdown_with_deadline(mut self, deadline: Duration) {
        let registry = MetricsRegistry::global();
        registry.server_draining.set(1);
        self.draining.store(true, Ordering::Release);

        // Phase 1: let sessions finish on their own.
        let t0 = Instant::now();
        loop {
            if self.reap_conns(false) == 0 {
                break;
            }
            if t0.elapsed() >= deadline {
                // Phase 2: cancel in-flight statements; their sessions see
                // a typed Error, then the drain flag, and exit.
                let queries = QueryRegistry::global();
                for q in queries.list() {
                    queries.kill(q.id);
                }
                let g0 = Instant::now();
                while self.reap_conns(false) > 0 && g0.elapsed() < CANCEL_GRACE {
                    thread::sleep(DRAIN_POLL);
                }
                // Phase 3: last resort for sessions that still won't die
                // (a client stuck mid-handshake, a blackholed socket).
                self.reap_conns(true);
                break;
            }
            thread::sleep(DRAIN_POLL);
        }
        // Join the stragglers (their sockets are dead, so this is prompt).
        for slot in self
            .conns
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .drain(..)
        {
            let _ = slot.handle.join();
        }

        // Stop accepting and join the accept loop.
        self.stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }

        // Final durability sweep: every streaming table's group-commit
        // window is forced down, whether or not any session was open.
        for name in self.catalog.stream_names() {
            if let Ok(mut pc) = self.catalog.write_stream(name) {
                let _ = pc.flush_wal();
            }
        }

        // The observability plane outlives the query plane: stop it last,
        // then clear the drain gauge.
        if let Some(m) = self.metrics_addr {
            let _ = TcpStream::connect(m);
        }
        registry.server_draining.set(0);
    }

    /// Reap finished sessions from the table, returning how many are still
    /// live. With `force`, shut the remaining sockets down first.
    fn reap_conns(&self, force: bool) -> usize {
        let mut conns = self
            .conns
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for slot in conns.extract_if(.., |c| c.done.load(Ordering::Acquire)) {
            let _ = slot.handle.join();
        }
        if force {
            for slot in conns.iter() {
                let _ = slot.stream.shutdown(Shutdown::Both);
            }
        }
        conns.len()
    }
}

/// Answer a connection accepted during drain with a typed goodbye: finish
/// the hello if the client speaks it, then send `ShuttingDown` and close.
/// Every socket operation is bounded by a short timeout — a refusal can
/// never outlive the drain it belongs to by much.
fn refuse_conn(stream: TcpStream, drain_ms: u64) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let Ok(rs) = stream.try_clone() else { return };
    let mut r = BufReader::new(rs);
    let mut w = BufWriter::new(stream);
    if protocol::read_magic(&mut r).is_ok() {
        let _ = protocol::write_magic(&mut w);
        let _ = protocol::write_frame(&mut w, &Message::ShuttingDown { drain_ms });
        let _ = w.flush();
    }
}

// --------------------------------------------------- observability plane

/// Accept loop for the metrics listener. Each request is served inline —
/// a scrape is one read + one buffered write of pre-rendered text, so
/// there is nothing to parallelise and no thread to leak per scrape.
fn metrics_accept_loop(listener: TcpListener, stop: Arc<AtomicBool>) {
    for conn in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        if let Ok(stream) = conn {
            let _ = serve_metrics_conn(stream);
        }
    }
}

/// Serve one HTTP/1.0 request on the metrics listener. Anything that is
/// not `GET /metrics` or `GET /healthz` gets a 404; a malformed or
/// oversized request line gets a 400. The connection always closes after
/// one response (HTTP/1.0 semantics — curl and Prometheus both cope).
fn serve_metrics_conn(stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    // Bounded request-line read: the observability port gets the same
    // hostile-input discipline as the frame protocol — a peer streaming
    // garbage can burn at most 4 KiB and one line.
    let mut line = String::new();
    {
        let mut r = BufReader::new(stream.try_clone()?).take(4096);
        r.read_line(&mut line)?;
    }
    let mut parts = line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (status, content_type, body) = if method != "GET" {
        ("400 Bad Request", "text/plain", "bad request\n".to_string())
    } else {
        match path {
            "/metrics" => ("200 OK", promtext::CONTENT_TYPE, promtext::render()),
            "/healthz" => {
                let (healthy, body) = promtext::health_now();
                let status = if healthy { "200 OK" } else { "503 Service Unavailable" };
                (status, "text/plain", body)
            }
            _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
        }
    };
    let mut w = BufWriter::new(stream);
    write!(
        w,
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    w.flush()
}

/// One connection, start to finish.
fn handle_conn(
    stream: TcpStream,
    catalog: Catalog,
    batch_rows: usize,
    draining: &AtomicBool,
    drain_ms: u64,
) {
    let _ = stream.set_nodelay(true);
    // Visible in `SELECT * FROM sys.sessions` for the connection's whole
    // life; dropping the ticket (any exit path) retires the row and the
    // `open_connections` gauge.
    let peer = stream
        .peer_addr()
        .map_or_else(|_| "unknown".to_string(), |a| a.to_string());
    let session_ticket = SessionRegistry::global().register(peer);
    let result = serve_session(
        &stream,
        &catalog,
        batch_rows,
        &session_ticket,
        draining,
        drain_ms,
    );
    // Unblock the reader thread if it is still parked in read().
    let _ = stream.shutdown(Shutdown::Both);
    // Durability on teardown: force the group-commit sync so rows this
    // session was acked for (visible, WAL-appended, not yet fsynced)
    // survive even though no further traffic will flush them.
    for name in catalog.stream_names() {
        if let Ok(mut pc) = catalog.write_stream(name) {
            let _ = pc.flush_wal();
        }
    }
    if let Err(e) = result {
        match e {
            // Clean hangups are business as usual.
            ProtoError::Disconnected | ProtoError::Io(_) => {}
            other => eprintln!("lidardb-server: session ended: {other}"),
        }
    }
}

/// Outcome of the drain-aware hello read.
enum Handshake {
    /// Magic verified; serve the session.
    Ok,
    /// The drain flag flipped while waiting for the client to speak.
    Drained,
    /// The hello failed (wrong magic, hangup, socket error).
    Failed(ProtoError),
}

/// Read the 8-byte hello, accumulating across short read timeouts so the
/// wait can notice a drain. A client that connects and never speaks would
/// otherwise pin the drain to its force-close deadline.
fn read_magic_draining(stream: &TcpStream, draining: &AtomicBool) -> Handshake {
    if stream.set_read_timeout(Some(DRAIN_POLL)).is_err() {
        // No timeout support: fall back to a blocking read; the drain's
        // force-close still covers this session.
        let mut r = stream;
        return match protocol::read_magic(&mut r) {
            Ok(()) => Handshake::Ok,
            Err(e) => Handshake::Failed(e),
        };
    }
    let mut buf = [0u8; 8];
    let mut filled = 0;
    let mut r = stream;
    while filled < buf.len() {
        match Read::read(&mut r, &mut buf[filled..]) {
            Ok(0) if filled == 0 => return Handshake::Failed(ProtoError::Disconnected),
            Ok(0) => {
                return Handshake::Failed(ProtoError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof inside the protocol hello",
                )))
            }
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if draining.load(Ordering::Acquire) {
                    return Handshake::Drained;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Handshake::Failed(ProtoError::Io(e)),
        }
    }
    let _ = stream.set_read_timeout(None);
    if buf != protocol::MAGIC {
        return Handshake::Failed(ProtoError::BadMagic(buf));
    }
    Handshake::Ok
}

/// Bound the farewell write: a terminal frame headed for a stuck client
/// must not park the drain in `flush()`. Best effort — if the socket
/// rejects the timeout the write stays blocking and the force-close
/// covers it.
fn set_farewell_timeout(w: &BufWriter<TcpStream>) {
    let _ = w.get_ref().set_write_timeout(Some(Duration::from_millis(250)));
}

fn serve_session(
    stream: &TcpStream,
    catalog: &Catalog,
    batch_rows: usize,
    session: &lidardb_core::SessionTicket,
    draining: &AtomicBool,
    drain_ms: u64,
) -> Result<(), ProtoError> {
    let mut w = BufWriter::new(stream.try_clone()?);

    // Hello: client speaks first so a server never banners to a port
    // scanner; a magic/version mismatch is answered with a typed Error
    // frame (best effort) and the connection drops. The read polls the
    // drain flag so a silent client cannot pin a drain.
    {
        match read_magic_draining(stream, draining) {
            Handshake::Ok => {}
            Handshake::Drained => {
                set_farewell_timeout(&w);
                let _ = protocol::write_magic(&mut w);
                let _ = protocol::write_frame(&mut w, &Message::ShuttingDown { drain_ms });
                let _ = w.flush();
                return Ok(());
            }
            Handshake::Failed(e) => {
                if let ProtoError::BadMagic(_) = e {
                    set_farewell_timeout(&w);
                    let _ = protocol::write_frame(
                        &mut w,
                        &Message::Error {
                            message: e.to_string(),
                        },
                    );
                    let _ = w.flush();
                }
                return Err(e);
            }
        }
        protocol::write_magic(&mut w)?;
        let mut r = BufReader::new(stream.try_clone()?);

        // The statement currently executing on this session, for the
        // reader thread to cancel on disconnect.
        let current: Arc<Mutex<Option<CancelToken>>> = Arc::new(Mutex::new(None));
        let (tx, rx) = mpsc::channel::<Result<Message, ProtoError>>();
        let reader_current = Arc::clone(&current);
        let reader = thread::spawn(move || loop {
            match protocol::read_frame(&mut r) {
                Ok(frame) => {
                    MetricsRegistry::global().record_stage(
                        Stage::ServerRecv,
                        frame.wire_bytes - 8,
                        frame.elapsed,
                    );
                    if tx.send(Ok(frame.msg)).is_err() {
                        return;
                    }
                }
                Err(e) => {
                    // Peer gone (or stream unusable): cancel whatever is
                    // running, report, and stop reading.
                    if let Some(token) = reader_current
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .take()
                    {
                        token.kill();
                    }
                    let _ = tx.send(Err(e));
                    return;
                }
            }
        });

        let outcome = session_loop(
            &mut w, catalog, batch_rows, &rx, &current, session, draining, drain_ms,
        );
        // Make sure the reader is not left parked in read() before we
        // drop the receiver.
        let _ = stream.shutdown(Shutdown::Read);
        drop(rx);
        let _ = reader.join();
        outcome
    }
}

/// Execute queries off the reader channel until the peer goes away or a
/// drain catches the session idle.
#[allow(clippy::too_many_arguments)]
fn session_loop(
    w: &mut BufWriter<TcpStream>,
    catalog: &Catalog,
    batch_rows: usize,
    rx: &mpsc::Receiver<Result<Message, ProtoError>>,
    current: &Mutex<Option<CancelToken>>,
    session: &lidardb_core::SessionTicket,
    draining: &AtomicBool,
    drain_ms: u64,
) -> Result<(), ProtoError> {
    loop {
        let msg = match rx.recv_timeout(DRAIN_POLL) {
            Ok(Ok(m)) => m,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if draining.load(Ordering::Acquire) {
                    // Idle during a drain: typed goodbye, then close. No
                    // statement is in flight here by construction — the
                    // loop only parks between statements.
                    set_farewell_timeout(w);
                    let _ = protocol::write_frame(w, &Message::ShuttingDown { drain_ms });
                    let _ = w.flush();
                    return Ok(());
                }
                continue;
            }
            Ok(Err(ProtoError::Disconnected)) | Err(mpsc::RecvTimeoutError::Disconnected) => {
                return Ok(())
            }
            Ok(Err(e)) => {
                // Framing is out of sync (bad CRC, bad length, garbage
                // kind): tell the client why, then drop the connection —
                // there is no way to resynchronise a byte stream. The
                // farewell is write-bounded so a wedged peer cannot park
                // this session in flush().
                set_farewell_timeout(w);
                let _ = protocol::write_frame(
                    w,
                    &Message::Error {
                        message: e.to_string(),
                    },
                );
                let _ = w.flush();
                return Err(e);
            }
        };
        match msg {
            Message::Query { sql } => {
                session.bump_statements();
                run_statement(w, catalog, &sql, batch_rows, current)?;
            }
            other => {
                // CRC-valid but role-reversed (a client sending Batch
                // frames, say): reject the message, keep the session.
                protocol::write_frame(
                    w,
                    &Message::Error {
                        message: format!("unexpected {} frame from client", other.kind_name()),
                    },
                )?;
                w.flush()?;
            }
        }
    }
}

impl Message {
    fn kind_name(&self) -> &'static str {
        match self {
            Message::Query { .. } => "Query",
            Message::Header { .. } => "Header",
            Message::Batch { .. } => "Batch",
            Message::Done { .. } => "Done",
            Message::Error { .. } => "Error",
            Message::ShuttingDown { .. } => "ShuttingDown",
        }
    }
}

/// Run one SQL statement, streaming its result frames. `Err` only for
/// socket failures (the session is over); SQL failures become `Error`
/// frames and `Ok`.
fn run_statement(
    w: &mut BufWriter<TcpStream>,
    catalog: &Catalog,
    sql: &str,
    batch_rows: usize,
    current: &Mutex<Option<CancelToken>>,
) -> Result<(), ProtoError> {
    let t0 = Instant::now();
    let (result, net_err) = {
        let mut sink = NetSink {
            w,
            current,
            net_err: None,
        };
        let result = lidardb_sql::query_streamed(catalog, sql, batch_rows, &mut sink);
        (result, sink.net_err)
    };
    // The statement is over; nothing left for a disconnect to cancel.
    current
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .take();
    if let Some(e) = net_err {
        // The sink already failed at the socket — writing more is futile.
        return Err(e);
    }
    match result {
        Ok(summary) => {
            let done = Message::Done {
                rows: summary.rows as u64,
                batches: summary.batches as u32,
                elapsed_us: t0.elapsed().as_micros() as u64,
            };
            send_frame(w, 0, || done.encode())?;
            Ok(())
        }
        Err(e) => {
            // Typed statement failure (parse error, unknown table,
            // cancelled, overloaded, ...): the session survives. A client
            // that already saw Header/Batch frames treats Error as a
            // stream abort.
            let error = Message::Error {
                message: e.to_string(),
            };
            send_frame(w, 0, || error.encode())?;
            Ok(())
        }
    }
}

/// Encode + write + flush one frame, recording the `server_send` stage.
fn send_frame(
    w: &mut BufWriter<TcpStream>,
    rows: usize,
    encode: impl FnOnce() -> Vec<u8>,
) -> Result<(), ProtoError> {
    let t0 = Instant::now();
    protocol::write_body(w, &encode())?;
    w.flush()?;
    MetricsRegistry::global().record_stage(Stage::ServerSend, rows, t0.elapsed());
    Ok(())
}

/// [`RowSink`] that frames rows onto the socket. Socket failures are
/// remembered in `net_err` (so the session loop can distinguish "client
/// vanished" from "statement failed") and surfaced to the executor as a
/// `SqlError`, which aborts the statement and unwinds its governance
/// state.
struct NetSink<'a> {
    w: &'a mut BufWriter<TcpStream>,
    current: &'a Mutex<Option<CancelToken>>,
    net_err: Option<ProtoError>,
}

impl NetSink<'_> {
    fn send(&mut self, rows: usize, encode: impl FnOnce() -> Vec<u8>) -> Result<(), SqlError> {
        match send_frame(self.w, rows, encode) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.net_err = Some(e);
                Err(SqlError::Exec("client connection lost".into()))
            }
        }
    }
}

impl RowSink for NetSink<'_> {
    fn start(&mut self, columns: &[String], token: &CancelToken) -> Result<(), SqlError> {
        // Expose the live statement to the disconnect watcher first, so a
        // hangup races no worse than one batch behind.
        *self
            .current
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(token.clone());
        let header = Message::Header {
            columns: columns.to_vec(),
        };
        self.send(0, || header.encode())
    }

    fn batch(&mut self, rows: Vec<Vec<SqlValue>>) -> Result<(), SqlError> {
        let n = rows.len();
        self.send(n, || Message::Batch { rows }.encode())
    }

    fn columns(&mut self, batch: ColumnBatch) -> Result<(), SqlError> {
        self.send(batch.rows, || protocol::encode_columns(&batch))
    }
}
