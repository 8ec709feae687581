//! The blocking client: connect, send SQL, consume the framed result
//! stream batch by batch. The client never materialises a result set
//! unless asked to ([`Client::query_collect`]) — the streaming entry
//! point hands each batch to a callback and drops it, so a 4M-row
//! selection is O(batch) on this side too.
//!
//! [`RetryingClient`] wraps [`Client`] with the fault-domain discipline a
//! caller facing a draining/restarting server needs: reconnect with
//! capped, decorrelated-jitter backoff; transparent retry of transient
//! failures ([`ClientError::is_transient`]) under a caller deadline; and
//! **idempotent INSERT replay** — every insert is stamped with a
//! session-scoped `TOKEN`, so a retry after an ack-lost disconnect is
//! deduplicated server-side instead of double-inserting.

use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use lidardb_core::fault::mix;
use lidardb_sql::SqlValue;

use crate::protocol::{self, Message, ProtoError};

/// Statement totals from the server's `Done` frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryStats {
    /// Rows streamed.
    pub rows: u64,
    /// Batch frames streamed.
    pub batches: u32,
    /// Server-side wall clock, microseconds.
    pub elapsed_us: u64,
}

/// Client-side failure: either the transport broke or the server answered
/// with an `Error` frame (the session survives the latter).
#[derive(Debug)]
pub enum ClientError {
    /// Transport/decode failure; the connection is dead.
    Proto(ProtoError),
    /// The server rejected or aborted the statement.
    Server(String),
    /// The server sent a typed `ShuttingDown` frame: it is draining and
    /// this connection is over. `drain_ms` is the server's drain deadline
    /// — a hint for how long reconnects may keep being refused.
    ShuttingDown {
        /// The server's drain deadline, milliseconds.
        drain_ms: u64,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Proto(e) => write!(f, "protocol: {e}"),
            ClientError::Server(m) => write!(f, "server: {m}"),
            ClientError::ShuttingDown { drain_ms } => {
                write!(f, "server shutting down (drain deadline {drain_ms}ms)")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

impl ClientError {
    /// Whether a retry (possibly after a reconnect) can reasonably
    /// succeed. Three families qualify:
    ///
    /// * a typed `ShuttingDown` goodbye — another instance (or the same
    ///   one, post-restart) will take the work;
    /// * transport failures whose `io::ErrorKind` says the peer vanished
    ///   or the socket timed out, plus clean mid-stream disconnects;
    /// * typed server errors that are by contract transient: admission
    ///   shed (`overloaded`) and drain refusals.
    ///
    /// Statement-level failures (parse errors, unknown tables, statement
    /// deadlines) are *not* transient: replaying them burns the deadline
    /// repeating a deterministic failure.
    pub fn is_transient(&self) -> bool {
        match self {
            ClientError::ShuttingDown { .. } => true,
            ClientError::Proto(ProtoError::Disconnected) => true,
            ClientError::Proto(ProtoError::Io(e)) => matches!(
                e.kind(),
                std::io::ErrorKind::ConnectionRefused
                    | std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::ConnectionAborted
                    | std::io::ErrorKind::BrokenPipe
                    | std::io::ErrorKind::NotConnected
                    | std::io::ErrorKind::UnexpectedEof
                    | std::io::ErrorKind::TimedOut
                    | std::io::ErrorKind::WouldBlock
                    | std::io::ErrorKind::Interrupted
            ),
            ClientError::Proto(_) => false,
            ClientError::Server(m) => {
                let m = m.to_ascii_lowercase();
                m.contains("overloaded") || m.contains("shutting down") || m.contains("draining")
            }
        }
    }
}

/// A connected session. One statement at a time; `SET` state lives on the
/// server for the lifetime of this connection.
pub struct Client {
    r: BufReader<TcpStream>,
    w: BufWriter<TcpStream>,
}

impl Client {
    /// Connect and exchange the protocol hello.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        Client::connect_with_io_timeout(addr, None)
    }

    /// Connect with every socket operation — *including the hello* —
    /// bounded by `timeout`. A blackholed peer (accepts, never answers)
    /// surfaces as a transient `TimedOut` instead of hanging the caller.
    pub fn connect_with_io_timeout(
        addr: impl ToSocketAddrs,
        timeout: Option<Duration>,
    ) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr).map_err(ProtoError::Io)?;
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(timeout).map_err(ProtoError::Io)?;
        stream.set_write_timeout(timeout).map_err(ProtoError::Io)?;
        let mut w = BufWriter::new(stream.try_clone().map_err(ProtoError::Io)?);
        protocol::write_magic(&mut w)?;
        let mut r = BufReader::new(stream);
        protocol::read_magic(&mut r)?;
        Ok(Client { r, w })
    }

    /// Execute `sql`, invoking `on_header` once and `on_batch` per batch,
    /// in arrival order. Returns the server's totals, after checking them
    /// against what arrived: a batch whose width differs from the header,
    /// or a `Done` whose row or batch count differs from the batches
    /// received, is a [`ProtoError::Inconsistent`].
    pub fn query_streamed(
        &mut self,
        sql: &str,
        mut on_header: impl FnMut(&[String]),
        mut on_batch: impl FnMut(Vec<Vec<SqlValue>>),
    ) -> Result<QueryStats, ClientError> {
        protocol::write_frame(
            &mut self.w,
            &Message::Query {
                sql: sql.to_string(),
            },
        )?;
        use std::io::Write;
        self.w.flush().map_err(ProtoError::Io)?;
        let inconsistent = |context, expected, actual| {
            let e = ProtoError::Inconsistent {
                context,
                expected,
                actual,
            };
            Err(ClientError::Proto(e))
        };
        let mut width = None;
        let (mut got_rows, mut got_batches) = (0u64, 0u32);
        loop {
            match protocol::read_frame(&mut self.r)?.msg {
                Message::Header { columns } => {
                    if width.is_some() {
                        return Err(ClientError::Proto(ProtoError::BadTag {
                            context: "duplicate header",
                            tag: 2,
                        }));
                    }
                    width = Some(columns.len());
                    on_header(&columns);
                }
                Message::Batch { rows } => {
                    let Some(width) = width else {
                        return Err(ClientError::Proto(ProtoError::BadTag {
                            context: "batch before header",
                            tag: 3,
                        }));
                    };
                    if let Some(row) = rows.iter().find(|r| r.len() != width) {
                        return inconsistent("batch width", width as u64, row.len() as u64);
                    }
                    got_rows += rows.len() as u64;
                    got_batches += 1;
                    on_batch(rows);
                }
                Message::Done {
                    rows,
                    batches,
                    elapsed_us,
                } => {
                    if rows != got_rows {
                        return inconsistent("done row count", rows, got_rows);
                    }
                    if batches != got_batches {
                        return inconsistent(
                            "done batch count",
                            batches.into(),
                            got_batches.into(),
                        );
                    }
                    return Ok(QueryStats {
                        rows,
                        batches,
                        elapsed_us,
                    });
                }
                Message::Error { message } => return Err(ClientError::Server(message)),
                Message::ShuttingDown { drain_ms } => {
                    return Err(ClientError::ShuttingDown { drain_ms })
                }
                Message::Query { .. } => {
                    return Err(ClientError::Proto(ProtoError::BadTag {
                        context: "query frame from server",
                        tag: 1,
                    }))
                }
            }
        }
    }

    /// Bound every socket read and write by `timeout` (`None` restores
    /// blocking I/O). The retrying client sets this so a blackholed
    /// connection surfaces as a transient `TimedOut` instead of hanging
    /// the caller past its retry deadline.
    pub fn set_io_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.r.get_ref().set_read_timeout(timeout)?;
        self.w.get_ref().set_write_timeout(timeout)
    }

    /// Execute `sql` and materialise the whole result (tests, the CLI).
    #[allow(clippy::type_complexity)]
    pub fn query_collect(
        &mut self,
        sql: &str,
    ) -> Result<(Vec<String>, Vec<Vec<SqlValue>>, QueryStats), ClientError> {
        let mut columns = Vec::new();
        let mut rows = Vec::new();
        let stats = self.query_streamed(
            sql,
            |cols| columns = cols.to_vec(),
            |mut batch| rows.append(&mut batch),
        )?;
        Ok((columns, rows, stats))
    }
}

// ------------------------------------------------------- retrying client

/// Knobs for [`RetryingClient`]. Backoff is capped decorrelated jitter:
/// each delay is `base + uniform(0, 3·previous)`, clamped to `max_delay`
/// — retries spread out instead of stampeding a restarting server in
/// lockstep. Everything is derived from `seed`, so a failing chaos soak
/// reproduces byte-for-byte.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Floor of every backoff delay.
    pub base_delay: Duration,
    /// Ceiling of every backoff delay.
    pub max_delay: Duration,
    /// Total wall-clock budget across all attempts of one call; when it
    /// runs out the last error is returned.
    pub deadline: Duration,
    /// Per-socket-operation timeout, so a blackholed connection surfaces
    /// as a transient error instead of blocking forever.
    pub io_timeout: Duration,
    /// Seed for backoff jitter and insert-token generation.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_delay: Duration::from_millis(20),
            max_delay: Duration::from_secs(1),
            deadline: Duration::from_secs(30),
            io_timeout: Duration::from_secs(2),
            seed: 1,
        }
    }
}

/// Outcome of an idempotent [`RetryingClient::insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertOutcome {
    /// Rows applied by the *winning* attempt (0 when it was deduplicated
    /// against an earlier attempt that executed but lost its ack).
    pub inserted: u64,
    /// Whether the rows were fsynced before the ack.
    pub durable: bool,
    /// Whether the winning attempt was a replay the server recognised.
    pub deduped: bool,
    /// The idempotency token the statement carried.
    pub token: u64,
}

/// A self-healing client: reconnects through server drains and restarts,
/// retries transient failures with seeded decorrelated-jitter backoff,
/// and replays `INSERT`s under a stable idempotency token so an ack lost
/// to the network can never become a double insert.
///
/// One logical session; `SET` state does **not** survive a reconnect (the
/// server binds it to the physical connection), so callers needing
/// session knobs must re-apply them — inserts and plain queries need
/// nothing.
pub struct RetryingClient {
    addr: SocketAddr,
    policy: RetryPolicy,
    conn: Option<Client>,
    prev_delay: Duration,
    rng: u64,
    token_seq: u64,
    retries: u64,
}

impl RetryingClient {
    /// Target `addr` under `policy`. Does not connect — the first call
    /// does, under the same retry discipline as every other.
    pub fn new(addr: SocketAddr, policy: RetryPolicy) -> RetryingClient {
        RetryingClient {
            addr,
            policy,
            conn: None,
            prev_delay: Duration::ZERO,
            rng: mix(policy.seed ^ 0x00C1_EA11).wrapping_add(1),
            token_seq: 0,
            retries: 0,
        }
    }

    /// Transient errors absorbed so far (observability for soak asserts).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Next decorrelated-jitter delay.
    fn backoff(&mut self) -> Duration {
        self.rng = mix(self.rng);
        let prev = self.prev_delay.max(self.policy.base_delay);
        let span_ms = (prev.as_millis() as u64).saturating_mul(3).max(1);
        let next = (self.policy.base_delay + Duration::from_millis(self.rng % span_ms))
            .min(self.policy.max_delay);
        self.prev_delay = next;
        next
    }

    fn ensure_conn(&mut self) -> Result<&mut Client, ClientError> {
        if self.conn.is_none() {
            self.conn = Some(Client::connect_with_io_timeout(
                self.addr,
                Some(self.policy.io_timeout),
            )?);
        }
        Ok(self.conn.as_mut().expect("connection just ensured"))
    }

    /// Run `f` against a live connection, retrying transient failures
    /// until the policy deadline. Non-transient errors return immediately.
    fn with_retries<T>(
        &mut self,
        mut f: impl FnMut(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let t0 = Instant::now();
        loop {
            let result = match self.ensure_conn() {
                Ok(c) => f(c),
                Err(e) => Err(e),
            };
            let err = match result {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            if !err.is_transient() {
                return Err(err);
            }
            self.retries += 1;
            // Transport-level failures (and typed goodbyes) poison the
            // connection; a transient *statement* rejection (overload
            // shed) leaves the session usable.
            if matches!(
                err,
                ClientError::Proto(_) | ClientError::ShuttingDown { .. }
            ) {
                self.conn = None;
            }
            let elapsed = t0.elapsed();
            if elapsed >= self.policy.deadline {
                return Err(err);
            }
            let nap = self.backoff().min(self.policy.deadline - elapsed);
            std::thread::sleep(nap);
        }
    }

    /// Execute `sql` and materialise the result, retrying transiently.
    /// Safe for reads and for naturally idempotent statements; for
    /// inserts use [`RetryingClient::insert`], which stamps a token.
    #[allow(clippy::type_complexity)]
    pub fn query_collect(
        &mut self,
        sql: &str,
    ) -> Result<(Vec<String>, Vec<Vec<SqlValue>>, QueryStats), ClientError> {
        self.with_retries(|c| c.query_collect(sql))
    }

    /// Execute an `INSERT` exactly once across any number of transient
    /// failures. A fresh session-scoped token is appended as the
    /// statement's `TOKEN` clause; every retry replays the *same* token,
    /// so an attempt that executed but lost its ack is recognised and
    /// deduplicated by the server's WAL-backed idempotency ledger.
    ///
    /// `insert_sql` is the statement *without* a `TOKEN` clause (a
    /// trailing `;` is tolerated).
    pub fn insert(&mut self, insert_sql: &str) -> Result<InsertOutcome, ClientError> {
        self.token_seq += 1;
        // 53 bits (survives SQL's f64 integer path), never zero. The
        // seed is spread by an odd multiplier *before* the sequence
        // counter lands, so clients with adjacent seeds (0xE15, 0xE16,
        // ...) draw from far-apart splitmix streams — a plain
        // `seed ^ seq` would alias their tokens and let the server
        // "dedup" two different clients' batches into one.
        let stream = self.policy.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let token = (mix(stream.wrapping_add(self.token_seq)) >> 11) | 1;
        let sql = format!(
            "{} TOKEN {token}",
            insert_sql.trim_end().trim_end_matches(';').trim_end()
        );
        let (columns, rows, _) = self.with_retries(|c| c.query_collect(&sql))?;
        let row = rows
            .first()
            .ok_or_else(|| ClientError::Server("insert returned no status row".to_string()))?;
        let field = |name: &str| -> Result<u64, ClientError> {
            let at = columns
                .iter()
                .position(|c| c == name)
                .ok_or_else(|| ClientError::Server(format!("insert status row lacks `{name}`")))?;
            match row.get(at) {
                Some(SqlValue::Int(v)) => Ok(*v as u64),
                other => Err(ClientError::Server(format!(
                    "insert status `{name}` is {other:?}, not an integer"
                ))),
            }
        };
        Ok(InsertOutcome {
            inserted: field("inserted")?,
            durable: field("durable")? != 0,
            deduped: field("deduped")? != 0,
            token,
        })
    }
}
