//! The framed wire protocol.
//!
//! Everything on the socket is length-prefixed and CRC-checked, modelled
//! on the WAL's frame format (`lidardb_core::wal`): a connection opens
//! with an 8-byte magic/version exchange, then carries frames
//!
//! ```text
//! | len: u32 LE | crc32(body): u32 LE | body = kind: u8 + payload |
//! ```
//!
//! A result batch is column-major, `nrows: u32 | ncols: u32 | ncols ×
//! (tag: u8 | payload)`: tag `F64` carries `nrows` little-endian `f64`
//! bits, `I64` `nrows` `i64`s, `VALUES` `nrows` tagged values. The tag is
//! picked per column from the values alone, so a row batch
//! ([`Message::Batch`]) and a typed column batch ([`encode_columns`]) with
//! the same values encode to the same bytes.
//!
//! The decoder treats every byte as hostile. The declared length is
//! bounded by [`MAX_FRAME`] *before* any allocation, so a forged
//! `u32::MAX` prefix costs nothing; inside a frame, every count and
//! string length is checked against the bytes actually remaining, so a
//! forged inner length (a batch's `ncols`, `nrows × ncols`) can never
//! over-allocate either. A corrupted frame
//! surfaces as a typed [`ProtoError`], never a panic — the frame-decoder
//! property tests (`frame_properties.rs`) drive truncations, bit flips
//! and forged prefixes through here to prove it.

use std::io::{Read, Write};
use std::time::{Duration, Instant};

use lidardb_core::crc::crc32;
use lidardb_geom::wkt;
use lidardb_sql::{ColumnBatch, ColumnChunk, SqlValue};

/// Protocol magic + version, exchanged once per connection (client first).
/// Bump the trailing digits to break old peers loudly instead of subtly.
pub const MAGIC: [u8; 8] = *b"LDBNET02";

/// Hard cap on one frame's body. The declared length is compared against
/// this before the body buffer is allocated; result batches are sized
/// (`STREAM_BATCH_ROWS` × row width) to stay far below it.
pub const MAX_FRAME: u32 = 16 << 20;

/// Typed decode/transport errors. `Disconnected` is the clean-EOF case
/// (peer closed between frames); everything else means the stream is
/// unusable and the connection should drop.
#[derive(Debug)]
pub enum ProtoError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// Peer closed the connection at a frame boundary.
    Disconnected,
    /// The 8-byte hello was not [`MAGIC`] (wrong peer or wrong version).
    BadMagic([u8; 8]),
    /// Declared frame length is zero or exceeds [`MAX_FRAME`].
    FrameLength { declared: u32 },
    /// Frame body failed its CRC.
    CrcMismatch { expected: u32, actual: u32 },
    /// A count or length inside the frame exceeds the bytes present.
    Truncated { context: &'static str },
    /// An unknown message kind or value tag.
    BadTag { context: &'static str, tag: u8 },
    /// A string field was not UTF-8.
    BadUtf8,
    /// A geometry value carried unparseable WKT.
    BadGeometry(String),
    /// A well-formed stream whose contents contradict each other (a batch
    /// wider than its header, `Done` totals that disagree with what
    /// arrived).
    Inconsistent {
        context: &'static str,
        expected: u64,
        actual: u64,
    },
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "io error: {e}"),
            ProtoError::Disconnected => write!(f, "peer disconnected"),
            ProtoError::BadMagic(m) => write!(f, "bad protocol magic {m:02x?}"),
            ProtoError::FrameLength { declared } => write!(
                f,
                "declared frame length {declared} outside 1..={MAX_FRAME}"
            ),
            ProtoError::CrcMismatch { expected, actual } => {
                write!(
                    f,
                    "frame crc mismatch: header {expected:#10x}, body {actual:#10x}"
                )
            }
            ProtoError::Truncated { context } => {
                write!(f, "frame truncated while decoding {context}")
            }
            ProtoError::BadTag { context, tag } => {
                write!(f, "unknown {context} tag {tag}")
            }
            ProtoError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            ProtoError::BadGeometry(e) => write!(f, "geometry field does not parse: {e}"),
            ProtoError::Inconsistent {
                context,
                expected,
                actual,
            } => write!(f, "{context}: expected {expected}, received {actual}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// One protocol message. Clients send `Query`; servers answer with
/// `Header`, zero or more `Batch`es, and a terminal `Done` or `Error`.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// One SQL statement to execute on this session.
    Query { sql: String },
    /// Result column names, sent once per statement before any rows.
    Header { columns: Vec<String> },
    /// One bounded batch of result rows; rectangular, and with at least
    /// one column unless it has no rows.
    Batch { rows: Vec<Vec<SqlValue>> },
    /// Statement finished: totals for the client to cross-check.
    Done {
        rows: u64,
        batches: u32,
        elapsed_us: u64,
    },
    /// Statement failed (or, before a `Header`, was rejected). The session
    /// stays usable.
    Error { message: String },
    /// The server is draining: no more statements will be accepted on this
    /// connection (or, sent right after the hello, the connection was
    /// refused). `drain_ms` is the server's drain deadline — a client that
    /// reconnects sooner than that may be refused again. Typed so a retrying
    /// client can classify the goodbye as transient instead of treating a
    /// mid-drain hangup as data loss.
    ShuttingDown { drain_ms: u64 },
}

const KIND_QUERY: u8 = 1;
const KIND_HEADER: u8 = 2;
const KIND_BATCH: u8 = 3;
const KIND_DONE: u8 = 4;
const KIND_ERROR: u8 = 5;
const KIND_SHUTTING_DOWN: u8 = 6;

const VAL_NULL: u8 = 0;
const VAL_BOOL: u8 = 1;
const VAL_INT: u8 = 2;
const VAL_FLOAT: u8 = 3;
const VAL_STR: u8 = 4;
const VAL_GEOM: u8 = 5;

const COL_F64: u8 = 1;
const COL_I64: u8 = 2;
const COL_VALUES: u8 = 3;

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_value(out: &mut Vec<u8>, v: &SqlValue) {
    match v {
        SqlValue::Null => out.push(VAL_NULL),
        SqlValue::Bool(b) => {
            out.push(VAL_BOOL);
            out.push(u8::from(*b));
        }
        SqlValue::Int(i) => {
            out.push(VAL_INT);
            put_u64(out, *i as u64);
        }
        SqlValue::Float(x) => {
            out.push(VAL_FLOAT);
            put_u64(out, x.to_bits());
        }
        SqlValue::Str(s) => {
            out.push(VAL_STR);
            put_str(out, s);
        }
        // Geometries travel as WKT — self-describing, and the decoder
        // re-parses through the same grammar the SQL layer uses.
        SqlValue::Geom(g) => {
            out.push(VAL_GEOM);
            put_str(out, &wkt::to_wkt(g));
        }
    }
}

fn put_words(out: &mut Vec<u8>, tag: u8, words: impl Iterator<Item = u64>) {
    out.push(tag);
    for w in words {
        put_u64(out, w);
    }
}

/// One batch column: `F64` when every value is a float, `I64` when every
/// value is an integer, tagged `VALUES` otherwise.
fn put_column<'a>(out: &mut Vec<u8>, vals: impl Iterator<Item = &'a SqlValue> + Clone) {
    let word = |tag, v: &SqlValue| match (tag, v) {
        (COL_F64, SqlValue::Float(x)) => Some(x.to_bits()),
        (COL_I64, SqlValue::Int(x)) => Some(*x as u64),
        _ => None,
    };
    for tag in [COL_F64, COL_I64] {
        if vals.clone().all(|v| word(tag, v).is_some()) {
            return put_words(out, tag, vals.filter_map(|v| word(tag, v)));
        }
    }
    out.push(COL_VALUES);
    vals.for_each(|v| put_value(out, v));
}

/// The batch prologue: kind, `nrows`, `ncols`.
fn put_batch_shape(out: &mut Vec<u8>, nrows: usize, ncols: usize) {
    assert!(
        ncols > 0 || nrows == 0,
        "a batch with rows needs at least one column"
    );
    out.push(KIND_BATCH);
    put_u32(out, nrows as u32);
    put_u32(out, ncols as u32);
}

/// Encode a column-major batch to a Batch frame body, typed chunks
/// straight from their vectors. The bytes equal
/// `Message::Batch { rows: batch.to_rows() }.encode()`.
pub fn encode_columns(batch: &ColumnBatch) -> Vec<u8> {
    let ncols = if batch.rows == 0 {
        0
    } else {
        batch.columns.len()
    };
    let mut out = Vec::with_capacity(9 + ncols * (1 + 8 * batch.rows));
    put_batch_shape(&mut out, batch.rows, ncols);
    for chunk in &batch.columns[..ncols] {
        assert_eq!(
            chunk.len(),
            batch.rows,
            "every column holds one value per row"
        );
        match chunk {
            ColumnChunk::Float(v) => put_words(&mut out, COL_F64, v.iter().map(|x| x.to_bits())),
            ColumnChunk::Int(v) => put_words(&mut out, COL_I64, v.iter().map(|&x| x as u64)),
            ColumnChunk::Values(v) => put_column(&mut out, v.iter()),
        }
    }
    out
}

impl Message {
    /// Encode to a frame body (`kind` byte + payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Message::Query { sql } => {
                out.push(KIND_QUERY);
                put_str(&mut out, sql);
            }
            Message::Header { columns } => {
                out.push(KIND_HEADER);
                put_u32(&mut out, columns.len() as u32);
                for c in columns {
                    put_str(&mut out, c);
                }
            }
            Message::Batch { rows } => {
                let ncols = rows.first().map_or(0, Vec::len);
                assert!(
                    rows.iter().all(|r| r.len() == ncols),
                    "batch rows must be rectangular"
                );
                put_batch_shape(&mut out, rows.len(), ncols);
                for c in 0..ncols {
                    put_column(&mut out, rows.iter().map(|r| &r[c]));
                }
            }
            Message::Done {
                rows,
                batches,
                elapsed_us,
            } => {
                out.push(KIND_DONE);
                put_u64(&mut out, *rows);
                put_u32(&mut out, *batches);
                put_u64(&mut out, *elapsed_us);
            }
            Message::Error { message } => {
                out.push(KIND_ERROR);
                put_str(&mut out, message);
            }
            Message::ShuttingDown { drain_ms } => {
                out.push(KIND_SHUTTING_DOWN);
                put_u64(&mut out, *drain_ms);
            }
        }
        out
    }

    /// Decode a frame body. Total: returns a typed error on any malformed
    /// input, and never allocates more than the body it was handed.
    pub fn decode(body: &[u8]) -> Result<Message, ProtoError> {
        let mut r = Reader { buf: body, pos: 0 };
        let kind = r.u8("message kind")?;
        let msg = match kind {
            KIND_QUERY => Message::Query {
                sql: r.string("query sql")?,
            },
            KIND_HEADER => {
                let n = r.count("header columns", 1)?;
                let mut columns = Vec::with_capacity(n);
                for _ in 0..n {
                    columns.push(r.string("column name")?);
                }
                Message::Header { columns }
            }
            KIND_BATCH => Message::Batch { rows: r.batch()? },
            KIND_DONE => Message::Done {
                rows: r.u64("done rows")?,
                batches: r.u32("done batches")?,
                elapsed_us: r.u64("done elapsed")?,
            },
            KIND_ERROR => Message::Error {
                message: r.string("error message")?,
            },
            KIND_SHUTTING_DOWN => Message::ShuttingDown {
                drain_ms: r.u64("shutting down drain deadline")?,
            },
            tag => {
                return Err(ProtoError::BadTag {
                    context: "message kind",
                    tag,
                })
            }
        };
        if r.pos != body.len() {
            return Err(ProtoError::Truncated {
                context: "trailing bytes after message",
            });
        }
        Ok(msg)
    }
}

/// Bounds-checked cursor over one frame body.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&[u8], ProtoError> {
        if n > self.remaining() {
            return Err(ProtoError::Truncated { context });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, ProtoError> {
        Ok(self.take(1, context)?[0])
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, ProtoError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, ProtoError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// A declared element count. Each element needs at least
    /// `min_bytes_each` more bytes, so a forged count that the remaining
    /// body cannot possibly satisfy is rejected here — before the caller's
    /// `Vec::with_capacity` — keeping allocation bounded by the frame.
    fn count(&mut self, context: &'static str, min_bytes_each: usize) -> Result<usize, ProtoError> {
        let n = self.u32(context)? as usize;
        if n.saturating_mul(min_bytes_each) > self.remaining() {
            return Err(ProtoError::Truncated { context });
        }
        Ok(n)
    }

    fn string(&mut self, context: &'static str) -> Result<String, ProtoError> {
        let len = self.u32(context)? as usize;
        let bytes = self.take(len, context)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtoError::BadUtf8)
    }

    /// A column-major batch, returned as rows.
    fn batch(&mut self) -> Result<Vec<Vec<SqlValue>>, ProtoError> {
        let nrows = self.u32("batch rows")? as usize;
        let ncols = self.u32("batch columns")? as usize;
        // A column costs a tag byte and a cell at least one more: a shape
        // the body cannot hold is rejected before any allocation.
        let fits = ncols <= self.remaining() && nrows.saturating_mul(ncols) <= self.remaining();
        if !fits || (ncols == 0 && nrows > 0) {
            return Err(ProtoError::Truncated {
                context: "batch shape",
            });
        }
        let columns = (0..ncols)
            .map(|_| self.column(nrows))
            .collect::<Result<_, _>>()?;
        Ok(ColumnBatch {
            rows: nrows,
            columns,
        }
        .to_rows())
    }

    /// One batch column of `n` values.
    fn column(&mut self, n: usize) -> Result<ColumnChunk, ProtoError> {
        let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8-byte chunk"));
        Ok(match self.u8("column tag")? {
            COL_F64 => {
                let bytes = self.take(n * 8, "f64 column")?;
                ColumnChunk::Float(
                    bytes
                        .chunks_exact(8)
                        .map(|b| f64::from_bits(word(b)))
                        .collect(),
                )
            }
            COL_I64 => {
                let bytes = self.take(n * 8, "i64 column")?;
                ColumnChunk::Int(bytes.chunks_exact(8).map(|b| word(b) as i64).collect())
            }
            COL_VALUES => {
                ColumnChunk::Values((0..n).map(|_| self.value()).collect::<Result<_, _>>()?)
            }
            tag => {
                return Err(ProtoError::BadTag {
                    context: "column",
                    tag,
                })
            }
        })
    }

    fn value(&mut self) -> Result<SqlValue, ProtoError> {
        let tag = self.u8("value tag")?;
        Ok(match tag {
            VAL_NULL => SqlValue::Null,
            VAL_BOOL => SqlValue::Bool(self.u8("bool value")? != 0),
            VAL_INT => SqlValue::Int(self.u64("int value")? as i64),
            VAL_FLOAT => SqlValue::Float(f64::from_bits(self.u64("float value")?)),
            VAL_STR => SqlValue::Str(self.string("string value")?),
            VAL_GEOM => {
                let text = self.string("geometry wkt")?;
                SqlValue::Geom(
                    wkt::parse_wkt(&text).map_err(|e| ProtoError::BadGeometry(e.to_string()))?,
                )
            }
            tag => {
                return Err(ProtoError::BadTag {
                    context: "value",
                    tag,
                })
            }
        })
    }
}

// ---------------------------------------------------------------------------
// Frame IO
// ---------------------------------------------------------------------------

/// A decoded frame plus the transfer accounting the server's metrics want.
#[derive(Debug)]
pub struct Frame {
    /// The decoded message.
    pub msg: Message,
    /// Bytes on the wire (header + body).
    pub wire_bytes: usize,
    /// Time from "header fully read" to "decoded" — excludes the idle wait
    /// for the peer to say something.
    pub elapsed: Duration,
}

/// Read the magic/version hello. Returns `BadMagic` (with the bytes seen)
/// on mismatch and `Disconnected` on clean EOF.
pub fn read_magic(r: &mut impl Read) -> Result<(), ProtoError> {
    let mut m = [0u8; 8];
    read_exact_or_eof(r, &mut m)?;
    if m != MAGIC {
        return Err(ProtoError::BadMagic(m));
    }
    Ok(())
}

/// Write the magic/version hello.
pub fn write_magic(w: &mut impl Write) -> Result<(), ProtoError> {
    w.write_all(&MAGIC)?;
    w.flush()?;
    Ok(())
}

/// Read one frame. Clean EOF before the first header byte is
/// `Disconnected`; a header that declares an absurd length is rejected
/// before any body allocation.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, ProtoError> {
    let mut hdr = [0u8; 8];
    read_exact_or_eof(r, &mut hdr)?;
    let t0 = Instant::now();
    let len = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]);
    let crc = u32::from_le_bytes([hdr[4], hdr[5], hdr[6], hdr[7]]);
    if len == 0 || len > MAX_FRAME {
        return Err(ProtoError::FrameLength { declared: len });
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    let actual = crc32(&body);
    if actual != crc {
        return Err(ProtoError::CrcMismatch {
            expected: crc,
            actual,
        });
    }
    let msg = Message::decode(&body)?;
    Ok(Frame {
        msg,
        wire_bytes: 8 + body.len(),
        elapsed: t0.elapsed(),
    })
}

/// Write one frame. Returns the bytes written (header + body).
pub fn write_frame(w: &mut impl Write, msg: &Message) -> Result<usize, ProtoError> {
    write_body(w, &msg.encode())
}

/// Write one already encoded frame body ([`Message::encode`],
/// [`encode_columns`]) under its length and CRC header. Returns the bytes
/// written (header + body).
pub(crate) fn write_body(w: &mut impl Write, body: &[u8]) -> Result<usize, ProtoError> {
    debug_assert!(body.len() as u32 <= MAX_FRAME, "oversized outgoing frame");
    let mut hdr = [0u8; 8];
    hdr[..4].copy_from_slice(&(body.len() as u32).to_le_bytes());
    hdr[4..].copy_from_slice(&crc32(body).to_le_bytes());
    w.write_all(&hdr)?;
    w.write_all(body)?;
    Ok(8 + body.len())
}

/// `read_exact` that maps EOF-at-the-first-byte to `Disconnected` (the
/// peer hung up between frames) and EOF-mid-buffer to a truncation error.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<(), ProtoError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Err(ProtoError::Disconnected),
            Ok(0) => {
                return Err(ProtoError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof inside a frame header",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtoError::Io(e)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// CRC-32 one table-free bit at a time: the reference both kernels of
    /// `core::crc` must agree with.
    fn bitwise_crc(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    /// `write_body` stamps the reference CRC on bodies short enough for
    /// the portable kernel and long enough for the carry-less fold (where
    /// the CPU has it), `read_frame` accepts exactly those frames, and a
    /// flipped body bit is a `CrcMismatch`.
    #[test]
    fn frame_crc_round_trip_matches_the_reference_at_every_kernel_length() {
        for len in [
            0usize, 1, 15, 50, 59, 60, 61, 100, 127, 128, 1000, 4109, 70_001,
        ] {
            let sql: String = (0..len)
                .map(|i| char::from(b'a' + (i * 7 % 26) as u8))
                .collect();
            let msg = Message::Query { sql };
            let body = msg.encode();
            let mut wire = Vec::new();
            write_body(&mut wire, &body).unwrap();
            assert_eq!(
                wire[4..8],
                bitwise_crc(&body).to_le_bytes(),
                "body of {}",
                body.len()
            );
            assert_eq!(read_frame(&mut wire.as_slice()).unwrap().msg, msg);
            let last = wire.len() - 1;
            wire[last] ^= 0x20;
            assert!(matches!(
                read_frame(&mut wire.as_slice()),
                Err(ProtoError::CrcMismatch { .. })
            ));
        }
    }

    #[test]
    fn roundtrip_every_kind() {
        let msgs = vec![
            Message::Query {
                sql: "SELECT 1".into(),
            },
            Message::Header {
                columns: vec!["x".into(), "y".into()],
            },
            Message::Batch {
                rows: vec![
                    vec![SqlValue::Int(1), SqlValue::Float(2.5)],
                    vec![SqlValue::Null, SqlValue::Str("hi".into())],
                    vec![SqlValue::Bool(true), SqlValue::Bool(false)],
                ],
            },
            Message::Done {
                rows: 7,
                batches: 2,
                elapsed_us: 1234,
            },
            Message::Error {
                message: "nope".into(),
            },
            Message::ShuttingDown { drain_ms: 5000 },
        ];
        for m in msgs {
            let mut wire = Vec::new();
            write_frame(&mut wire, &m).unwrap();
            let frame = read_frame(&mut wire.as_slice()).unwrap();
            assert_eq!(frame.msg, m);
            assert_eq!(frame.wire_bytes, wire.len());
        }
    }

    #[test]
    fn forged_length_is_rejected_before_allocation() {
        // A header declaring u32::MAX bytes: must error without trying to
        // allocate 4 GiB.
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(&0u32.to_le_bytes());
        match read_frame(&mut wire.as_slice()) {
            Err(ProtoError::FrameLength { declared }) => assert_eq!(declared, u32::MAX),
            other => panic!("expected FrameLength, got {other:?}"),
        }
    }

    #[test]
    fn forged_inner_count_is_rejected() {
        // A valid frame whose batch declares 500M rows in a 16-byte body.
        let mut body = vec![super::KIND_BATCH];
        body.extend_from_slice(&(500_000_000u32).to_le_bytes());
        let mut wire = Vec::new();
        wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
        wire.extend_from_slice(&crc32(&body).to_le_bytes());
        wire.extend_from_slice(&body);
        match read_frame(&mut wire.as_slice()) {
            Err(ProtoError::Truncated { .. }) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn eof_between_frames_is_disconnected() {
        match read_frame(&mut [].as_slice()) {
            Err(ProtoError::Disconnected) => {}
            other => panic!("expected Disconnected, got {other:?}"),
        }
    }
}
