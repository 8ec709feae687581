//! Property tests for the wire-frame decoder, mirroring the WAL's
//! `wal_properties` suite: for *any* message, *any* truncation point,
//! *any* single bit flip, and *any* forged length prefix, decoding either
//! returns the original message (undamaged input) or a typed
//! [`ProtoError`] — never a panic, and never an allocation beyond the
//! bytes actually presented.

use lidardb_server::protocol::{
    encode_columns, read_frame, write_frame, Message, ProtoError, MAX_FRAME,
};
use lidardb_sql::{ColumnBatch, ColumnChunk, SqlValue};
use proptest::prelude::*;

/// Generator of wire values (geometries are exercised separately — WKT
/// re-parse equality needs canonical text).
fn value() -> impl Strategy<Value = SqlValue> {
    prop_oneof![
        Just(SqlValue::Null),
        any::<bool>().prop_map(SqlValue::Bool),
        any::<i64>().prop_map(SqlValue::Int),
        // Every bit pattern, NaN payloads included (compared bitwise).
        any::<u64>().prop_map(|b| SqlValue::Float(f64::from_bits(b))),
        "[a-zA-Z0-9 ,;()\\-]{0,40}".prop_map(SqlValue::Str),
    ]
}

/// Longest generated batch.
const MAX_ROWS: usize = 12;

/// One column of `MAX_ROWS` values: all floats, all integers, or mixed.
fn column() -> impl Strategy<Value = Vec<SqlValue>> {
    prop_oneof![
        prop::collection::vec(any::<u64>(), MAX_ROWS).prop_map(|w| w
            .into_iter()
            .map(|b| SqlValue::Float(f64::from_bits(b)))
            .collect()),
        prop::collection::vec(any::<i64>(), MAX_ROWS)
            .prop_map(|v| v.into_iter().map(SqlValue::Int).collect()),
        prop::collection::vec(value(), MAX_ROWS),
    ]
}

/// Rectangular batches of 0..=`MAX_ROWS` rows and 1..6 columns of every
/// kind; a 0-row batch is also the 0-column batch.
fn batch_rows() -> impl Strategy<Value = Vec<Vec<SqlValue>>> {
    (0..=MAX_ROWS, prop::collection::vec(column(), 1..6)).prop_map(|(n, cols)| {
        (0..n)
            .map(|i| cols.iter().map(|c| c[i].clone()).collect())
            .collect()
    })
}

/// Column batches: typed chunks, and `Values` chunks that may or may not
/// be all floats or all integers; 0 rows with and without columns.
fn column_batch() -> impl Strategy<Value = ColumnBatch> {
    let chunk = prop_oneof![
        prop::collection::vec(any::<u64>(), MAX_ROWS)
            .prop_map(|w| ColumnChunk::Float(w.into_iter().map(f64::from_bits).collect())),
        prop::collection::vec(any::<i64>(), MAX_ROWS).prop_map(ColumnChunk::Int),
        column().prop_map(ColumnChunk::Values),
    ];
    (0..=MAX_ROWS, prop::collection::vec(chunk, 0..6)).prop_map(|(n, mut columns)| {
        let rows = if columns.is_empty() { 0 } else { n };
        for c in &mut columns {
            match c {
                ColumnChunk::Float(v) => v.truncate(rows),
                ColumnChunk::Int(v) => v.truncate(rows),
                ColumnChunk::Values(v) => v.truncate(rows),
            }
        }
        ColumnBatch { rows, columns }
    })
}

/// Generator of whole messages, every kind.
fn message() -> impl Strategy<Value = Message> {
    prop_oneof![
        "[ -~]{0,200}".prop_map(|sql| Message::Query { sql }),
        prop::collection::vec("[a-z_][a-z0-9_]{0,12}", 0..8)
            .prop_map(|columns| Message::Header { columns }),
        batch_rows().prop_map(|rows| Message::Batch { rows }),
        (any::<u64>(), any::<u32>(), any::<u64>()).prop_map(|(rows, batches, elapsed_us)| {
            Message::Done {
                rows,
                batches,
                elapsed_us,
            }
        }),
        "[ -~]{0,120}".prop_map(|message| Message::Error { message }),
    ]
}

/// Message equality with floats compared bit for bit (so NaN == NaN).
fn same(a: &Message, b: &Message) -> bool {
    let bits = |v: &SqlValue| match v {
        SqlValue::Float(x) => SqlValue::Int(x.to_bits() as i64),
        other => other.clone(),
    };
    match (a, b) {
        (Message::Batch { rows: x }, Message::Batch { rows: y }) => {
            x.len() == y.len()
                && x.iter().zip(y).all(|(r, s)| {
                    r.len() == s.len()
                        && r.iter().zip(s).all(|(u, v)| {
                            matches!(u, SqlValue::Float(_)) == matches!(v, SqlValue::Float(_))
                                && bits(u) == bits(v)
                        })
                })
        }
        _ => a == b,
    }
}

/// A frame around `body` with a correct length and CRC.
fn wire_of(body: &[u8]) -> Vec<u8> {
    let mut wire = Vec::new();
    wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
    wire.extend_from_slice(&lidardb_core::crc::crc32(body).to_le_bytes());
    wire.extend_from_slice(body);
    wire
}

fn frame_bytes(msg: &Message) -> Vec<u8> {
    let mut wire = Vec::new();
    write_frame(&mut wire, msg).unwrap();
    wire
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Undamaged frames roundtrip exactly.
    #[test]
    fn roundtrip(msg in message()) {
        let wire = frame_bytes(&msg);
        let frame = read_frame(&mut wire.as_slice()).unwrap();
        prop_assert!(same(&frame.msg, &msg), "{:?} != {:?}", frame.msg, msg);
        prop_assert_eq!(frame.wire_bytes, wire.len());
    }

    /// The server's column encoder and the row encoder agree byte for
    /// byte, and the frame decodes to the batch's rows.
    #[test]
    fn column_encoder_matches_row_encoder(cb in column_batch()) {
        let body = encode_columns(&cb);
        let rows = cb.to_rows();
        prop_assert_eq!(&body, &Message::Batch { rows: rows.clone() }.encode());
        let frame = read_frame(&mut wire_of(&body).as_slice()).unwrap();
        prop_assert!(same(&frame.msg, &Message::Batch { rows }));
    }

    /// Any truncation decodes to a typed error (or, cut at 0 bytes, the
    /// clean `Disconnected`) — never a panic, never a success.
    #[test]
    fn truncation_is_typed(msg in message(), cut_seed in any::<usize>()) {
        let wire = frame_bytes(&msg);
        let cut = cut_seed % wire.len(); // 0..len-1: always a strict prefix
        let res = read_frame(&mut wire[..cut].as_ref());
        match res {
            Err(ProtoError::Disconnected) => prop_assert_eq!(cut, 0, "Disconnected only at a frame boundary"),
            Err(_) => {}
            Ok(_) => prop_assert!(false, "strict prefix of a frame decoded successfully"),
        }
    }

    /// Any single bit flip is detected: either the CRC catches it, the
    /// header becomes invalid, or — if the flip lands in the length
    /// prefix making the frame *appear shorter/longer* — the read errors.
    /// Decoding never panics and never silently returns a wrong payload
    /// of a different kind... a flip inside the length that still yields
    /// a CRC-valid parse is impossible because the CRC covers the body.
    #[test]
    fn bit_flip_is_detected(msg in message(), bit_seed in any::<usize>()) {
        let mut wire = frame_bytes(&msg);
        let nbits = wire.len() * 8;
        let bit = bit_seed % nbits;
        wire[bit / 8] ^= 1 << (bit % 8);
        // A flip in the length prefix can declare a longer frame; present
        // the damaged bytes as-is (no extension), like a peer that hung up.
        match read_frame(&mut wire.as_slice()) {
            Err(_) => {}
            Ok(frame) => {
                prop_assert!(same(&frame.msg, &msg), "an accepted flip must be a no-op parse")
            }
        }
    }

    /// Forged length prefixes: any declared length beyond [`MAX_FRAME`]
    /// is rejected before allocation; any declared length larger than the
    /// bytes present errors instead of blocking or over-allocating.
    #[test]
    fn forged_length_never_overallocates(declared in any::<u32>(), body in prop::collection::vec(any::<u8>(), 0..64)) {
        let mut wire = Vec::new();
        wire.extend_from_slice(&declared.to_le_bytes());
        wire.extend_from_slice(&lidardb_core::crc::crc32(&body).to_le_bytes());
        wire.extend_from_slice(&body);
        match read_frame(&mut wire.as_slice()) {
            Err(ProtoError::FrameLength { declared: d }) => {
                prop_assert!(d == 0 || d > MAX_FRAME);
            }
            Err(_) => {}
            Ok(frame) => {
                // Only possible when the declared length matches the body
                // and the body happens to be a valid message.
                prop_assert_eq!(declared as usize, body.len());
                prop_assert_eq!(frame.wire_bytes, wire.len());
            }
        }
    }

    /// Forged *inner* counts (row/column/string lengths) inside a
    /// CRC-valid frame produce typed errors, with allocation bounded by
    /// the body's actual size.
    #[test]
    fn garbage_bodies_are_typed(body in prop::collection::vec(any::<u8>(), 0..256)) {
        let wire = wire_of(&body);
        // Must return (typed) — never panic, never hang, never allocate
        // per a forged count.
        let _ = read_frame(&mut wire.as_slice());
    }
}

/// Deterministic adversarial cases worth pinning outside the generators.
#[test]
fn pinned_adversarial_frames() {
    let truncated = |body: &[u8]| {
        matches!(
            read_frame(&mut wire_of(body).as_slice()),
            Err(ProtoError::Truncated { .. })
        )
    };
    let batch = |nrows: u32, ncols: u32, rest: &[u8]| {
        let mut body = vec![3u8]; // KIND_BATCH
        body.extend_from_slice(&nrows.to_le_bytes());
        body.extend_from_slice(&ncols.to_le_bytes());
        body.extend_from_slice(rest);
        body
    };

    // Batch declaring u32::MAX rows in a tiny body.
    assert!(truncated(&batch(u32::MAX, 1, &[3, 0])));
    // u32::MAX rows of zero columns: no bytes could ever back them.
    assert!(truncated(&batch(u32::MAX, 0, &[])));
    // u32::MAX columns of zero rows: each column needs its tag byte.
    assert!(truncated(&batch(0, u32::MAX, &[1])));
    // An F64 column shorter than nrows × 8.
    let mut short = vec![1u8]; // COL_F64
    short.extend_from_slice(&[0u8; 8 * 3 - 1]);
    assert!(truncated(&batch(3, 1, &short)));
    // An unknown column tag.
    assert!(matches!(
        read_frame(&mut wire_of(&batch(1, 1, &[9, 0, 0, 0, 0, 0, 0, 0, 0])).as_slice()),
        Err(ProtoError::BadTag {
            context: "column",
            tag: 9
        })
    ));

    // String whose declared length runs past the body.
    let mut body = vec![1u8]; // KIND_QUERY
    body.extend_from_slice(&1_000_000u32.to_le_bytes());
    body.extend_from_slice(b"SELECT");
    assert!(truncated(&body));

    // Valid frame with trailing junk after the message: rejected, not
    // silently ignored (a smuggling channel otherwise).
    let mut body = Message::Done {
        rows: 1,
        batches: 1,
        elapsed_us: 1,
    }
    .encode();
    body.push(0xAA);
    assert!(truncated(&body));

    // Unknown message kind.
    assert!(matches!(
        read_frame(&mut wire_of(&[42u8]).as_slice()),
        Err(ProtoError::BadTag { .. })
    ));
}
