//! Property-based tests of the SQL front-end: parsing is total (never
//! panics), rendering a parsed expression re-parses to the same AST, and a
//! text `INSERT` ingests exactly what the per-record path ingests.

use std::sync::{Arc, RwLock};

use lidardb_core::soa::ColumnArrays;
use lidardb_core::wal::wal_path_for;
use lidardb_core::{Durability, PointCloud};
use lidardb_las::{PointRecord, COLUMN_NAMES};
use lidardb_sql::ast::{Expr, SelectItem, Statement};
use lidardb_sql::parser::parse;
use lidardb_sql::{query, Catalog, SqlValue};
use lidardb_test_support::ScratchDir;
use proptest::prelude::*;

/// A generator of well-formed scalar expressions (as SQL text).
fn expr_text() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        (-1000i32..1000).prop_map(|v| v.to_string()),
        (0.0f64..100.0).prop_map(|v| format!("{v:.3}")),
        "[a-z][a-z0-9_]{0,6}".prop_map(|s| s),
        "[a-z]{1,4}\\.[a-z]{1,6}".prop_map(|s| s),
        "'[a-z ]{0,8}'".prop_map(|s| s),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (
                inner.clone(),
                inner.clone(),
                prop_oneof![
                    Just("+"),
                    Just("-"),
                    Just("*"),
                    Just("/"),
                    Just("="),
                    Just("<>"),
                    Just("<"),
                    Just("<="),
                    Just(">"),
                    Just(">="),
                    Just("AND"),
                    Just("OR"),
                ]
            )
                .prop_map(|(a, b, op)| format!("({a} {op} {b})")),
            inner.clone().prop_map(|a| format!("(NOT {a})")),
            inner.clone().prop_map(|a| format!("ABS({a})")),
            (inner.clone(), inner.clone(), inner.clone())
                .prop_map(|(a, b, c)| format!("({a} BETWEEN {b} AND {c})")),
        ]
    })
}

fn first_expr(stmt: &Statement) -> Expr {
    let Statement::Select(s) = stmt else {
        panic!("generator only emits SELECT")
    };
    match &s.items[0] {
        SelectItem::Expr { expr, .. } => expr.clone(),
        SelectItem::Wildcard => panic!("generator never emits *"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn render_reparse_is_fixpoint(e in expr_text()) {
        let sql = format!("SELECT {e} FROM t");
        // Generated expressions are syntactically valid by construction.
        let stmt = parse(&sql).unwrap_or_else(|err| panic!("{sql}: {err}"));
        let ast = first_expr(&stmt);
        let rendered = ast.render();
        let stmt2 = parse(&format!("SELECT {rendered} FROM t"))
            .unwrap_or_else(|err| panic!("re-parse of {rendered}: {err}"));
        prop_assert_eq!(first_expr(&stmt2), ast);
    }

    #[test]
    fn parser_never_panics_on_garbage(input in "\\PC{0,80}") {
        // Totality: arbitrary input must produce Ok or a typed error.
        let _ = parse(&input);
        let _ = parse(&format!("SELECT {input} FROM t"));
    }

    #[test]
    fn keyword_case_is_insensitive(
        upper in prop::bool::ANY,
        col in "[a-z]{1,6}",
    ) {
        let kw = |s: &str| if upper { s.to_uppercase() } else { s.to_lowercase() };
        let sql = format!(
            "{} {col} {} t {} {col} > 1 {} {} {col} {} 3",
            kw("select"), kw("from"), kw("where"), kw("order"), kw("by"), kw("limit")
        );
        prop_assert!(parse(&sql).is_ok(), "{sql}");
    }
}

/// An unsigned numeric literal as SQL text: integers, decimals, a leading
/// dot, exponents, digit strings too long for an exact `f64`, and values
/// that narrow (past `u8`, `u16`, `u32`, `u64`).
fn literal_text() -> impl Strategy<Value = String> {
    const EDGES: [&str; 10] = [
        "127",
        "128",
        "255",
        "256",
        "65535",
        "65536",
        "4294967296",
        "18446744073709551615",
        "18446744073709551616",
        "1e20",
    ];
    prop_oneof![
        (0u64..70_000).prop_map(|v| v.to_string()),
        (0usize..EDGES.len()).prop_map(|i| EDGES[i].to_string()),
        (0u64..1_000_000, 0u32..100_000).prop_map(|(a, b)| format!("{a}.{b}")),
        (0u32..100_000).prop_map(|b| format!(".{b}")),
        (0u32..1_000, 0u32..100, -40i32..40, prop::bool::ANY).prop_map(|(a, b, e, upper)| {
            format!("{a}.{b}{}{e}", if upper { 'E' } else { 'e' })
        }),
        ("[1-9][0-9]{15,19}", "[0-9]{1,4}").prop_map(|(a, b)| format!("{a}.{b}")),
    ]
}

/// One `VALUES` cell and the value the per-record path gives it: the
/// literal's `str::parse` result, negated once per `-`. Wrappers apply
/// inside out: 0 = `-`, 1 = `+`, 2 = parentheses.
fn cell() -> impl Strategy<Value = (String, f64)> {
    (literal_text(), prop::collection::vec(0u8..3, 0..4)).prop_map(|(lit, wraps)| {
        let mut v: f64 = lit.parse().unwrap();
        let mut text = lit;
        for w in wraps {
            text = match w {
                // `--` would open a comment.
                0 if text.starts_with('-') => format!("- {text}"),
                0 => format!("-{text}"),
                1 => format!("+{text}"),
                _ => format!("({text})"),
            };
            if w == 0 {
                v = -v;
            }
        }
        (text, v)
    })
}

/// The per-record reference: assign `v` to the named field with the
/// narrowing `as` casts of the LAS loader.
fn set_reference(rec: &mut PointRecord, name: &str, v: f64) {
    match name {
        "x" => rec.x = v,
        "y" => rec.y = v,
        "z" => rec.z = v,
        "intensity" => rec.intensity = v as u16,
        "return_number" => rec.return_number = v as u8,
        "number_of_returns" => rec.number_of_returns = v as u8,
        "scan_direction" => rec.scan_direction = v as u8,
        "edge_of_flight_line" => rec.edge_of_flight_line = v as u8,
        "classification" => rec.classification = v as u8,
        "synthetic" => rec.synthetic = v as u8,
        "key_point" => rec.key_point = v as u8,
        "withheld" => rec.withheld = v as u8,
        "scan_angle_rank" => rec.scan_angle_rank = v as i8,
        "user_data" => rec.user_data = v as u8,
        "point_source_id" => rec.point_source_id = v as u16,
        "gps_time" => rec.gps_time = v,
        "red" => rec.red = v as u16,
        "green" => rec.green = v as u16,
        "blue" => rec.blue = v as u16,
        "wave_packet_index" => rec.wave_packet_index = v as u8,
        "wave_offset" => rec.wave_offset = v as u64,
        "wave_size" => rec.wave_size = v as u32,
        "wave_return_loc" => rec.wave_return_loc = v as f32,
        "wave_xt" => rec.wave_xt = v as f32,
        "wave_yt" => rec.wave_yt = v as f32,
        "wave_zt" => rec.wave_zt = v as f32,
        other => panic!("no column {other}"),
    }
}

const MAX_ROWS: usize = 5;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn text_insert_ingests_what_the_record_path_ingests(
        picks in prop::collection::vec(0usize..COLUMN_NAMES.len(), 1..27),
        rows in 1usize..MAX_ROWS + 1,
        cells in prop::collection::vec(cell(), COLUMN_NAMES.len() * MAX_ROWS),
        token in 0u64..3,
    ) {
        // A random subset of the columns in a random order.
        let mut cols: Vec<&str> = Vec::new();
        for &i in &picks {
            if !cols.contains(&COLUMN_NAMES[i]) {
                cols.push(COLUMN_NAMES[i]);
            }
        }
        let mut records = vec![PointRecord::default(); rows];
        let mut tuples = Vec::new();
        for (r, rec) in records.iter_mut().enumerate() {
            let row = &cells[r * cols.len()..(r + 1) * cols.len()];
            for (name, (_, v)) in cols.iter().zip(row) {
                set_reference(rec, name, *v);
            }
            let texts: Vec<&str> = row.iter().map(|(t, _)| t.as_str()).collect();
            tuples.push(format!("({})", texts.join(", ")));
        }
        let tag = if token == 0 { String::new() } else { format!(" TOKEN {token}") };
        let sql = format!(
            "INSERT INTO pts ({}) VALUES {}{tag}",
            cols.join(", "),
            tuples.join(", ")
        );

        let sql_dir = ScratchDir::vacant("insert_prop_sql");
        let pc = PointCloud::open_ingest(&sql_dir, Durability::None).unwrap();
        let mut c = Catalog::new();
        c.register_stream("pts", Arc::new(RwLock::new(pc)));
        let rs = query(&c, &sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        prop_assert_eq!(&rs.rows[0][0], &SqlValue::Int(rows as i64));
        let mut pc = c.write_stream("pts").unwrap();
        pc.flush_wal().unwrap();

        let ref_dir = ScratchDir::vacant("insert_prop_ref");
        let mut reference = PointCloud::open_ingest(&ref_dir, Durability::None).unwrap();
        reference.ingest_records_tagged(&records, token).unwrap();
        reference.flush_wal().unwrap();

        // Bit-identical rows: every column's bytes are the reference dump.
        let dumps = ColumnArrays::from_records(&records).to_dumps();
        for (name, dump) in COLUMN_NAMES.iter().zip(&dumps) {
            let bytes = pc.column_dump(name, 0..pc.num_points()).unwrap();
            prop_assert_eq!(&bytes, dump, "{} in {}", name, sql);
        }
        // Byte-identical WAL: same frame, same payload, same token.
        let wal = |d: &ScratchDir| std::fs::read(wal_path_for(d.path())).unwrap();
        prop_assert!(wal(&sql_dir) == wal(&ref_dir), "WAL bytes differ for {}", sql);
    }
}
