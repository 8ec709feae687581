//! Hostile-input sweep of the SQL surface: every byte string a network
//! client can send must come back as `Ok` or a typed [`SqlError`] — the
//! parse → plan → exec pipeline never panics. This is the regression
//! suite for the server-facing panic sweep: the fuzzer is a deterministic
//! LCG so failures replay exactly.

use std::sync::{Arc, RwLock};

use lidardb_core::{Durability, PointCloud};
use lidardb_geom::{Geometry, Point, Polygon};
use lidardb_las::PointRecord;
use lidardb_sql::catalog::VColumn;
use lidardb_sql::parser::MAX_EXPR_DEPTH;
use lidardb_sql::{query, Catalog, SqlError, VectorTable};
use lidardb_test_support::ScratchDir;

/// Small catalog with every table kind the executor dispatches on, and
/// the directory its streaming table `pts` ingests into.
fn setup() -> (Catalog, ScratchDir) {
    let mut pc = PointCloud::new();
    let recs: Vec<PointRecord> = (0..64)
        .map(|i| PointRecord {
            x: (i % 8) as f64,
            y: (i / 8) as f64,
            z: i as f64 / 10.0,
            classification: (i % 3) as u8,
            intensity: 100 + i as u16,
            ..Default::default()
        })
        .collect();
    pc.append_records(&recs).unwrap();

    let zones = VectorTable::new()
        .with_column("id", VColumn::Int(vec![1]))
        .with_column(
            "geom",
            VColumn::Geom(vec![Geometry::Polygon(
                Polygon::from_exterior(vec![
                    Point::new(0.0, 0.0),
                    Point::new(7.0, 0.0),
                    Point::new(7.0, 7.0),
                    Point::new(0.0, 7.0),
                ])
                .unwrap(),
            )]),
        );

    let dir = ScratchDir::vacant("hostile_pts");
    let stream = PointCloud::open_ingest(&dir, Durability::None).unwrap();

    let mut c = Catalog::new();
    c.register_pointcloud("points", Arc::new(pc));
    c.register_vector("zones", zones);
    c.register_stream("pts", Arc::new(RwLock::new(stream)));
    (c, dir)
}

/// Deterministic LCG (same constants as `rand`'s minstd family).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Seed statements covering the executor's dispatch arms.
const SEEDS: &[&str] = &[
    "SELECT x, y, z FROM points WHERE classification = 2 LIMIT 10",
    "SELECT COUNT(*), AVG(z) FROM points WHERE intensity > 110",
    "SELECT * FROM points WHERE ST_Contains(ST_MakeEnvelope(0,0,4,4), ST_Point(x, y))",
    "SELECT p.x, z.id FROM points p, zones z WHERE ST_Contains(z.geom, ST_Point(p.x, p.y))",
    "SELECT classification, COUNT(*) FROM points GROUP BY classification ORDER BY 2 DESC",
    "EXPLAIN SELECT x FROM points WHERE z BETWEEN 1 AND 2",
    "SET STATEMENT_TIMEOUT = 1000",
    "SHOW QUERIES",
    "KILL 12345",
    "INSERT INTO points VALUES (1, 2, 3)",
    "INSERT INTO pts (x, y, z, classification, intensity) VALUES \
     (85012.34, -444000.5, -(1.5e2), +6, ((4095))), (.5, -2.5e-2, 1E3, 2, 7) TOKEN 42",
    "INSERT INTO pts (wave_offset, scan_angle_rank, red, x) VALUES \
     (18446744073709551616, -129, 65536, - -1), ((-(+2)), 1e-3, -.25, 12345678901234567)",
    "SELECT ST_AsText(ST_GeomFromText('POINT(1 2)')) FROM points LIMIT 1",
    "SELECT ST_X() FROM points",
    "SELECT DISTINCT classification FROM points HAVING COUNT(*) > 0",
];

/// The one invariant: whatever happens, it is a `Result`, not a panic.
/// `query` runs the full pipeline, so a panic anywhere in lex/parse/plan/
/// exec fails the test by unwinding through it.
fn must_not_panic(c: &Catalog, sql: &str) {
    let _ = query(c, sql);
}

#[test]
fn seeds_execute_or_fail_typed() {
    let (c, _dir) = setup();
    for sql in SEEDS {
        must_not_panic(&c, sql);
    }
    // The INSERT seeds are well formed, so their mutations start from the
    // cell reader's accepting path.
    for sql in SEEDS.iter().filter(|s| s.starts_with("INSERT INTO pts")) {
        query(&c, sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
}

#[test]
fn truncations_never_panic() {
    let (c, _dir) = setup();
    for sql in SEEDS {
        // Every prefix, byte by byte (seeds are ASCII so all are char
        // boundaries).
        for end in 0..sql.len() {
            must_not_panic(&c, &sql[..end]);
        }
    }
}

#[test]
fn mutated_statements_never_panic() {
    let (c, _dir) = setup();
    let mut rng = Lcg(0x5eed_1da8_db01);
    let garbage = [
        '\0', '(', ')', '\'', '"', ',', '.', ';', '%', 'Ω', '\u{7f}', ' ',
    ];
    for round in 0..2000 {
        let seed = SEEDS[round % SEEDS.len()];
        let mut bytes: Vec<char> = seed.chars().collect();
        // 1-4 random edits: delete, duplicate, or splice garbage.
        for _ in 0..1 + rng.below(4) {
            if bytes.is_empty() {
                break;
            }
            let at = rng.below(bytes.len());
            match rng.below(3) {
                0 => {
                    bytes.remove(at);
                }
                1 => {
                    let ch = bytes[at];
                    bytes.insert(at, ch);
                }
                _ => bytes.insert(at, garbage[rng.below(garbage.len())]),
            }
        }
        let mutated: String = bytes.into_iter().collect();
        must_not_panic(&c, &mutated);
    }
}

#[test]
fn garbage_bytes_never_panic() {
    let (c, _dir) = setup();
    let mut rng = Lcg(0xdead_beef_cafe);
    let alphabet: Vec<char> = "SELECT FROM WHERE AND OR NOT () ',.*=<>+-eE0123456789xyz\0\u{1}Ω"
        .chars()
        .collect();
    for _ in 0..2000 {
        let len = rng.below(80);
        let s: String = (0..len)
            .map(|_| alphabet[rng.below(alphabet.len())])
            .collect();
        must_not_panic(&c, &s);
        // The same bytes as the cells of an INSERT.
        must_not_panic(&c, &format!("INSERT INTO pts (x, y) VALUES ({s}"));
    }
}

#[test]
fn deep_nesting_returns_parse_error_not_stack_overflow() {
    let (c, _dir) = setup();
    // Far past the cap: without the parser's depth limit this would
    // recurse ~100k frames and abort the process.
    let deep = format!(
        "SELECT {}x{} FROM points",
        "(".repeat(100_000),
        ")".repeat(100_000)
    );
    match query(&c, &deep) {
        Err(SqlError::Parse { reason, .. }) => {
            assert!(
                reason.contains(&MAX_EXPR_DEPTH.to_string()),
                "error names the depth cap: {reason}"
            );
        }
        other => panic!("expected Parse error, got {other:?}"),
    }

    // Unary chains recurse through a different production.
    let minus = format!("SELECT {}1 FROM points", "-".repeat(100_000));
    assert!(query(&c, &minus).is_err());
    let nots = format!("SELECT * FROM points WHERE {}TRUE", "NOT ".repeat(100_000));
    assert!(query(&c, &nots).is_err());
}

#[test]
fn multi_mib_comments_and_strings_fail_typed_or_run() {
    let (c, _dir) = setup();
    let bulk = "x".repeat(8 << 20);
    let rows = query(&c, &format!("SELECT COUNT(*) FROM points -- {bulk}")).unwrap();
    assert_eq!(rows.rows.len(), 1);
    let insert = format!("INSERT INTO pts (x) VALUES ('{bulk}')");
    match query(&c, &insert) {
        Err(SqlError::Parse { offset, .. }) => assert_eq!(Some(offset), insert.find('\'')),
        other => panic!("expected a Parse error at the string cell, got {other:?}"),
    }
    assert!(matches!(
        query(&c, &format!("SELECT '{bulk} FROM points")),
        Err(SqlError::Lex { .. })
    ));
}

#[test]
fn wrong_arity_functions_return_exec_error() {
    let (c, _dir) = setup();
    for sql in [
        "SELECT ST_X() FROM points LIMIT 1",
        "SELECT ST_Point(1) FROM points LIMIT 1",
        "SELECT ST_Distance(ST_Point(1,2)) FROM points LIMIT 1",
        "SELECT ST_MakeEnvelope(1,2,3) FROM points LIMIT 1",
    ] {
        match query(&c, sql) {
            Err(SqlError::Exec(msg)) => {
                assert!(msg.contains("argument"), "arity error message: {msg}")
            }
            other => panic!("{sql}: expected Exec arity error, got {other:?}"),
        }
    }
}
