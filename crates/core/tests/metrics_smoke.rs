//! Smoke tests for the metrics registry: the JSON snapshot is well-formed,
//! stage timers stay within a generous tolerance of wall-clock, and the
//! process-wide counters move when queries run.
//!
//! The registry is process-global and test threads share it, so every
//! cross-operation assertion here is monotone (`>=` deltas) rather than
//! exact, and the end-to-end checks live in a single `#[test]` so they
//! observe one coherent sequence of their own operations.

use std::sync::Arc;
use std::time::Instant;

use lidardb_core::{
    Aggregate, AttrRange, MetricsRegistry, Parallelism, PointCloud, RefineStrategy,
    SpatialPredicate, Stage,
};
use lidardb_geom::{Geometry, Point, Polygon};
use lidardb_las::PointRecord;

// ------------------------------------------------- a tiny JSON validator
//
// The tree deliberately has no serde; this minimal recursive-descent
// checker is enough to prove the snapshot is parseable JSON (balanced
// structure, legal scalars, no trailing commas).

struct Json<'a> {
    s: &'a [u8],
    pos: usize,
}

impl<'a> Json<'a> {
    fn new(s: &'a str) -> Self {
        Json { s: s.as_bytes(), pos: 0 }
    }

    fn fail(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn ws(&mut self) {
        while self.pos < self.s.len() && self.s[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.s.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.fail(&format!("expected '{}'", b as char)))
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.eat(b'"')?;
        while let Some(&b) = self.s.get(self.pos) {
            self.pos += 1;
            match b {
                b'"' => return Ok(()),
                b'\\' => self.pos += 1, // skip the escaped byte
                _ => {}
            }
        }
        Err(self.fail("unterminated string"))
    }

    fn number(&mut self) -> Result<(), String> {
        let start = self.pos;
        if self.s.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self
            .s
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || *b == b'.')
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.fail("expected number"));
        }
        Ok(())
    }

    fn value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => {
                self.eat(b'{')?;
                if self.peek() == Some(b'}') {
                    return self.eat(b'}');
                }
                loop {
                    self.ws();
                    self.string()?;
                    self.eat(b':')?;
                    self.value()?;
                    match self.peek() {
                        Some(b',') => self.eat(b',')?,
                        _ => return self.eat(b'}'),
                    }
                }
            }
            Some(b'[') => {
                self.eat(b'[')?;
                if self.peek() == Some(b']') {
                    return self.eat(b']');
                }
                loop {
                    self.value()?;
                    match self.peek() {
                        Some(b',') => self.eat(b',')?,
                        _ => return self.eat(b']'),
                    }
                }
            }
            Some(b'"') => {
                self.ws();
                self.string()
            }
            Some(_) => {
                self.ws();
                self.number()
            }
            None => Err(self.fail("unexpected end of input")),
        }
    }
}

/// Validate that `s` is one complete JSON value with nothing after it.
fn validate_json(s: &str) -> Result<(), String> {
    let mut p = Json::new(s);
    p.value()?;
    p.ws();
    if p.pos != p.s.len() {
        return Err(p.fail("trailing bytes after document"));
    }
    Ok(())
}

// -------------------------------------------------------------- fixtures

fn cloud(n: usize) -> PointCloud {
    let side = (n as f64).sqrt().ceil() as usize;
    let recs: Vec<PointRecord> = (0..n)
        .map(|i| PointRecord {
            x: (i % side) as f64,
            y: (i / side) as f64,
            z: (i % 97) as f64,
            classification: (i % 11) as u8,
            intensity: (i % 3000) as u16,
            ..Default::default()
        })
        .collect();
    let mut pc = PointCloud::new();
    pc.append_records(&recs).unwrap();
    pc
}

fn rect(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> SpatialPredicate {
    SpatialPredicate::Within(Geometry::Polygon(
        Polygon::from_exterior(vec![
            Point::new(min_x, min_y),
            Point::new(max_x, min_y),
            Point::new(max_x, max_y),
            Point::new(min_x, max_y),
        ])
        .unwrap(),
    ))
}

// ----------------------------------------------------------------- tests

#[test]
fn json_validator_accepts_and_rejects() {
    validate_json("{\"a\": [1, 2.5, \"x\"], \"b\": {}}").unwrap();
    validate_json("{}").unwrap();
    assert!(validate_json("{\"a\": }").is_err());
    assert!(validate_json("{\"a\": 1,}").is_err(), "trailing comma");
    assert!(validate_json("[1, 2").is_err(), "unbalanced");
    assert!(validate_json("{} x").is_err(), "trailing bytes");
}

#[test]
fn metrics_smoke() {
    let metrics = MetricsRegistry::global();
    let pc = Arc::new(cloud(20_000));
    let pred = rect(10.0, 10.0, 120.0, 120.0);

    // --- per-query Explain: stage timers bounded by wall-clock -----------
    let queries_before = metrics.queries.get();
    let probe_calls_before = metrics.stage(Stage::ImprintProbe).calls.get();
    let probe_rows_before = metrics.stage(Stage::ImprintProbe).rows.get();
    let wall = Instant::now();
    let sel = pc
        .select_query_with(
            Some(&pred),
            &[AttrRange::new("classification", 1.0, 8.0)],
            RefineStrategy::default(),
            Parallelism::Serial,
        )
        .unwrap();
    let wall = wall.elapsed().as_secs_f64();
    assert!(!sel.rows.is_empty());
    let e = &sel.explain;
    for t in [e.t_imprint_build, e.t_imprints, e.t_bbox, e.t_refine] {
        assert!(t >= 0.0, "{e:?}");
    }
    // The stage timings are disjoint sub-spans of the query, so their sum
    // cannot meaningfully exceed the enclosing wall-clock. Generous
    // tolerance: the clock sources differ and CI machines are noisy.
    assert!(
        e.total_seconds() <= wall * 1.5 + 0.05,
        "stage sum {} vs wall {}",
        e.total_seconds(),
        wall
    );
    // Only this test queries the global registry in this binary, so the
    // probe-row delta is exactly this query's candidate cardinality.
    assert_eq!(
        metrics.stage(Stage::ImprintProbe).rows.get() - probe_rows_before,
        e.after_imprints as u64,
        "the registry's probe rows carry the candidate cardinality"
    );

    // --- registry counters are monotone and moved --------------------------
    assert!(metrics.queries.get() > queries_before, "query counted");
    assert!(
        metrics.stage(Stage::ImprintProbe).calls.get() > probe_calls_before,
        "probe stage recorded"
    );
    let s = metrics.stage(Stage::ImprintProbe);
    let hist_total: u64 = s.latency.counts().iter().sum();
    assert!(hist_total >= s.calls.get() - probe_calls_before, "latency observed");

    // An aggregate records its own stage.
    let agg_calls = metrics.stage(Stage::Aggregate).calls.get();
    pc.aggregate_with(&sel.rows, "z", Aggregate::Avg, Parallelism::Serial)
        .unwrap();
    assert!(metrics.stage(Stage::Aggregate).calls.get() > agg_calls);

    // --- snapshot: parseable JSON with the expected keys -------------------
    let json = metrics.snapshot_json();
    validate_json(&json).unwrap_or_else(|e| panic!("snapshot not valid JSON: {e}\n{json}"));
    for key in [
        "\"counters\"",
        "\"gauges\"",
        "\"stages\"",
        "\"queries\"",
        "\"imprint_probes\"",
        "\"scan_rows_examined\"",
        "\"table_rows\"",
        "\"latency_log2ns\"",
        "\"latency_le_ns\"",
    ] {
        assert!(json.contains(key), "missing {key} in snapshot:\n{json}");
    }
    for stage in Stage::ALL {
        assert!(json.contains(stage.name()), "missing stage {}", stage.name());
    }

    // Registry stage seconds stay sane: the probe stage's accumulated time
    // is positive only if calls happened, and within tolerance of the sum
    // of what this test observed (other tests may add, never subtract).
    assert!(metrics.stage(Stage::ImprintProbe).seconds() >= 0.0);
}

/// N threads hammering `record_stage` concurrently must lose nothing:
/// calls, rows, and nanos all sum exactly. Uses a local registry so no
/// other test's traffic can perturb the totals.
#[test]
fn concurrent_record_stage_sums_exactly() {
    use std::time::Duration;

    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 10_000;
    let metrics = Arc::new(MetricsRegistry::default());

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let metrics = Arc::clone(&metrics);
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    // Varied rows/nanos so dropped updates can't cancel out.
                    metrics.record_stage(
                        Stage::BboxScan,
                        (t * PER_THREAD + i) as usize % 1000,
                        Duration::from_nanos(1 + i % 7),
                    );
                }
            });
        }
    });

    let s = metrics.stage(Stage::BboxScan);
    assert_eq!(s.calls.get(), THREADS * PER_THREAD);
    let expect_rows: u64 = (0..THREADS)
        .flat_map(|t| (0..PER_THREAD).map(move |i| (t * PER_THREAD + i) % 1000))
        .sum();
    assert_eq!(s.rows.get(), expect_rows);
    let expect_nanos: u64 = THREADS * (0..PER_THREAD).map(|i| 1 + i % 7).sum::<u64>();
    assert_eq!(s.nanos.get(), expect_nanos);
    // Every call landed in exactly one latency bucket.
    let hist: u64 = s.latency.counts().iter().sum();
    assert_eq!(hist, THREADS * PER_THREAD);
}
