//! Smoke tests for the span tracer: the Chrome trace-event export is
//! well-formed JSON with the expected event shape, the per-thread guard
//! gates tracing, and the slow-query log captures traced queries.
//!
//! The tracer ring and slow-query log are process-global; the stateful
//! checks run in one `#[test]` so they see a coherent sequence, and the
//! cross-trace assertions always filter by this test's own trace ids.

use lidardb_core::{
    trace, Parallelism, PointCloud, RefineStrategy, SlowQueryLog, SpatialPredicate, Tracer,
};
use lidardb_geom::{Geometry, Point, Polygon};
use lidardb_las::PointRecord;

// Minimal JSON well-formedness checker (the tree has no serde): balanced
// structure, legal scalars, no trailing input.
fn validate_json(s: &str) -> Result<(), String> {
    fn value(b: &[u8], mut i: usize) -> Result<usize, String> {
        while b.get(i).is_some_and(u8::is_ascii_whitespace) {
            i += 1;
        }
        match b.get(i) {
            Some(b'{') | Some(b'[') => {
                let (open, close) = if b[i] == b'{' { (b'{', b'}') } else { (b'[', b']') };
                i += 1;
                loop {
                    while b.get(i).is_some_and(u8::is_ascii_whitespace) {
                        i += 1;
                    }
                    match b.get(i) {
                        Some(&c) if c == close => return Ok(i + 1),
                        Some(_) => {
                            if open == b'{' {
                                i = value(b, i)?; // key
                                while b.get(i).is_some_and(u8::is_ascii_whitespace) {
                                    i += 1;
                                }
                                if b.get(i) != Some(&b':') {
                                    return Err(format!("expected ':' at byte {i}"));
                                }
                                i += 1;
                            }
                            i = value(b, i)?;
                            while b.get(i).is_some_and(u8::is_ascii_whitespace) {
                                i += 1;
                            }
                            if b.get(i) == Some(&b',') {
                                i += 1;
                                if b.get(i) == Some(&close) {
                                    return Err(format!("trailing comma at byte {i}"));
                                }
                            }
                        }
                        None => return Err("unbalanced".into()),
                    }
                }
            }
            Some(b'"') => {
                i += 1;
                while let Some(&c) = b.get(i) {
                    i += 1;
                    match c {
                        b'"' => return Ok(i),
                        b'\\' => i += 1,
                        _ => {}
                    }
                }
                Err("unterminated string".into())
            }
            Some(_) => {
                let start = i;
                while b
                    .get(i)
                    .is_some_and(|c| c.is_ascii_alphanumeric() || matches!(c, b'.' | b'-' | b'+'))
                {
                    i += 1;
                }
                if i == start {
                    return Err(format!("expected value at byte {start}"));
                }
                Ok(i)
            }
            None => Err("unexpected end".into()),
        }
    }
    let b = s.as_bytes();
    let mut end = value(b, 0)?;
    while b.get(end).is_some_and(u8::is_ascii_whitespace) {
        end += 1;
    }
    if end != b.len() {
        return Err(format!("trailing bytes at {end}"));
    }
    Ok(())
}

fn cloud(n: usize) -> PointCloud {
    let side = (n as f64).sqrt().ceil() as usize;
    let recs: Vec<PointRecord> = (0..n)
        .map(|i| PointRecord {
            x: (i % side) as f64,
            y: (i / side) as f64,
            z: (i % 97) as f64,
            classification: (i % 11) as u8,
            ..Default::default()
        })
        .collect();
    let mut pc = PointCloud::new();
    pc.append_records(&recs).unwrap();
    pc
}

fn diamond(cx: f64, cy: f64, r: f64) -> SpatialPredicate {
    SpatialPredicate::Within(Geometry::Polygon(
        Polygon::from_exterior(vec![
            Point::new(cx, cy - r),
            Point::new(cx + r, cy),
            Point::new(cx, cy + r),
            Point::new(cx - r, cy),
        ])
        .unwrap(),
    ))
}

#[test]
fn json_checker_accepts_and_rejects() {
    validate_json("[{\"a\": 1.5, \"b\": [\"x\", true]}]").unwrap();
    assert!(validate_json("[1, 2").is_err());
    assert!(validate_json("[1,]").is_err());
    assert!(validate_json("[] junk").is_err());
}

#[test]
fn untraced_queries_have_no_trace_id() {
    let pc = cloud(10_000);
    let sel = pc
        .select_query_with(
            Some(&diamond(50.0, 50.0, 40.0)),
            &[],
            RefineStrategy::default(),
            Parallelism::Serial,
        )
        .unwrap();
    assert!(!sel.rows.is_empty());
    assert_eq!(sel.trace_id, None, "untraced query carries no trace id");
}

#[test]
fn trace_smoke() {
    let pc = cloud(30_000);
    let pred = diamond(80.0, 80.0, 70.0);

    // --- per-thread guard -------------------------------------------------
    let guard = trace::force_thread();
    let traced = pc
        .select_query_with(Some(&pred), &[], RefineStrategy::default(), Parallelism::Serial)
        .unwrap();
    let tid = traced.trace_id.expect("traced query has a trace id");

    drop(guard);
    let untraced = pc
        .select_query_with(Some(&pred), &[], RefineStrategy::default(), Parallelism::Serial)
        .unwrap();
    assert_eq!(untraced.rows, traced.rows, "tracing must not change results");
    assert_eq!(untraced.trace_id, None);

    // --- the trace holds one span per exercised stage ---------------------
    let sink = Tracer::global().snapshot().for_trace(tid);
    let names: Vec<&str> = sink.spans.iter().map(|s| s.kind.name()).collect();
    // The first traced query on a fresh cloud builds its imprints lazily,
    // so the build span nests under the probe.
    for want in ["query", "imprint_probe", "imprint_build", "bbox_scan", "grid_refine"] {
        assert!(names.contains(&want), "missing {want} span in {names:?}");
    }
    let root = sink
        .spans
        .iter()
        .find(|s| s.kind.name() == "query")
        .expect("root span");
    assert_eq!(root.parent_id, 0, "root has no parent");
    assert_eq!(root.rows_out, traced.rows.len() as u64);
    for s in &sink.spans {
        assert_eq!(s.trace_id, tid);
        if s.span_id != root.span_id {
            assert_ne!(s.parent_id, 0, "{} span is parented", s.kind.name());
        }
    }

    // --- Chrome trace-event export ----------------------------------------
    let json = sink.to_chrome_json();
    validate_json(&json).unwrap_or_else(|e| panic!("chrome json invalid: {e}\n{json}"));
    assert!(json.trim_start().starts_with('['), "top level is an event array");
    for key in ["\"ph\": \"X\"", "\"pid\": 1", "\"tid\":", "\"ts\":", "\"dur\":", "\"name\": \"query\"", "\"args\":"] {
        assert!(json.contains(key), "missing {key} in chrome json");
    }
    // Complete events only — one per span.
    assert_eq!(json.matches("\"ph\": \"X\"").count(), sink.spans.len());

    // --- slow-query log ----------------------------------------------------
    let slow = SlowQueryLog::global().worst();
    let entry = slow
        .iter()
        .find(|q| q.trace_id == tid)
        .expect("traced query reached the slow-query log");
    assert_eq!(entry.result_rows, traced.rows.len());
    assert!(entry.seconds >= 0.0);
    assert!(!entry.spans.is_empty(), "slow-query entry keeps its span tree");
    assert!(slow.windows(2).all(|w| w[0].seconds >= w[1].seconds), "worst first");
    assert!(
        !slow.iter().any(|q| Some(q.trace_id) == untraced.trace_id),
        "untraced queries never reach the log"
    );
}
