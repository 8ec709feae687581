//! The observability plane, end to end: a real metrics listener scraped
//! over real HTTP, the exposition checked by an in-repo validator
//! (golden-file discipline without a vendored Prometheus), property
//! tests over the escaping rules, and the acceptance loopback —
//! `SELECT * FROM sys.metrics` over the wire agrees with the exposition:
//! both render one registry's series list.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use lidardb_core::{MetricsRegistry, PointCloud};
use lidardb_las::PointRecord;
use lidardb_server::promtext;
use lidardb_server::{Client, Server, ServerHandle};
use lidardb_sql::{Catalog, SqlValue};
use proptest::prelude::*;

// ------------------------------------------------------- the validator

/// One parsed sample line: `name`, sorted labels, value.
#[derive(Debug)]
struct Sample {
    name: String,
    labels: BTreeMap<String, String>,
    value: f64,
}

fn is_valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.chars().enumerate().all(|(i, c)| {
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
        })
}

/// Parse one exposition sample line, panicking with context on any
/// malformation. Labels are the simple subset the encoder emits (no
/// escaped quotes *inside* this parser's input would break it — escapes
/// are unescaped here so the roundtrip is checked).
fn parse_sample(line: &str) -> Sample {
    let (series, value) = line
        .rsplit_once(' ')
        .unwrap_or_else(|| panic!("no value separator in {line:?}"));
    let value: f64 = value
        .parse()
        .unwrap_or_else(|_| panic!("unparseable value in {line:?}"));
    let (name, labels) = match series.split_once('{') {
        None => (series.to_string(), BTreeMap::new()),
        Some((name, rest)) => {
            let body = rest
                .strip_suffix('}')
                .unwrap_or_else(|| panic!("unterminated labels in {line:?}"));
            // Quote-aware scan: commas and braces are legal *inside* a
            // quoted label value, so splitting on ',' would be wrong.
            let mut labels = BTreeMap::new();
            let mut chars = body.chars().peekable();
            while chars.peek().is_some() {
                let mut key = String::new();
                while let Some(&c) = chars.peek() {
                    if c == '=' {
                        break;
                    }
                    key.push(c);
                    chars.next();
                }
                assert_eq!(chars.next(), Some('='), "missing = in {line:?}");
                assert_eq!(chars.next(), Some('"'), "unquoted label value in {line:?}");
                let mut val = String::new();
                loop {
                    match chars.next() {
                        Some('\\') => match chars.next() {
                            Some('\\') => val.push('\\'),
                            Some('"') => val.push('"'),
                            Some('n') => val.push('\n'),
                            other => panic!("bad escape {other:?} in {line:?}"),
                        },
                        Some('"') => break,
                        Some(c) => val.push(c),
                        None => panic!("unterminated label value in {line:?}"),
                    }
                }
                labels.insert(key, val);
                match chars.next() {
                    Some(',') | None => {}
                    other => panic!("junk {other:?} after label in {line:?}"),
                }
            }
            (name.to_string(), labels)
        }
    };
    assert!(is_valid_metric_name(&name), "bad metric name in {line:?}");
    Sample {
        name,
        labels,
        value,
    }
}

/// Validate a whole exposition: every line is a comment or a sample,
/// every sample's family has a preceding `# TYPE`, histogram buckets are
/// cumulative with ascending `le` ending at `+Inf == _count`. Returns
/// the parsed samples for further assertions.
fn validate_exposition(text: &str) -> Vec<Sample> {
    let mut typed: BTreeMap<String, String> = BTreeMap::new();
    let mut samples = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let fam = it.next().expect("TYPE without family").to_string();
            let kind = it.next().expect("TYPE without kind").to_string();
            assert!(
                matches!(kind.as_str(), "counter" | "gauge" | "histogram" | "untyped"),
                "unknown TYPE kind {kind:?}"
            );
            assert!(
                typed.insert(fam.clone(), kind).is_none(),
                "duplicate TYPE for {fam}"
            );
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment {line:?}");
        let s = parse_sample(line);
        // The family a sample belongs to: histogram children map back to
        // the declared family name.
        let fam = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suf| {
                s.name
                    .strip_suffix(suf)
                    .filter(|base| typed.get(*base).map(String::as_str) == Some("histogram"))
            })
            .unwrap_or(&s.name);
        assert!(
            typed.contains_key(fam),
            "sample {} has no preceding # TYPE",
            s.name
        );
        samples.push(s);
    }

    // Histogram shape: per (family, non-le labels) group, `le` ascending,
    // counts non-decreasing, +Inf present and equal to _count.
    for (fam, kind) in &typed {
        if kind != "histogram" {
            continue;
        }
        let mut groups: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
        let mut counts: BTreeMap<String, f64> = BTreeMap::new();
        for s in &samples {
            let group_key = |s: &Sample| {
                s.labels
                    .iter()
                    .filter(|(k, _)| *k != "le")
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join(",")
            };
            if s.name == format!("{fam}_bucket") {
                let le = s.labels.get("le").expect("bucket without le");
                let le = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().expect("unparseable le")
                };
                groups.entry(group_key(s)).or_default().push((le, s.value));
            } else if s.name == format!("{fam}_count") {
                counts.insert(group_key(s), s.value);
            }
        }
        for (key, buckets) in groups {
            let mut prev_le = f64::NEG_INFINITY;
            let mut prev_cum = -1.0;
            for (le, cum) in &buckets {
                assert!(*le > prev_le, "le not ascending in {fam}{{{key}}}");
                assert!(*cum >= prev_cum, "buckets not cumulative in {fam}{{{key}}}");
                prev_le = *le;
                prev_cum = *cum;
            }
            let (last_le, last_cum) = buckets.last().unwrap();
            assert!(last_le.is_infinite(), "{fam}{{{key}}} missing +Inf bucket");
            assert_eq!(
                Some(last_cum),
                counts.get(&key),
                "{fam}{{{key}}} +Inf != _count"
            );
        }
    }
    samples
}

// ------------------------------------------------------- render checks

#[test]
fn rendered_exposition_validates() {
    // Put traffic through the engine so stages and counters are nonzero.
    let catalog = points_catalog(grid_cloud(5_000));
    lidardb_sql::query(
        &catalog,
        "SELECT COUNT(*) FROM points WHERE x < 30 AND y < 30",
    )
    .unwrap();

    let text = promtext::render(MetricsRegistry::global());
    let samples = validate_exposition(&text);
    assert!(
        samples.iter().any(|s| s.name == "lidardb_queries_total"),
        "queries counter missing"
    );
    assert!(
        samples
            .iter()
            .any(|s| s.name == "lidardb_stage_duration_nanoseconds_bucket"),
        "stage histogram missing"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Escaped label values always survive the validator's unescape —
    /// i.e. the escaping is invertible and emits no bare `"` / newline.
    #[test]
    fn label_escaping_roundtrips(v in "[ -~\\n\\\\\"]{0,40}") {
        let escaped = promtext::escape_label_value(&v);
        prop_assert!(!escaped.contains('\n'));
        let line = format!("m{{l=\"{escaped}\"}} 1");
        let s = parse_sample(&line);
        prop_assert_eq!(s.labels.get("l").map(String::as_str), Some(v.as_str()));
    }

    /// Sanitized names always satisfy the exposition name grammar.
    #[test]
    fn sanitized_names_are_always_legal(name in "[ -~]{1,40}") {
        prop_assert!(is_valid_metric_name(&promtext::sanitize_metric_name(&name)));
    }
}

// ------------------------------------------------ the live HTTP plane

fn grid_cloud(n: usize) -> PointCloud {
    let side = (n as f64).sqrt().ceil() as usize;
    let mut pc = PointCloud::new();
    let recs: Vec<PointRecord> = (0..n)
        .map(|i| PointRecord {
            x: (i % side) as f64,
            y: (i / side) as f64,
            z: ((i % side) as f64) / 10.0,
            classification: (i % 12) as u8,
            ..Default::default()
        })
        .collect();
    pc.append_records(&recs).unwrap();
    pc
}

fn points_catalog(pc: PointCloud) -> Catalog {
    let mut c = Catalog::new();
    c.register_pointcloud("points", Arc::new(pc));
    c
}

fn serve_with_metrics(catalog: Catalog) -> (ServerHandle, SocketAddr) {
    let handle = Server::bind("127.0.0.1:0", catalog)
        .unwrap()
        .with_metrics_addr("127.0.0.1:0")
        .unwrap()
        .spawn()
        .unwrap();
    let metrics = handle.metrics_addr().expect("metrics listener not bound");
    (handle, metrics)
}

/// Minimal HTTP/1.0 GET: returns (status line, body).
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    write!(s, "GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").unwrap();
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let (head, body) = text.split_once("\r\n\r\n").expect("no header/body split");
    let status = head.lines().next().unwrap_or("").to_string();
    (status, body.to_string())
}

#[test]
fn metrics_endpoint_serves_valid_exposition() {
    let (server, metrics) = serve_with_metrics(points_catalog(grid_cloud(5_000)));
    let mut client = Client::connect(server.addr()).unwrap();
    client
        .query_collect("SELECT COUNT(*) FROM points WHERE x < 40")
        .unwrap();

    let (status, body) = http_get(metrics, "/metrics");
    assert!(status.contains("200"), "bad status {status:?}");
    let samples = validate_exposition(&body);
    let queries = samples
        .iter()
        .find(|s| s.name == "lidardb_queries_total")
        .expect("no queries counter in scrape");
    assert!(queries.value >= 1.0);
    server.shutdown();
}

#[test]
fn healthz_reports_ok_and_unknown_paths_404() {
    let (server, metrics) = serve_with_metrics(points_catalog(grid_cloud(1_000)));
    // An idle server is healthy.
    let (status, body) = http_get(metrics, "/healthz");
    assert!(status.contains("200"), "bad status {status:?}");
    assert_eq!(body, "ok\n");
    let (status, _) = http_get(metrics, "/nope");
    assert!(status.contains("404"), "bad status {status:?}");
    // A non-GET request line is rejected, not crashed on.
    let mut s = TcpStream::connect(metrics).unwrap();
    write!(s, "BORK /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut buf = String::new();
    s.read_to_string(&mut buf).unwrap();
    assert!(buf.starts_with("HTTP/1.0 400"), "bad response {buf:?}");
    server.shutdown();
}

// ------------------------------------------- acceptance: sys over wire

/// `SELECT * FROM sys.metrics` over the wire and a `/metrics` scrape
/// render one registry: their counter, gauge and stage name sets are
/// equal in both directions, and every (monotone) counter value seen over
/// the wire is bracketed by registry reads taken before and after it.
#[test]
fn sys_metrics_over_the_wire_matches_the_exposition() {
    let (server, metrics) = serve_with_metrics(points_catalog(grid_cloud(5_000)));
    let mut client = Client::connect(server.addr()).unwrap();
    client
        .query_collect("SELECT COUNT(*) FROM points WHERE x < 40")
        .unwrap();

    let before: BTreeMap<&str, u64> = MetricsRegistry::global()
        .counter_values()
        .into_iter()
        .collect();
    let (columns, rows, _) = client
        .query_collect("SELECT kind, name, value FROM sys.metrics")
        .unwrap();
    let after: BTreeMap<&str, u64> = MetricsRegistry::global()
        .counter_values()
        .into_iter()
        .collect();
    let (status, text) = http_get(metrics, "/metrics");
    assert!(status.contains("200"), "bad status {status:?}");
    let samples = validate_exposition(&text);

    assert_eq!(columns, ["kind", "name", "value"]);
    let mut wire: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    for r in &rows {
        let (SqlValue::Str(kind), SqlValue::Str(name), SqlValue::Int(value)) =
            (&r[0], &r[1], &r[2])
        else {
            panic!("bad sys.metrics row {r:?}");
        };
        let class = match kind.as_str() {
            "counter" => {
                // Counters are monotone: the value seen over the wire must
                // sit between the registry reads bracketing the statement.
                let (lo, hi, v) = (before[name.as_str()], after[name.as_str()], *value as u64);
                assert!(
                    v >= lo && v <= hi,
                    "counter {name}: wire value {v} outside [{lo}, {hi}]"
                );
                "counter"
            }
            "gauge" => "gauge",
            k if k.starts_with("stage_") => "stage",
            other => panic!("unknown sys.metrics kind {other}"),
        };
        wire.entry(class).or_default().insert(name.clone());
    }

    let mut scraped: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix("# TYPE lidardb_") else {
            continue;
        };
        let (family, kind) = rest.split_once(' ').unwrap();
        let name = match kind {
            "counter" if family != "stage_rows_total" => family.strip_suffix("_total").unwrap(),
            "gauge" if family != "uptime_seconds" => family,
            _ => continue,
        };
        scraped.entry(kind).or_default().insert(name.to_string());
    }
    scraped.insert(
        "stage",
        samples
            .iter()
            .filter(|s| s.name == "lidardb_stage_duration_nanoseconds_count")
            .map(|s| s.labels["stage"].clone())
            .collect(),
    );
    assert_eq!(
        wire, scraped,
        "sys.metrics and /metrics name different series"
    );
    server.shutdown();
}
