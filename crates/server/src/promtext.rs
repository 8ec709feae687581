//! Prometheus text exposition (format v0.0.4), hand-rolled.
//!
//! The `/metrics` endpoint renders the whole observability surface as
//! plain text: every registry counter (as a Prometheus `counter` with the
//! conventional `_total` suffix), every gauge, and the per-stage log₂
//! latency histograms as cumulative `_bucket{le="..."}` series. No
//! client library — the format is five line shapes and an escaping rule,
//! and owning the encoder keeps the server dependency-free.
//!
//! Every value is read live from the registry: the scalars by walking
//! [`MetricsRegistry::SERIES`], the list `sys.metrics` walks too, and the
//! stage histograms lock-free. Keeping history is the scraper's job.
//!
//! Exposition rules honoured here (and checked by the validator in
//! `tests/exposition.rs`):
//!
//! * every series is preceded by a `# TYPE` line for its family;
//! * label values escape `\`, `"`, and newline;
//! * histogram buckets are cumulative, `le` ascending, ending in
//!   `+Inf` whose count equals `_count`;
//! * metric names match `[a-zA-Z_:][a-zA-Z0-9_:]*`.

use std::fmt::Write as _;

use lidardb_core::metrics::SeriesKind;
use lidardb_core::{MetricsRegistry, Stage};

/// Content-Type for the scrape response.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Every family is prefixed so lidardb series can't collide with other
/// jobs on the same Prometheus.
const PREFIX: &str = "lidardb";

/// Escape a label value per the exposition format: backslash, double
/// quote, and newline get backslash escapes; everything else passes
/// through (label values are arbitrary UTF-8).
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Coerce a series name into a legal metric-name suffix: legal characters
/// pass through, anything else becomes `_`, and a leading digit gets a
/// `_` prefix. Registry names are already snake_case identifiers; this
/// guards the invariant rather than trusting it.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok { c } else { '_' });
    }
    out
}

/// Render the exposition of `registry`.
pub fn render(registry: &MetricsRegistry) -> String {
    let mut out = String::with_capacity(16 * 1024);

    // Scalars, in series order: counters get the `_total` suffix.
    for series in MetricsRegistry::SERIES {
        let name = sanitize_metric_name(series.name);
        let m = match series.kind {
            SeriesKind::Counter => format!("{PREFIX}_{name}_total"),
            SeriesKind::Gauge => format!("{PREFIX}_{name}"),
        };
        let (kind, v) = (series.kind.name(), series.value(registry));
        let _ = writeln!(out, "# TYPE {m} {kind}\n{m} {v}");
    }
    let m = format!("{PREFIX}_uptime_seconds");
    let _ = writeln!(
        out,
        "# TYPE {m} gauge\n{m} {}",
        registry.uptime_ns() as f64 * 1e-9
    );

    // Per-stage latency histograms, one family with a `stage` label.
    // Bucket b of the log₂ histogram holds calls with ⌊log₂ ns⌋ = b,
    // i.e. ns < 2^(b+1) — so the cumulative upper bound is 2^(b+1).
    let fam = format!("{PREFIX}_stage_duration_nanoseconds");
    let _ = writeln!(out, "# TYPE {fam} histogram");
    let rows_fam = format!("{PREFIX}_stage_rows_total");
    let mut rows_out = format!("# TYPE {rows_fam} counter\n");
    for stage in Stage::ALL {
        let st = registry.stage(stage);
        let label = escape_label_value(stage.name());
        let counts = st.latency.counts();
        let total: u64 = counts.iter().sum();
        // Trailing empty buckets elided; `+Inf` always present.
        let last = counts.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
        let mut cum = 0u64;
        for (b, &c) in counts.iter().enumerate().take(last) {
            cum += c;
            let _ = writeln!(
                out,
                "{fam}_bucket{{stage=\"{label}\",le=\"{}\"}} {cum}",
                1u128 << (b + 1)
            );
        }
        let _ = writeln!(out, "{fam}_bucket{{stage=\"{label}\",le=\"+Inf\"}} {total}");
        let _ = writeln!(out, "{fam}_sum{{stage=\"{label}\"}} {}", st.nanos.get());
        let _ = writeln!(out, "{fam}_count{{stage=\"{label}\"}} {total}");
        let _ = writeln!(
            rows_out,
            "{rows_fam}{{stage=\"{label}\"}} {}",
            st.rows.get()
        );
    }
    out.push_str(&rows_out);
    out
}

// -------------------------------------------------------------- /healthz

/// Queue depth at which `/healthz` reports saturation. The default
/// admission queues in this tree are O(10) deep; a scrape seeing this
/// many queued statements means admission has been shedding or about to.
pub const HEALTH_MAX_QUEUED: u64 = 64;

/// WAL backlog (rows applied but not yet fsynced) at which `/healthz`
/// reports flush lag. Group commit normally drains within one batch
/// window; a backlog this deep means the sync path has stalled.
pub const HEALTH_MAX_WAL_BACKLOG: u64 = 1_000_000;

/// Health verdict from the saturation gauges plus the two fault-domain
/// flags: `(healthy, body)`. A draining server answers 503 so load
/// balancers stop routing to it *before* its listener disappears; a
/// degraded table (read-only after a storage failure) answers 503 so an
/// operator page fires while reads still work. Pure so the thresholds are
/// unit-testable without a listener.
pub fn health_status(
    admission_queued: u64,
    wal_backlog_rows: u64,
    draining: bool,
    degraded_tables: u64,
) -> (bool, String) {
    let mut problems = Vec::new();
    if draining {
        problems.push("draining: server is shutting down".to_string());
    }
    if degraded_tables > 0 {
        problems.push(format!(
            "degraded: {degraded_tables} table(s) read-only after a storage failure"
        ));
    }
    if admission_queued >= HEALTH_MAX_QUEUED {
        problems.push(format!(
            "admission saturated: {admission_queued} queued (limit {HEALTH_MAX_QUEUED})"
        ));
    }
    if wal_backlog_rows >= HEALTH_MAX_WAL_BACKLOG {
        problems.push(format!(
            "wal flush lag: {wal_backlog_rows} rows unsynced (limit {HEALTH_MAX_WAL_BACKLOG})"
        ));
    }
    if problems.is_empty() {
        (true, "ok\n".to_string())
    } else {
        (false, format!("{}\n", problems.join("; ")))
    }
}

/// Health verdict from the live gauges and the answering server's own
/// drain flag. The drain flag is the server's, not the process-wide
/// `server_draining` gauge, so one server's drain never takes another out
/// of rotation.
pub fn health_now(draining: bool) -> (bool, String) {
    let registry = MetricsRegistry::global();
    health_status(
        registry.admission_queued.get(),
        registry.wal_backlog_rows.get(),
        draining,
        registry.degraded_tables.get(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_label_values() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\"b"), "a\\\"b");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
    }

    #[test]
    fn sanitizes_metric_names() {
        assert_eq!(sanitize_metric_name("scan_rows"), "scan_rows");
        assert_eq!(sanitize_metric_name("bad-name"), "bad_name");
        assert_eq!(sanitize_metric_name("9lives"), "__lives");
        assert_eq!(sanitize_metric_name("dots.here"), "dots_here");
    }

    #[test]
    fn renders_every_counter_and_gauge() {
        let text = render(MetricsRegistry::global());
        for (name, _) in MetricsRegistry::global().counter_values() {
            let m = format!("{PREFIX}_{name}_total");
            assert!(text.contains(&format!("# TYPE {m} counter")), "missing {m}");
        }
        let gauges = MetricsRegistry::SERIES
            .iter()
            .filter(|s| s.kind == lidardb_core::metrics::SeriesKind::Gauge);
        for s in gauges {
            let m = format!("{PREFIX}_{}", s.name);
            assert!(text.contains(&format!("# TYPE {m} gauge")), "missing {m}");
        }
        assert!(text.contains("# TYPE lidardb_stage_duration_nanoseconds histogram"));
    }

    #[test]
    fn health_thresholds() {
        assert!(health_status(0, 0, false, 0).0);
        assert!(health_status(HEALTH_MAX_QUEUED - 1, HEALTH_MAX_WAL_BACKLOG - 1, false, 0).0);
        let (ok, body) = health_status(HEALTH_MAX_QUEUED, 0, false, 0);
        assert!(!ok && body.contains("admission saturated"));
        let (ok, body) = health_status(0, HEALTH_MAX_WAL_BACKLOG, false, 0);
        assert!(!ok && body.contains("wal flush lag"));
        let (ok, body) = health_status(HEALTH_MAX_QUEUED, HEALTH_MAX_WAL_BACKLOG, false, 0);
        assert!(!ok && body.contains(';'));
    }

    #[test]
    fn health_fault_domains() {
        // Draining flips health on its own, with a body a load balancer
        // (and a human) can read.
        let (ok, body) = health_status(0, 0, true, 0);
        assert!(!ok && body.contains("draining"));
        // So does any degraded (read-only) table.
        let (ok, body) = health_status(0, 0, false, 2);
        assert!(!ok && body.contains("degraded: 2 table(s)"));
        // Compound failures list every problem.
        let (ok, body) = health_status(HEALTH_MAX_QUEUED, 0, true, 1);
        assert!(!ok && body.contains("draining") && body.contains("degraded"));
        assert!(body.contains("admission saturated"));
    }
}
