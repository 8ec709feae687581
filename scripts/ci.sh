#!/usr/bin/env bash
# The full local CI gate: release build, workspace tests, strict lints.
set -euo pipefail
cd "$(dirname "$0")/.."
REPO="$PWD"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> differential suite: brute-force reference vs 1 worker vs N workers (default, 2 and 8; incl. Cancel/Stall faults)"
cargo test -q -p lidardb-core --test differential
LIDARDB_WORKERS=2 cargo test -q -p lidardb-core --test differential
LIDARDB_WORKERS=8 cargo test -q -p lidardb-core --test differential

echo "==> governance suite (admission, cancellation, slow-log storm) debug + release"
cargo test -q -p lidardb-core --test governance -- --test-threads=1
cargo test -q --release -p lidardb-core --test governance -- --test-threads=1

echo "==> metrics smoke (snapshot JSON parses, stage timers within wall-clock)"
cargo test -q -p lidardb-core --test metrics_smoke -- --test-threads=1
# Debug atomics can hide lost-update bugs behind slow interleavings; run
# the concurrency-exactness checks under release codegen too.
cargo test -q --release -p lidardb-core --test metrics_smoke -- --test-threads=1

echo "==> trace smoke (chrome JSON shape, per-cloud toggle, slow-query log)"
cargo test -q -p lidardb-core --test trace_smoke -- --test-threads=1
cargo test -q --release -p lidardb-core --test trace_smoke -- --test-threads=1

echo "==> core builds with tracing compiled out"
cargo check -q -p lidardb-core --no-default-features

echo "==> decoder-hardening and observability regression tests"
cargo test -q -p lidardb-storage huge_declared_counts_are_rejected_without_allocating
cargo test -q -p lidardb-las absurd_point_count_rejected_without_overflow
cargo test -q -p lidardb-core forged_manifest_row_count_rejected_without_overflow
cargo test -q -p lidardb-core to_table_renders_every_explain_field
cargo test -q -p lidardb-sql explain_analyze
cargo test -q -p lidardb-core --test differential differential_span_trees_serial_vs_parallel
cargo test -q -p lidardb-sql set_trace_session_records_spans_and_shows_slow_queries

echo "==> governance regression tests (typed cancellation, SQL session knobs)"
cargo test -q -p lidardb-core --lib review_regressions
cargo test -q -p lidardb-sql session_governance_statements
cargo test -q -p lidardb-sql cancelled_queries_render_in_show_slow_queries

echo "==> WAL crash-recovery torture suite (fault-injected, debug + release)"
cargo test -q -p lidardb-core --test recovery_torture -- --test-threads=1
cargo test -q --release -p lidardb-core --test recovery_torture -- --test-threads=1

echo "==> WAL property tests (arbitrary tail truncation, single-bit corruption)"
cargo test -q -p lidardb-core --test wal_properties -- --test-threads=1

echo "==> streaming-ingest regression tests (mid-ingest snapshot, SQL INSERT/SHOW RECOVERY)"
cargo test -q -p lidardb-core --test differential differential_mid_ingest_snapshot
cargo test -q -p lidardb-sql insert_is_wal_logged_and_queryable
cargo test -q -p lidardb-sql group_commit_inserts_stay_invisible_until_flushed
cargo test -q -p lidardb-sql show_recovery_reports_the_stream_state

echo "==> tiled out-of-core suite (zone-map prune, LRU residency, flat-v2 fallback)"
cargo test -q -p lidardb-core --test tiles -- --test-threads=1
cargo test -q -p lidardb-sql --test tiled

echo "==> snapshot-watermark regression suite (ghost rows invisible on every query path)"
cargo test -q -p lidardb-core --test snapshot_watermark -- --test-threads=1

echo "==> hostile-input panic sweep (parser/executor fuzz regressions)"
cargo test -q -p lidardb-sql --test hostile_inputs

echo "==> wire-protocol suites (frame proptests, loopback integration, disconnect durability)"
cargo test -q -p lidardb-server --lib
cargo test -q -p lidardb-server --test frame_properties
cargo test -q -p lidardb-server --test loopback -- --test-threads=1
cargo test -q -p lidardb-server --test disconnect_durability -- --test-threads=1

echo "==> introspection plane: flight recorder (seqlock ring, delta decode) debug + release"
cargo test -q -p lidardb-core recorder
cargo test -q --release -p lidardb-core recorder

echo "==> introspection plane: sys.* virtual tables (unit + end-to-end SELECTs)"
cargo test -q -p lidardb-sql sys

echo "==> introspection plane: Prometheus exposition (validator, proptests, scrape, healthz)"
cargo test -q -p lidardb-server --test exposition -- --test-threads=1
cargo test -q --release -p lidardb-server --test exposition -- --test-threads=1

echo "==> morsel-split and gate-hardening regression tests"
cargo test -q -p lidardb-imprints split_rows_degenerate_inputs_yield_no_empty_morsels
cargo test -q -p lidardb-core --test differential differential_degenerate_candidate_sets
cargo test -q -p lidardb-bench negative_p50_in_baseline_is_a_typed_error
cargo test -q -p lidardb-bench nan_and_infinite_p50s_are_typed_errors
cargo test -q -p lidardb-bench fresh_extra_cell_is_a_regression

echo "==> E13 out-of-core smoke (reduced scale; asserts row parity + residency budget)"
E13_SCRATCH="$(mktemp -d)"
(cd "$E13_SCRATCH" && LIDARDB_E13_POINTS=500000 cargo run --release --quiet \
    --manifest-path "$REPO/Cargo.toml" -p lidardb-bench --bin harness -- e13)
rm -rf "$E13_SCRATCH"

echo "==> tiles gate (identity: committed baseline vs itself must pass)"
BENCH_GATE_KIND=tiles BENCH_GATE_FRESH=BENCH_tiles.json scripts/bench_gate.sh

echo "==> tiles gate (negative: a 2x degradation must fail)"
SLOWED_TILES="$(mktemp)"
cargo run --release --quiet -p lidardb-bench --bin bench_gate -- \
    --kind tiles --base BENCH_tiles.json --scale 2.0 --out "$SLOWED_TILES"
if BENCH_GATE_KIND=tiles BENCH_GATE_FRESH="$SLOWED_TILES" scripts/bench_gate.sh; then
    echo "ci FAIL: tiles gate accepted a 2x degradation" >&2
    rm -f "$SLOWED_TILES"
    exit 1
else
    echo "gate correctly rejected the degraded tiled run"
fi
rm -f "$SLOWED_TILES"

echo "==> E11 server smoke (reduced scale; asserts typed outcomes + flat-memory streaming)"
E11_SCRATCH="$(mktemp -d)"
(cd "$E11_SCRATCH" && LIDARDB_E11_POINTS=200000 LIDARDB_E11_CLIENTS=16 \
    cargo run --release --quiet \
    --manifest-path "$REPO/Cargo.toml" -p lidardb-bench --bin harness -- e11)
rm -rf "$E11_SCRATCH"

echo "==> server gate (identity: committed baseline vs itself must pass)"
BENCH_GATE_KIND=server BENCH_GATE_FRESH=BENCH_server.json scripts/bench_gate.sh

echo "==> server gate (negative: a 2x degradation must fail)"
SLOWED_SERVER="$(mktemp)"
cargo run --release --quiet -p lidardb-bench --bin bench_gate -- \
    --kind server --base BENCH_server.json --scale 2.0 --out "$SLOWED_SERVER"
if BENCH_GATE_KIND=server BENCH_GATE_FRESH="$SLOWED_SERVER" scripts/bench_gate.sh; then
    echo "ci FAIL: server gate accepted a 2x degradation" >&2
    rm -f "$SLOWED_SERVER"
    exit 1
else
    echo "gate correctly rejected the degraded server run"
fi
rm -f "$SLOWED_SERVER"

echo "==> E14 observability smoke (reduced scale; asserts shed-free burst + live scrapes)"
E14_SCRATCH="$(mktemp -d)"
(cd "$E14_SCRATCH" && LIDARDB_E14_POINTS=200000 LIDARDB_E14_CLIENTS=16 \
    cargo run --release --quiet \
    --manifest-path "$REPO/Cargo.toml" -p lidardb-bench --bin harness -- e14)
rm -rf "$E14_SCRATCH"

echo "==> obs gate (identity: committed baseline vs itself must pass)"
BENCH_GATE_KIND=obs BENCH_GATE_FRESH=BENCH_obs.json scripts/bench_gate.sh

echo "==> obs gate (negative: a 2x-degraded recorder must fail)"
SLOWED_OBS="$(mktemp)"
cargo run --release --quiet -p lidardb-bench --bin bench_gate -- \
    --kind obs --base BENCH_obs.json --scale 2.0 --out "$SLOWED_OBS"
if BENCH_GATE_KIND=obs BENCH_GATE_FRESH="$SLOWED_OBS" scripts/bench_gate.sh; then
    echo "ci FAIL: obs gate accepted a 2x-degraded recorder run" >&2
    rm -f "$SLOWED_OBS"
    exit 1
else
    echo "gate correctly rejected the degraded observability run"
fi
rm -f "$SLOWED_OBS"

echo "==> fault-domain suites (graceful drain, retrying client, idempotency, disk-full)"
cargo test -q -p lidardb-server --test drain -- --test-threads=1
cargo test -q -p lidardb-core --test idempotency_ledger -- --test-threads=1
cargo test -q -p lidardb-core --test disk_full -- --test-threads=1

echo "==> E15 chaos smoke (reduced scale; asserts exactly-once through proxy + drains + disk-full)"
E15_SCRATCH="$(mktemp -d)"
(cd "$E15_SCRATCH" && LIDARDB_E15_CLIENTS=2 LIDARDB_E15_BATCHES=12 LIDARDB_E15_CYCLES=3 \
    cargo run --release --quiet \
    --manifest-path "$REPO/Cargo.toml" -p lidardb-bench --bin harness -- e15)
rm -rf "$E15_SCRATCH"

echo "==> chaos gate (identity: committed baseline vs itself must pass)"
BENCH_GATE_KIND=chaos BENCH_GATE_FRESH=BENCH_chaos.json scripts/bench_gate.sh

echo "==> chaos gate (negative: injected loss + 2x latency must fail)"
SLOWED_CHAOS="$(mktemp)"
cargo run --release --quiet -p lidardb-bench --bin bench_gate -- \
    --kind chaos --base BENCH_chaos.json --scale 2.0 --out "$SLOWED_CHAOS"
if BENCH_GATE_KIND=chaos BENCH_GATE_FRESH="$SLOWED_CHAOS" scripts/bench_gate.sh; then
    echo "ci FAIL: chaos gate accepted lost/duplicated inserts" >&2
    rm -f "$SLOWED_CHAOS"
    exit 1
else
    echo "gate correctly rejected the lossy chaos run"
fi
rm -f "$SLOWED_CHAOS"

echo "==> E12 ingest smoke (reduced scale; asserts snapshot isolation + recovery)"
E12_SCRATCH="$(mktemp -d)"
(cd "$E12_SCRATCH" && LIDARDB_E12_POINTS=30000 cargo run --release --quiet \
    --manifest-path "$REPO/Cargo.toml" -p lidardb-bench --bin harness -- e12)
rm -rf "$E12_SCRATCH"

echo "==> ingest gate (identity: committed baseline vs itself must pass)"
BENCH_GATE_KIND=ingest BENCH_GATE_FRESH=BENCH_ingest.json scripts/bench_gate.sh

echo "==> ingest gate (negative: a 2x degradation must fail)"
SLOWED_INGEST="$(mktemp)"
cargo run --release --quiet -p lidardb-bench --bin bench_gate -- \
    --kind ingest --base BENCH_ingest.json --scale 2.0 --out "$SLOWED_INGEST"
if BENCH_GATE_KIND=ingest BENCH_GATE_FRESH="$SLOWED_INGEST" scripts/bench_gate.sh; then
    echo "ci FAIL: ingest gate accepted a 2x degradation" >&2
    rm -f "$SLOWED_INGEST"
    exit 1
else
    echo "gate correctly rejected the degraded ingest run"
fi
rm -f "$SLOWED_INGEST"

echo "==> perf-regression gate (identity: committed baseline vs itself must pass)"
BENCH_GATE_FRESH=BENCH_query.json scripts/bench_gate.sh

echo "==> perf-regression gate (negative: a 2x slowdown must fail)"
SLOWED="$(mktemp)"
trap 'rm -f "$SLOWED"' EXIT
cargo run --release --quiet -p lidardb-bench --bin bench_gate -- \
    --base BENCH_query.json --scale 2.0 --out "$SLOWED"
if BENCH_GATE_FRESH="$SLOWED" scripts/bench_gate.sh; then
    echo "ci FAIL: bench gate accepted a 2x slowdown" >&2
    exit 1
else
    echo "gate correctly rejected the slowed run"
fi

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> ci OK"
