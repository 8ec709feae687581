#!/usr/bin/env bash
# The full local CI gate: release build, workspace tests, strict lints.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> index, storage, geometry, LAS, SFC and baseline crates, whole: unit and property suites"
cargo test -q -p lidardb-imprints -p lidardb-storage -p lidardb-geom -p lidardb-las -p lidardb-sfc -p lidardb-baselines

echo "==> core unit tests (explain table, typed cancellation, flight recorder, manifest hardening) debug + release"
cargo test -q -p lidardb-core --lib
cargo test -q --release -p lidardb-core --lib

echo "==> SQL layer, whole crate: unit, end_to_end, tiled, hostile_inputs, parser properties"
cargo test -q -p lidardb-sql

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

echo "==> trace smoke (chrome JSON shape, per-thread guard, slow-query log)"
cargo test -q -p lidardb-core --test trace_smoke -- --test-threads=1
cargo test -q --release -p lidardb-core --test trace_smoke -- --test-threads=1

echo "==> core builds with tracing compiled out"
cargo check -q -p lidardb-core --no-default-features

echo "==> storage suites: WAL crash-recovery torture (debug + release), WAL and dump bit-flip properties, tiles, tiled admission, snapshot watermark, idempotency, disk-full"
cargo test -q -p lidardb-core --test recovery_torture --test wal_properties --test durability \
    --test tiles --test tiled_admission --test snapshot_watermark --test idempotency_ledger --test disk_full
cargo test -q --release -p lidardb-core --test recovery_torture

echo "==> wire-protocol suites (unit, frame proptests, chaos soak, loopback, disconnect durability)"
cargo test -q -p lidardb-server --lib --test frame_properties --test chaos_soak --test disconnect_durability
cargo test -q -p lidardb-server --test loopback -- --test-threads=1

echo "==> introspection plane: Prometheus exposition (validator, proptests, scrape, healthz)"
cargo test -q -p lidardb-server --test exposition -- --test-threads=1
cargo test -q --release -p lidardb-server --test exposition -- --test-threads=1

echo "==> graceful drain and the retrying client"
cargo test -q -p lidardb-server --test drain -- --test-threads=1

echo "==> benchmark smoke (the four BENCHMARK.json workloads, oracle-checked, 1 s each)"
for w in nav_flat nav_tiled adhoc_refine ingest_mixed; do
    cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$w" --seed 1 --seconds 1 --smoke
done

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> ci OK"
