#!/usr/bin/env bash
# The full local CI gate: release build, workspace tests, strict lints.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> every crate but the server, whole, debug: lib, integration, doc and bin tests"
cargo test -q --workspace --exclude lidardb-server

echo "==> differential suite at 2 and 8 workers (flat, streaming and tiled shapes vs a brute-force reference; incl. Cancel/Stall faults)"
LIDARDB_WORKERS=2 cargo test -q -p lidardb-core --test differential
LIDARDB_WORKERS=8 cargo test -q -p lidardb-core --test differential

# Debug atomics can hide lost-update bugs behind slow interleavings; run
# every suite under release codegen too (core governance, metrics and trace
# smoke, WAL crash-recovery torture, and the rest of the workspace).
echo "==> every crate but the server, whole, release"
cargo test -q --release --workspace --exclude lidardb-server

echo "==> core builds with tracing compiled out"
cargo check -q -p lidardb-core --no-default-features

echo "==> wire-protocol suites (unit, frame proptests, chaos soak, loopback, disconnect durability)"
cargo test -q -p lidardb-server --lib --test frame_properties --test chaos_soak --test disconnect_durability --test loopback

# `exposition` and `drain` stay serial: they share the global query
# registry (a drain kills every registered query) and the recorder.
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
