#!/usr/bin/env bash
# The full local CI gate: rustfmt, release build, every suite of the
# workspace in debug and release under the default parallel runner, strict
# rustdoc links, strict lints.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo build --release"
cargo build --release

echo "==> every crate, whole, debug: lib, integration, doc and bin tests"
cargo test -q --workspace

# Debug atomics can hide lost-update bugs behind slow interleavings; run
# every suite under release codegen too.
echo "==> every crate, whole, release"
cargo test -q --release --workspace

echo "==> differential suite at 2 and 8 workers (every storage shape vs the brute-force model)"
LIDARDB_WORKERS=2 cargo test -q -p lidardb-core --test differential
LIDARDB_WORKERS=8 cargo test -q -p lidardb-core --test differential

echo "==> harness e1: binary loader vs the CSV route, block store and file-based ETL"
cargo run -q --release -p lidardb-bench --bin harness -- e1

echo "==> harness e4: every refinement strategy returns the exhaustive strategy's rows"
cargo run -q --release -p lidardb-bench --bin harness -- e4

echo "==> scenario 2 on the full scene: a join GROUP BY ... ORDER BY, a multi-aggregate fold, EXPLAIN ANALYZE"
cargo run -q --release --example scenario2_adhoc_queries

echo "==> core with tracing compiled out: stage guards still feed the registry"
cargo test -q -p lidardb-core --no-default-features --test metrics_smoke

echo "==> benchmark smoke (the four BENCHMARK.json workloads, oracle-checked, 1 s each, untraced and traced)"
for w in nav_flat nav_tiled adhoc_refine ingest_mixed; do for t in 0 1; do
    cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$w" --seed 1 --seconds 1 --smoke --trace "$t"
done; done

echo "==> rustdoc with warnings denied: no dangling or private doc links"
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> ci OK"
