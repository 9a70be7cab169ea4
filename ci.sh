#!/usr/bin/env bash
# The full CI gate, runnable locally. The workspace is hermetic — every
# dependency is an in-tree path crate — so all steps run offline.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --workspace --release --offline

echo "==> cargo test"
cargo test --workspace -q --offline

echo "==> fault injection: golden trace, runner isolation, recovery acceptance"
cargo test -p nomc-integration-tests --test trace_golden_faults -q --offline
cargo test -p nomc-experiments --lib -q --offline runner::
cargo test -p nomc-experiments --lib -q --offline kill_reboot

echo "==> snapshot/restore: mid-run checkpoint byte identity"
# The DESIGN.md §14 contract: run-to-event-K, snapshot, restore,
# run-to-end is byte-identical to an uninterrupted run — serial,
# sharded, and with every fault type in flight — and corrupt snapshots
# are typed errors, never panics.
cargo test -p nomc-integration-tests --test snapshot_resume -q --offline
cargo test -p nomc-experiments --lib -q --offline checkpoint::

echo "==> sweep crash safety: kill-and-resume must be byte-identical"
# Thread-count matrix: sweep determinism must hold whether the test
# binary serializes the suites or races them — any shared mutable state
# between parameter points shows up as a flake under 2/8. The
# sweep_crash suite SIGKILLs real sweep processes both between members
# (journal replay) and mid-member (restart from the last engine
# checkpoint) and requires the resumed report byte-identical.
for threads in 1 2 8; do
  echo "    --test-threads $threads"
  cargo test -p nomc-experiments --lib -q --offline sweep:: -- --test-threads "$threads"
done
cargo test -p nomc-cli --test sweep_crash -q --offline

echo "==> sharded-engine determinism: golden traces byte-identical at every shard count"
# The clean and faulted two-network fixtures pin the serial engine's
# event history; the sharded engine must reproduce them byte for byte on
# 1/2/4/8 worker threads (one interaction component, so this also pins
# the single-component delegation path). The four-network partitioned
# faulted fixture rides in trace_golden_faults and pins the
# componentized path — per-shard seeds, cross-shard fault routing — at
# the same shard counts.
for shards in 1 2 4 8; do
  echo "    --shards $shards"
  NOMC_SHARDS="$shards" cargo test -p nomc-integration-tests \
    --test trace_golden --test trace_golden_faults -q --offline
done
cargo test -p nomc-integration-tests --test shard_determinism -q --offline

echo "==> ext_fault_recovery smoke (quick sweep must recover at every duty)"
cargo run -p nomc-experiments --release --offline --bin fault_recovery -- --quick

echo "==> paper golden: all_experiments --quick --json matches the committed fixture byte for byte"
# tests/fixtures/paper_quick.json pins every number of the quick paper
# run; any change to a simulated result or a report's formatting shows
# up here as a byte difference.
PAPER_JSON="$(mktemp)"
./target/release/all_experiments --quick --json "$PAPER_JSON" > /dev/null
cmp "$PAPER_JSON" tests/fixtures/paper_quick.json \
  || { echo "paper run drifted from tests/fixtures/paper_quick.json"; exit 1; }
rm -f "$PAPER_JSON"

echo "==> serve smoke (submit, wait, resubmit hits cache, SIGTERM drains)"
# Live end-to-end pass over the results server: a job submitted twice
# must come back byte-identical without re-simulating, and SIGTERM must
# drain to exit code 0. The SIGKILL chaos path rides in the
# serve_chaos test suite (cargo test above).
SERVE_STATE="$(mktemp -d)"
SERVE_SCENARIO="$SERVE_STATE/scenario.json"
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$SERVE_STATE"' EXIT
./target/release/nomc generate line "$SERVE_SCENARIO"
./target/release/nomc serve --state-dir "$SERVE_STATE" --addr 127.0.0.1:0 &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -s "$SERVE_STATE/serve.addr" ] && break
  sleep 0.1
done
SERVE_ADDR="$(cat "$SERVE_STATE/serve.addr")"
./target/release/nomc submit "$SERVE_SCENARIO" --addr "$SERVE_ADDR" \
  --seeds 1,2 --wait --report "$SERVE_STATE/report_a.json"
./target/release/nomc submit "$SERVE_SCENARIO" --addr "$SERVE_ADDR" \
  --seeds 1,2 --wait --report "$SERVE_STATE/report_b.json" \
  | grep -q '"cached":true' || { echo "resubmit missed the cache"; exit 1; }
cmp "$SERVE_STATE/report_a.json" "$SERVE_STATE/report_b.json" \
  || { echo "cached report not byte-identical"; exit 1; }
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || { echo "SIGTERM drain exited nonzero"; exit 1; }
trap - EXIT
rm -rf "$SERVE_STATE"

echo "==> bench smoke (single iteration, no report written)"
cargo bench -p nomc-bench --bench sim --offline -- --test
cargo bench -p nomc-bench --bench lint --offline -- --test
cargo bench -p nomc-bench --bench serve --offline -- --test

echo "==> bench guard (every committed BENCH_*.json within its committed budget)"
# The committed BENCH_<group>.json files are the perf-trajectory record;
# bench_guard checks every bench in every group against the per-bench
# mean_ns budgets in crates/bench/bench_budgets.json, and fails on
# unbudgeted or silently-dropped benches too.
cargo run -p nomc-bench --release --offline --quiet --bin bench_guard

echo "==> benchmark suite (perfbench/, its own package)"
# perfbench drives the public APIs (experiments, sweep, the results
# server) from outside the workspace, so an API change that breaks the
# benchmark client fails here rather than in a benchmark run.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo doc (no deps, warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --quiet

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> nomc-lint: all eight rules, zero findings"
cargo run -p nomc-lint --release --offline --quiet -- .

echo "==> nomc-lint --format json vs committed allow inventory"
# The committed crates/lint/allows_golden.json is the honest record of
# every live escape hatch (target: none). A new allow directive — even
# one that suppresses a real finding — changes the JSON report and
# fails this diff until it is committed and justified in DESIGN.md §8.
cargo run -p nomc-lint --release --offline --quiet -- --format json . \
  | diff -u crates/lint/allows_golden.json - \
  || { echo "lint inventory drifted from crates/lint/allows_golden.json"; exit 1; }

echo "CI OK"
