#!/usr/bin/env bash
# Full verification gate for the workspace: release build, test suite,
# lint wall (clippy with warnings promoted to errors), and format check.
# Runs offline — the workspace has no external dependencies.
#
#   scripts/verify.sh
#
# Clippy and rustfmt are optional toolchain components; if one is missing
# (minimal containers), its step is skipped with a notice instead of
# failing the whole gate.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release --offline --workspace

echo "== cargo test =="
cargo test -q --offline --workspace

echo "== alloc-free under counter tracing =="
GSI_TRACE_LEVEL=counters cargo test -q --offline --test alloc_free

echo "== engine differential (dense vs event, counters tracing) =="
# The event-driven calendar must be bit-identical to the dense loop on
# every workload, both protocols and schedulers, chaos seeds and
# asymmetric SM occupancy included; counters-level tracing also compares
# the recorded event-count vectors.
GSI_TRACE_LEVEL=counters cargo test -q --offline --release --test engine_diff

echo "== perf smoke (event engine vs dense: memory-bound and uts/gpu) =="
# Release-only wall-clock assertions: the calendar's wake evaluation must
# not cost more than the dead cycles it skips on a memory-bound workload,
# and per-core sleeping must keep the event engine >= 1.3x dense on
# paper-scale UTS, the compute-bound row it used to lose.
cargo test -q --offline --release --test engine_perf -- --ignored

echo "== perf bench (paper scale, BENCH_PR<n>.json) =="
# Every PR leaves a same-machine baseline so the perf trajectory has no
# holes. The PR number is the successor of the highest recorded in
# CHANGES.md; set GSI_PR to override. Serial (--threads 1) so rows don't
# contend and stay comparable across PRs; best-of-3 (--repeat 3) so a
# noisy neighbor on a shared host can't poison a row.
PR="${GSI_PR:-$(( $(sed -n 's/^- PR \([0-9]*\):.*/\1/p' CHANGES.md | sort -n | tail -1) + 1 ))}"
cargo run --release --offline --quiet -p gsi-bench --bin sweep -- \
    --scale paper --threads 1 --trace-level off --repeat 3 --blame --quiet \
    --out "BENCH_PR${PR}.json"
echo "wrote BENCH_PR${PR}.json"

echo "== serve (cold / cached / checkpoint+resume / clean shutdown) =="
# The service must answer a repeated identical request from the
# content-addressed cache (the result frame carries "cached":true), hand
# back a snapshot digest from a checkpoint request that a resume request
# can replay, and exit 0 on a shutdown request. The smoke client merges
# round-trip latencies into BENCH_PR<n>.json under a "serve" key.
SERVE_DIR=$(mktemp -d /tmp/gsi_serve_verify.XXXXXX)
trap 'rm -rf "$SERVE_DIR"' EXIT
./target/release/gsi-serve --listen 127.0.0.1:0 --cache-dir "$SERVE_DIR/cache" \
    > "$SERVE_DIR/server.log" &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/^LISTENING //p' "$SERVE_DIR/server.log")
    [ -n "$ADDR" ] && break
    sleep 0.1
done
if [ -z "$ADDR" ]; then
    echo "serve: server never reported LISTENING" >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
fi
./target/release/serve-client --addr "$ADDR" --timing --bench "BENCH_PR${PR}.json" \
    --request '{"id":1,"op":"simulate","workload":"spmv"}' \
    --request '{"id":2,"op":"simulate","workload":"spmv"}' \
    --request '{"id":3,"op":"checkpoint","workload":"reduction","at_cycle":500}' \
    --request '{"id":6,"op":"analyze","workload":"spmv","protocol":"denovo"}' \
    --request '{"id":7,"op":"analyze","workload":"spmv","protocol":"denovo"}' \
    > "$SERVE_DIR/client.log"
grep '"id":1' "$SERVE_DIR/client.log" | grep -q '"cached":false' \
    || { echo "serve: cold request unexpectedly cached" >&2; exit 1; }
grep '"id":2' "$SERVE_DIR/client.log" | grep -q '"cached":true' \
    || { echo "serve: repeated request missed the cache" >&2; exit 1; }
# The analyze op (race verifier included) answers over the wire and its
# report participates in the content-addressed cache like any result.
grep '"id":6' "$SERVE_DIR/client.log" | grep -q '"analysis"' \
    || { echo "serve: analyze op returned no analysis report" >&2; exit 1; }
grep '"id":6' "$SERVE_DIR/client.log" | grep -q '"cached":false' \
    || { echo "serve: cold analyze unexpectedly cached" >&2; exit 1; }
grep '"id":7' "$SERVE_DIR/client.log" | grep -q '"cached":true' \
    || { echo "serve: repeated analyze missed the cache" >&2; exit 1; }
SNAP=$(sed -n 's/.*"snapshot":"\([0-9a-f]\{32\}\)".*/\1/p' "$SERVE_DIR/client.log" | head -n 1)
if [ -z "$SNAP" ]; then
    echo "serve: checkpoint returned no snapshot digest" >&2
    exit 1
fi
./target/release/serve-client --addr "$ADDR" --timing --bench "BENCH_PR${PR}.json" \
    --request "{\"id\":4,\"op\":\"resume\",\"workload\":\"reduction\",\"snapshot\":\"$SNAP\"}" \
    --request '{"id":5,"op":"shutdown"}' \
    >> "$SERVE_DIR/client.log"
grep '"id":4' "$SERVE_DIR/client.log" | grep -q '"resumed_from_cycle":500' \
    || { echo "serve: resume did not restart from the checkpoint cycle" >&2; exit 1; }
wait "$SERVE_PID" \
    || { echo "serve: server exited non-zero after shutdown" >&2; exit 1; }
rm -rf "$SERVE_DIR"
trap - EXIT
echo "serve: cold, cached, checkpoint/resume, shutdown all OK"

echo "== shard (chaos sweep, supervisor SIGKILL midway, resume, byte-identical) =="
# The sharded sweep driver must survive everything at once: workers
# randomly SIGKILLed (--chaos-kill, pinned seed), the supervisor itself
# SIGKILLed mid-sweep, then a --resume that replays the fsync'd journal.
# The recovered figures and rows must be byte-identical to a clean,
# failure-free run of the same plan, with no unit merged twice. The
# deterministic rows also land in BENCH_PR<n>.json under "shard".
SHARD_DIR=$(mktemp -d /tmp/gsi_shard_verify.XXXXXX)
trap 'rm -rf "$SHARD_DIR"' EXIT
./target/release/gsi-shard --plan scripts/shard_plan_small.json \
    --out "$SHARD_DIR/clean" --workers 2 --quiet
./target/release/gsi-shard --plan scripts/shard_plan_small.json \
    --out "$SHARD_DIR/chaos" --workers 1 --chaos-kill 0.3 --chaos-seed 20260808 \
    --quiet &
SHARD_PID=$!
# Kill the supervisor once at least one outcome is journaled (header +
# one unit record); best-effort — a very fast sweep may finish first,
# in which case the resume below exercises the complete-journal path.
for _ in $(seq 1 200); do
    LINES=$(wc -l 2>/dev/null < "$SHARD_DIR/chaos/journal.jsonl" || echo 0)
    [ "$LINES" -ge 2 ] && break
    sleep 0.05
done
kill -9 "$SHARD_PID" 2>/dev/null || true
wait "$SHARD_PID" 2>/dev/null || true
./target/release/gsi-shard --plan scripts/shard_plan_small.json \
    --out "$SHARD_DIR/chaos" --resume --workers 2 --chaos-kill 0.3 \
    --chaos-seed 20260808 --quiet --bench "BENCH_PR${PR}.json"
cmp "$SHARD_DIR/clean/figures.txt" "$SHARD_DIR/chaos/figures.txt" \
    || { echo "shard: resumed figures differ from the clean run" >&2; exit 1; }
cmp "$SHARD_DIR/clean/rows.json" "$SHARD_DIR/chaos/rows.json" \
    || { echo "shard: resumed rows differ from the clean run" >&2; exit 1; }
DUPES=$(grep -o '"unit": [0-9]*' "$SHARD_DIR/chaos/rows.json" | sort | uniq -d)
[ -z "$DUPES" ] \
    || { echo "shard: units merged twice: $DUPES" >&2; exit 1; }
grep -q '"status": "complete"' "$SHARD_DIR/chaos/manifest.json" \
    || { echo "shard: manifest not complete after resume" >&2; exit 1; }
rm -rf "$SHARD_DIR"
trap - EXIT
echo "shard: chaos + supervisor kill + resume byte-identical to clean run"

echo "== blame attribution (export + schema + conservation) =="
# Two memory-bound workloads export a blame report each; blame-check
# validates the schema and asserts the ranked shares sum to 100%.
for w in spmv bfs; do
    cargo run --release --offline --quiet -p gsi-bench --bin gsi-run -- \
        --workload "$w" --blame --quiet --blame-out "/tmp/gsi_blame_${w}.json"
    cargo run --release --offline --quiet -p gsi-bench --bin blame-check -- \
        "/tmp/gsi_blame_${w}.json"
    rm -f "/tmp/gsi_blame_${w}.json"
done

echo "== chaos sweep (fixed seed, zero escaped panics, conservation on) =="
# Every experiment runs under all fault kinds; any panic, simulation
# failure, or conservation violation fails the sweep (non-zero exit).
GSI_CHAOS_SEED=20260805 cargo run --release --offline --quiet -p gsi-bench --bin sweep -- \
    --scale small --quiet --out /tmp/gsi_chaos_verify.json
rm -f /tmp/gsi_chaos_verify.json

echo "== static analysis (all workloads, both protocols, race gate on) =="
# The deny gate must never refuse a legitimate launch: every in-tree
# workload — including the whole-scenario race verifier — analyzes with
# zero error-severity findings (exit 1 otherwise) under both coherence
# protocols, with no baseline needed.
cargo run --release --offline --quiet -p gsi-bench --bin analyze -- --all --quiet
cargo run --release --offline --quiet -p gsi-bench --bin analyze -- \
    --all --quiet --protocol denovo
cargo run --release --offline --quiet -p gsi-bench --bin analyze -- \
    --all --quiet --protocol denovo --scale paper

echo "== DRF gate + baseline round-trip (racy kernel denied, then admitted) =="
# A deliberately racy kernel must be denied under DeNovo (exit 1), a
# --write-baseline of its findings must admit it (exit 0), and disabling
# the race pass must drop exactly the race findings.
RACE_DIR=$(mktemp -d /tmp/gsi_race_verify.XXXXXX)
trap 'rm -rf "$RACE_DIR"' EXIT
printf '.kernel racy\n0: ldi r1, 1048576\n1: st.g [r1+0], 1\n2: exit\n' \
    > "$RACE_DIR/racy.gsi"
if ./target/release/analyze --workload custom --asm "$RACE_DIR/racy.gsi" \
    --blocks 2 --warps 2 --protocol denovo --quiet \
    --write-baseline "$RACE_DIR/baseline.json"; then
    echo "race gate: racy kernel passed the DeNovo gate" >&2; exit 1
fi
./target/release/analyze --workload custom --asm "$RACE_DIR/racy.gsi" \
    --blocks 2 --warps 2 --protocol denovo --quiet \
    --baseline "$RACE_DIR/baseline.json" \
    || { echo "race gate: baseline did not admit the racy kernel" >&2; exit 1; }
./target/release/analyze --workload custom --asm "$RACE_DIR/racy.gsi" \
    --blocks 2 --warps 2 --protocol denovo --quiet --no-races \
    || { echo "race gate: --no-races still denied the kernel" >&2; exit 1; }
rm -rf "$RACE_DIR"
trap - EXIT
echo "race gate: deny / baseline-admit / --no-races all OK"

if cargo clippy --version >/dev/null 2>&1; then
    echo "== cargo clippy (-D warnings) =="
    cargo clippy --offline --workspace --all-targets -- -D warnings
else
    echo "== cargo clippy: not installed, skipping =="
fi

if cargo fmt --version >/dev/null 2>&1; then
    echo "== cargo fmt --check =="
    cargo fmt --check
else
    echo "== cargo fmt: not installed, skipping =="
fi

echo "verify: OK"
