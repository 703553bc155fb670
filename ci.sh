#!/usr/bin/env bash
# Local CI: formatting, lints, the test suite, and end-to-end smoke checks.
#
# Usage: ./ci.sh
#
# Everything runs offline against the vendored dependency stubs; no network
# access is required.

set -euo pipefail
cd "$(dirname "$0")"

run() {
    echo
    echo "==> $*"
    "$@"
}

run cargo fmt --all --check

run cargo clippy --offline --workspace --all-targets -- -D warnings
run cargo test --offline --workspace -q

# Criterion benches in check mode: every bench body must still execute
# (one iteration, no timing) so `cargo bench` stays runnable without
# paying for a measurement run.
run cargo bench --offline -q -p aqua-bench -- --test

# Parallel-runner determinism smoke test: one figure binary on a two-workload
# subset, serial vs two workers, must emit byte-identical CSVs.
smoke() {
    local jobs="$1" out="$2"
    echo
    echo "==> smoke: fig06_migrations with AQUA_BENCH_JOBS=$jobs"
    AQUA_BENCH_WORKLOADS=povray,xz AQUA_BENCH_EPOCHS=1 AQUA_BENCH_JOBS="$jobs" \
        cargo run --offline -q -p aqua-bench --bin fig06_migrations >/dev/null
    cp target/experiments/fig06_migrations.csv "$out"
}
smoke 1 target/experiments/fig06_smoke_serial.csv
smoke 2 target/experiments/fig06_smoke_parallel.csv
run diff target/experiments/fig06_smoke_serial.csv target/experiments/fig06_smoke_parallel.csv

# Sharded multi-channel determinism smoke: the same figure on a 4-channel
# topology with 1 vs 4 shard workers must emit byte-identical CSVs — the
# cross-shard merge must not leak thread scheduling into results.
shard_smoke() {
    local workers="$1" out="$2"
    echo
    echo "==> smoke: fig06_migrations with AQUA_BENCH_CHANNELS=4 AQUA_BENCH_SHARD_WORKERS=$workers"
    AQUA_BENCH_WORKLOADS=povray,xz AQUA_BENCH_EPOCHS=1 AQUA_BENCH_CHANNELS=4 \
        AQUA_BENCH_SHARD_WORKERS="$workers" \
        cargo run --offline -q --release -p aqua-bench --bin fig06_migrations >/dev/null
    cp target/experiments/fig06_migrations.csv "$out"
}
shard_smoke 1 target/experiments/fig06_shard_serial.csv
shard_smoke 4 target/experiments/fig06_shard_parallel.csv
run diff target/experiments/fig06_shard_serial.csv target/experiments/fig06_shard_parallel.csv

# Seeded fault-injection smoke test: two campaigns with the same seed must
# emit byte-identical CSVs (and exit zero, i.e. no unaccounted corruptions).
fault_smoke() {
    local out="$1"
    echo
    echo "==> smoke: fault_campaign --seed 7 -> $out"
    AQUA_BENCH_WORKLOADS=mcf cargo run --offline -q --release -p aqua-bench \
        --bin fault_campaign -- --seed 7 --epochs 1 --rates 0,8 --out "$out" >/dev/null
}
fault_smoke fault_smoke_first
fault_smoke fault_smoke_replay
run diff target/experiments/fault_smoke_first.csv target/experiments/fault_smoke_replay.csv

# Checkpoint/resume smoke: interrupt a fault campaign halfway (the journal's
# AQUA_BENCH_DIE_AFTER test hook exits 3 once 4 of the 8 cells are durable),
# resume it with the same journal, and require the final CSV to be
# byte-identical to the uninterrupted reference (DESIGN.md section 14).
resume_args=(--seed 7 --epochs 1 --rates 0,8)
resume_journal=target/experiments/ci_resume_journal.jsonl
rm -f "$resume_journal"
echo
echo "==> smoke: fault_campaign uninterrupted reference"
AQUA_BENCH_WORKLOADS=mcf cargo run --offline -q --release -p aqua-bench \
    --bin fault_campaign -- "${resume_args[@]}" --out ci_resume_ref >/dev/null
echo
echo "==> smoke: fault_campaign killed after 4 durable cells (expect exit 3)"
if AQUA_BENCH_WORKLOADS=mcf AQUA_BENCH_DIE_AFTER=4 cargo run --offline -q --release \
    -p aqua-bench --bin fault_campaign -- "${resume_args[@]}" --out ci_resume_out \
    --resume "$resume_journal" >/dev/null 2>&1; then
    echo "ERROR: campaign was not interrupted by AQUA_BENCH_DIE_AFTER" >&2
    exit 1
fi
echo "campaign died mid-run as instructed"
echo
echo "==> smoke: resumed campaign must replay and finish byte-identical"
AQUA_BENCH_WORKLOADS=mcf cargo run --offline -q --release -p aqua-bench \
    --bin fault_campaign -- "${resume_args[@]}" --out ci_resume_out \
    --resume "$resume_journal" >/dev/null
run diff target/experiments/ci_resume_ref.csv target/experiments/ci_resume_out.csv

# Quarantine must-fail: a chaos-sabotaged cell (panics on its first attempt,
# then completes — the determinism probe cannot reproduce the failure) is
# quarantined as nondeterministic. That is a warning with exit 0 by default
# and a hard failure under --strict; both behaviours are load-bearing.
echo
echo "==> smoke: quarantined cell warns by default, fails under --strict"
AQUA_BENCH_WORKLOADS=mcf cargo run --offline -q --release -p aqua-bench \
    --bin fault_campaign -- --seed 7 --epochs 1 --rates 0 --out ci_chaos \
    --chaos-cell aqua-sram/mcf >/dev/null
if AQUA_BENCH_WORKLOADS=mcf cargo run --offline -q --release -p aqua-bench \
    --bin fault_campaign -- --seed 7 --epochs 1 --rates 0 --out ci_chaos \
    --chaos-cell aqua-sram/mcf --strict >/dev/null 2>&1; then
    echo "ERROR: --strict did not fail on a quarantined cell" >&2
    exit 1
fi
echo "quarantine is a warning by default and fatal under --strict"

# Live metrics plane smoke: the same seeded campaign served over
# --metrics-addr must be scrapeable mid-run — a well-formed Prometheus
# exposition on /metrics with live sim.requests samples and a parseable
# /healthz — and still emit a CSV byte-identical to the plane-less
# fault_smoke reference above (the plane is an observer, never a
# participant; DESIGN.md section 16).
echo
echo "==> metrics plane smoke: scrape /metrics and /healthz mid-sweep"
cargo build --offline -q --release -p aqua-bench --bin monitor --bin fault_campaign
metrics_addr_file=target/experiments/ci_metrics_addr.txt
metrics_scrape=target/experiments/ci_metrics_scrape.txt
rm -f "$metrics_addr_file"
AQUA_BENCH_WORKLOADS=mcf AQUA_METRICS_PORT_FILE="$metrics_addr_file" \
AQUA_METRICS_LINGER_MS=4000 \
    target/release/fault_campaign \
    --seed 7 --epochs 1 --rates 0,8 --out ci_metrics_smoke \
    --metrics-addr 127.0.0.1:0 >/dev/null 2>&1 &
metrics_pid=$!
for _ in $(seq 1 300); do [ -s "$metrics_addr_file" ] && break; sleep 0.1; done
if [ ! -s "$metrics_addr_file" ]; then
    echo "ERROR: metrics plane never published its address" >&2
    exit 1
fi
metrics_addr=$(cat "$metrics_addr_file")
scraped=0
for _ in $(seq 1 600); do
    if target/release/monitor --addr "$metrics_addr" --once --raw \
        >"$metrics_scrape" 2>/dev/null \
        && grep -q '^aqua_sim_requests_total{' "$metrics_scrape"; then
        scraped=1
        break
    fi
    sleep 0.2
done
if [ "$scraped" != 1 ]; then
    echo "ERROR: no live sim.requests sample scraped from /metrics" >&2
    kill "$metrics_pid" 2>/dev/null || true
    exit 1
fi
grep -q '^# TYPE aqua_up gauge' "$metrics_scrape"
grep -q '^aqua_up 1' "$metrics_scrape"
target/release/monitor --addr "$metrics_addr" --once | grep -q 'aqua monitor'
wait "$metrics_pid"
run diff target/experiments/fault_smoke_first.csv target/experiments/ci_metrics_smoke.csv
echo "metrics plane served mid-run and changed nothing"

# Alert-engine must-fail: under seeded faults the built-in
# integrity_escape rule has to trip and --fail-on-alert has to turn it
# into a non-zero exit; a clean rate-0 sweep must stay quiet. An alert
# rule that cannot fire alerts nothing.
echo
echo "==> fault_campaign --fail-on-alert must FAIL under seeded escapes"
if AQUA_BENCH_WORKLOADS=mcf target/release/fault_campaign \
    --seed 7 --epochs 1 --rates 8 --out ci_alert_fail \
    --fail-on-alert >/dev/null 2>&1; then
    echo "ERROR: --fail-on-alert did not trip on seeded integrity escapes" >&2
    exit 1
fi
echo "alert engine tripped on the seeded escape as required"
echo
echo "==> fault_campaign --fail-on-alert stays quiet at fault rate 0"
AQUA_BENCH_WORKLOADS=mcf target/release/fault_campaign \
    --seed 7 --epochs 1 --rates 0 --out ci_alert_quiet \
    --fail-on-alert >/dev/null
echo "no alert fired on a clean sweep"

# Host-time profiler smoke: the folded-stacks output must be non-empty and
# contain the cell's sim.run, nested under the matrix coordinator's
# bench.run (flamegraph.pl-consumable).
echo
echo "==> profile smoke"
cargo run --offline -q --release -p aqua-bench --bin profile -- \
    --folded target/experiments/profile_smoke.folded \
    --jsonl target/experiments/profile_smoke.jsonl >/dev/null
run grep -q '^bench\.run;sim\.run' target/experiments/profile_smoke.folded
echo
echo "==> profile smoke (sharded: per-shard phases and imbalance summary)"
profile_shard_out=$(cargo run --offline -q --release -p aqua-bench --bin profile -- \
    --channels 2 \
    --folded target/experiments/profile_shard_smoke.folded \
    --jsonl target/experiments/profile_shard_smoke.jsonl)
run grep -q '^bench\.run;sim\.sharded;shard1;sim\.run' \
    target/experiments/profile_shard_smoke.folded
grep -q 'shard imbalance (2 shards)' <<<"$profile_shard_out"

# Benchmark lockfile guard: perfbench/ is a package of its own whose
# Cargo.lock records the simulator crates' dependency list. A --locked
# build fails any change that would rewrite that lockfile (a new crate
# dependency, say); a 1-second run of every workload must then check its
# cells correct with no failed op.
echo
echo "==> perfbench: --locked build, then every workload for 1 s"
cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml
perfbench_result=$(perfbench/target/release/aqua-perfbench --workload all --seconds 1 | tail -n 1)
grep -q '"correct": true' <<<"$perfbench_result"
grep -q '"failed": 0' <<<"$perfbench_result"
echo "perfbench built against its lockfile and checked every workload correct"

# Performance-regression gate: the deterministic canary matrix must stay
# within tolerance of the committed BENCH_8.json baseline — behavioral
# metrics exactly-reproducible, the throughput canary within its tightened
# 2x floor, the 4-channel scaling canary shard-deterministic (and above the
# 2.5x speedup floor on hosts with enough cores), span-phase latencies and
# the attribution residual within their tolerances. Exit nonzero =
# regression.
echo
echo "==> regression gate"
cargo run --offline -q --release -p aqua-bench --bin regression_gate

# The gate itself must detect a synthetic regression: +10 pp of slowdown
# (and residual) has to fail. A gate that cannot fail gates nothing.
echo
echo "==> regression gate must FAIL on injected +10pp slowdown"
if cargo run --offline -q --release -p aqua-bench --bin regression_gate -- \
    --inject-slowdown 10 >/dev/null 2>&1; then
    echo "ERROR: regression gate passed despite injected slowdown" >&2
    exit 1
fi
echo "gate correctly rejected the injected regression"

# The throughput floor must also be a must-fail check: a synthetic 3x
# collapse of the throughput canary (beyond the 2x tolerance factor) has
# to exit nonzero, proving the hot-loop floor actually gates.
echo
echo "==> regression gate must FAIL on injected 3x throughput collapse"
if cargo run --offline -q --release -p aqua-bench --bin regression_gate -- \
    --inject-throttle 3 >/dev/null 2>&1; then
    echo "ERROR: regression gate passed despite throttled throughput canary" >&2
    exit 1
fi
echo "gate correctly rejected the throttled throughput canary"

echo
echo "ci.sh: all checks passed"
