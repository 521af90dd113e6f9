#!/usr/bin/env bash
# Runs the micro benchmarks and emits JSON reports so successive PRs have
# a perf trajectory to compare against.
#
# Usage: bench/run_micro.sh [build_dir] [benchmark_filter]
#   build_dir         cmake build directory (default: build)
#   benchmark_filter  regex passed to --benchmark_filter (default: all)
#
# Output, in the repository root:
#   BENCH_micro_hash_table.json    — tagged-hash-table + probe pipeline,
#                                    incl. the sel-aware probe on
#                                    sparse chunks
#   BENCH_micro_merge_join.json    — hash vs MPSM merge join (uniform /
#                                    skewed / presorted inputs)
#   BENCH_micro_plan_lowering.json — logical-plan build / physical
#                                    lowering / PreparedQuery
#                                    re-execution loop (API-layer cost)
#   BENCH_micro_filter.json        — selection-vector filter chain,
#                                    zone-map morsel skipping (sorted
#                                    vs shuffled), adaptive vs static
#                                    conjunct order, stacked-filter
#                                    merge (DESIGN.md §15), sel-aware
#                                    filter->probe->agg
#   BENCH_micro_groupby.json       — adaptive group-by phase 1 vs
#                                    forced-local vs forced-radix over
#                                    few-group / high-cardinality /
#                                    skewed / mid-stream-shift key
#                                    distributions
#   BENCH_micro_exchange.json      — sharded exchange: Q3-shaped join +
#                                    group-by at 1/2/4 shards, broadcast
#                                    vs repartition arms, vs the
#                                    single-engine baseline (the `cores`
#                                    counter records the machine the run
#                                    actually had)
#   BENCH_micro_cancel.json        — Cancel()->drained latency p50/p99 on
#                                    one-morsel merge-join monoliths,
#                                    plus the same query uncancelled
#   BENCH_micro_morsel_queue.json  — morsel hand-out throughput, local
#                                    ranges vs forced stealing (§3.3)
#   BENCH_micro_efficiency.json    — single-worker TPC-H Q1/Q6/Q3 in
#                                    engine ns per lineitem row beside
#                                    a hand-written loop over the same
#                                    columns, and their ratio; host
#                                    block in "context"
#   BENCH_serve_mixed.json         — TCP serving front end: per-query
#                                    latency p50/p99 + throughput for
#                                    1024 mixed TPC-H/SSB sessions,
#                                    tuned vs loose admission, plus the
#                                    kill-mid-EXECUTE leak check
#                                    (MORSEL_SERVE_SMOKE=1 -> 64-session
#                                    smoke written to
#                                    BENCH_serve_mixed_smoke.json so the
#                                    checked-in trajectory stays a full
#                                    run)
#
# A binary whose benchmarks are all excluded by the filter leaves its
# checked-in report untouched (the trajectory files must never be
# clobbered with empty runs).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
FILTER="${2:-.*}"

run_one() {
  local name="$1"
  local bin="$BUILD_DIR/bench/$name"
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not built; run: cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
    exit 1
  fi
  local tmp
  tmp="$(mktemp)"
  # 3 repetitions, aggregates only: single runs on a loaded host swing
  # +-30%, which would make the PR-over-PR trajectory unreadable —
  # compare the *_median entries.
  "$bin" \
    --benchmark_filter="$FILTER" \
    --benchmark_out="$tmp" \
    --benchmark_out_format=json \
    --benchmark_repetitions=3 \
    --benchmark_report_aggregates_only=true
  # Google Benchmark emits one "run_type" entry per executed benchmark.
  if grep -q '"run_type"' "$tmp"; then
    mv "$tmp" "BENCH_${name}.json"
    echo "wrote BENCH_${name}.json"
  else
    rm -f "$tmp"
    echo "filter '$FILTER' matched nothing in $name; kept existing BENCH_${name}.json"
  fi
}

run_one micro_hash_table
run_one micro_merge_join
run_one micro_plan_lowering
run_one micro_filter
run_one micro_groupby
run_one micro_cancel
run_one micro_exchange
run_one micro_morsel_queue
run_one micro_efficiency

# serve_mixed is not a Google Benchmark binary: it drives the TCP
# serving front end with its own main() and emits its JSON directly.
SERVE_BIN="$BUILD_DIR/bench/serve_mixed"
if [[ ! -x "$SERVE_BIN" ]]; then
  echo "error: $SERVE_BIN not built; run: cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
  exit 1
fi
if [[ "${MORSEL_SERVE_SMOKE:-0}" == "1" ]]; then
  "$SERVE_BIN" --smoke --out=BENCH_serve_mixed_smoke.json
else
  "$SERVE_BIN" --out=BENCH_serve_mixed.json
fi
