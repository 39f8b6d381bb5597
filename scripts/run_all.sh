#!/usr/bin/env bash
# Regenerate everything: build, run the full test suite, run every bench
# (tables to out/*.txt, key figures to out/*.svg). Defaults are sized for a
# single core; pass SCALE_BOOST=2 to run every sweep two scales larger.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${BUILD:-build}
OUT=${OUT:-out}
BOOST=${SCALE_BOOST:-0}

cmake -B "$BUILD" -G Ninja
cmake --build "$BUILD"
ctest --test-dir "$BUILD" --output-on-failure

mkdir -p "$OUT"

run() {
  local name=$1; shift
  echo "=== $name"
  "$BUILD/bench/$name" "$@" | tee "$OUT/$name.txt"
}

run bench_table1_config
run bench_fig01_levels   --scale=$((18 + BOOST))
run bench_fig03_numa_speedup --scale=$((16 + BOOST))
run bench_fig04_bandwidth
run bench_fig06_allgather
run bench_fig09_overview --scale=$((20 + BOOST)) --svg="$OUT" \
    --trace="$OUT/bench_fig09_trace.json" \
    --metrics="$OUT/bench_fig09_metrics.json"
run bench_fig10_policies --scale=$((17 + BOOST))
run bench_fig11_breakdown --scale=$((17 + BOOST))
run bench_fig12_comm_weakscale --base-scale=$((16 + BOOST))
run bench_fig13_comm_reduction --base-scale=$((15 + BOOST))
run bench_fig14_comm_proportion --base-scale=$((15 + BOOST))
run bench_fig15_weak_scaling --base-scale=$((15 + BOOST)) --svg="$OUT"
run bench_fig16_granularity --scale=$((20 + BOOST)) --svg="$OUT"
run bench_hybrid_vs_pure --scale=$((17 + BOOST))
run bench_ablation_allgather
run bench_ablation_2d --base-scale=$((11 + BOOST)) \
    --trace="$OUT/bench_ablation_2d_trace.json" \
    --metrics="$OUT/bench_ablation_2d_metrics.json"
run bench_ablation_compression --scale=$((20 + BOOST)) --svg="$OUT" \
    --metrics="$OUT/bench_ablation_compression_metrics.json"
run bench_fault_tolerance --scale=$((16 + BOOST))
run bench_query_engine --scale=$((17 + BOOST)) \
    --svg="$OUT/bench_query_engine_p95.svg" \
    --trace="$OUT/bench_query_engine_trace.json" \
    --metrics="$OUT/bench_query_engine_metrics.json"
run bench_dynamic_graph --scale=$((17 + BOOST)) \
    --svg="$OUT/bench_dynamic_graph_p99.svg" \
    --trace="$OUT/bench_dynamic_graph_trace.json" \
    --metrics="$OUT/bench_dynamic_graph_metrics.json"
run bench_autotune --scale=$((14 + BOOST)) --roots=2 \
    --emit-profile="$OUT/tuned_profile.json" \
    --metrics="$OUT/bench_autotune_metrics.json"
run bench_vertex_programs --scale=$((16 + BOOST)) \
    --metrics="$OUT/bench_vertex_programs_metrics.json"
run bench_failover --scale=$((15 + BOOST)) \
    --svg="$OUT/bench_failover_p99.svg" \
    --trace="$OUT/bench_failover_trace.json" \
    --metrics="$OUT/bench_failover_metrics.json"
run bench_model_doctor
run bench_kernels

echo
echo "=== bench_baseline check (virtual-time perf gate)"
python3 scripts/bench_baseline.py check --build-dir "$BUILD"

echo
echo "done: tables in $OUT/*.txt, figures in $OUT/*.svg;"
echo "      traces in $OUT/*_trace.json (open in https://ui.perfetto.dev)"
