#!/usr/bin/env bash
# Runs the headline experiments and merges their google-benchmark JSON into
# a single BENCH_<tag>.json at the repo root — one file per PR, recording
# the performance trajectory (tick times, phase breakdown, allocs/tick).
#
#   E1  set-at-a-time vs object-at-a-time (tick ms + allocs_per_tick on the
#       zero-allocation grid path)
#   E3  transaction throughput / abort behaviour under contention, plus
#       admission-engine scaling (allocs_per_tick on the flat write path)
#   E6  multicore scaling (phase breakdown + allocs_per_tick)
#   E7  grid index build / steady-state rebuild cost (allocs_per_build) /
#       memory (bytes_per_entry)
#   E8  traffic scaling under the cost-based planner (vehicle_ticks/s +
#       allocs_per_tick)
#   E11 the shard schedule: per-tick row blocks, one worker each (tick
#       latency + phase breakdown + allocs_per_tick vs shard count, for the
#       RTS battle and the traffic workload)
#   E12 asynchronous out-of-band pathfinding (sync vs async tick latency
#       on the large-map armies workload, jobs in flight, barrier wait,
#       allocs_per_tick vs job-worker count)
#   E13 register bytecode VM (dense nested-loop ticks where fused filter
#       pipelines dominate, plus the indexed steady state with batched
#       probes; allocs_per_tick + vm_programs + simd_lanes + probe_us + the
#       CPU/dispatch context the numbers were recorded under)
#   E10 debugging + observability overhead (tracer / checksum / checkpoint
#       cost, plus the telemetry and flight-recorder armed-vs-disarmed
#       series: spans/tick, ns/span, records/frame, and tick p50/p95/p99
#       from the histogram registry)
#
# Usage: bench/run_benchmarks.sh [build_dir] [tag] [baseline.json]
#   build_dir  cmake build directory holding the bench_* binaries (default:
#              build)
#   tag        suffix for the output file (default: pr5)
#   baseline   optional earlier BENCH_<tag>.json; when given, the run ends
#              with bench/compare_bench.py baseline BENCH_<tag>.json
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
TAG="${2:-pr5}"
BASELINE="${3:-}"
OUT="BENCH_${TAG}.json"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

for exp in e1_set_at_a_time e3_transactions e6_parallel e7_index_memory \
           e8_traffic e10_debug e11_sharded e12_async e13_vm; do
  bin="$BUILD_DIR/bench_${exp}"
  if [[ ! -x "$bin" ]]; then
    echo "missing $bin — build first: cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
    exit 1
  fi
  echo "== bench_${exp}" >&2
  "$bin" --benchmark_out="$TMP/${exp}.json" --benchmark_out_format=json \
    >/dev/null
done

python3 - "$TMP" "$OUT" <<'EOF'
import json, os, sys

tmp, out = sys.argv[1], sys.argv[2]
keep = ("name", "real_time", "cpu_time", "time_unit", "iterations",
        "allocs_per_tick", "allocs_per_build", "units", "threads",
        "query_ms", "merge_ms", "update_ms", "hw_cores", "bytes",
        "bytes_per_entry", "issued/tick", "committed/tick", "abort_rate",
        "consistent", "txns/s", "vehicle_ticks/s", "mean_speed",
        "shards", "moved_per_batch", "rows_per_batch",
        "workers", "jobs_submitted", "jobs_installed", "jobs_in_flight",
        "job_wait_ms", "n", "vm_programs", "simd_lanes", "probe_us",
        "cpu_avx2", "kernel_avx2", "spans_per_tick", "ns_per_span",
        "tick_p50_us", "tick_p95_us", "tick_p99_us", "records",
        "checkpoint_bytes", "records_per_frame", "frames_captured")
merged = {}
for f in sorted(os.listdir(tmp)):
    with open(os.path.join(tmp, f)) as fh:
        data = json.load(fh)
    ctx = data.get("context", {})
    merged[f[:-len(".json")]] = {
        "date": ctx.get("date"),
        "num_cpus": ctx.get("num_cpus"),
        "build_type": ctx.get("library_build_type"),
        "benchmarks": [
            {k: b[k] for k in keep if k in b}
            for b in data.get("benchmarks", [])
        ],
    }
with open(out, "w") as fh:
    json.dump(merged, fh, indent=1)
    fh.write("\n")
print(f"wrote {out}")
EOF

if [[ -n "$BASELINE" ]]; then
  python3 bench/compare_bench.py "$BASELINE" "$OUT"
fi
