#!/usr/bin/env bash
# Repeatable kernel-benchmark baseline for the viz kernels.
#
# Runs bench/micro_kernels with google-benchmark's JSON output and folds
# the per-kernel medians into BENCH_kernels.json at the repo root:
#
#   tools/bench_kernels.sh                 # refresh the "current" section
#   tools/bench_kernels.sh --set-baseline  # record this run as the baseline
#   tools/bench_kernels.sh --quick         # single short rep (CI smoke)
#   tools/bench_kernels.sh --append REGEX  # append matching rows to "trajectory"
#
# The baseline and current sections each carry the commit and date they
# were measured at; "speedup" is baseline/current per kernel.  Compare
# numbers only when both sections come from the same machine.  --append
# runs only the benchmarks matching REGEX and appends one trajectory row
# per benchmark (commit, date, host CPUs, build type, repetitions,
# median and stddev), leaving every other section alone.  COMMIT=<rev>
# labels rows measured from another build (BUILD_DIR=...).
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$REPO_ROOT/build}"
BIN="$BUILD_DIR/bench/micro_kernels"
OUT="${OUT:-$REPO_ROOT/BENCH_kernels.json}"
REPETITIONS="${REPETITIONS:-5}"
SET_BASELINE=0
QUICK=0
APPEND=""

while [[ $# -gt 0 ]]; do
  case "$1" in
    --set-baseline) SET_BASELINE=1 ;;
    --quick) QUICK=1 ;;
    --append)
      [[ $# -ge 2 ]] || { echo "--append needs a REGEX" >&2; exit 2; }
      APPEND="$2"
      shift
      ;;
    -h|--help)
      sed -n '2,20p' "$0" | sed 's/^# \{0,1\}//'
      exit 0
      ;;
    *) echo "unknown option: $1" >&2; exit 2 ;;
  esac
  shift
done

if [[ ! -x "$BIN" ]]; then
  echo "benchmark binary not found at $BIN — build the repo first" >&2
  echo "(cmake -B build -S . && cmake --build build -j)" >&2
  exit 1
fi

RAW="$(mktemp "${TMPDIR:-/tmp}/bench_kernels.XXXXXX.json")"
trap 'rm -f "$RAW"' EXIT

FILTER=()
[[ -n "$APPEND" ]] && FILTER=(--benchmark_filter="$APPEND")

if [[ "$QUICK" -eq 1 ]]; then
  "$BIN" "${FILTER[@]}" --benchmark_min_time=0.05 \
         --benchmark_format=json \
         --benchmark_out="$RAW" --benchmark_out_format=json >/dev/null
else
  "$BIN" "${FILTER[@]}" --benchmark_repetitions="$REPETITIONS" \
         --benchmark_report_aggregates_only=true \
         --benchmark_format=json \
         --benchmark_out="$RAW" --benchmark_out_format=json >/dev/null
fi

COMMIT="${COMMIT:-$(git -C "$REPO_ROOT" rev-parse --short HEAD 2>/dev/null || echo unknown)}"
DATE="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' "$BUILD_DIR/CMakeCache.txt" 2>/dev/null)"

RAW="$RAW" OUT="$OUT" COMMIT="$COMMIT" DATE="$DATE" \
SET_BASELINE="$SET_BASELINE" QUICK="$QUICK" APPEND="$APPEND" \
REPETITIONS="$REPETITIONS" BUILD_TYPE="$BUILD_TYPE" python3 - <<'PY'
import json, os, sys

raw_path = os.environ["RAW"]
out_path = os.environ["OUT"]
quick = os.environ["QUICK"] == "1"
set_baseline = os.environ["SET_BASELINE"] == "1"

raw = json.load(open(raw_path))
# Benchmarks report in their declared time_unit (->Unit(...)); normalize
# everything to milliseconds.
to_ms = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}

if os.environ["APPEND"]:
    ctx = raw.get("context", {})
    stats = {}
    for b in raw["benchmarks"]:
        name, _, stat = b["name"].rpartition("_")
        if b.get("run_type") == "aggregate" and stat in ("median", "stddev"):
            ms = b["real_time"] * to_ms[b.get("time_unit", "ns")]
            stats.setdefault(name, {})[stat] = round(ms, 6)
        elif quick and b.get("run_type") == "iteration":
            ms = b["real_time"] * to_ms[b.get("time_unit", "ns")]
            stats.setdefault(b["name"], {})["median"] = round(ms, 6)
    doc = json.load(open(out_path)) if os.path.exists(out_path) else {}
    rows = doc.setdefault("trajectory", [])
    for name in sorted(stats):
        rows.append({
            "commit": os.environ["COMMIT"],
            "date": os.environ["DATE"],
            "host_cpus": ctx.get("num_cpus"),
            "build_type": os.environ["BUILD_TYPE"] or None,
            "repetitions": 1 if quick else int(os.environ["REPETITIONS"]),
            "benchmark": name,
            "median_ms": stats[name].get("median"),
            "stddev_ms": stats[name].get("stddev"),
        })
        print(f"  {name:28s} {stats[name].get('median', 0):10.3f} ms")
    with open(out_path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=False)
        f.write("\n")
    print(f"appended {len(stats)} trajectory rows to {out_path}")
    sys.exit(0)
kernels = {}
rates = {}  # items_per_second, for the throughput-style rows (flow)
for b in raw["benchmarks"]:
    name = b["name"]
    ms = b["real_time"] * to_ms[b.get("time_unit", "ns")]
    # With repetitions we keep the median aggregate; a quick run has the
    # plain entries only.
    if quick:
        if b.get("run_type") == "iteration":
            kernels[name] = round(ms, 6)
            if "items_per_second" in b:
                rates[name] = b["items_per_second"]
    elif name.endswith("_median"):
        kernels[name[: -len("_median")]] = round(ms, 6)
        if "items_per_second" in b:
            rates[name[: -len("_median")]] = b["items_per_second"]

section = {
    "commit": os.environ["COMMIT"],
    "date": os.environ["DATE"],
    "time_unit": "ms",
    "kernels": kernels,
}

doc = {}
if os.path.exists(out_path):
    with open(out_path) as f:
        doc = json.load(f)

ctx = raw.get("context", {})
doc["host"] = {
    "num_cpus": ctx.get("num_cpus"),
    "mhz_per_cpu": ctx.get("mhz_per_cpu"),
    "library_build_type": ctx.get("library_build_type"),
}

if set_baseline or "baseline" not in doc:
    doc["baseline"] = section
doc["current"] = section if not set_baseline else doc.get("current", section)

base = doc["baseline"]["kernels"]
cur = doc["current"]["kernels"]
doc["speedup"] = {
    k: round(base[k] / cur[k], 3) for k in sorted(base) if k in cur and cur[k] > 0
}

# Per-backend columns: fold BM_<Kernel>Backend/<backend>/<size> rows into
# one table row per (kernel, size) with a serial and a threaded column.
backends = {}
for name, ms in cur.items():
    parts = name.split("/")
    if len(parts) == 3 and parts[0].endswith("Backend"):
        kernel = parts[0][len("BM_") : -len("Backend")]
        row = backends.setdefault(f"{kernel}/{parts[2]}", {})
        row[parts[1]] = ms
if backends:
    doc["backends"] = {
        "time_unit": "ms",
        "kernels": dict(sorted(backends.items())),
    }

# Flow table: BM_AdvectFlow/<column>/<particles> rows fold into one row
# per particle count — the legacy/static milliseconds and RK4 step
# rates, and the pipeline speedup (legacy over static).
flow = {}
for name, ms in cur.items():
    parts = name.split("/")
    if len(parts) == 3 and parts[0] == "BM_AdvectFlow":
        row = flow.setdefault(int(parts[2]), {})
        row[f"{parts[1]}_ms"] = ms
        rate = rates.get(name)
        if rate is not None:
            row[f"{parts[1]}_steps_per_sec"] = round(rate)
for row in flow.values():
    if row.get("static_ms") and row.get("legacy_ms"):
        row["pipeline_speedup"] = round(row["legacy_ms"] / row["static_ms"], 3)
if flow:
    doc["flow"] = {
        "time_unit": "ms",
        "field": "vortex-trap (early-termination-heavy)",
        # Timings are only meaningful relative to the core count they
        # ran on; record it next to the numbers.
        "host_cpus": ctx.get("num_cpus"),
        "particles": {str(k): flow[k] for k in sorted(flow)},
    }

# Blocks table: BM_ContourBlocks/<blocks>/<size> rows fold into one row
# per (blocks, size) — the wall-clock milliseconds for the full
# multi-block path (partition, ghost exchange, per-block contour,
# gather) plus the overhead against the undecomposed blocks=1 row at
# the same size.  Outputs are bit-identical across block counts (the
# golden multi-block suite pins that), so overhead > 1.0 is pure
# decomposition cost.
blocks = {}
for name, ms in cur.items():
    parts = name.split("/")
    if len(parts) == 3 and parts[0] == "BM_ContourBlocks":
        blocks.setdefault(int(parts[2]), {})[int(parts[1])] = ms
if blocks:
    table = {}
    for size in sorted(blocks):
        rows = blocks[size]
        ref = rows.get(1)
        table[str(size)] = {
            str(b): {
                "ms": rows[b],
                **({"overhead_vs_single_block": round(rows[b] / ref, 3)}
                   if ref else {}),
            }
            for b in sorted(rows)
        }
    doc["blocks"] = {
        "time_unit": "ms",
        "kernel": "contour (3 isovalues, algorithm layer)",
        "host_cpus": ctx.get("num_cpus"),
        "sizes": table,
    }

with open(out_path, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=False)
    f.write("\n")

print(f"wrote {out_path}")
for k in sorted(cur):
    s = doc["speedup"].get(k)
    note = f"  speedup {s:.2f}x" if s else ""
    print(f"  {k:28s} {cur[k]:10.3f} ms{note}")
PY
