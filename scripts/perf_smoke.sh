#!/usr/bin/env bash
# Engine hot-path regression smoke: runs the engine/fiber/channel micro
# benches plus the SIMD data-plane benches (fingerprint, image conversion,
# datatype pack) and the LZ codec benches in a Release tree and compares
# host time per benchmark against the committed baseline
# (scripts/perf_baseline.json), then runs the sharded
# engine's thread-scaling workload (bench/scaling_nodes --threads 1,4) and
# compares sequential simulator throughput against the same baseline plus
# threaded-vs-sequential side by side. A >20% slowdown prints a WARNING per
# offender and a nonzero-looking summary line, but exits 0 — wall-clock on
# shared machines is noisy, so the warning is the signal and a hard gate
# would flake.
#
#   scripts/perf_smoke.sh            # compare against the committed baseline
#   scripts/perf_smoke.sh --update   # rewrite the baseline from this host
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=build-bench
FILTER='BM_Engine|BM_Fiber|BM_Channel|BM_Vm|BM_Fingerprint|BM_ImageConvert|BM_DatatypePack|BM_Lz'
BASELINE=scripts/perf_baseline.json

cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD" -j --target micro_benchmarks scaling_nodes >/dev/null

out=$(mktemp)
scaling=$(mktemp)
trap 'rm -f "$out" "$scaling"' EXIT
"$BUILD"/bench/micro_benchmarks --benchmark_filter="$FILTER" \
  --benchmark_min_time=0.2 --benchmark_format=json >"$out"
# Sequential vs. threaded run of the same 64-host workload (identical virtual
# history — only the host clock differs); events/s per thread count.
"$BUILD"/bench/scaling_nodes --threads 1,4 --json "$scaling" >/dev/null

if [[ "${1:-}" == "--update" ]]; then
  python3 - "$out" "$BASELINE" "$scaling" <<'EOF'
import json, sys
run = json.load(open(sys.argv[1]))
base = {b["name"]: b["real_time"] for b in run["benchmarks"]}
sweep = {r["name"]: r["value"] for r in json.load(open(sys.argv[3]))["runs"]
         if r["name"].startswith("scaling/threads=")}
with open(sys.argv[2], "w") as f:
    json.dump({"schema": "starfish-perf-baseline-v1",
               "note": "host ns/iteration; regenerate: scripts/perf_smoke.sh --update",
               "real_time_ns": base,
               "scaling_events_per_sec": sweep}, f, indent=1)
    f.write("\n")
print(f"wrote {sys.argv[2]} ({len(base)} benchmarks, {len(sweep)} scaling points)")
EOF
  exit 0
fi

python3 - "$out" "$BASELINE" "$scaling" <<'EOF'
import json, sys
run = json.load(open(sys.argv[1]))
baseline = json.load(open(sys.argv[2]))
base = baseline["real_time_ns"]
worst = 0.0
for b in run["benchmarks"]:
    name, t = b["name"], b["real_time"]
    if name not in base:
        print(f"  (new)    {name}: {t:.0f} ns — not in baseline; run --update")
        continue
    ratio = t / base[name]
    worst = max(worst, ratio)
    tag = "WARNING" if ratio > 1.20 else "ok"
    print(f"  {tag:7s}  {name}: {t:.0f} ns vs baseline {base[name]:.0f} ns ({ratio:.2f}x)")
if worst > 1.20:
    print(f"perf smoke: WARNING — worst regression {worst:.2f}x exceeds the 1.20x budget")
else:
    print(f"perf smoke: ok (worst ratio {worst:.2f}x)")

# Threaded vs. sequential simulator throughput on the 64-host workload.
sweep = {r["name"]: (r["value"], r.get("events")) for r in
         json.load(open(sys.argv[3]))["runs"] if r["name"].startswith("scaling/threads=")}
sweep_base = baseline.get("scaling_events_per_sec", {})
seq = threaded = None
print("threaded vs sequential (64-host group, 2 s virtual):")
for name, (eps, events) in sorted(sweep.items()):
    threads = int(name.split("threads=")[1].split("/")[0])
    if threads == 1:
        seq = eps
    else:
        threaded = eps
    line = f"  {name}: {eps:.3g} events/s ({events} events)"
    if name in sweep_base and sweep_base[name] > 0:
        ratio = sweep_base[name] / eps  # >1 = slower than baseline
        tag = "WARNING" if ratio > 1.20 else "ok"
        line += f" — {tag} vs baseline {sweep_base[name]:.3g} ({ratio:.2f}x slower)"
    print(line)
counts = {e for _, e in sweep.values()}
if len(counts) > 1:
    print("perf smoke: WARNING — event counts diverged across thread counts "
          "(determinism bug, see tests/shard_determinism_test.cpp)")
if seq and threaded:
    print(f"  threaded/sequential speedup: {threaded / seq:.2f}x "
          f"(bounded by this host's core count, not --threads)")
EOF
