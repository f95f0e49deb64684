#!/usr/bin/env bash
# Host-time regression smoke with a noise rule. Runs the engine/fiber/channel
# micro benches plus the SIMD data-plane benches (fingerprint, image
# conversion, datatype pack), the portable-image encode, decode and
# cross-representation decode benches, the LZ codec benches, the GCS benches
# (wire round trip, flat group heartbeat load) and the checkpoint path
# benches (capture to disk put, chained restore) in a Release tree, each
# repeated with the repetitions interleaved, then the 64-host simulator
# throughput workload (bench/scaling_nodes) as many times. Every row keeps
# its median and quartiles, and is compared against the committed baseline
# (scripts/perf_baseline.json) by perfbench/compare.py's verdict rule: with
# noise the larger of the two sides' quartile spreads (q3 - q1 over the
# median), a row reads "worse" or "better" only when its median moves by
# more than the noise, "over bound" when it is more than 20% worse,
# "unresolved" when the noise is wider than that 20% budget (a regression
# of the budget's size could hide in it), and "within noise" otherwise.
# Wall-clock on a shared machine is noisy, so the script warns and exits 0;
# the verdicts are the signal.
#
#   scripts/perf_smoke.sh            # compare against the committed baseline
#   scripts/perf_smoke.sh --update   # rewrite the baseline from this host
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=build-bench
FILTER='BM_Engine|BM_Fiber|BM_Channel|BM_Vm|BM_Fingerprint|BM_ImageConvert|BM_PortableImage|BM_DatatypePack|BM_Lz|BM_Gcs|BM_Ckpt'
BASELINE=scripts/perf_baseline.json
REPS=9

cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD" -j --target micro_benchmarks scaling_nodes >/dev/null

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
"$BUILD"/bench/micro_benchmarks --benchmark_filter="$FILTER" \
  --benchmark_min_time=0.1 --benchmark_repetitions="$REPS" \
  --benchmark_enable_random_interleaving=true --benchmark_format=json >"$work/micro.json"
# Simulator throughput (events/s) on the 64-host workload.
for i in $(seq "$REPS"); do
  "$BUILD"/bench/scaling_nodes --json "$work/scaling$i.json" >/dev/null
done

python3 - "$work" "$BASELINE" "${1:-}" <<'EOF'
import glob, json, statistics, sys
sys.path.insert(0, "perfbench")
from compare import host_verdict

work, baseline_path, mode = sys.argv[1:4]
BUDGET = 0.20

def summary(values):
    # The median and the quartiles compare.py's spread() uses.
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}

micro = {}
for b in json.load(open(work + "/micro.json"))["benchmarks"]:
    if b.get("run_type", "iteration") == "iteration":
        micro.setdefault(b["run_name"], []).append(b["real_time"])
scaling = {}
for path in sorted(glob.glob(work + "/scaling*.json")):
    for r in json.load(open(path))["runs"]:
        if r["name"].startswith("scaling/threads="):
            scaling.setdefault(r["name"], []).append(r["value"])
run = {"real_time_ns": {k: summary(v) for k, v in micro.items()},
       "scaling_events_per_sec": {k: summary(v) for k, v in scaling.items()}}
reps = max(len(v) for v in list(micro.values()) + list(scaling.values()))

if mode == "--update":
    with open(baseline_path, "w") as f:
        json.dump({"schema": "starfish-perf-baseline-v2",
                   "note": "median and quartiles over interleaved repetitions of host "
                           "ns/iteration and 64-host events/s; regenerate: "
                           "scripts/perf_smoke.sh --update",
                   "repetitions": reps, **run}, f, indent=1)
        f.write("\n")
    print(f"wrote {baseline_path} ({len(micro)} benchmarks, {len(scaling)} scaling points, "
          f"{reps} repetitions each)")
    sys.exit(0)

baseline = json.load(open(baseline_path))
if baseline.get("schema") != "starfish-perf-baseline-v2":
    sys.exit(f"{baseline_path}: not a v2 baseline; run scripts/perf_smoke.sh --update")

def samples(s):
    # A three-point sample [q1, median, q3] has exactly those quartiles and
    # that median under compare.py's spread(), so host_verdict judges the
    # stored quartiles as it would the samples they came from.
    return [s["q1"], s["median"], s["q3"]]

counts = {}
for section, better, unit in (("real_time_ns", "lower", "ns"),
                              ("scaling_events_per_sec", "higher", "events/s")):
    print(f"{section}: median (q1-q3), change, noise, verdict")
    for name, now in run[section].items():
        base = baseline[section].get(name)
        if base is None:
            print(f"  (new)         {name}: {now['median']:.4g} {unit}; not in baseline, run --update")
            continue
        noise, verdict = host_verdict(samples(base), samples(now),
                                      {"better": better, "bound": BUDGET})
        counts[verdict] = counts.get(verdict, 0) + 1
        tag = "WARNING" if verdict in ("worse", "over bound") else ""
        change = (now["median"] - base["median"]) / base["median"] * 100
        print(f"  {tag:7s} {name}: {now['median']:.4g} ({now['q1']:.4g}-{now['q3']:.4g}) vs "
              f"{base['median']:.4g} ({base['q1']:.4g}-{base['q3']:.4g}) {unit}, "
              f"{change:+.1f}%, noise {noise * 100:.1f}%: {verdict}")
    for name in baseline[section]:
        if name not in run[section]:
            print(f"  (gone)        {name}: in the baseline but not run")
print("perf smoke: " + ", ".join(f"{n} {v}" for v, n in sorted(counts.items())))
if counts.get("worse", 0) + counts.get("over bound", 0):
    print("perf smoke: WARNING: rows read worse than the baseline beyond the noise")
EOF
