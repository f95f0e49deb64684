#!/usr/bin/env bash
# Machine-readable benchmark runner: builds a Release tree and writes a
# BENCH_*.json snapshot at the repo root (name = first argument, default
# BENCH_PR7.json), combining
#   - google-benchmark's native JSON for the host micro benches,
#   - the --json runner mode of fig3/fig4/fig5 (host wall-clock, simulated
#     ns and simulator events/sec per run),
#   - the scaling_nodes node-count sweep and its 64-host simulator
#     throughput run (events/sec), and
#   - the ablation_recovery diskless sweep (disk vs in-memory replicated
#     checkpoints under the delta codec: restore I/O per backend at 1..R
#     holder crashes), and
#   - the ablation_gcs_scale membership sweep (flat vs tree dissemination:
#     sequencer sends per multicast, heartbeat datagrams per period,
#     marker-barrier and view-change latency at 16/64/256 members), and
#   - the ablation_incremental compressed-epoch sweep (disk bytes per
#     STARFISH_CKPT_COMPRESS mode at 1 MB and 4 MB of state, plus the
#     replica warm-ship reduction of delta+lz over off).
# The figures' human-readable stdout is unchanged and discarded here.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT_NAME="${1:-BENCH_PR10.json}"
BUILD=build-bench
cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD" -j --target \
  micro_benchmarks fig3_native_checkpoint fig4_vm_checkpoint fig5_roundtrip \
  scaling_nodes ablation_recovery ablation_gcs_scale ablation_incremental >/dev/null

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

"$BUILD"/bench/micro_benchmarks --benchmark_format=json >"$out/micro.json"
"$BUILD"/bench/fig3_native_checkpoint --json "$out/fig3.json" >/dev/null
"$BUILD"/bench/fig4_vm_checkpoint --json "$out/fig4.json" >/dev/null
"$BUILD"/bench/fig5_roundtrip --json "$out/fig5.json" >/dev/null
"$BUILD"/bench/scaling_nodes --json "$out/scaling.json" >/dev/null
"$BUILD"/bench/ablation_recovery --json "$out/recovery.json" >/dev/null
"$BUILD"/bench/ablation_gcs_scale --json "$out/gcs_scale.json" >/dev/null
"$BUILD"/bench/ablation_incremental --json "$out/incremental.json" >/dev/null

python3 - "$out" "$OUT_NAME" <<'EOF'
import json, os, sys

d = sys.argv[1]
merged = {
    "schema": "starfish-bench-v1",
    "figures": [json.load(open(os.path.join(d, f)))
                for f in ("fig3.json", "fig4.json", "fig5.json", "scaling.json",
                          "recovery.json", "gcs_scale.json", "incremental.json")],
    "micro": json.load(open(os.path.join(d, "micro.json"))),
}
with open(sys.argv[2], "w") as f:
    json.dump(merged, f, indent=1)
    f.write("\n")
print("wrote", sys.argv[2])
EOF
