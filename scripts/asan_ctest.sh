#!/usr/bin/env bash
# Sanitizer ctest configurations: builds separate instrumented trees and runs
# the full suite (including the chaos fault-injection tests) under each.
#
#   scripts/asan_ctest.sh            # ASan tree (build-asan/)
#   STARFISH_UBSAN=1 scripts/asan_ctest.sh   # additionally a UBSan tree
#                                            # (build-ubsan/, -DSTARFISH_UBSAN=ON)
#
# Extra arguments are passed through to ctest.
set -euo pipefail
cd "$(dirname "$0")/.."

# The ASan tree forces the VM's portable switch dispatch loop
# (-DSTARFISH_VM_SWITCH_DISPATCH=ON): together with the default
# computed-goto tree in build/, both dispatchers run the full suite —
# including the VM differential tests — under at least one configuration.
cmake -B build-asan -S . -DSTARFISH_SANITIZE=address -DSTARFISH_VM_SWITCH_DISPATCH=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-asan -j
# Leak checking is off: simulated host crashes abandon ucontext fiber stacks
# without unwinding, so locals parked on them are unreachable-but-expected.
# All other ASan checks (overflow, use-after-free, ...) remain fully active.
export ASAN_OPTIONS="detect_leaks=0:${ASAN_OPTIONS:-}"

if [[ "${STARFISH_UBSAN:-0}" != "0" ]]; then
  cmake -B build-ubsan -S . -DSTARFISH_UBSAN=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build build-ubsan -j
  export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1:${UBSAN_OPTIONS:-}"
  (cd build-ubsan && ctest --output-on-failure -j "$@")
fi

cd build-asan
# The chaos suite must be present in the sanitized run: it is the tier that
# drives the GCS repair and recovery-line paths under injected faults.
# grep -c (not -q): -q would close the pipe early and pipefail would see
# ctest's SIGPIPE as a failure.
[ "$(ctest -N | grep -ci chaos)" -gt 0 ] || { echo "chaos tests missing from ctest registration" >&2; exit 1; }
# Observability tier with tracing force-enabled: STARFISH_OBS_FORCE installs
# a process-default hub with the tracer on, so the sanitizer sweeps the
# record/export paths that default-off runs never touch.
[ "$(ctest -N | grep -c "Obs")" -gt 0 ] || { echo "obs tests missing from ctest registration" >&2; exit 1; }
# The engine-overhaul goldens must run sanitized too: this tree compiles the
# ucontext fallback (STARFISH_FAST_CONTEXT is off under ASan), so a passing
# run here proves both context-switch implementations replay one history.
[ "$(ctest -N | grep -c "EngineGolden")" -gt 0 ] || { echo "engine golden tests missing from ctest registration" >&2; exit 1; }
# The VM differential suite must run under the sanitizer with the switch
# dispatcher forced: it pins fast-vs-checked and fused-vs-unfused
# equivalence, which is exactly what this tree's configuration exercises.
[ "$(ctest -N | grep -c "VmDifferential")" -gt 0 ] || { echo "vm differential tests missing from ctest registration" >&2; exit 1; }
# The decode mutation table must run sanitized: it feeds every decoder
# truncated, flipped and count-forged bytes, the inputs where a missed
# bounds check becomes an out-of-bounds read.
[ "$(ctest -N | grep -c "DecodeMutation")" -gt 0 ] || { echo "decode mutation tests missing from ctest registration" >&2; exit 1; }
# (-R before -j: ctest's -j greedily consumes the following argument.)
STARFISH_OBS_FORCE=1 ctest --output-on-failure -R '^Obs' -j "$@"
ctest --output-on-failure -j "$@"
# Chaos + replica tiers again with the diskless checkpoint backend: the
# env routes every cluster whose test did not pin a backend through the
# in-memory replication tier, sanitizing the put/get/crash-invalidation
# and commit-after-transfer paths under injected faults.
STARFISH_CKPT_BACKEND=replica ctest --output-on-failure -R 'Chaos|Replica' -j "$@"
# Group + chaos tiers again under the tree dissemination topology: the env
# routes every group whose config did not pin a topology through the k-ary
# tree path (ORDER relay, aggregated heartbeats, fragmentation fallback),
# sanitizing it under injected faults. The flat/tree differential suite
# rides along to pin stream equivalence in the instrumented tree.
[ "$(ctest -N | grep -c "GcsDifferential")" -gt 0 ] || { echo "gcs differential tests missing from ctest registration" >&2; exit 1; }
STARFISH_GCS_TOPOLOGY=tree ctest --output-on-failure -R 'Chaos|Group|GcsDifferential' -j "$@"
# Checkpoint tiers again across the compressed-epoch lever: `off` pins the
# uncoded pipeline even if the default ever moves, and `delta+lz` routes
# every cluster whose test did not pin a mode through lz-coded delta frames
# (chunked ship, chained restore), sanitizing the codec's encode/decode and
# the corrupt-chain fallback paths under injected faults. The codec property
# and store differential suites ride along in both tiers.
[ "$(ctest -N | grep -c "Codec")" -gt 0 ] || { echo "ckpt codec tests missing from ctest registration" >&2; exit 1; }
STARFISH_CKPT_COMPRESS=off ctest --output-on-failure -R 'Chaos|Replica|Codec|Compress|StoreFault' -j "$@"
STARFISH_CKPT_COMPRESS=delta+lz ctest --output-on-failure -R 'Chaos|Replica|Codec|Compress|StoreFault' -j "$@"
# Data-plane tiers again with SIMD dispatch forced to the scalar reference:
# the env repoints the kernel table, so the sanitizer sweeps the exact
# loops the vector kernels are differenced against (the differential suite
# itself still exercises every compiled level via simd::table()). The
# Incremental* and PayloadCodec suites drive the delta codec's page diff
# and frame fingerprints through the scalar kernels; DecodeMutation drives
# the SFV2, delta and LZ decoders' bulk reads and checksums through them.
[ "$(ctest -N | grep -c "SimdDifferential")" -gt 0 ] || { echo "simd differential tests missing from ctest registration" >&2; exit 1; }
STARFISH_SIMD=scalar ctest --output-on-failure -R 'Simd|PortableImage|Datatype|Incremental|PayloadCodec|DecodeMutation' -j "$@"

# Perf smoke rides along on the non-sanitized Release tree: warn-only
# comparison of the engine hot-path benches vs scripts/perf_baseline.json.
# Disable with STARFISH_PERF_SMOKE=0 when only sanitizer coverage is wanted.
if [[ "${STARFISH_PERF_SMOKE:-1}" != "0" ]]; then
  cd ..
  scripts/perf_smoke.sh
fi
