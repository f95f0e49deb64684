#!/usr/bin/env python3
"""End-to-end benchmark of the Starfish cluster simulator.

Each workload boots a whole simulated cluster, runs a VM-bytecode MPI job
under periodic stop-and-sync checkpoints, crashes one or two nodes, recovers
and finishes (perfbench/workloads.cpp defines them). This script builds the
runner from the repository's sources, repeats the workload for --seconds,
checks every repetition's output against a golden value computed on the host
and its virtual-time results against the first repetition, and prints every
metric by name and unit. The last line of stdout is one JSON object:

  {"correct": bool, "attempted": reps, "failed": reps that failed,
   "metrics": {name: {"value": number, "unit": str}}}

Usage:
  python3 perfbench/run.py --workload stencil16_vm [--seed N] [--seconds S]
                           [--trace 0|1] [--out results.jsonl]

--trace 0 reports the end-to-end metrics of BENCHMARK.json with tracing off.
Each repetition is a fresh process. wall_s is the fastest repetition's and
setup_s the median over repetitions of each process's fastest of several
set-ups: on a shared host, other processes' use of the caches and cores
only ever adds time, and the fastest reading is the steadiest. The output
also gives the median and quartiles of every timing. --trace 1 reports the
per-layer metrics: the counters of traced repetitions (an obs hub with
metrics and the tracer attached), host replays of the VM, image, codec and
LZ entry points on the workload's own inputs, and the tracing overhead
against untraced repetitions of the same run. --out appends the full record
(samples, provenance) to a JSON-lines file that compare.py reads.

The workload's inputs (initial data, crash offsets and victims) derive from
--seed, default 1. Seed 7919 is the held-out seed; it must pass the golden
check too.

A repetition counts as failed when it misses the golden output, times out,
or its virtual-time results or counts differ from the run's first
repetition; "failed" in the result line is that count (the failed-run share
is failed / attempted). The runner refuses to run with STARFISH_SHARDS or
STARFISH_OBS_FORCE set, since either silently changes what is measured, and
so does this script.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUNNER = BUILD / "perfbench_runner"
SPEC_FILE = ROOT / "BENCHMARK.json"
BUILD_TYPE = "Release"
DEFAULT_SEED = 1
MIN_REPS = 3  # per timed phase, however short --seconds is
REP_TIMEOUT_S = 60  # one repetition; every workload takes a few seconds
MB = 1e6  # ns-per-MB figures use decimal megabytes
PAGE = 4096  # ckpt::kPageBytes, the unit of the page counters


def log(msg=""):
    print(msg, flush=True)


def die(msg, code):
    print("perfbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(code)


def build():
    """Configures and builds the runner; build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die("no simulator sources: expected src/ next to perfbench/", 2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        try:
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                           timeout=840)
        except (OSError, subprocess.SubprocessError) as e:
            die("build failed: %s" % e, 1)


def provenance(simd):
    def git_sha():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            return out.stdout.strip() if out.returncode == 0 else "unknown"
        except (OSError, subprocess.SubprocessError):
            return "unknown"

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest()[:16],
        "build_type": BUILD_TYPE,
        "nproc": os.cpu_count(),
        "simd_dispatch": simd,
        "env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("STARFISH_")},
    }


def runner(mode, workload, seed, traced=False):
    """One runner invocation; returns its JSON object or an error record."""
    cmd = [str(RUNNER), mode, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": "runner timed out"}
    tail = (proc.stderr.strip().splitlines()[-1:] or [""])[0]
    if proc.returncode == 2:  # usage error or a refused environment
        die(tail.removeprefix("perfbench: "), 2)
    if proc.returncode != 0 or not proc.stdout.strip():
        return {"ok": False, "error": "runner exit %d %s" % (proc.returncode, tail)}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except ValueError:
        return {"ok": False, "error": "runner printed no result"}


def repeat(workload, seed, seconds, traced, min_reps):
    """Repetitions until `seconds` have passed, and at least `min_reps`."""
    reps = []
    deadline = time.monotonic() + seconds
    while len(reps) < min_reps or time.monotonic() < deadline:
        reps.append(runner("run", workload, seed, traced))
    return reps


def check(reps, workload, seed, trace):
    """Golden output and determinism guard; returns the failure count."""
    replay = ("python3 perfbench/run.py --workload %s --seed %d --seconds 1 --trace %d"
              % (workload, seed, trace))
    reference = next((r for r in reps if r.get("ok")), None)
    counters = next((r["registry"]["counters"] for r in reps if "registry" in r), None)
    failed = 0
    for i, rep in enumerate(reps):
        why = None
        if not rep.get("ok"):
            why = rep.get("error") or "failed"
        elif rep["virtual"] != reference["virtual"]:
            why = "virtual results differ from the first run"
        elif "registry" in rep and rep["registry"]["counters"] != counters:
            why = "per-layer counts differ from the first traced run"
        elif "registry" in rep:
            c = rep["registry"]["counters"]
            if c.get("ckpt.codec.decode_errors", 0) or c.get("ckpt.codec.chain_breaks", 0):
                why = "checkpoint decode errors or chain breaks"
        if why:
            failed += 1
            log("FAILED run %d of %s seed %d: %s" % (i, workload, seed, why))
            log("  replay: " + replay)
    return failed


def describe(name, value, unit, samples):
    spread = ""
    if len(samples) > 1:
        q = statistics.quantiles(samples, n=4)
        spread = "n=%-3d min %.6g  q1 %.6g  median %.6g  q3 %.6g  max %.6g" % (
            len(samples), min(samples), q[0], q[1], q[2], max(samples))
    log("  %-36s %14.6g %-9s %s" % (name, value, unit, spread))


def end_to_end(ok):
    """Every end-to-end metric's value, its samples over the successful runs,
    and the names of the metrics that come from the deterministic model:
    those repeat exactly, so one sample stands for all."""
    v = ok[0]["virtual"]
    exact = {
        "job_virtual_s": v["job_virtual_ns"] / 1e9,
        "recovery_virtual_s": v["recovery_virtual_ns"] / 1e9,
        "ckpt_stable_bytes": v["ckpt_stable_bytes"],
    }
    samples = {name: [r[name] for r in ok] for name in ("wall_s", "setup_s", "peak_rss_mb")}
    values = {
        "wall_s": min(samples["wall_s"]),
        "setup_s": statistics.median(samples["setup_s"]),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        **exact,
    }
    samples.update({name: [value] for name, value in exact.items()})
    return values, samples, sorted(exact)


def per_layer(traced, untraced, replay):
    """Derives the per-layer metrics from the traced runs, the untraced
    runs of the same invocation and the host replays."""
    reg = traced[0]["registry"]
    c, h = reg["counters"], reg["histograms"]
    v = traced[0]["virtual"]

    def n(name):
        return c.get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    wall = min(r["wall_s"] for r in untraced)  # as the end-to-end wall_s
    traced_wall = min(r["wall_s"] for r in traced)
    events = n("sim.events_executed")
    instrs = n("sim.vm.instructions_retired")
    raw = n("ckpt.codec.raw_bytes")
    checkpoints = n("ckpt.checkpoints_taken")
    captured = n("ckpt.pages_written") * PAGE
    refs, lits = n("ckpt.codec.delta_page_refs"), n("ckpt.codec.delta_page_literals")
    # Host time of the checkpoint byte path: the replays' per-MB costs
    # applied to the bytes the run's counters say each coder processed.
    # Delta-coded epochs pay the page diff on their whole payload and LZ on
    # their literal pages; epochs coded without a base pay LZ on all of it.
    mode = replay["stored_mode"]
    delta_bytes = (refs + lits) * PAGE
    lz_bytes = max(0, raw - delta_bytes) + lits * PAGE if "lz" in mode else 0
    # Payloads decoded on restore: images read back, at the mean payload size.
    restored = (n("ckpt.store.images_read") + n("ckpt.replica.gets")) * ratio(
        raw or captured, checkpoints)
    ckpt_ns = (captured / MB * replay["image_encode_ns_per_mb"]
               + delta_bytes / MB * replay["delta_encode_ns_per_mb"]
               + lz_bytes / MB * replay["lz_compress_ns_per_mb"]
               + restored / MB * (replay["image_decode_ns_per_mb"]
                                  + (replay["codec_decode_ns_per_mb"] if raw else 0.0)))
    committed = n("ckpt.store.epochs_committed")
    aborted = n("ckpt.store.epochs_aborted")
    shipped, skipped = n("ckpt.replica.pages_shipped"), n("ckpt.replica.pages_skipped_warm")
    hits, misses = n("sim.stack_pool.hits"), n("sim.stack_pool.misses")

    def hist(name, field):
        return h.get(name, {}).get(field, 0)

    m = {
        "sim.events": events,
        "sim.fiber_switches": n("sim.fiber_switches"),
        "sim.host_ns_per_event": ratio(wall * 1e9, events),
        "sim.stack_pool.miss_ratio": ratio(misses, hits + misses),
        "vm.instructions": instrs,
        "vm.fused_ratio": ratio(n("sim.vm.fused_hits"), instrs),
        "vm.checked_ratio": ratio(n("sim.vm.dispatch_checked"), instrs),
        "vm.host_ns_per_instr": replay["vm_ns_per_instr"],
        "vm.host_share": ratio(instrs * replay["vm_ns_per_instr"] / 1e9, wall),
        "vni.frames_sent": n("vni.frames_sent"),
        "vni.bytes_sent": n("vni.bytes_sent"),
        "net.packets_sent": n("net.packets_sent"),
        "net.bytes_sent": n("net.bytes_sent"),
        "net.chunk.chunks": n("net.chunk.chunks"),
        "gcs.messages_delivered": n("gcs.messages_delivered"),
        "gcs.seq.order_sends": n("gcs.seq.order_sends"),
        "gcs.views_installed": n("gcs.views_installed"),
        "gcs.flush_rounds": n("gcs.flush_rounds"),
        "gcs.install_retransmit_msgs": n("gcs.install_retransmit_msgs"),
        "gcs.holdback_depth.max": hist("gcs.holdback_depth", "max"),
        "ckpt.checkpoints_taken": checkpoints,
        "ckpt.epochs_aborted_ratio": ratio(aborted, committed + aborted),
        "ckpt.epoch_ms": ratio(v["epoch_total_ns"], v["epochs_timed"]) / 1e6,
        "ckpt.pages_dirty_ratio": replay["pages_dirty_ratio"],
        "ckpt.codec.raw_bytes": raw,
        "ckpt.codec.encoded_bytes": n("ckpt.codec.encoded_bytes"),
        "ckpt.codec.ratio": ratio(raw, n("ckpt.codec.encoded_bytes")),
        "ckpt.codec.delta_ref_ratio": ratio(refs, refs + lits),
        "ckpt.replica.warm_skip_ratio": ratio(skipped, shipped + skipped),
        "ckpt.store.bytes_read": n("ckpt.store.bytes_read"),
        "ckpt.store.read_virtual_ms": hist("ckpt.store.read_ns", "sum") / 1e6,
        "ckpt.replica.get_virtual_ms": hist("ckpt.replica.get_ns", "sum") / 1e6,
        "ckpt.image.encode_host_ns_per_mb": replay["image_encode_ns_per_mb"],
        "ckpt.image.decode_host_ns_per_mb": replay["image_decode_ns_per_mb"],
        "ckpt.codec.encode_host_ns_per_mb": replay["codec_encode_ns_per_mb"],
        "ckpt.codec.decode_host_ns_per_mb": replay["codec_decode_ns_per_mb"],
        "util.lz.compress_host_ns_per_mb": replay["lz_compress_ns_per_mb"],
        "ckpt.host_share": ratio(ckpt_ns / 1e9, wall),
        "daemon.restarts": n("daemon.restarts"),
        "daemon.restores": n("daemon.restores"),
        "ckpt.recovery_lines": n("ckpt.recovery_lines"),
        "ckpt.rollback_intervals": n("ckpt.rollback_intervals"),
        "obs.trace_overhead_pct": ratio(traced_wall - wall, wall) * 100.0,
    }
    return m


def main():
    try:
        spec = json.loads(SPEC_FILE.read_text())
    except (OSError, ValueError) as e:
        die("cannot read %s: %s" % (SPEC_FILE.name, e), 2)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full record to this JSON-lines file")
    args = ap.parse_args()
    if args.seed < 0:
        die("--seed must be non-negative", 2)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    build()
    if args.trace:
        # Half the time untraced (the wall-time baseline of the derived
        # metrics), half traced, then the host replays.
        untraced = repeat(args.workload, args.seed, args.seconds / 2, False, MIN_REPS)
        traced = repeat(args.workload, args.seed, args.seconds / 2, True, 1)
        reps = untraced + traced
        replay = runner("replay", args.workload, args.seed)
    else:
        untraced = reps = repeat(args.workload, args.seed, args.seconds, False, MIN_REPS)

    failed = check(reps, args.workload, args.seed, args.trace)
    ok_untraced = [r for r in untraced if r.get("ok")]
    ok_traced = [r for r in reps if r.get("ok") and "registry" in r]
    simd = next((r["simd"] for r in reps if "simd" in r), "unknown")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "provenance": provenance(simd)}

    log("perfbench %s seed %d trace %d: %d runs, %d failed"
        % (args.workload, args.seed, args.trace, len(reps), failed))
    log("  provenance " + json.dumps(record["provenance"], sort_keys=True))
    metrics = {}
    if args.trace == 0 and ok_untraced:
        values, samples, record["exact"] = end_to_end(ok_untraced)
        record["samples"] = samples
        for m in spec["end_to_end"]:
            name = m["name"]
            describe(name, values[name], m["unit"], samples[name])
            metrics[name] = {"value": values[name], "unit": m["unit"]}
    elif args.trace == 1 and ok_traced and ok_untraced and replay.get("ok"):
        record["replay"] = replay
        for name, value in per_layer(ok_traced, ok_untraced, replay).items():
            describe(name, value, units[name], [])
            metrics[name] = {"value": value, "unit": units[name]}
    else:
        if args.trace == 1 and not replay.get("ok"):
            log("FAILED host replay of %s seed %d: %s"
                % (args.workload, args.seed, replay.get("error", "decode mismatch")))
        failed = max(failed, 1)
    log("  failed_runs %.6g (%d of %d)" % (failed / len(reps), failed, len(reps)))

    result = {"correct": failed == 0, "attempted": len(reps), "failed": failed,
              "metrics": metrics}
    if args.out:
        record["result"] = result
        with open(args.out, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
