#!/usr/bin/env bash
# Sampled host profile of one perfbench workload, without perf, valgrind or
# gdb. Builds perfbench's runner in Release (its own tree, build-profile/),
# compiles a small ITIMER_PROF sampler, preloads it into REPS runs of
#   perfbench_runner run --workload WORKLOAD --seed SEED
# and symbolizes the sampled program counters with nm. Prints the flat
# profile (share of samples per function; inlined code counts toward the
# function it was inlined into) and a rollup by the first starfish::
# namespace in each function's name (sim, net, gcs, daemon, mpi, vm, ckpt,
# util, core, obs); a std:: template instantiated on a starfish type counts
# toward that type's namespace. "libc" is everything outside the runner
# binary (libc, libstdc++, libm, the loader), "other" the runner's symbols
# with no starfish:: in their name. The timer asks for a sample every
# millisecond of process CPU time, but the kernel delivers at most one per
# scheduler tick (the header line prints the CPU time per sample). At 4 ms
# per sample, 60 runs of a 0.3 s workload give about 5,000 samples; a share
# of p then carries a standard error of sqrt(p(1-p)/n), under a percentage
# point.
#
#   scripts/host_profile.sh ring64_control        # 60 runs at seed 1
#   scripts/host_profile.sh sparse8_ckpt 40 7919  # 40 runs at seed 7919
#
# Unlike gprof's -pg, sampling leaves the code as the benchmark builds it:
# -pg instrumentation inflates call-heavy code. This is a view, not a
# measurement of record: perfbench's run.py stays the end-to-end benchmark.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 1 || $# -gt 3 ]]; then
  echo "usage: $0 WORKLOAD [REPS] [SEED]" >&2
  exit 2
fi
WORKLOAD=$1
REPS=${2:-60}
SEED=${3:-1}
BUILD=build-profile

cmake -S perfbench -B "$BUILD" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD" -j 4 --target perfbench_runner >/dev/null
RUNNER=$PWD/$BUILD/perfbench_runner

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

cat >"$work/sampler.c" <<'EOF'
// Records the interrupted program counter on every SIGPROF and writes the
// samples plus this process's mappings to ./host_profile.<pid> at exit.
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1u << 20)
#define PERIOD_US 1000

static uintptr_t* samples;
static volatile size_t nsamples;

static void on_prof(int sig, siginfo_t* info, void* ctx) {
  (void)sig;
  (void)info;
  const ucontext_t* uc = (const ucontext_t*)ctx;
#if defined(__x86_64__)
  const uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  const uintptr_t pc = (uintptr_t)uc->uc_mcontext.pc;
#else
#error "host_profile: unsupported architecture"
#endif
  if (nsamples < MAX_SAMPLES) samples[nsamples++] = pc;
}

__attribute__((constructor)) static void start(void) {
  samples = mmap(NULL, MAX_SAMPLES * sizeof(uintptr_t), PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (samples == MAP_FAILED) return;
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  const struct itimerval every = {{0, PERIOD_US}, {0, PERIOD_US}};
  setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void stop(void) {
  const struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  if (samples == MAP_FAILED || samples == NULL) return;
  char path[64];
  snprintf(path, sizeof path, "host_profile.%d", (int)getpid());
  FILE* out = fopen(path, "w");
  FILE* maps = fopen("/proc/self/maps", "r");
  if (out == NULL || maps == NULL) return;
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  fprintf(out, "cpu_us %ld\n",
          (long)(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1000000L +
              (long)(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec));
  char line[4096];
  while (fgets(line, sizeof line, maps) != NULL) fprintf(out, "map %s", line);
  fclose(maps);
  for (size_t i = 0; i < nsamples; ++i) fprintf(out, "pc %lx\n", (unsigned long)samples[i]);
  fclose(out);
}
EOF
cc -O2 -fPIC -shared -o "$work/sampler.so" "$work/sampler.c"

for _ in $(seq "$REPS"); do
  (cd "$work" && LD_PRELOAD="$work/sampler.so" "$RUNNER" run --workload "$WORKLOAD" \
    --seed "$SEED" >/dev/null)
done

python3 - "$work" "$RUNNER" "$WORKLOAD" "$REPS" "$SEED" <<'EOF'
import bisect
import collections
import pathlib
import re
import subprocess
import sys

work, runner, workload, reps, seed = sys.argv[1:]
runner = str(pathlib.Path(runner).resolve())
NAMESPACES = ("sim", "net", "gcs", "daemon", "mpi", "vm", "ckpt", "util", "core", "obs")

symtabs = {}


def symbols(path):
    """Sorted (start, end, name) of a module's functions, from nm."""
    if path not in symtabs:
        rows = []
        for flags in (["-C", "-n", "-S", "--defined-only"], ["-D", "-C", "-n", "-S", "--defined-only"]):
            out = subprocess.run(["nm", *flags, path], capture_output=True, text=True).stdout
            for line in out.splitlines():
                m = re.match(r"([0-9a-f]+) ([0-9a-f]+) [tTwWiI] (.*)", line)
                if m:
                    start = int(m.group(1), 16)
                    rows.append((start, start + int(m.group(2), 16), m.group(3)))
            if rows:
                break
        rows.sort()
        symtabs[path] = ([r[0] for r in rows], rows)
    return symtabs[path]


def bucket(module, name):
    if module != runner:
        return "libc"
    m = re.search(r"starfish::(\w+)::", name)
    if m is None:
        return "other"
    return m.group(1) if m.group(1) in NAMESPACES else "other"


flat = collections.Counter()
total = 0
cpu_us = 0
for f in sorted(pathlib.Path(work).glob("host_profile.*")):
    maps = []
    pcs = []
    for line in f.read_text().splitlines():
        kind, _, rest = line.partition(" ")
        if kind == "map":
            fields = rest.split()
            if len(fields) >= 6 and "x" in fields[1]:
                lo, hi = (int(x, 16) for x in fields[0].split("-"))
                maps.append((lo, hi, int(fields[2], 16), fields[5]))
        elif kind == "pc":
            pcs.append(int(rest, 16))
        elif kind == "cpu_us":
            cpu_us += int(rest)
    maps.sort()
    starts = [m[0] for m in maps]
    for pc in pcs:
        total += 1
        i = bisect.bisect_right(starts, pc) - 1
        if i < 0 or pc >= maps[i][1]:
            key = ("?", "[unmapped]")
        else:
            lo, _, off, path = maps[i]
            addr = pc - lo + off
            keys, rows = symbols(path)
            j = bisect.bisect_right(keys, addr) - 1
            if j >= 0 and addr < max(rows[j][1], rows[j][0] + 1):
                key = (path, rows[j][2])
            else:
                key = (path, "[" + pathlib.Path(path).name + "]")
        flat[key] += 1

if total == 0:
    sys.exit("host_profile: no samples recorded")
print("host profile: %s, seed %s, %s runs, %d samples over %.2f s of CPU (%.2f ms each)"
      % (workload, seed, reps, total, cpu_us / 1e6, cpu_us / 1e3 / total))
print()
print("flat profile (top 40):")
for (module, name), n in flat.most_common(40):
    print("  %6.2f%%  %-6s %s" % (100.0 * n / total, bucket(module, name), name[:150]))
rollup = collections.Counter()
for (module, name), n in flat.items():
    rollup[bucket(module, name)] += n
print()
print("by namespace:")
for ns, n in rollup.most_common():
    print("  %6.2f%%  %s" % (100.0 * n / total, ns))
EOF
