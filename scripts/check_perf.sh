#!/bin/sh
# Host-perf regression gate: build the relbench preset, run the host
# microbenchmarks with the JSON emitter, and compare per-benchmark CPU
# time against a reference.
#
# Usage: scripts/check_perf.sh [tolerance]
#        scripts/check_perf.sh --ab REV [tolerance]
#   tolerance: allowed fractional slowdown before failing (default 0.50;
#              host timing on shared machines is noisy, so keep this
#              generous and rely on the trajectory, not single runs).
#
# Without --ab the reference is the committed baseline
# (BENCH_host.json), which must come from this host: the baseline's
# google-benchmark context (CPU count, MHz per CPU, library_build_type,
# and the CPU model name that microbench_host adds as `cpu_model`)
# must match the fresh run's. Timings from another host measure the
# host, not the code, so on a mismatch the gate refuses to compare and
# exits 2; re-record the baseline on this host or use --ab.
#
# With --ab REV the reference is commit REV built on this host: the
# script checks REV out in a temporary git worktree, builds its
# microbench_host with REV's own relbench preset, runs the two
# binaries alternately (CHECK_PERF_AB_ROUNDS rounds, default 3, each a
# full run of both) and compares per-benchmark medians. Interleaving
# spreads host load over both sides, so the comparison works on any
# host, CI runners included. The worktree lives in a fresh directory
# under ${TMPDIR:-/tmp} and is removed on exit.
#
# Set CHECK_PERF_SKIP_BUILD=1 to reuse an already-built relbench tree
# for the code under test (scripts/run_all_benches.sh --perf does this
# after its own build); the --ab reference is always built.
#
# Exit status: 0 if every benchmark is within tolerance of the
# reference (new benchmarks absent from the reference, and reference
# benchmarks absent from the fresh run, are reported as NEW / GONE but
# do not fail), 1 on a regression, 2 when the baseline was recorded on
# a different host (baseline mode only). A fixed set of required
# benchmarks —
# the COW frame-store hot paths (BM_CopyFrame, BM_ZeroFill,
# BM_PageInOut), the fault path (BM_FullFaultPath, BM_FaultBatch,
# BM_FaultRedeliver), the resolve path (BM_ResolveThroughBindings,
# BM_PerCpuResolveHit), the sharded engine
# (BM_ShardedStep, BM_CrossShardEvent), the batched memory market
# (BM_MarketRound), the shared-kernel fault path
# (BM_SharedKernelFault) and touch-queue drain (BM_CpuTouchDrain),
# the replacement-policy hooks
# (BM_PolicyTouch, BM_PolicyVictim) and the DB page-lock table
# (BM_LockPageCycle) — must be present in the fresh
# run; their absence fails the gate even if everything that did run
# was fast enough. The policy hooks additionally carry a pair gate:
# BM_PolicyTouch (virtual dispatch through the ReplacementPolicy
# interface) must stay within 1.1x of BM_PolicyTouchInline (the same
# clock called directly), so the src/policy refactor can never
# quietly tax the clockPass hot path. Likewise BM_CpuTouchDrain/256
# must stay within 1.5x of BM_CpuTouchDrain/8: a drain costs
# O(pending touches), never O(configured CPUs).

set -eu

repo=$(cd "$(dirname "$0")/.." && pwd)
ab_rev=""
if [ "${1:-}" = "--ab" ]; then
    if [ -z "${2:-}" ]; then
        echo "error: --ab needs a revision" >&2
        exit 1
    fi
    ab_rev=$2
    shift 2
fi
tol="${1:-0.50}"
case "$tol" in
    ''|*[!0-9.]*|*.*.*)
        echo "error: tolerance must be a number, got '$tol'" >&2
        exit 1 ;;
esac
rounds="${CHECK_PERF_AB_ROUNDS:-3}"
case "$rounds" in
    ''|*[!0-9]*|0)
        echo "error: CHECK_PERF_AB_ROUNDS must be a positive integer," \
             "got '$rounds'" >&2
        exit 1 ;;
esac
baseline="$repo/BENCH_host.json"
fresh="$repo/build-relbench/BENCH_host_new.json"

if [ -z "$ab_rev" ] && [ ! -f "$baseline" ]; then
    echo "error: no baseline at $baseline" >&2
    echo "Generate one with:" >&2
    echo "  build-relbench/bench/microbench_host --json=BENCH_host.json" >&2
    exit 1
fi

if [ "${CHECK_PERF_SKIP_BUILD:-0}" != "1" ]; then
    cmake --preset relbench -S "$repo" >/dev/null
    cmake --build --preset relbench --target microbench_host -j "$(nproc)" \
        >/dev/null
fi

# One full microbench run of binary $1 (run from its build tree)
# writing JSON to $2.
run_bench() {
    (cd "$(dirname "$1")/.." &&
         "$1" --json="$2" --benchmark_min_time=0.2 >/dev/null)
}

if [ -z "$ab_rev" ]; then
    run_bench "$repo/build-relbench/bench/microbench_host" "$fresh"
    set -- --baseline "$baseline" --fresh "$fresh"
else
    rev=$(git -C "$repo" rev-parse --verify "$ab_rev^{commit}")
    work=$(mktemp -d "${TMPDIR:-/tmp}/check_perf.XXXXXX")
    tree="$work/src"
    cleanup() {
        git -C "$repo" worktree remove --force "$tree" 2>/dev/null || true
        rm -rf "$work"
    }
    trap cleanup EXIT
    trap 'exit 1' INT TERM
    echo "A/B reference: $ab_rev ($rev), $rounds interleaved rounds" >&2
    git -C "$repo" worktree add --detach "$tree" "$rev" >/dev/null
    # Both sides build with their own relbench preset, so the A/B
    # measures the code, not a difference in build settings. The
    # reference's compiler output goes to a log, shown on failure.
    if ! (cd "$tree" && cmake --preset relbench &&
              cmake --build --preset relbench --target microbench_host \
                  -j "$(nproc)") >"$work/build.log" 2>&1; then
        cat "$work/build.log" >&2
        echo "error: building microbench_host at $ab_rev failed" >&2
        exit 1
    fi
    set --
    i=1
    while [ "$i" -le "$rounds" ]; do
        # Alternate which side goes first, so a load phase of the host
        # does not always land on the same side.
        if [ $((i % 2)) -eq 1 ]; then order="ref new"; else order="new ref"; fi
        for side in $order; do
            out="$work/$side.$i.json"
            if [ "$side" = ref ]; then
                run_bench "$tree/build-relbench/bench/microbench_host" "$out"
                set -- "$@" --baseline "$out"
            else
                run_bench "$repo/build-relbench/bench/microbench_host" "$out"
                set -- "$@" --fresh "$out"
            fi
        done
        echo "round $i of $rounds done" >&2
        i=$((i + 1))
    done
fi

python3 - "$tol" "$ab_rev" "$@" <<'EOF'
import json, statistics, sys

tol, ab_rev = float(sys.argv[1]), sys.argv[2]
paths = {"--baseline": [], "--fresh": []}
args = sys.argv[3:]
for flag, path in zip(args[::2], args[1::2]):
    paths[flag].append(path)

def load(path):
    with open(path) as f:
        return json.load(f)

def times(runs):
    # Median CPU time per benchmark over the runs of one side.
    samples, units = {}, {}
    for data in runs:
        for b in data.get("benchmarks", []):
            # Skip aggregate rows (mean/median/stddev) if repetitions
            # were used.
            if b.get("run_type") == "aggregate":
                continue
            samples.setdefault(b["name"], []).append(b["cpu_time"])
            units[b["name"]] = b["time_unit"]
    return {n: (statistics.median(v), units[n])
            for n, v in samples.items()}

base_runs = [load(p) for p in paths["--baseline"]]
new_runs = [load(p) for p in paths["--fresh"]]
base_data, new_data = base_runs[0], new_runs[0]

# Refuse cross-host comparisons before looking at any timing. (An A/B
# runs both sides here, so its host always matches.)
host_keys = ["num_cpus", "mhz_per_cpu", "library_build_type",
             "cpu_model"]
host = {p: [d.get("context", {}).get(k) for k in host_keys]
        for p, d in (("baseline", base_data), ("fresh", new_data))}
if not ab_rev and host["baseline"] != host["fresh"]:
    for k, b, n in zip(host_keys, host["baseline"], host["fresh"]):
        mark = "" if b == n else "   <-- differs"
        print(f"  {k:<20} baseline {b!s:<10} fresh {n!s:<10}{mark}")
    print("\nHOST MISMATCH: BENCH_host.json was recorded on a different "
          "host, so its timings cannot gate this one.\n"
          "Re-record it here:\n"
          "  build-relbench/bench/microbench_host --json=BENCH_host.json "
          "--benchmark_min_time=0.2\n"
          "or run an interleaved A/B against the parent commit built "
          "on this host.")
    sys.exit(2)

base, new = times(base_runs), times(new_runs)
ref = f"{ab_rev} (median of {len(base_runs)} interleaved runs)" \
    if ab_rev else "baseline"
print(f"reference: {ref}")
failed = []
missing = []

# Hot paths must stay benchmarked; a rename or deletion that silently
# drops one of these would blind the gate.
required = ["BM_CopyFrame", "BM_ZeroFill", "BM_PageInOut",
            "BM_FullFaultPath", "BM_FaultBatch", "BM_FaultRedeliver",
            "BM_ResolveThroughBindings", "BM_PerCpuResolveHit",
            "BM_ShardedStep", "BM_CrossShardEvent", "BM_ShardedSparse",
            "BM_MarketRound", "BM_SharedKernelFault",
            "BM_CpuTouchDrain",
            "BM_PolicyTouch", "BM_PolicyVictim", "BM_LockPageCycle"]
for name in required:
    if not any(n == name or n.startswith(name + "/") for n in new):
        missing.append(name)

wide = max((len(n) for n in {**base, **new}), default=20) + 2
print(f"  {'benchmark':<{wide}} {'old ns':>12} {'new ns':>12} "
      f"{'ratio':>8}  status")
for name, (t_new, unit) in sorted(new.items()):
    if name not in base:
        print(f"  {name:<{wide}} {'-':>12} {t_new:>12.1f} "
              f"{'-':>8}  NEW (no baseline)")
        continue
    t_base, base_unit = base[name]
    if base_unit != unit:
        print(f"  {name:<{wide}} {'-':>12} {'-':>12} {'-':>8}  "
              f"SKIP (unit {base_unit} -> {unit})")
        continue
    ratio = t_new / t_base if t_base else float("inf")
    status = "OK" if ratio <= 1.0 + tol else "SLOW"
    print(f"  {name:<{wide}} {t_base:>12.1f} {t_new:>12.1f} "
          f"{ratio:>7.2f}x  {status}")
    if status == "SLOW":
        failed.append(name)
# Deleted or renamed benchmarks: informational only (required names
# are caught by the MISSING check below).
for name, (t_base, _) in sorted(base.items()):
    if name not in new:
        print(f"  {name:<{wide}} {t_base:>12.1f} {'-':>12} {'-':>8}  "
              f"GONE (in baseline, not in fresh run)")

for name in missing:
    print(f"  MISSING {name}: required benchmark not in fresh run "
          f"(renamed or deleted?)")

# Pair gate: the virtual policy hook vs the same clock inlined, both
# from this run (so host noise cancels), must stay within 1.1x.
if "BM_PolicyTouch" in new and "BM_PolicyTouchInline" in new:
    t_virt, _ = new["BM_PolicyTouch"]
    t_inl, _ = new["BM_PolicyTouchInline"]
    ratio = t_virt / t_inl if t_inl else float("inf")
    ok = ratio <= 1.1
    print(f"  policy-hook overhead: {t_virt:.1f} vs {t_inl:.1f} ns "
          f"({ratio:.2f}x, limit 1.10x)  "
          f"{'OK' if ok else 'SLOW'}")
    if not ok:
        failed.append("BM_PolicyTouch vs BM_PolicyTouchInline")

# Pair gate: the touch-queue drain must not grow with the CPU count.
drain_lo, drain_hi = "BM_CpuTouchDrain/8", "BM_CpuTouchDrain/256"
if drain_lo in new and drain_hi in new:
    t_lo, _ = new[drain_lo]
    t_hi, _ = new[drain_hi]
    ratio = t_hi / t_lo if t_lo else float("inf")
    ok = ratio <= 1.5
    print(f"  touch-drain scaling: {t_hi:.1f} vs {t_lo:.1f} ns "
          f"({ratio:.2f}x, limit 1.50x)  "
          f"{'OK' if ok else 'SLOW'}")
    if not ok:
        failed.append(f"{drain_hi} vs {drain_lo}")

if failed or missing:
    parts = []
    if failed:
        parts.append(f"{len(failed)} regressed beyond {tol:.0%} "
                     f"({', '.join(failed)})")
    if missing:
        parts.append(f"{len(missing)} required missing "
                     f"({', '.join(missing)})")
    print(f"\nFAIL: {'; '.join(parts)}")
    sys.exit(1)
print(f"\nOK: all benchmarks within {tol:.0%} of the reference")
EOF
