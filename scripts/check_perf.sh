#!/bin/sh
# Host-perf regression gate: build the relbench preset, run the host
# microbenchmarks with the JSON emitter, and compare per-benchmark CPU
# time against the committed baseline (BENCH_host.json).
#
# Usage: scripts/check_perf.sh [tolerance]
#   tolerance: allowed fractional slowdown before failing (default 0.50;
#              host timing on shared machines is noisy, so keep this
#              generous and rely on the trajectory, not single runs).
#
# Set CHECK_PERF_SKIP_BUILD=1 to reuse an already-built relbench tree
# (scripts/run_all_benches.sh --perf does this after its own build).
#
# Same-host only: the baseline's google-benchmark context (CPU count,
# MHz per CPU and library_build_type) must match the fresh run's.
# Timings from another host measure the host, not the code, so on a
# mismatch the gate refuses to compare and exits 2; re-record the
# baseline on this host or run an interleaved A/B against the parent
# commit built here.
#
# Exit status: 0 if every benchmark is within tolerance of the
# baseline (new benchmarks absent from the baseline, and baseline
# benchmarks absent from the fresh run, are reported as NEW / GONE but
# do not fail), 1 on a regression, 2 when the baseline was recorded on
# a different host. A fixed set of required benchmarks —
# the COW frame-store hot paths (BM_CopyFrame, BM_ZeroFill,
# BM_PageInOut), the fault path (BM_FullFaultPath, BM_FaultBatch,
# BM_FaultRedeliver), the resolve path (BM_ResolveThroughBindings,
# BM_PerCpuResolveHit), the sharded engine
# (BM_ShardedStep, BM_CrossShardEvent), the batched memory market
# (BM_MarketRound), the shared-kernel fault path
# (BM_SharedKernelFault), the replacement-policy hooks
# (BM_PolicyTouch, BM_PolicyVictim) and the DB page-lock table
# (BM_LockPageCycle) — must be present in the fresh
# run; their absence fails the gate even if everything that did run
# was fast enough. The policy hooks additionally carry a pair gate:
# BM_PolicyTouch (virtual dispatch through the ReplacementPolicy
# interface) must stay within 1.1x of BM_PolicyTouchInline (the same
# clock called directly), so the src/policy refactor can never
# quietly tax the clockPass hot path.

set -eu

repo=$(cd "$(dirname "$0")/.." && pwd)
tol="${1:-0.50}"
case "$tol" in
    ''|*[!0-9.]*|*.*.*)
        echo "error: tolerance must be a number, got '$tol'" >&2
        exit 1 ;;
esac
baseline="$repo/BENCH_host.json"
fresh="$repo/build-relbench/BENCH_host_new.json"

if [ ! -f "$baseline" ]; then
    echo "error: no baseline at $baseline" >&2
    echo "Generate one with:" >&2
    echo "  build-relbench/bench/microbench_host --json=BENCH_host.json" >&2
    exit 1
fi

if [ "${CHECK_PERF_SKIP_BUILD:-0}" != "1" ]; then
    cmake --preset relbench -S "$repo" >/dev/null
    cmake --build --preset relbench --target microbench_host -j \
        >/dev/null
fi

(cd "$repo/build-relbench" &&
     ./bench/microbench_host \
         --json="$fresh" --benchmark_min_time=0.2 >/dev/null)

python3 - "$baseline" "$fresh" "$tol" <<'EOF'
import json, sys

base_path, new_path, tol = sys.argv[1], sys.argv[2], float(sys.argv[3])

def load(path):
    with open(path) as f:
        return json.load(f)

def times(data):
    out = {}
    for b in data.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev) if repetitions used.
        if b.get("run_type") == "aggregate":
            continue
        out[b["name"]] = (b["cpu_time"], b["time_unit"])
    return out

base_data, new_data = load(base_path), load(new_path)

# Refuse cross-host comparisons before looking at any timing.
host_keys = ["num_cpus", "mhz_per_cpu", "library_build_type"]
host = {p: [d.get("context", {}).get(k) for k in host_keys]
        for p, d in (("baseline", base_data), ("fresh", new_data))}
if host["baseline"] != host["fresh"]:
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

base, new = times(base_data), times(new_data)
failed = []
missing = []

# Hot paths must stay benchmarked; a rename or deletion that silently
# drops one of these would blind the gate.
required = ["BM_CopyFrame", "BM_ZeroFill", "BM_PageInOut",
            "BM_FullFaultPath", "BM_FaultBatch", "BM_FaultRedeliver",
            "BM_ResolveThroughBindings", "BM_PerCpuResolveHit",
            "BM_ShardedStep", "BM_CrossShardEvent",
            "BM_MarketRound", "BM_SharedKernelFault",
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
print(f"\nOK: all benchmarks within {tol:.0%} of baseline")
EOF
