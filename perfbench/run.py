#!/usr/bin/env python3
"""End-to-end benchmark of the V++ external page-cache simulator.

Builds perfbench (perfbench/CMakeLists.txt, Release) from the
checkout's sources, runs one workload for a fixed host-time budget and
prints its metrics. The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
with --trace 1 they are its per-layer ones.

Usage, from the repository root:

    python3 perfbench/run.py --workload vm_paging --seed 42 \\
        --seconds 36 --trace 0
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --selftest

The build directory is $CARGO_TARGET_DIR (default .bench_build),
relative to the repository root. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dc_cluster", "vm_paging", "shared_kernel")
DEFAULT_SEED = 42
# Time limit for one run, build check included.
RUN_LIMIT_S = 170.0

# The dc_cluster row of the committed evaluation this benchmark pins.
SCALEOUT_BASELINE = os.path.join("bench", "baselines", "table_scaleout.json")
SCALEOUT_ROW = "32x8 (256 CPUs, 40k TPS)"
SHARED_KERNEL_PIN = os.path.join(HERE, "pinned",
                                 "shared_kernel_seed42.json")
# CPU seconds of one run of the calibration kernel (perfbench/calib.h)
# on the reference host: the 4-vCPU Xeon VM of perfbench/README.md, in
# a typical phase. host_s and setup_s are stated at this host speed.
CAL_REFERENCE_S = 0.065


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configure (once) and build the program; returns its path."""
    out = build_dir()
    steps = []
    if not any(os.path.exists(os.path.join(out, f))
               for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            raise RuntimeError("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def run_bench(exe, workload, seed, seconds, trace, deadline):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        path = os.path.join(traces, "%s-seed%d.csv" % (workload, seed))
        cmd += ["--trace-out", path]
        log("perfbench: spans of the last traced repetition -> " + path)
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError("perfbench exited with %d"
                           % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pinned_checks(workload, seed, sim):
    """Exact comparisons against committed results at the default seed.

    Returns a list of (what, ok) pairs.
    """
    if seed != DEFAULT_SEED:
        return []
    if workload == "dc_cluster":
        path = os.path.join(ROOT, SCALEOUT_BASELINE)
        try:
            with open(path) as f:
                rows = json.load(f)["rows"]
            want = next(r["metrics"] for r in rows
                        if r["name"] == SCALEOUT_ROW)
        except (OSError, KeyError, StopIteration, ValueError) as e:
            return [("dc_cluster: read %s: %s" % (path, e), False)]
        # The baseline stores ten significant digits.
        return [("dc_cluster: %s equals %s" % (k, SCALEOUT_BASELINE),
                 k in sim and float("%.10g" % sim[k]) == v)
                for k, v in want.items()]
    if workload == "shared_kernel":
        with open(SHARED_KERNEL_PIN) as f:
            want = json.load(f)
        return [("shared_kernel: %s equals the pinned value" % k,
                 sim.get(k) == v) for k, v in want.items()] + [
            ("shared_kernel: pinned fields cover the result",
             set(want) == set(sim))]
    return []


def ratio(num, den):
    return num / den if den else 0.0


def at_reference_speed(samples, cals):
    """Median of CPU-second samples restated at the reference speed.

    Each sample is divided by the calibration time measured around
    it and multiplied by the reference one: on a shared host the speed
    of the same code drifts by tens of percent over minutes, and this
    takes most of that drift out of host_s and setup_s.
    """
    return statistics.median(
        x * CAL_REFERENCE_S / c for x, c in zip(samples, cals))


def host_seconds(raw):
    """host_s: the untraced repetitions, at reference speed."""
    return at_reference_speed(raw["host_s"], raw["host_cal_s"])


def end_to_end(raw):
    host = host_seconds(raw)
    heap = raw["peak_heap_mb"]
    return {
        "host_s": host,
        "setup_s": at_reference_speed(raw["setup_s"], raw["setup_cal_s"]),
        # Unavailable (None) when the heap hooks are compiled out.
        "peak_heap_mb": statistics.median(heap) if heap else None,
        "sim_avg_ms": raw["sim"]["avg_ms"],
    }


def per_layer(workload, raw, names):
    """Every per-layer metric; layers the workload never reaches read 0."""
    sim = raw["sim"]
    host = host_seconds(raw)
    traced = at_reference_speed(raw["host_s_traced"],
                                raw["host_cal_s_traced"])
    m = {k: statistics.median(v) for k, v in raw["layer_samples"].items()}
    m["bench.trace_overhead_frac"] = traced / host - 1.0
    m["bench.host_cpu_s"] = statistics.median(raw["host_s"])
    m["bench.calib_s"] = statistics.median(raw["cal_s"])
    if workload == "vm_paging":
        m.update({
            "core.resolve_hit_ratio": ratio(
                sim["resolve_hits"],
                sim["resolve_hits"] + sim["resolve_misses"]),
            "core.fault_sim_us_avg": sim["fault_sim_us_avg"],
            "core.fault_sim_us_max": sim["fault_sim_us_max"],
            "core.faults": sim["faults"],
            "core.protection_faults": sim["protection_faults"],
            "core.pages_migrated": sim["pages_migrated"],
            "core.manager_calls": sim["manager_calls"],
            "core.host_ns_per_touch": ratio(host * 1e9, sim["touches"]),
            "managers.sampling_faults": sim["sampling_faults"],
            "managers.write_backs": sim["write_backs"],
            "managers.spcm_grants": sim["spcm_grants"],
            "policy.evictions": sim["evictions"],
            "hw.disk_reads": sim["disk_reads"],
            "hw.disk_writes": sim["disk_writes"],
            "sim.events": sim["events"],
            "sim.events_per_host_s": ratio(sim["events"], host),
        })
    elif workload == "shared_kernel":
        m.update({
            "core.cpu_probe_hit_ratio": ratio(
                sim["probe_hits"], sim["probe_hits"] + sim["probe_misses"]),
            "core.faults_per_batch": ratio(sim["faults_coalesced"],
                                           sim["fault_batches"]),
            "core.host_ns_per_touch": ratio(host * 1e9, sim["touches"]),
            "core.faults": sim["faults"],
            "core.pages_migrated": sim["pages_migrated"],
            "sim.shard.epochs": sim["epochs"],
            "sim.shard.cross_events": sim["cross_events"],
            "sim.shard.host_us_per_epoch": ratio(host * 1e6, sim["epochs"]),
            "db.txns": sim["txns"],
            "db.host_us_per_txn": ratio(host * 1e6, sim["txns"]),
        })
    else:
        m.update({
            "sim.shard.epochs": sim["epochs"],
            "sim.shard.cross_events": sim["cross_events"],
            "sim.shard.host_us_per_epoch": ratio(host * 1e6, sim["epochs"]),
            "db.txns": sim["txns"],
            "db.remote_txns": sim["remote_txns"],
            "db.host_us_per_txn": ratio(host * 1e6, sim["txns"]),
        })
    unknown = set(m) - set(names)
    if unknown:
        raise RuntimeError("metrics missing from BENCHMARK.json: %s"
                           % sorted(unknown))
    return {k: m.get(k, 0.0) for k in names}


def fingerprint(raw):
    cpu, mhz = "unknown", None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, val = line.partition(":")
                key = key.strip()
                if key == "model name" and cpu == "unknown":
                    cpu = val.strip()
                elif key == "cpu MHz" and mhz is None:
                    mhz = float(val)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "mhz": mhz,
            "compiler": "g++ " + raw["build"]["compiler"],
            "build_type": raw["build"]["build_type"],
            "mem_hooks": raw["build"]["mem_hooks"]}


def run_one(exe, workload, seed, seconds, trace, spec, deadline):
    raw = run_bench(exe, workload, seed, seconds, trace, deadline)
    log("perfbench: CPU seconds of each untraced repetition: "
        + " ".join("%.4g" % x for x in raw["host_s"]))
    log("perfbench: CPU seconds of each calibration: "
        + " ".join("%.4g" % x for x in raw["cal_s"]))
    pins = pinned_checks(workload, seed, raw["sim"])
    attempted = raw["attempted"] + len(pins)
    failed = raw["failed"] + sum(1 for _, ok in pins if not ok)
    for what in raw["failures"] + [w for w, ok in pins if not ok]:
        log("perfbench: CHECK FAILED: " + what)
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        values = per_layer(workload, raw, names)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = end_to_end(raw)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    return {
        "workload": workload,
        "reps": len(raw["host_s"]) + len(raw["host_s_traced"]),
        "failed_frac": failed / attempted,
        "sim_p99_ms": raw["sim"]["p99_ms"],
        "host_cpu_s": statistics.median(raw["host_s"]),
        "calib_s": statistics.median(raw["cal_s"]),
        "fingerprint": fingerprint(raw),
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": values[k], "unit": units[k]}
                        for k in units},
        },
    }


def show(out):
    print("perfbench %s: %d repetitions" % (out["workload"], out["reps"]))
    for name, m in out["result"]["metrics"].items():
        value = "unavailable" if m["value"] is None else "%.6g" % m["value"]
        print("  %-30s %14s %s" % (name, value, m["unit"]))
    # Reported, not gated: the study workloads' p99 is a discrete
    # simulated value that reads the same at every seed.
    print("  %-30s %14.6g ms" % ("sim_p99_ms", out["sim_p99_ms"]))
    # The measured figures behind host_s: see at_reference_speed.
    print("  %-30s %14.6g s" % ("host_cpu_s (measured)", out["host_cpu_s"]))
    print("  %-30s %14.6g s (reference %g s)"
          % ("calib_s", out["calib_s"], CAL_REFERENCE_S))
    r = out["result"]
    print("  %-30s %14.6g (%d of %d checks failed)"
          % ("failed_frac", out["failed_frac"], r["failed"], r["attempted"]))
    print("fingerprint: " + json.dumps(out["fingerprint"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload untraced and tabulate")
    ap.add_argument("--selftest", action="store_true",
                    help="worker-count identity and tracing checks")
    args = ap.parse_args()
    if not (args.all or args.selftest or args.workload):
        ap.error("one of --workload, --all or --selftest is required")
    if args.seed < 0:
        ap.error("--seed must not be negative")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        seconds = args.seconds or spec["run_seconds"]
        exe = build()
        if args.selftest:
            return subprocess.run([exe, "--selftest"]).returncode
        workloads = WORKLOADS if args.all else (args.workload,)
        outs = []
        for w in workloads:
            deadline = time.monotonic() + RUN_LIMIT_S
            outs.append(run_one(exe, w, args.seed, seconds, args.trace,
                                spec, deadline))
            show(outs[-1])
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log("perfbench: " + str(e))
        return 1
    if args.all:
        names = [m["name"] for m in spec["end_to_end"]]
        print("\n%-14s" % "workload" + "".join("%16s" % n for n in names)
              + "%16s%14s" % ("sim_p99_ms", "failed_frac"))
        for o in outs:
            ms = o["result"]["metrics"]
            print("%-14s" % o["workload"] + "".join(
                "%16s" % ("n/a" if ms[n]["value"] is None
                          else "%.4g %s" % (ms[n]["value"], ms[n]["unit"]))
                for n in names) + "%16s%14.3g" % (
                    "%.4g ms" % o["sim_p99_ms"], o["failed_frac"]))
        return 0 if all(o["result"]["correct"] for o in outs) else 1
    print(json.dumps(outs[0]["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
