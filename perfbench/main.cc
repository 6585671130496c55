/**
 * @file
 * perfbench: runs one benchmark workload for a fixed host-time
 * budget and prints its raw measurements as one JSON object.
 *
 *   perfbench --workload dc_cluster|vm_paging|shared_kernel
 *             --seed N --seconds S --trace 0|1 [--trace-out FILE]
 *   perfbench --selftest
 *
 * It repeats one instance of the workload (one study call, or one
 * vm_paging run) until the wall-clock budget is spent and reports
 * every repetition's host time, in CPU seconds of this process (see
 * cpuSeconds in workloads.h); perfbench/run.py turns the samples into
 * medians and the benchmark's result line. Between repetitions it
 * times the fixed calibration kernel of calib.h. Every repetition runs
 * the same seed, so its simulated results must repeat exactly — that
 * is one of the output checks.
 *
 * With --trace 1, repetitions alternate untraced and traced. Traced
 * ones record spans around each call into a layer; their host time
 * against the untraced ones is the tracing overhead. The spans of
 * the last traced repetition are written to --trace-out at exit.
 */

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "calib.h"
#include "sim/mem_accounting.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;
using namespace vpp;

namespace {

/// A result struct flattened to named numbers: printed as JSON and
/// compared for exact equality between repetitions and worker counts.
using Fields = std::vector<std::pair<const char *, double>>;

Fields
fields(const db::ClusterResult &r)
{
    return {{"nodes", r.nodes},
            {"total_cpus", r.totalCpus},
            {"avg_ms", r.avgMs},
            {"p99_ms", r.p99Ms},
            {"worst_ms", r.worstMs},
            {"remote_avg_ms", r.remoteAvgMs},
            {"txns", static_cast<double>(r.txns)},
            {"remote_txns", static_cast<double>(r.remoteTxns)},
            {"tps_achieved", r.tpsAchieved},
            {"cpu_utilization", r.cpuUtilization},
            {"lock_wait_s", r.lockWaitSec},
            {"epochs", static_cast<double>(r.epochs)},
            {"cross_events", static_cast<double>(r.crossEvents)}};
}

Fields
fields(const db::SharedKernelResult &r)
{
    return {{"shards", r.shards},
            {"total_cpus", r.totalCpus},
            {"txns", static_cast<double>(r.txns)},
            {"touches", static_cast<double>(r.touches)},
            {"probe_hits", static_cast<double>(r.probeHits)},
            {"probe_misses", static_cast<double>(r.probeMisses)},
            {"local_hits", static_cast<double>(r.localHits)},
            {"kernel_trips", static_cast<double>(r.kernelTrips)},
            {"cross_rpcs", static_cast<double>(r.crossRpcs)},
            {"faults", static_cast<double>(r.faults)},
            {"fault_batches", static_cast<double>(r.faultBatches)},
            {"faults_coalesced", static_cast<double>(r.faultsCoalesced)},
            {"cpu_touches_queued", static_cast<double>(r.cpuTouchesQueued)},
            {"pages_migrated", static_cast<double>(r.pagesMigrated)},
            {"avg_ms", r.avgMs},
            {"p99_ms", r.p99Ms},
            {"worst_ms", r.worstMs},
            {"tps_achieved", r.tpsAchieved},
            {"hit_rate", r.hitRate},
            {"cpu_utilization", r.cpuUtilization},
            {"epochs", static_cast<double>(r.epochs)},
            {"cross_events", static_cast<double>(r.crossEvents)}};
}

Fields
fields(const VmPagingResult &r)
{
    auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    return {{"txns", d(r.txns)},
            {"touches", d(r.touches)},
            {"read_backs", d(r.readBacks)},
            {"sim_s", r.simSec},
            {"avg_ms", r.avgMs},
            {"p99_ms", r.p99Ms},
            {"faults", d(r.faults)},
            {"protection_faults", d(r.protectionFaults)},
            {"pages_migrated", d(r.pagesMigrated)},
            {"manager_calls", d(r.managerCalls)},
            {"resolve_hits", d(r.resolveHits)},
            {"resolve_misses", d(r.resolveMisses)},
            {"fault_sim_us_avg", r.faultSimUsAvg},
            {"fault_sim_us_max", r.faultSimUsMax},
            {"clock_passes", d(r.clockPasses)},
            {"sampling_faults", d(r.samplingFaults)},
            {"write_backs", d(r.writeBacks)},
            {"spcm_grants", d(r.spcmGrants)},
            {"evictions", d(r.evictions)},
            {"disk_reads", d(r.diskReads)},
            {"disk_writes", d(r.diskWrites)},
            {"events", d(r.events)}};
}

bool
sameFields(const Fields &a, const Fields &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::strcmp(a[i].first, b[i].first) != 0 ||
            a[i].second != b[i].second)
            return false;
    }
    return true;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        if (static_cast<unsigned char>(ch) >= 0x20)
            out += ch;
    }
    return out + "\"";
}

std::string
jsonFields(const Fields &f)
{
    std::string out = "{";
    for (std::size_t i = 0; i < f.size(); ++i) {
        out += (i ? ", " : "") + jsonString(f[i].first) + ": " +
               jsonNumber(f[i].second);
    }
    return out + "}";
}

std::string
jsonList(const std::vector<double> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        out += (i ? ", " : "") + jsonNumber(v[i]);
    return out + "]";
}

/// What one repetition reports back to the repetition loop.
struct Rep
{
    double hostSec = 0; ///< CPU seconds of the timed phase
    std::vector<double> setupSec;
    std::int64_t peakHeapBytes = 0;
    Fields sim;
    /// Per-rep layer values taken from the spans (traced reps only).
    std::map<std::string, double> layers;
};

/// Span-derived layer metrics of one traced vm_paging repetition.
std::map<std::string, double>
vmPagingLayers(const Tracer &tr, const VmPagingResult &r)
{
    std::vector<double> hit, fault, clock;
    double touchNs = 0, clockNs = 0;
    for (const Tracer::Span &s : tr.spans()) {
        const double ns = static_cast<double>(s.endNs - s.startNs);
        switch (s.name) {
        case Tracer::kTouchHit:
            hit.push_back(ns);
            touchNs += ns;
            break;
        case Tracer::kTouchFault:
            fault.push_back(ns);
            touchNs += ns;
            break;
        case Tracer::kClockPass:
            clock.push_back(ns);
            clockNs += ns;
            break;
        default:
            break;
        }
    }
    // Spans are wall time, so their shares are of the wall time.
    const double hostNs = r.hostWallSec * 1e9;
    return {
        {"core.touch_hit_ns_p50", percentile(hit, 0.50)},
        {"core.touch_hit_ns_p99", percentile(hit, 0.99)},
        {"core.touch_fault_ns_p50", percentile(fault, 0.50)},
        {"core.touch_fault_ns_p99", percentile(fault, 0.99)},
        {"core.touch_share", touchNs / hostNs},
        {"managers.clock_pass_us_p50", percentile(clock, 0.50) / 1e3},
        {"managers.clock_pass_us_p99", percentile(clock, 0.99) / 1e3},
        {"managers.clock_pass_share", clockNs / hostNs},
        // No spans inside clockPass, so its self time is its span.
        {"policy.ns_per_eviction",
         r.evictions ? clockNs / static_cast<double>(r.evictions) : 0.0},
    };
}

void
writeTrace(const Tracer &tr, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "perfbench: cannot write trace %s\n",
                     path.c_str());
        return;
    }
    std::fprintf(f, "span,name,start_ns,end_ns,parent,txn\n");
    const auto &spans = tr.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Tracer::Span &s = spans[i];
        std::fprintf(f, "%zu,%s,%" PRId64 ",%" PRId64 ",%s,%" PRIu64 "\n",
                     i, Tracer::name(s.name), s.startNs, s.endNs,
                     s.parent == Tracer::kNoParent
                         ? ""
                         : std::to_string(s.parent).c_str(),
                     s.txn);
    }
    std::fclose(f);
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10;
    bool trace = false;
    std::string traceOut;
    bool selftest = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload "
                 "dc_cluster|vm_paging|shared_kernel --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE]\n"
                 "       perfbench --selftest\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (k == "--selftest") {
            a.selftest = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end)
                usage("--seed takes a whole number");
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end || !(a.seconds > 0))
                usage("--seconds takes a positive number");
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (k == "--trace-out") {
            a.traceOut = v;
        } else {
            usage(("unknown argument " + k).c_str());
        }
    }
    return a;
}

int
selftest()
{
    Checks c;
    // Worker-count identity: a study's result struct must not depend
    // on how many host threads drain its shards.
    {
        db::ClusterParams p = dcClusterParams(42);
        p.nodes = 4;
        p.tps = 5000.0;
        p.durationSec = 1.0;
        p.workers = 1;
        db::ClusterResult one = db::runClusterStudy(p);
        p.workers = 2;
        db::ClusterResult two = db::runClusterStudy(p);
        c.expect(sameFields(fields(one), fields(two)),
                 "dc_cluster: result differs between 1 and 2 workers");
        checkCluster(p, two, c);
    }
    {
        db::SharedKernelParams p = sharedKernelParams(42);
        p.shards = 4;
        p.durationSec = 0.1;
        p.workers = 1;
        db::SharedKernelResult one = db::runSharedKernelStudy(p);
        p.workers = 2;
        db::SharedKernelResult two = db::runSharedKernelStudy(p);
        c.expect(sameFields(fields(one), fields(two)),
                 "shared_kernel: result differs between 1 and 2 workers");
        checkSharedKernel(p, two, c);
    }
    // Tracing observes the host clock only: simulated output is the
    // same with and without it.
    {
        VmPagingParams p;
        p.txns = 500;
        VmPagingResult plain = runVmPaging(p, c, nullptr);
        Tracer tr(Clock::now());
        VmPagingResult traced = runVmPaging(p, c, &tr);
        c.expect(sameFields(fields(plain), fields(traced)),
                 "vm_paging: tracing changed simulated output");
        c.expect(plain.readBacks > 0 && plain.faults > 0,
                 "vm_paging: reduced run pages and reads back");
        c.expect(tr.spans().size() ==
                     static_cast<std::size_t>(
                         p.txns * (1 + p.touchesPerTxn) +
                         p.txns / p.reclaimEveryTxns),
                 "vm_paging: one span per txn, touch and clock pass");
    }
    for (const std::string &f : c.failures)
        std::fprintf(stderr, "selftest FAILED: %s\n", f.c_str());
    std::fprintf(stderr, "selftest: %" PRIu64 " checks, %" PRIu64
                         " failed\n",
                 c.attempted, c.failed);
    return c.failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    if (args.selftest)
        return selftest();

    const bool isCluster = args.workload == "dc_cluster";
    const bool isShared = args.workload == "shared_kernel";
    const bool isVm = args.workload == "vm_paging";
    if (!isCluster && !isShared && !isVm)
        usage("--workload must be dc_cluster, vm_paging or "
              "shared_kernel");

    Checks checks;
    Tracer tracer(Clock::now());
    auto runOnce = [&](bool traced) {
        Rep rep;
        if (traced)
            tracer.clear();
        if (isVm) {
            VmPagingParams p;
            p.seed = args.seed;
            VmPagingResult r =
                runVmPaging(p, checks, traced ? &tracer : nullptr);
            rep.hostSec = r.hostSec;
            rep.setupSec = r.setupSec;
            rep.peakHeapBytes = r.peakHeapBytes;
            rep.sim = fields(r);
            if (traced)
                rep.layers = vmPagingLayers(tracer, r);
            return rep;
        }
        // Set-up of a study workload: its machine is built inside the
        // study call, so the benchmark's own set-up is a reduced
        // warm-up study of the same shape. Several run before every
        // repetition, so the median samples the whole run.
        for (int i = 0; i < kSetupsPerRep; ++i) {
            const double setupStart = cpuSeconds();
            if (isCluster) {
                db::ClusterParams w = dcClusterWarmupParams(args.seed);
                checkCluster(w, db::runClusterStudy(w), checks);
            } else {
                db::SharedKernelParams w =
                    sharedKernelWarmupParams(args.seed);
                checkSharedKernel(w, db::runSharedKernelStudy(w), checks);
            }
            rep.setupSec.push_back(cpuSeconds() - setupStart);
        }

        sim::mem::resetThreadPeak();
        const std::int64_t heapBase = sim::mem::threadCurrentBytes();
        const std::uint32_t span =
            traced ? tracer.open(Tracer::kStudy, 0) : Tracer::kNoParent;
        const double t0 = cpuSeconds();
        if (isCluster) {
            db::ClusterParams p = dcClusterParams(args.seed);
            db::ClusterResult r = db::runClusterStudy(p);
            rep.hostSec = cpuSeconds() - t0;
            checkCluster(p, r, checks);
            rep.sim = fields(r);
        } else {
            db::SharedKernelParams p = sharedKernelParams(args.seed);
            db::SharedKernelResult r = db::runSharedKernelStudy(p);
            rep.hostSec = cpuSeconds() - t0;
            checkSharedKernel(p, r, checks);
            rep.sim = fields(r);
        }
        if (traced)
            tracer.close(span);
        rep.peakHeapBytes = sim::mem::threadPeakBytes() - heapBase;
        return rep;
    };

    // The timed phase: repeat until the budget is spent. A repetition
    // starts only if one more of the same length still fits, and at
    // least three run (four when traced, two of each kind).
    //
    // Before every repetition and after the last, a group of
    // calibration runs (about one per 1.5 s of repetition) measures
    // how fast the host runs this kind of code at that moment. A
    // repetition's calibration time is the mean of the medians of the
    // groups on either side of it; run.py divides by it.
    const int minReps = args.trace ? 4 : 3;
    const std::uint64_t calChecksum = runCalibration().checksum;
    std::vector<double> calSamples, calGroups;
    auto calibrate = [&](double repSec) {
        const int n = 1 + static_cast<int>(repSec / 1.5);
        std::vector<double> group;
        for (int i = 0; i < n; ++i) {
            const CalibResult cal = runCalibration();
            checks.expect(cal.checksum == calChecksum,
                          "calibration kernel result differs between runs");
            group.push_back(cal.cpuSec);
        }
        calSamples.insert(calSamples.end(), group.begin(), group.end());
        calGroups.push_back(percentile(std::move(group), 0.5));
    };
    const Clock::time_point start = Clock::now();
    std::vector<Rep> reps;
    double lastSec = 0;
    while (static_cast<int>(reps.size()) < minReps ||
           secondsSince(start) + lastSec <= args.seconds) {
        const bool traced = args.trace && reps.size() % 2 == 1;
        const Clock::time_point t0 = Clock::now();
        calibrate(lastSec);
        reps.push_back(runOnce(traced));
        lastSec = secondsSince(t0);
        checks.expect(sameFields(reps.front().sim, reps.back().sim),
                      "simulated results differ between repetitions of "
                      "one seed");
    }
    calibrate(lastSec);
    if (args.trace && !args.traceOut.empty())
        writeTrace(tracer, args.traceOut);

    std::vector<double> setupSamples, host, hostTraced, heapMb;
    std::vector<double> setupCal, hostCal, hostTracedCal;
    std::map<std::string, std::vector<double>> layers;
    for (std::size_t i = 0; i < reps.size(); ++i) {
        const Rep &r = reps[i];
        const bool traced = args.trace && i % 2 == 1;
        const double cal = (calGroups[i] + calGroups[i + 1]) / 2;
        (traced ? hostTraced : host).push_back(r.hostSec);
        (traced ? hostTracedCal : hostCal).push_back(cal);
        setupSamples.insert(setupSamples.end(), r.setupSec.begin(),
                            r.setupSec.end());
        setupCal.insert(setupCal.end(), r.setupSec.size(), cal);
        if (!traced)
            heapMb.push_back(static_cast<double>(r.peakHeapBytes) /
                             (1024.0 * 1024.0));
        for (const auto &[k, v] : r.layers)
            layers[k].push_back(v);
    }

    std::string layerJson = "{";
    for (const auto &[k, v] : layers)
        layerJson += (layerJson.size() > 1 ? ", " : "") + jsonString(k) +
                     ": " + jsonList(v);
    layerJson += "}";
    std::string failures = "[";
    for (std::size_t i = 0; i < checks.failures.size(); ++i)
        failures += (i ? ", " : "") + jsonString(checks.failures[i]);
    failures += "]";

    std::printf(
        "{\"workload\": %s, \"seed\": %" PRIu64 ", \"trace\": %d, "
        "\"build\": {\"compiler\": %s, \"build_type\": %s, "
        "\"mem_hooks\": %s}, "
        "\"setup_s\": %s, \"host_s\": %s, \"host_s_traced\": %s, "
        "\"cal_s\": %s, \"setup_cal_s\": %s, \"host_cal_s\": %s, "
        "\"host_cal_s_traced\": %s, "
        "\"peak_heap_mb\": %s, \"sim\": %s, \"layer_samples\": %s, "
        "\"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
        ", \"failures\": %s}\n",
        jsonString(args.workload).c_str(), args.seed, args.trace ? 1 : 0,
        jsonString(__VERSION__).c_str(),
        jsonString(PERFBENCH_BUILD_TYPE).c_str(),
        sim::mem::hooksActive() ? "true" : "false",
        jsonList(setupSamples).c_str(), jsonList(host).c_str(),
        jsonList(hostTraced).c_str(), jsonList(calSamples).c_str(),
        jsonList(setupCal).c_str(), jsonList(hostCal).c_str(),
        jsonList(hostTracedCal).c_str(),
        sim::mem::hooksActive() ? jsonList(heapMb).c_str() : "null",
        jsonFields(reps.front().sim).c_str(), layerJson.c_str(),
        checks.attempted, checks.failed, failures.c_str());
    return 0;
}
