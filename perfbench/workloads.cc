#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>

#include "apps/stack.h"
#include "sim/mem_accounting.h"
#include "sim/random.h"

using namespace vpp;

namespace perfbench {

const char *
Tracer::name(Name n)
{
    static const char *const kNamesText[kNames] = {
        "study", "txn", "touch.hit", "touch.fault", "clock_pass"};
    return kNamesText[n];
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::size_t k = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    k = std::clamp<std::size_t>(k, 1, v.size()) - 1;
    std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
    return v[k];
}

namespace {

bool
within(double got, double want, double frac)
{
    return std::fabs(got - want) <= frac * std::fabs(want);
}

} // namespace

// ---------------------------------------------------------------------
// dc_cluster
// ---------------------------------------------------------------------

db::ClusterParams
dcClusterParams(std::uint64_t seed)
{
    // The 32x8 row of bench/table_scaleout: 256 CPUs, 40k TPS open
    // Poisson arrivals, 15% remote debits, 20 s simulated.
    db::ClusterParams p;
    p.nodes = 32;
    p.tps = 40000.0;
    p.seed = seed;
    p.workers = 1;
    return p;
}

db::ClusterParams
dcClusterWarmupParams(std::uint64_t seed)
{
    // The same per-node shape at 4 nodes and 1 s simulated: faults
    // in the code and primes the allocator before the timed phase.
    db::ClusterParams p = dcClusterParams(seed);
    p.nodes = 4;
    p.tps = 5000.0;
    p.durationSec = 1.0;
    return p;
}

void
checkCluster(const db::ClusterParams &p, const db::ClusterResult &r,
             Checks &c)
{
    c.expect(r.nodes == p.nodes, "cluster: node count");
    c.expect(r.txns > 0, "cluster: transactions completed");
    // Two cross-shard posts per remote transaction: request + reply.
    c.expect(r.crossEvents == 2 * r.remoteTxns,
             "cluster: crossEvents == 2 x remoteTxns");
    c.expect(within(r.tpsAchieved, p.tps, 0.05),
             "cluster: achieved TPS within 5% of offered");
}

// ---------------------------------------------------------------------
// shared_kernel
// ---------------------------------------------------------------------

db::SharedKernelParams
sharedKernelParams(std::uint64_t seed)
{
    // The table_scaleout shared-kernel 32x8 row, run for 1.0 s
    // simulated on one host thread. Two workers spin at the epoch
    // barrier; on a shared host their repetitions stall 4-5x whenever
    // outside load preempts one of them, which no bound here absorbs.
    // The self-test checks that the result is the same at 2 workers.
    db::SharedKernelParams p;
    p.shards = 32;
    p.durationSec = 1.0;
    p.seed = seed;
    p.workers = 1;
    return p;
}

db::SharedKernelParams
sharedKernelWarmupParams(std::uint64_t seed)
{
    db::SharedKernelParams p = sharedKernelParams(seed);
    p.shards = 4;
    p.durationSec = 0.05;
    return p;
}

void
checkSharedKernel(const db::SharedKernelParams &p,
                  const db::SharedKernelResult &r, Checks &c)
{
    c.expect(r.shards == p.shards, "shared_kernel: shard count");
    c.expect(r.txns > 0, "shared_kernel: transactions completed");
    c.expect(r.touches ==
                 r.txns * static_cast<std::uint64_t>(p.touchesPerTxn),
             "shared_kernel: touches == txns x touchesPerTxn");
    c.expect(r.touches == r.localHits + r.kernelTrips,
             "shared_kernel: touches == localHits + kernelTrips");
    c.expect(r.probeHits == r.localHits,
             "shared_kernel: probeHits == localHits");
    c.expect(r.crossEvents == 2 * r.crossRpcs,
             "shared_kernel: crossEvents == 2 x crossRpcs");
}

// ---------------------------------------------------------------------
// vm_paging
// ---------------------------------------------------------------------

namespace {

struct VmLoop
{
    const VmPagingParams &p;
    apps::VppStack &st;
    mgr::DefaultSegmentManager &mgr;
    kernel::Process &proc;
    const std::vector<kernel::SegmentId> &segs;
    Tracer *tracer;

    /// Last 8-byte stamp written to each page, 0 = never written.
    /// A flat array so the model adds no lookup cost to the loop.
    std::vector<std::uint64_t> model{};
    std::vector<sim::Duration> response{}; ///< per transaction
    std::uint64_t touches = 0;
    std::uint64_t readBacks = 0;
    std::uint64_t mismatches = 0;
    std::string firstMismatch{};
    sim::SimTime end = 0;

    sim::Task<> run();
};

sim::Task<>
VmLoop::run()
{
    sim::Random rng(p.seed);
    kernel::Kernel &kern = st.kern;
    std::uint64_t nextStamp = 1;
    for (int t = 0; t < p.txns; ++t) {
        const std::size_t file = static_cast<std::size_t>(t % p.files);
        const kernel::SegmentId seg = segs[file];
        std::uint64_t *pageModel = &model[file * p.filePages];
        const sim::SimTime began = st.sim.now();
        const std::uint32_t txnSpan =
            tracer ? tracer->open(Tracer::kTxn, t) : Tracer::kNoParent;
        for (int j = 0; j < p.touchesPerTxn; ++j) {
            const kernel::PageIndex page = rng.below(p.filePages);
            const bool write = rng.chance(p.writeFraction);
            const std::uint64_t faultsBefore = kern.stats().faults;
            const std::uint32_t touchSpan =
                tracer ? tracer->open(Tracer::kTouchHit, t, txnSpan)
                       : Tracer::kNoParent;
            co_await kern.touchSegment(proc, seg, page,
                                       write ? kernel::AccessType::Write
                                             : kernel::AccessType::Read);
            if (tracer)
                tracer->close(touchSpan, kern.stats().faults != faultsBefore
                                             ? Tracer::kTouchFault
                                             : Tracer::kTouchHit);
            ++touches;
            std::byte buf[8];
            if (write) {
                const std::uint64_t stamp = nextStamp++;
                std::memcpy(buf, &stamp, sizeof(stamp));
                kern.writePageData(seg, page, 0, buf);
                pageModel[page] = stamp;
            } else {
                kern.readPageData(seg, page, 0, buf);
                std::uint64_t got = 0;
                std::memcpy(&got, buf, sizeof(got));
                ++readBacks;
                if (got != pageModel[page] && mismatches++ == 0)
                    firstMismatch = "vm_paging: read-back of seg " +
                                    std::to_string(seg) + " page " +
                                    std::to_string(page);
            }
        }
        response.push_back(st.sim.now() - began);
        if (tracer)
            tracer->close(txnSpan);
        if ((t + 1) % p.reclaimEveryTxns == 0) {
            const std::uint32_t passSpan =
                tracer ? tracer->open(Tracer::kClockPass, t)
                       : Tracer::kNoParent;
            co_await mgr.clockPass(p.reclaimTarget);
            if (tracer)
                tracer->close(passSpan);
        }
    }
    end = st.sim.now();
}

bool
sameResolution(const kernel::Resolution &a, const kernel::Resolution &b)
{
    return a.present == b.present && a.seg == b.seg && a.page == b.page &&
           a.entry == b.entry && a.regionProt == b.regionProt &&
           a.viaCow == b.viaCow && a.cowSeg == b.cowSeg &&
           a.cowPage == b.cowPage;
}

kernel::ResiliencePolicy
resilience()
{
    // table_robustness's policy: the deadline never fires on an
    // honest fault, so the clean row runs the resilient delivery path
    // without redeliveries.
    kernel::ResiliencePolicy pol;
    pol.enabled = true;
    pol.faultDeadline = sim::msec(120);
    pol.maxRedeliveries = 3;
    pol.retryBackoff = sim::msec(1);
    pol.failover = true;
    pol.reclaimOnFailover = true;
    return pol;
}

/// The set-up: the DECstation stack, the application's manager, the
/// cached files and their segments.
struct VmRig
{
    apps::VppStack st{hw::decstation5000_200()};
    mgr::DefaultSegmentManager appMgr{st.kern, &st.spcm, st.server,
                                      st.registry};
    std::vector<kernel::SegmentId> segs;
    kernel::Process proc{"txn", 1};

    explicit VmRig(const VmPagingParams &p)
    {
        appMgr.initNow(4096, 512);
        st.kern.setDefaultManager(&st.ucds);
        st.kern.setResiliencePolicy(resilience());
        for (int i = 0; i < p.files; ++i) {
            uio::FileId f = st.server.createFile(
                "txn" + std::to_string(i), p.filePages * 4096);
            segs.push_back(kernel::runTask(st.sim, appMgr.openFile(f)));
        }
    }
};

} // namespace

VmPagingResult
runVmPaging(const VmPagingParams &p, Checks &c, Tracer *tracer)
{
    VmPagingResult out;
    // Set-ups whose rig is dropped: more samples of setup_s. They end
    // before the heap baseline, so peak_heap_mb counts one rig.
    for (int i = 1; i < kSetupsPerRep; ++i) {
        const double t0 = cpuSeconds();
        VmRig spare(p);
        out.setupSec.push_back(cpuSeconds() - t0);
    }
    sim::mem::resetThreadPeak();
    const std::int64_t heapBase = sim::mem::threadCurrentBytes();
    const double setupStart = cpuSeconds();
    VmRig rig(p);
    out.setupSec.push_back(cpuSeconds() - setupStart);
    apps::VppStack &st = rig.st;
    mgr::DefaultSegmentManager &appMgr = rig.appMgr;
    const std::vector<kernel::SegmentId> &segs = rig.segs;

    VmLoop loop{p, st, appMgr, rig.proc, segs, tracer};
    loop.model.assign(segs.size() * p.filePages, 0);
    loop.response.reserve(static_cast<std::size_t>(p.txns));

    // Timed phase: the transaction loop.
    const std::uint64_t eventsBefore = st.sim.eventsRun();
    const Clock::time_point wallStart = Clock::now();
    const double hostStart = cpuSeconds();
    kernel::runTask(st.sim, loop.run());
    out.hostSec = cpuSeconds() - hostStart;
    out.hostWallSec = secondsSince(wallStart);
    out.peakHeapBytes = sim::mem::threadPeakBytes() - heapBase;

    // Output checks, after the timed phase.
    c.add(loop.readBacks, loop.mismatches, loop.firstMismatch);
    c.expect(static_cast<int>(loop.response.size()) == p.txns,
             "vm_paging: every transaction completed");
    std::string why;
    c.expect(st.kern.checkFrameInvariant(&why),
             "vm_paging: frame invariant: " + why);
    std::uint64_t resolveDiffs = 0;
    for (kernel::SegmentId seg : segs) {
        for (kernel::PageIndex pg = 0; pg < p.filePages; ++pg) {
            if (!sameResolution(st.kern.resolve(seg, pg),
                                st.kern.resolveUncached(seg, pg)))
                ++resolveDiffs;
        }
    }
    c.add(segs.size() * p.filePages, resolveDiffs,
          "vm_paging: resolve != resolveUncached on " +
              std::to_string(resolveDiffs) + " pages");

    const kernel::Kernel::Stats &ks = st.kern.stats();
    out.txns = loop.response.size();
    out.touches = loop.touches;
    out.readBacks = loop.readBacks;
    out.simSec = sim::toSec(loop.end);
    if (!loop.response.empty()) {
        sim::Duration total = 0;
        std::vector<double> ms;
        ms.reserve(loop.response.size());
        for (sim::Duration d : loop.response) {
            total += d;
            ms.push_back(sim::toMsec(d));
        }
        out.avgMs = sim::toMsec(total) / static_cast<double>(ms.size());
        out.p99Ms = percentile(std::move(ms), 0.99);
    }
    out.faults = ks.faults;
    out.protectionFaults = ks.protectionFaults;
    out.pagesMigrated = ks.pagesMigrated;
    out.managerCalls = ks.managerCalls;
    out.resolveHits = ks.resolveHits;
    out.resolveMisses = ks.resolveMisses;
    out.faultSimUsAvg = ks.faults ? sim::toUsec(ks.faultLatencyTotal) /
                                        static_cast<double>(ks.faults)
                                  : 0.0;
    out.faultSimUsMax = sim::toUsec(ks.faultLatencyMax);
    out.clockPasses = appMgr.clockPasses();
    out.samplingFaults = appMgr.samplingFaults();
    out.writeBacks = appMgr.writeBacks();
    out.spcmGrants = st.spcm.grantsServed();
    out.evictions = appMgr.replacementPolicy().stats().evictions;
    out.diskReads = st.disk.reads();
    out.diskWrites = st.disk.writes();
    out.events = st.sim.eventsRun() - eventsBefore;
    return out;
}

} // namespace perfbench
