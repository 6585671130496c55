/**
 * @file
 * Differential tests for the shared-kernel per-CPU resolve caches:
 * every CpuResolveCache hit is checked against the cache-free
 * binding-chain walk (resolveUncached) across the mutation classes
 * that must invalidate it — MigratePages, bind/unbind, flag edits,
 * segment teardown and an injected crash-failover sweep — plus the
 * chain-locality property (mutating an unrelated segment must NOT
 * invalidate), the per-segment epoch bump of every kernel mutation
 * entry point, the snapshot-epoch publish protocol, the CPU touch
 * queue's release order, and byte-identity of the shared-kernel study across
 * worker counts. Suite names (PerCpu*, SharedKernel*) are part of the
 * CI tsan regex.
 */

#include <gtest/gtest.h>

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/kernel.h"
#include "db/shared_kernel.h"
#include "inject/inject.h"
#include "managers/generic.h"
#include "managers/spcm.h"
#include "sim/random.h"
#include "sim/shard.h"

namespace vpp::kernel {
namespace {

using sim::msec;
using sim::usec;

hw::MachineConfig
smallMachine()
{
    hw::MachineConfig m = hw::decstation5000_200();
    m.memoryBytes = 16 << 20; // 4096 frames
    return m;
}

/** A cached per-CPU hit must be indistinguishable from the oracle. */
void
expectMatchesOracle(const CpuResolution &c, const Resolution &o,
                    SegmentId s, PageIndex p)
{
    EXPECT_EQ(c.present, o.present) << "seg " << s << " page " << p;
    EXPECT_EQ(c.seg, o.seg) << "seg " << s << " page " << p;
    EXPECT_EQ(c.page, o.page) << "seg " << s << " page " << p;
    EXPECT_EQ(c.regionProt, o.regionProt)
        << "seg " << s << " page " << p;
    EXPECT_EQ(c.viaCow, o.viaCow) << "seg " << s << " page " << p;
    EXPECT_EQ(c.cowSeg, o.cowSeg) << "seg " << s << " page " << p;
    EXPECT_EQ(c.cowPage, o.cowPage) << "seg " << s << " page " << p;
    ASSERT_TRUE(o.entry != nullptr) << "seg " << s << " page " << p;
    EXPECT_EQ(c.frame, o.entry->frame) << "seg " << s << " page " << p;
    EXPECT_EQ(c.flags, o.entry->flags) << "seg " << s << " page " << p;
}

/**
 * Differential step: whatever CPU @p cpu's cache currently answers
 * for (s, p) must agree with the oracle; then refill and check the
 * steady-state answer. Valid in live mode (strict invalidation).
 */
void
diffProbe(Kernel &k, unsigned cpu, SegmentId s, PageIndex p)
{
    Resolution oracle = k.resolveUncached(s, p);
    if (const CpuResolution *hit = k.cpuResolve(cpu, s, p))
        expectMatchesOracle(*hit, oracle, s, p);
    CpuResolution fresh = k.resolveForCpu(s, p);
    k.cpuStore(cpu, fresh);
    const CpuResolution *again = k.cpuResolve(cpu, s, p);
    if (oracle.present && fresh.chainLen != 0) {
        ASSERT_NE(again, nullptr) << "seg " << s << " page " << p;
        expectMatchesOracle(*again, oracle, s, p);
    } else {
        // Non-present (or uncacheably deep) resolutions are never
        // cached: the probe must keep missing.
        EXPECT_EQ(again, nullptr) << "seg " << s << " page " << p;
    }
}

/** A file <- cow - data <- va chain, two binding hops deep. */
struct ChainRig
{
    explicit ChainRig(bool snapshot = false) : kern(s, smallMachine())
    {
        file = kern.createSegmentNow("file", 4096, 256, 0);
        kern.migratePagesNow(kPhysSegment, file, 0, 0, 256, 0, 0);
        data = kern.createSegmentNow("data", 4096, 256, 0);
        kern.bindRegionNow(data, 0, 256, file, 0, flag::kProtMask,
                           true);
        va = kern.createSegmentNow("va", 4096, 256, 0);
        kern.bindRegionNow(va, 0, 256, data, 0, flag::kProtMask);
        kern.configureCpus(2, snapshot);
    }

    void
    warm(unsigned cpu)
    {
        for (PageIndex p = 0; p < 256; ++p)
            kern.cpuStore(cpu, kern.resolveForCpu(va, p));
    }

    sim::Simulation s;
    Kernel kern;
    SegmentId file = 0, data = 0, va = 0;
};

TEST(PerCpuCache, HitsAreCountedAndAgreeWithOracle)
{
    ChainRig r;
    EXPECT_EQ(r.kern.cpuCount(), 2u);
    EXPECT_EQ(r.kern.cpuResolve(0, r.va, 7), nullptr); // cold miss
    EXPECT_EQ(r.kern.cpuMisses(0), 1u);
    r.kern.cpuStore(0, r.kern.resolveForCpu(r.va, 7));
    const CpuResolution *hit = r.kern.cpuResolve(0, r.va, 7);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(r.kern.cpuHits(0), 1u);
    expectMatchesOracle(*hit, r.kern.resolveUncached(r.va, 7), r.va,
                        7);
    // CPU 1's cache is its own: still cold.
    EXPECT_EQ(r.kern.cpuResolve(1, r.va, 7), nullptr);
    EXPECT_EQ(r.kern.cpuHits(1), 0u);
}

TEST(PerCpuCache, DifferentialAfterMigratePages)
{
    ChainRig r;
    r.warm(0);
    SegmentId spare = r.kern.createSegmentNow("spare", 4096, 256, 0);
    // Move frames out of the bound file: cached "present at file"
    // entries walked through it and must die with its epoch.
    r.kern.migratePagesNow(r.file, spare, 0, 0, 64, 0, 0);
    for (PageIndex p = 0; p < 64; ++p) {
        EXPECT_EQ(r.kern.cpuResolve(0, r.va, p), nullptr)
            << "page " << p << " survived the migrate";
        EXPECT_FALSE(r.kern.resolve(r.va, p).present) << "page " << p;
    }
    for (PageIndex p = 0; p < 256; ++p)
        diffProbe(r.kern, 0, r.va, p);
    // And back again.
    r.kern.migratePagesNow(spare, r.file, 0, 0, 64, 0, 0);
    for (PageIndex p = 0; p < 256; ++p)
        diffProbe(r.kern, 0, r.va, p);
}

TEST(PerCpuCache, DifferentialAfterUnbind)
{
    ChainRig r;
    r.warm(0);
    r.kern.unbindRegionNow(r.va, 0);
    for (PageIndex p = 0; p < 256; ++p) {
        EXPECT_EQ(r.kern.cpuResolve(0, r.va, p), nullptr)
            << "page " << p << " survived the unbind";
        EXPECT_FALSE(r.kern.resolve(r.va, p).present) << "page " << p;
        diffProbe(r.kern, 0, r.va, p);
    }
    r.kern.bindRegionNow(r.va, 16, 64, r.data, 32, flag::kProtMask);
    for (PageIndex p = 0; p < 256; ++p)
        diffProbe(r.kern, 0, r.va, p);
}

TEST(PerCpuCache, DifferentialAfterFlagEdit)
{
    ChainRig r;
    r.warm(0);
    // Revoke write on a file page: the cached flags are stale.
    r.kern.modifyPageFlagsNow(r.file, 9, 1, 0, flag::kWritable);
    EXPECT_EQ(r.kern.cpuResolve(0, r.va, 9), nullptr);
    diffProbe(r.kern, 0, r.va, 9);
    const CpuResolution *hit = r.kern.cpuResolve(0, r.va, 9);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->flags & flag::kWritable, 0u);
}

TEST(PerCpuCache, DifferentialAfterSegmentTeardown)
{
    ChainRig r;
    r.warm(0);
    runTask(r.s, r.kern.destroySegment(r.va));
    // The dead segment's epoch slot outlives it: any entry chained
    // through va is invalid, and probing the dead id itself misses
    // rather than touching freed state.
    EXPECT_EQ(r.kern.cpuResolve(0, r.va, 0), nullptr);
    EXPECT_THROW((void)r.kern.resolve(r.va, 0), KernelError);
    EXPECT_THROW((void)r.kern.resolveUncached(r.va, 0), KernelError);

    for (PageIndex p = 0; p < 256; ++p)
        r.kern.cpuStore(0, r.kern.resolveForCpu(r.data, p));
    runTask(r.s, r.kern.destroySegment(r.data));
    EXPECT_EQ(r.kern.cpuResolve(0, r.data, 0), nullptr);
    EXPECT_THROW((void)r.kern.resolve(r.data, 0), KernelError);

    // file's frames survive; a fresh segment binding to it must get
    // correct translations, not the dead segments' cached ones.
    SegmentId va2 = r.kern.createSegmentNow("va2", 4096, 256, 0);
    r.kern.bindRegionNow(va2, 0, 256, r.file, 0, flag::kProtMask);
    for (PageIndex p = 0; p < 256; ++p)
        diffProbe(r.kern, 0, va2, p);
}

TEST(PerCpuCache, ChainLocalityUnrelatedMutationKeepsEntries)
{
    // The point of per-segment epochs over a global epoch: faulting
    // into one segment must not flush every CPU's cache of another.
    // A handful of well-spread pages keeps the test clear of the
    // finite cache's replacement behaviour.
    ChainRig r;
    const std::vector<PageIndex> pages = {3, 50, 100, 150, 200};
    for (PageIndex p : pages)
        r.kern.cpuStore(0, r.kern.resolveForCpu(r.va, p));

    SegmentId other = r.kern.createSegmentNow("other", 4096, 64, 0);
    // Phys pages 0-255 went to the rig's file segment; source the
    // unrelated segment from the next run of frames.
    r.kern.migratePagesNow(kPhysSegment, other, 256, 0, 64, 0, 0);
    r.kern.modifyPageFlagsNow(other, 3, 1, 0, flag::kWritable);
    std::uint64_t hitsBefore = r.kern.cpuHits(0);
    for (PageIndex p : pages) {
        const CpuResolution *hit = r.kern.cpuResolve(0, r.va, p);
        ASSERT_NE(hit, nullptr) << "page " << p
                                << " flushed by unrelated mutation";
        expectMatchesOracle(*hit, r.kern.resolveUncached(r.va, p),
                            r.va, p);
    }
    EXPECT_EQ(r.kern.cpuHits(0), hitsBefore + pages.size());

    // Contrast: a mutation on a chain segment invalidates them all.
    r.kern.modifyPageFlagsNow(r.file, 3, 1, flag::kWritable, 0);
    for (PageIndex p : pages)
        EXPECT_EQ(r.kern.cpuResolve(0, r.va, p), nullptr)
            << "page " << p << " survived a chain mutation";
}

TEST(PerCpuCache, DeepChainsAreUncacheable)
{
    sim::Simulation s;
    Kernel kern(s, smallMachine());
    kern.configureCpus(1, false);
    // A 5-segment chain (bottom + 4 binding hops) exceeds
    // kResolveChainMax: resolveForCpu must refuse to package it.
    SegmentId bottom = kern.createSegmentNow("bottom", 4096, 16, 0);
    kern.migratePagesNow(kPhysSegment, bottom, 0, 0, 16, 0, 0);
    SegmentId prev = bottom;
    std::vector<SegmentId> hops;
    for (int i = 0; i < 4; ++i) {
        SegmentId hop = kern.createSegmentNow(
            "hop" + std::to_string(i), 4096, 16, 0);
        kern.bindRegionNow(hop, 0, 16, prev, 0, flag::kProtMask);
        hops.push_back(hop);
        prev = hop;
    }
    // Chain from the top: hop3 -> hop2 -> hop1 -> hop0 -> bottom.
    ASSERT_TRUE(kern.resolveUncached(prev, 3).present);
    CpuResolution deep = kern.resolveForCpu(prev, 3);
    EXPECT_EQ(deep.chainLen, 0u);
    kern.cpuStore(0, deep); // must be ignored
    EXPECT_EQ(kern.cpuResolve(0, prev, 3), nullptr);
    // One level down fits (4 segments) and caches normally.
    CpuResolution ok = kern.resolveForCpu(hops[2], 3);
    EXPECT_EQ(ok.chainLen, 4u);
    kern.cpuStore(0, ok);
    EXPECT_NE(kern.cpuResolve(0, hops[2], 3), nullptr);
}

TEST(PerCpuCache, SnapshotModeStaleUntilPublish)
{
    ChainRig r(/*snapshot=*/true);
    r.kern.publishCpuEpochs();
    r.kern.cpuStore(0, r.kern.resolveForCpu(r.va, 5));
    ASSERT_NE(r.kern.cpuResolve(0, r.va, 5), nullptr);

    // Mutate the chain: live epochs move, the snapshot does not, so
    // the stale entry keeps answering until the next publish — the
    // bounded staleness remote shards see between barriers.
    SegmentId spare = r.kern.createSegmentNow("spare", 4096, 16, 0);
    r.kern.migratePagesNow(r.file, spare, 5, 5, 1, 0, 0);
    EXPECT_NE(r.kern.cpuResolve(0, r.va, 5), nullptr);

    r.kern.publishCpuEpochs();
    EXPECT_EQ(r.kern.cpuResolve(0, r.va, 5), nullptr);
}

TEST(PerCpuCache, SnapshotModeFreshFillConservativeUntilPublish)
{
    ChainRig r(/*snapshot=*/true);
    r.kern.publishCpuEpochs();
    // Mutate first, then fill: the fill records live epoch sums ahead
    // of the snapshot, so the entry stays conservatively invalid...
    SegmentId spare = r.kern.createSegmentNow("spare", 4096, 16, 0);
    r.kern.migratePagesNow(r.file, spare, 7, 7, 1, 0, 0);
    r.kern.migratePagesNow(spare, r.file, 7, 7, 1, 0, 0);
    r.kern.cpuStore(0, r.kern.resolveForCpu(r.va, 7));
    EXPECT_EQ(r.kern.cpuResolve(0, r.va, 7), nullptr);
    // ...until the barrier publish catches the snapshot up.
    r.kern.publishCpuEpochs();
    const CpuResolution *hit = r.kern.cpuResolve(0, r.va, 7);
    ASSERT_NE(hit, nullptr);
    expectMatchesOracle(*hit, r.kern.resolveUncached(r.va, 7), r.va,
                        7);
}

TEST(PerCpuCache, RandomizedDifferentialStress)
{
    ChainRig r;
    sim::Random rng(1234);
    SegmentId spare = r.kern.createSegmentNow("spare", 4096, 256, 0);
    bool bound = true;
    for (int round = 0; round < 200; ++round) {
        switch (rng.below(4)) {
        case 0: {
            PageIndex at = rng.below(250);
            std::uint64_t n = 1 + rng.below(4);
            try {
                r.kern.migratePagesNow(r.file, spare, at, at, n, 0, 0);
            } catch (const KernelError &) {
            }
            break;
        }
        case 1: {
            PageIndex at = rng.below(250);
            std::uint64_t n = 1 + rng.below(4);
            try {
                r.kern.migratePagesNow(spare, r.file, at, at, n, 0, 0);
            } catch (const KernelError &) {
            }
            break;
        }
        case 2:
            if (bound) {
                r.kern.unbindRegionNow(r.va, 0);
            } else {
                r.kern.bindRegionNow(r.va, 0, 256, r.data, 0,
                                     flag::kProtMask);
            }
            bound = !bound;
            break;
        case 3: {
            PageIndex at = rng.below(256);
            try {
                r.kern.modifyPageFlagsNow(r.file, at, 1, 0,
                                          flag::kWritable);
            } catch (const KernelError &) {
            }
            break;
        }
        }
        // Both CPUs probe independently; every answer must match the
        // oracle at its own probe instant.
        for (int probe = 0; probe < 16; ++probe) {
            unsigned cpu = static_cast<unsigned>(rng.below(2));
            PageIndex p = rng.below(256);
            diffProbe(r.kern, cpu, r.va, p);
            diffProbe(r.kern, cpu, r.file, p);
        }
    }
}

TEST(PerCpuCache, DifferentialAcrossCrashFailoverSweep)
{
    // Failover reassigns the segment's manager and unilaterally
    // reclaims frames mid-run; per-CPU entries must track it.
    sim::Simulation s;
    Kernel kern(s, smallMachine());
    mgr::SystemPageCacheManager spcm(kern, std::nullopt);
    mgr::GenericSegmentManager flaky(
        kern, "flaky", hw::ManagerMode::SameProcess, &spcm, 1);
    mgr::GenericSegmentManager fallback(
        kern, "fallback", hw::ManagerMode::SameProcess, &spcm,
        kSystemUser);
    flaky.initNow(128, 64);
    fallback.initNow(128, 64);
    SegmentId seg = kern.createSegmentNow("app", 4096, 64, 1, &flaky);
    Process proc("p", 1);
    kern.setDefaultManager(&fallback);
    ResiliencePolicy pol;
    pol.enabled = true;
    pol.faultDeadline = msec(50);
    pol.maxRedeliveries = 1;
    pol.retryBackoff = usec(100);
    pol.failover = true;
    kern.setResiliencePolicy(pol);
    kern.configureCpus(1, false);

    for (PageIndex p = 0; p < 4; ++p)
        runTask(s, kern.touchSegment(proc, seg, p, AccessType::Read));
    for (PageIndex p = 0; p < 64; ++p)
        diffProbe(kern, 0, seg, p);

    inject::Config c;
    c.enabled = true;
    c.seed = 3;
    c.manager.crashProb = 1.0;
    inject::Engine eng(c);
    kern.setInjector(&eng);

    runTask(s, kern.touchSegment(proc, seg, 10, AccessType::Read));
    EXPECT_EQ(kern.stats().failovers, 1u);
    EXPECT_EQ(kern.segment(seg).manager(), &fallback);
    for (PageIndex p = 0; p < 64; ++p)
        diffProbe(kern, 0, seg, p);
    std::string why;
    EXPECT_TRUE(kern.checkFrameInvariant(&why)) << why;
}

// ----------------------------------------------------------------------
// Per-segment mutation epochs: the only resolve-cache invalidation
// ----------------------------------------------------------------------

/**
 * Plain segments (`other` is never touched by any mutation below) plus
 * a crash-prone manager with failover to the default one. The manager
 * gets two segments with resident clean pages: `app`, which takes the
 * failing fault, and `idle`, whose pages only the failover's
 * reclamation touches.
 */
struct EpochRig
{
    EpochRig()
        : kern(s, smallMachine()), spcm(kern, std::nullopt),
          flaky(kern, "flaky", hw::ManagerMode::SameProcess, &spcm, 1),
          fallback(kern, "fallback", hw::ManagerMode::SameProcess,
                   &spcm, kSystemUser),
          proc("p", 1)
    {
        // Plain segments first, so their physical frames are taken
        // before the managers' pools are granted.
        file = kern.createSegmentNow("file", 4096, 64, 0);
        kern.migratePagesNow(kPhysSegment, file, 0, 0, 64, 0, 0);
        va = kern.createSegmentNow("va", 4096, 64, 0);
        kern.bindRegionNow(va, 0, 64, file, 0, flag::kProtMask);
        spare = kern.createSegmentNow("spare", 4096, 64, 0);
        other = kern.createSegmentNow("other", 4096, 16, 0);
        kern.migratePagesNow(kPhysSegment, other, 64, 0, 16, 0, 0);
        victim = kern.createSegmentNow("victim", 4096, 16, 0);
        kern.migratePagesNow(kPhysSegment, victim, 80, 0, 8, 0, 0);
        kern.bindRegionNow(victim, 8, 8, file, 0, flag::kProtMask);

        flaky.initNow(128, 64);
        fallback.initNow(128, 64);
        app = kern.createSegmentNow("app", 4096, 64, 1, &flaky);
        idle = kern.createSegmentNow("idle", 4096, 64, 1, &flaky);
        kern.setDefaultManager(&fallback);
        ResiliencePolicy pol;
        pol.enabled = true;
        pol.faultDeadline = msec(50);
        pol.maxRedeliveries = 1;
        pol.retryBackoff = usec(100);
        pol.failover = true;
        kern.setResiliencePolicy(pol);
        for (PageIndex p = 0; p < 4; ++p) {
            runTask(s, kern.touchSegment(proc, app, p,
                                         AccessType::Read));
            runTask(s, kern.touchSegment(proc, idle, p,
                                         AccessType::Read));
        }
    }

    sim::Simulation s;
    Kernel kern;
    mgr::SystemPageCacheManager spcm;
    mgr::GenericSegmentManager flaky;
    mgr::GenericSegmentManager fallback;
    Process proc;
    SegmentId file = 0, va = 0, spare = 0, other = 0, victim = 0;
    SegmentId app = 0, idle = 0;
};

TEST(SegmentEpoch, EveryMutationBumpsTouchedSegments)
{
    struct Case
    {
        const char *name;
        /** Applies the mutation; returns the segments it changed. */
        std::function<std::vector<SegmentId>(EpochRig &)> mutate;
    };
    const std::vector<Case> cases = {
        {"bindRegionNow",
         [](EpochRig &r) {
             r.kern.bindRegionNow(r.spare, 0, 8, r.file, 0,
                                  flag::kProtMask);
             return std::vector<SegmentId>{r.spare};
         }},
        {"unbindRegionNow",
         [](EpochRig &r) {
             r.kern.unbindRegionNow(r.va, 0);
             return std::vector<SegmentId>{r.va};
         }},
        {"migratePagesNow 1 page",
         [](EpochRig &r) {
             r.kern.migratePagesNow(r.file, r.spare, 5, 5, 1, 0, 0);
             return std::vector<SegmentId>{r.file, r.spare};
         }},
        {"migratePagesNow 16 pages",
         [](EpochRig &r) {
             r.kern.migratePagesNow(r.file, r.spare, 16, 16, 16, 0, 0);
             return std::vector<SegmentId>{r.file, r.spare};
         }},
        {"modifyPageFlagsNow",
         [](EpochRig &r) {
             r.kern.modifyPageFlagsNow(r.file, 3, 2, 0,
                                       flag::kWritable);
             return std::vector<SegmentId>{r.file};
         }},
        {"destroySegment",
         [](EpochRig &r) {
             // The victim's frames are swept back to the physical
             // segment; its binding into file goes with it.
             runTask(r.s, r.kern.destroySegment(r.victim));
             return std::vector<SegmentId>{r.victim, kPhysSegment};
         }},
        {"reclaimUnresponsive on failover",
         [](EpochRig &r) {
             inject::Config c;
             c.enabled = true;
             c.seed = 3;
             c.manager.crashProb = 1.0;
             inject::Engine eng(c);
             r.kern.setInjector(&eng);
             runTask(r.s, r.kern.touchSegment(r.proc, r.app, 10,
                                              AccessType::Read));
             r.kern.setInjector(nullptr);
             EXPECT_EQ(r.kern.stats().failovers, 1u);
             EXPECT_GT(r.kern.stats().framesReclaimed, 0u);
             return std::vector<SegmentId>{r.app, r.idle, kPhysSegment,
                                           r.fallback.freeSegment()};
         }},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        EpochRig r;
        std::vector<std::uint64_t> before;
        for (SegmentId id = 0; id <= r.idle; ++id)
            before.push_back(r.kern.segmentEpoch(id));
        const std::vector<SegmentId> touched = c.mutate(r);
        for (SegmentId id : touched)
            EXPECT_GT(r.kern.segmentEpoch(id), before[id])
                << "segment " << id << " not bumped";
        EXPECT_EQ(r.kern.segmentEpoch(r.other), before[r.other])
            << "unrelated segment bumped";
    }
}

// ----------------------------------------------------------------------
// CPU touch queue: release order and drain waves
// ----------------------------------------------------------------------

TEST(PerCpuFaultQueue, SameInstantTouchesShareOneBatch)
{
    hw::MachineConfig m = smallMachine();
    m.faultCoalescing = true;
    sim::Simulation s;
    Kernel kern(s, m);
    mgr::SystemPageCacheManager spcm(kern, std::nullopt);
    mgr::GenericSegmentManager manager(
        kern, "m", hw::ManagerMode::SameProcess, &spcm, 1);
    manager.initNow(256, 128);
    SegmentId seg = kern.createSegmentNow("heap", 4096, 256, 1,
                                          &manager);
    kern.configureCpus(8, false);
    std::vector<std::unique_ptr<Process>> procs;
    std::vector<sim::Task<>> touches;
    for (unsigned c = 0; c < 8; ++c) {
        procs.push_back(std::make_unique<Process>(
            "cpu" + std::to_string(c), 1));
        touches.push_back(kern.touchOnCpu(
            c, *procs[c], seg, c, AccessType::Write));
    }
    runTask(s, sim::joinAll(s, std::move(touches)));

    const auto &st = kern.stats();
    EXPECT_EQ(st.cpuTouchesQueued, 8u);
    EXPECT_GE(st.cpuDrains, 1u);
    // The drain feeds the coalescing machinery: 8 same-instant CPU
    // faults reach the manager as one batch.
    EXPECT_EQ(st.faultBatches, 1u);
    EXPECT_EQ(st.faultsCoalesced, 8u);
    EXPECT_EQ(manager.calls(), 1u);
    for (PageIndex p = 0; p < 8; ++p)
        EXPECT_TRUE(kern.segment(seg).findPage(p) != nullptr);
    std::string why;
    EXPECT_TRUE(kern.checkFrameInvariant(&why)) << why;
}

/** Records the faulting page of every fault in each batch it gets. */
class RecordingManager : public mgr::GenericSegmentManager
{
  public:
    using GenericSegmentManager::GenericSegmentManager;

    sim::Task<>
    handleFaults(Kernel &k, std::span<const Fault> fs) override
    {
        std::vector<PageIndex> batch;
        for (const Fault &f : fs)
            batch.push_back(f.page);
        batches.push_back(std::move(batch));
        co_await GenericSegmentManager::handleFaults(k, fs);
    }

    std::vector<std::vector<PageIndex>> batches;
};

/** A coalescing kernel with @p cpus CPUs and one recorded segment. */
struct QueueRig
{
    explicit QueueRig(unsigned cpus)
        : kern(s, coalescing()), spcm(kern, std::nullopt),
          manager(kern, "rec", hw::ManagerMode::SameProcess, &spcm, 1)
    {
        manager.initNow(256, 128);
        seg = kern.createSegmentNow("heap", 4096, 256, 1, &manager);
        kern.configureCpus(cpus, false);
        for (unsigned c = 0; c < cpus; ++c)
            procs.push_back(std::make_unique<Process>(
                "cpu" + std::to_string(c), 1));
    }

    static hw::MachineConfig
    coalescing()
    {
        hw::MachineConfig m = smallMachine();
        m.faultCoalescing = true;
        return m;
    }

    sim::Task<>
    touch(unsigned cpu, PageIndex page)
    {
        return kern.touchOnCpu(cpu, *procs[cpu], seg, page,
                               AccessType::Write);
    }

    sim::Simulation s;
    Kernel kern;
    mgr::SystemPageCacheManager spcm;
    RecordingManager manager;
    SegmentId seg = kInvalidSegment;
    std::vector<std::unique_ptr<Process>> procs;
};

TEST(PerCpuFaultQueue, ReleaseOrderIsCpuIdThenArrival)
{
    QueueRig r(8);
    // Arrival order: CPU 5 (page 0), CPU 2 (page 1), CPU 7 (page 2),
    // CPU 2 again (page 3), all at one instant.
    const unsigned cpus[] = {5, 2, 7, 2};
    std::vector<sim::Task<>> touches;
    for (PageIndex p = 0; p < 4; ++p)
        touches.push_back(r.touch(cpus[p], p));
    runTask(r.s, sim::joinAll(r.s, std::move(touches)));

    EXPECT_EQ(r.kern.stats().cpuDrains, 1u);
    // One coalesced batch in CPU-id order (2, 2, 5, 7); the two CPU-2
    // touches keep their arrival order.
    ASSERT_EQ(r.manager.batches.size(), 1u);
    EXPECT_EQ(r.manager.batches[0],
              (std::vector<PageIndex>{1, 3, 0, 2}));
}

TEST(PerCpuFaultQueue, LateSameInstantTouchFormsSecondWave)
{
    QueueRig r(2);
    std::vector<sim::Task<>> touches;
    touches.push_back(r.touch(1, 0));
    // Parks one yield later, after the drain released its first wave
    // but still at the same simulated instant.
    touches.push_back([](QueueRig &rig) -> sim::Task<> {
        co_await rig.s.yield();
        co_await rig.touch(0, 1);
    }(r));
    runTask(r.s, sim::joinAll(r.s, std::move(touches)));

    const auto &st = r.kern.stats();
    EXPECT_EQ(st.cpuTouchesQueued, 2u);
    EXPECT_EQ(st.cpuDrains, 2u);
    EXPECT_NE(r.kern.segment(r.seg).findPage(0), nullptr);
    EXPECT_NE(r.kern.segment(r.seg).findPage(1), nullptr);
}

TEST(PerCpuFaultQueue, UnknownCpuThrows)
{
    sim::Simulation s;
    Kernel kern(s, smallMachine());
    kern.configureCpus(2, false);
    SegmentId seg = kern.createSegmentNow("seg", 4096, 16, 1);
    Process proc("p", 1);
    EXPECT_THROW(
        runTask(s, kern.touchOnCpu(7, proc, seg, 0,
                                   AccessType::Read)),
        KernelError);
}

// ----------------------------------------------------------------------
// Shared-kernel study: determinism and worker clamping
// ----------------------------------------------------------------------

db::SharedKernelParams
tinyStudy(unsigned workers)
{
    db::SharedKernelParams p;
    p.shards = 2;
    p.cpusPerShard = 2;
    p.relations = 4;
    p.pagesPerRelation = 64;
    p.hotPages = 32;
    p.durationSec = 0.05;
    p.workers = workers;
    return p;
}

void
expectSameResult(const db::SharedKernelResult &a,
                 const db::SharedKernelResult &b)
{
    EXPECT_EQ(a.txns, b.txns);
    EXPECT_EQ(a.touches, b.touches);
    EXPECT_EQ(a.probeHits, b.probeHits);
    EXPECT_EQ(a.probeMisses, b.probeMisses);
    EXPECT_EQ(a.localHits, b.localHits);
    EXPECT_EQ(a.kernelTrips, b.kernelTrips);
    EXPECT_EQ(a.crossRpcs, b.crossRpcs);
    EXPECT_EQ(a.faults, b.faults);
    EXPECT_EQ(a.faultBatches, b.faultBatches);
    EXPECT_EQ(a.faultsCoalesced, b.faultsCoalesced);
    EXPECT_EQ(a.cpuTouchesQueued, b.cpuTouchesQueued);
    EXPECT_EQ(a.pagesMigrated, b.pagesMigrated);
    EXPECT_EQ(a.epochs, b.epochs);
    EXPECT_EQ(a.crossEvents, b.crossEvents);
    EXPECT_DOUBLE_EQ(a.avgMs, b.avgMs);
    EXPECT_DOUBLE_EQ(a.p99Ms, b.p99Ms);
    EXPECT_DOUBLE_EQ(a.worstMs, b.worstMs);
    EXPECT_DOUBLE_EQ(a.tpsAchieved, b.tpsAchieved);
    EXPECT_DOUBLE_EQ(a.hitRate, b.hitRate);
    EXPECT_DOUBLE_EQ(a.cpuUtilization, b.cpuUtilization);
}

TEST(SharedKernelDeterminism, IdenticalAcrossWorkerCounts)
{
    db::SharedKernelResult w1 = db::runSharedKernelStudy(tinyStudy(1));
    db::SharedKernelResult w2 = db::runSharedKernelStudy(tinyStudy(2));
    expectSameResult(w1, w2);
    // The run did real work through both paths.
    EXPECT_GT(w1.txns, 0u);
    EXPECT_GT(w1.localHits, 0u);
    EXPECT_GT(w1.crossRpcs, 0u);
    EXPECT_EQ(w1.touches, w1.localHits + w1.kernelTrips);
    EXPECT_EQ(w1.crossEvents, 2 * w1.crossRpcs);
}

TEST(SharedKernelClamp, ExtraWorkersWarnOnStderrAndClamp)
{
    testing::internal::CaptureStderr();
    sim::ShardedSimulation engine(2, usec(50), 8);
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(engine.workers(), 2u);
    EXPECT_EQ(engine.clampedWorkerRequests(), 1u);
    EXPECT_NE(err.find("clamping 8 workers to the 2-shard"),
              std::string::npos)
        << "stderr was: " << err;

    // In-range requests stay silent.
    testing::internal::CaptureStderr();
    sim::ShardedSimulation quiet(4, usec(50), 4);
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
    EXPECT_EQ(quiet.clampedWorkerRequests(), 0u);
}

} // namespace
} // namespace vpp::kernel
