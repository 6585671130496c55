/**
 * @file
 * Functional coverage of batched fault delivery
 * (MachineConfig::faultCoalescing): same-instant faults against one
 * manager share a dispatch, the mode is off by default, and batched
 * and per-fault delivery leave the same kernel state.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/kernel.h"
#include "managers/generic.h"
#include "managers/spcm.h"

namespace vpp::kernel {
namespace {

hw::MachineConfig
smallMachine()
{
    hw::MachineConfig m = hw::decstation5000_200();
    m.memoryBytes = 16 << 20; // 4096 frames
    return m;
}

TEST(FaultCoalescing, SameInstantFaultsShareOneDispatch)
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
    Process proc("p", 1);

    std::vector<sim::Task<>> touches;
    for (PageIndex p = 0; p < 8; ++p)
        touches.push_back(
            kern.touchSegment(proc, seg, p, AccessType::Write));
    runTask(s, sim::joinAll(s, std::move(touches)));

    const auto &st = kern.stats();
    EXPECT_EQ(st.faultBatches, 1u);
    EXPECT_EQ(st.faultsCoalesced, 8u);
    EXPECT_EQ(manager.calls(), 1u);
    EXPECT_EQ(manager.faultsHandled(), 8u);
    for (PageIndex p = 0; p < 8; ++p)
        EXPECT_TRUE(kern.segment(seg).findPage(p) != nullptr);
    std::string why;
    EXPECT_TRUE(kern.checkFrameInvariant(&why)) << why;
}

TEST(FaultCoalescing, OffByDefaultKeepsPerFaultDispatch)
{
    sim::Simulation s;
    Kernel kern(s, smallMachine());
    mgr::SystemPageCacheManager spcm(kern, std::nullopt);
    mgr::GenericSegmentManager manager(
        kern, "m", hw::ManagerMode::SameProcess, &spcm, 1);
    manager.initNow(256, 128);
    SegmentId seg = kern.createSegmentNow("heap", 4096, 256, 1,
                                          &manager);
    Process proc("p", 1);

    std::vector<sim::Task<>> touches;
    for (PageIndex p = 0; p < 8; ++p)
        touches.push_back(
            kern.touchSegment(proc, seg, p, AccessType::Write));
    runTask(s, sim::joinAll(s, std::move(touches)));

    const auto &st = kern.stats();
    EXPECT_EQ(st.faultBatches, 0u);
    EXPECT_EQ(st.faultsCoalesced, 0u);
    EXPECT_EQ(manager.calls(), 8u);
    EXPECT_EQ(manager.faultsHandled(), 8u);
}

TEST(FaultCoalescing, BatchedAndClassicReachTheSameState)
{
    // The batch is a delivery optimisation, not a semantic change:
    // both modes must leave the segment with identical present pages
    // and pass the frame invariant.
    auto run = [](bool coalesce) {
        hw::MachineConfig m = smallMachine();
        m.faultCoalescing = coalesce;
        sim::Simulation s;
        Kernel kern(s, m);
        mgr::SystemPageCacheManager spcm(kern, std::nullopt);
        mgr::GenericSegmentManager manager(
            kern, "m", hw::ManagerMode::SameProcess, &spcm, 1);
        manager.initNow(256, 128);
        SegmentId seg = kern.createSegmentNow("heap", 4096, 256, 1,
                                              &manager);
        Process proc("p", 1);
        std::vector<sim::Task<>> touches;
        for (PageIndex p = 0; p < 32; ++p)
            touches.push_back(kern.touchSegment(proc, seg, p * 3 % 96,
                                                AccessType::Write));
        runTask(s, sim::joinAll(s, std::move(touches)));
        std::string why;
        EXPECT_TRUE(kern.checkFrameInvariant(&why)) << why;
        std::vector<PageIndex> present;
        for (const auto &[pg, e] : kern.segment(seg).pages())
            present.push_back(pg);
        return present;
    };
    EXPECT_EQ(run(false), run(true));
}

} // namespace
} // namespace vpp::kernel
