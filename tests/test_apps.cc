/**
 * @file
 * Integration tests: the §3.2 application study end to end. These
 * verify that the synthetic workloads generate the VM activity the
 * paper reports (Table 3) and that the whole stack stays consistent.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "apps/workload.h"

namespace vpp::apps {
namespace {

struct Expected
{
    AppSpec (*spec)();
    std::uint64_t paperCalls;
    double paperVppSec;
    double paperUltrixSec;
};

// Name each case after its program. Without this gtest prints the raw
// bytes of Expected, whose function pointer moves with every build.
void
PrintTo(const Expected &e, std::ostream *os)
{
    *os << e.spec().name;
}

class AppStudy : public ::testing::TestWithParam<Expected>
{};

TEST_P(AppStudy, ManagerCallsMatchTable3)
{
    const Expected &e = GetParam();
    hw::MachineConfig m = hw::decstation5000_200();
    VppStack stack(m);
    AppRunResult r = runOnVpp(stack, e.spec());

    // Manager calls within 3% of the paper's count.
    double ratio =
        static_cast<double>(r.managerCalls) / e.paperCalls;
    EXPECT_GT(ratio, 0.97) << r.managerCalls;
    EXPECT_LT(ratio, 1.03) << r.managerCalls;

    // Nearly all manager calls are page-frame requests, i.e.
    // MigratePages invocations track calls closely (paper: 372/379,
    // 195/197, 238/250).
    EXPECT_LE(r.migrateCalls, r.managerCalls + 8);
    EXPECT_GE(r.migrateCalls * 10, r.managerCalls * 9);

    // The system stays consistent after a whole program lifetime.
    std::string why;
    EXPECT_TRUE(stack.kern.checkFrameInvariant(&why)) << why;
}

TEST_P(AppStudy, ElapsedTimesComparable)
{
    const Expected &e = GetParam();
    hw::MachineConfig m = hw::decstation5000_200();

    VppStack stack(m);
    AppRunResult vpp = runOnVpp(stack, e.spec());

    sim::Simulation s2;
    hw::Disk disk(s2, m.diskLatency, m.diskBandwidthMBps);
    uio::FileServer server(s2, disk, sim::usec(200));
    baseline::ConventionalVm vm(s2, m, server);
    AppRunResult ult = runOnBaseline(s2, m, vm, server, e.spec());

    // Both land within 10% of the paper's elapsed times...
    EXPECT_NEAR(vpp.elapsedSec, e.paperVppSec, e.paperVppSec * 0.10);
    EXPECT_NEAR(ult.elapsedSec, e.paperUltrixSec,
                e.paperUltrixSec * 0.10);
    // ...and the V++ overhead over the baseline is small (the paper's
    // central claim: at most a few percent).
    EXPECT_GT(vpp.elapsedSec, ult.elapsedSec);
    EXPECT_LT(vpp.elapsedSec - ult.elapsedSec,
              0.03 * ult.elapsedSec);
}

TEST_P(AppStudy, NoDiskTrafficWhenFilesCached)
{
    const Expected &e = GetParam();
    hw::MachineConfig m = hw::decstation5000_200();
    VppStack stack(m);
    runOnVpp(stack, e.spec());
    // The paper runs with inputs cached and eliminates I/O: the only
    // acceptable disk traffic would be from write-behind, which the
    // measured window excludes.
    EXPECT_EQ(stack.disk.reads(), 0u);
    EXPECT_EQ(stack.disk.writes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Programs, AppStudy,
    ::testing::Values(Expected{&diffApp, 379, 3.99, 4.05},
                      Expected{&uncompressApp, 197, 6.39, 6.01},
                      Expected{&latexApp, 250, 14.71, 13.65}));

TEST(AppStudyMisc, VppUsesTwiceTheIoCallsOfBaseline)
{
    // Paper: "V++ makes twice as many read and write operations to
    // the kernel as ULTRIX" (4 KB vs 8 KB unit).
    hw::MachineConfig m = hw::decstation5000_200();
    AppSpec spec = diffApp();

    VppStack stack(m);
    AppRunResult vpp = runOnVpp(stack, spec);

    sim::Simulation s2;
    hw::Disk disk(s2, m.diskLatency, m.diskBandwidthMBps);
    uio::FileServer server(s2, disk, sim::usec(200));
    baseline::ConventionalVm vm(s2, m, server);
    AppRunResult ult = runOnBaseline(s2, m, vm, server, spec);

    EXPECT_EQ(vpp.readCalls, 2 * ult.readCalls);
    EXPECT_EQ(vpp.writeCalls, 2 * ult.writeCalls);
}

TEST(AppStudyMisc, RepeatRunsAreIndependent)
{
    hw::MachineConfig m = hw::decstation5000_200();
    VppStack stack(m);
    AppRunResult first = runOnVpp(stack, uncompressApp());
    AppRunResult second = runOnVpp(stack, uncompressApp());
    EXPECT_EQ(first.managerCalls, second.managerCalls);
    EXPECT_NEAR(first.elapsedSec, second.elapsedSec,
                first.elapsedSec * 0.01);
}

} // namespace
} // namespace vpp::apps
