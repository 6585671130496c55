/**
 * @file
 * The sharded engine's contract (sim/shard.h): conservative epoch
 * windows are safe, cross-shard mail merges in canonical order, and
 * everything — from a hand-built event trace to the full cluster
 * study pushed through the sweep layer — is byte-identical at any
 * worker count.
 */

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/sweep.h"
#include "db/cluster.h"
#include "sim/mem_accounting.h"
#include "sim/shard.h"

using namespace vpp;
using sim::ShardedSimulation;
using sim::SimPanic;

namespace {

constexpr sim::Duration kLook = 10;

} // namespace

TEST(Shard, CrossShardMailMergesInCanonicalOrder)
{
    // Three posters race mail to shard 0 at the same timestamp; the
    // merge must order it (when, source shard, source sequence), and
    // behind anything shard 0 already had scheduled there (local
    // events carry older sequence numbers).
    std::vector<std::string> order;
    ShardedSimulation ss(3, kLook, 1);

    ss.shard(0).schedule(kLook, [&order] { order.push_back("local"); });
    ss.shard(1).schedule(0, [&] {
        // Two posts from shard 1: sequence order must survive.
        ss.post(0, kLook, [&order] { order.push_back("s1-first"); });
        ss.post(0, kLook, [&order] { order.push_back("s1-second"); });
    });
    ss.shard(2).schedule(0, [&] {
        ss.post(0, kLook, [&order] { order.push_back("s2"); });
    });
    ss.run();

    std::vector<std::string> expect = {"local", "s1-first",
                                       "s1-second", "s2"};
    EXPECT_EQ(order, expect);
    EXPECT_EQ(ss.crossEvents(), 3u);
}

TEST(Shard, DeliveryAtExactLookaheadBoundary)
{
    // when == src.now() + lookahead is the tightest legal post; it
    // must arrive, and at the destination's own clock.
    ShardedSimulation ss(2, kLook, 1);
    sim::SimTime delivered = 0;
    ss.shard(0).schedule(5, [&] {
        ss.post(1, 5 + kLook,
                [&] { delivered = ss.shard(1).now(); });
    });
    ss.run();
    EXPECT_EQ(delivered, 5 + kLook);
}

TEST(Shard, PostInsideLookaheadWindowPanics)
{
    ShardedSimulation ss(2, kLook, 1);
    ss.shard(0).schedule(5, [&] {
        ss.post(1, 5 + kLook - 1, [] {});
    });
    EXPECT_THROW(ss.run(), SimPanic);
}

TEST(Shard, PostFromOutsideDuringSetupSchedulesDirectly)
{
    ShardedSimulation ss(2, kLook, 1);
    bool ran = false;
    // Before run() there is no source shard and no lookahead rule:
    // setup may seed any shard at any time.
    ss.post(1, 3, [&ran] { ran = true; });
    ss.run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(ss.crossEvents(), 0u);
}

TEST(Shard, EpochCountIsDeterministic)
{
    // Windows advance to each global-min + lookahead: events at 0,
    // 12, 35 across two shards give exactly three epochs.
    ShardedSimulation ss(2, kLook, 1);
    ss.shard(0).schedule(0, [] {});
    ss.shard(1).schedule(12, [] {});
    ss.shard(0).schedule(35, [] {});
    ss.run();
    EXPECT_EQ(ss.epochs(), 3u);
}

TEST(Shard, ErrorsRethrowLowestShardFirstAndEngineSurvives)
{
    ShardedSimulation ss(3, kLook, 2);
    ss.shard(2).schedule(0, [] {
        throw std::runtime_error("boom2");
    });
    ss.shard(1).schedule(0, [] {
        throw std::runtime_error("boom1");
    });
    try {
        ss.run();
        FAIL() << "run() should have rethrown";
    } catch (const std::runtime_error &e) {
        // Both shards fail in the same window on different workers;
        // the winner must still be chosen by shard index, not by
        // host timing.
        EXPECT_STREQ(e.what(), "boom1");
    }
    // Failed shards are dead but the engine is still runnable.
    bool ran = false;
    ss.shard(0).schedule(100, [&ran] { ran = true; });
    ss.run();
    EXPECT_TRUE(ran);
}

TEST(Shard, SetupErrorOnIdleShardIsRethrown)
{
    // Shard 2's root throws inside spawn(), before it first suspends,
    // so its error is pending with nothing scheduled on that shard.
    // The only event is shard 0's; an epoch that skips idle shards
    // must still drain shard 2 so that run() rethrows the error.
    for (unsigned workers : {1u, 3u}) {
        ShardedSimulation ss(3, kLook, workers);
        bool ran = false;
        ss.shard(0).schedule(10, [&ran] { ran = true; });
        ss.shard(2).spawn([]() -> sim::Task<> {
            throw std::runtime_error("setup");
            co_return;
        }());
        try {
            ss.run();
            ADD_FAILURE() << "run() lost the setup error, workers "
                          << workers;
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "setup") << "workers " << workers;
        }
        EXPECT_TRUE(ran) << "workers " << workers;
    }
}

TEST(Shard, SetupErrorWithNothingScheduledIsRethrown)
{
    // No shard has an event at all, as a plain Simulation with only a
    // failed root: run() must still rethrow, not report an empty run.
    ShardedSimulation ss(2, kLook, 1);
    ss.shard(1).spawn([]() -> sim::Task<> {
        throw std::runtime_error("setup");
        co_return;
    }());
    EXPECT_THROW(ss.run(), std::runtime_error);
    // The error was consumed: the engine is runnable and idle again.
    EXPECT_NO_THROW(ss.run());
}

TEST(Shard, SparseMailToLongIdleShardMergesInCanonicalOrder)
{
    // Shard 5 idles through 50 windows while shard 0 ticks once per
    // window. In window [500, 510) shards 14, 3 and 9 post to it, in
    // that order of simulated time, all for t = 515; shard 3 posts
    // twice. Delivery must follow (when, source shard, sequence),
    // and the epoch and cross-event counts must not depend on the
    // worker count.
    constexpr unsigned kShards = 16;
    auto runOnce = [](unsigned workers, std::uint64_t *epochs,
                      std::uint64_t *cross) {
        std::vector<std::string> order;
        sim::SimTime deliveredAt = 0;
        ShardedSimulation ss(kShards, kLook, workers);
        ss.shard(0).spawn([](sim::Simulation *sim) -> sim::Task<> {
            for (int i = 0; i < 60; ++i)
                co_await sim->delay(kLook);
        }(&ss.shard(0)));
        auto poster = [&](unsigned src, sim::SimTime at,
                          std::vector<std::string> tags) {
            ss.shard(src).schedule(at, [&ss, &order, &deliveredAt,
                                        tags] {
                for (const std::string &tag : tags) {
                    ss.post(5, 515, [&ss, &order, &deliveredAt, tag] {
                        order.push_back(tag);
                        deliveredAt = ss.shard(5).now();
                    });
                }
            });
        };
        poster(14, 501, {"s14"});
        poster(3, 502, {"s3-first", "s3-second"});
        poster(9, 503, {"s9"});
        ss.run();
        *epochs = ss.epochs();
        *cross = ss.crossEvents();
        EXPECT_EQ(deliveredAt, 515) << "workers " << workers;
        EXPECT_EQ(ss.shard(5).now(), 515) << "workers " << workers;
        return order;
    };
    std::uint64_t epochs1 = 0, cross1 = 0, epochs4 = 0, cross4 = 0;
    const std::vector<std::string> expect = {"s3-first", "s3-second",
                                             "s9", "s14"};
    EXPECT_EQ(runOnce(1, &epochs1, &cross1), expect);
    EXPECT_EQ(runOnce(4, &epochs4, &cross4), expect);
    EXPECT_EQ(epochs1, epochs4);
    EXPECT_EQ(cross1, cross4);
    EXPECT_EQ(cross1, 4u);
    // One window per tick of shard 0 (t = 10, 20, .. 600); the
    // delivery at 515 rides in the tick-510 window.
    EXPECT_EQ(epochs1, 60u);
}

TEST(Shard, AbsorbChildPeakRaisesThreadPeak)
{
    if (!sim::mem::hooksActive())
        GTEST_SKIP() << "heap accounting compiled out";
    sim::mem::resetThreadPeak();
    std::int64_t before = sim::mem::threadPeakBytes();
    sim::mem::absorbChildPeak(1 << 20);
    EXPECT_GE(sim::mem::threadPeakBytes(),
              sim::mem::threadCurrentBytes() + (1 << 20));
    sim::mem::absorbChildPeak(-5);
    sim::mem::absorbChildPeak(0);
    EXPECT_GE(sim::mem::threadPeakBytes(), before);
}

namespace {

db::ClusterParams
smallCluster(unsigned workers)
{
    db::ClusterParams p;
    p.nodes = 4;
    p.cpusPerNode = 2;
    p.tps = 2000;
    p.durationSec = 0.5;
    p.workers = workers;
    return p;
}

/** Every field of the result, bit-for-bit. */
void
expectSameResult(const db::ClusterResult &a,
                 const db::ClusterResult &b, const char *what)
{
    EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0) << what;
}

} // namespace

TEST(Shard, ClusterStudyByteIdenticalAtAnyWorkerCount)
{
    db::ClusterResult w1 = db::runClusterStudy(smallCluster(1));
    EXPECT_GT(w1.txns, 0u);
    EXPECT_GT(w1.remoteTxns, 0u);
    EXPECT_EQ(w1.crossEvents, 2 * w1.remoteTxns);

    db::ClusterResult w2 = db::runClusterStudy(smallCluster(2));
    db::ClusterResult w8 = db::runClusterStudy(smallCluster(8));
    expectSameResult(w1, w2, "workers 1 vs 2");
    expectSameResult(w1, w8, "workers 1 vs 8");
}

namespace {

/** The bench-layer matrix: rows of cluster runs through a Sweep. */
std::string
sweepJson(unsigned jobs, unsigned shards)
{
    vppbench::Options opt;
    opt.jobs = jobs;
    opt.shards = shards;
    opt.progress = false;

    vppbench::Sweep sweep("shard-matrix", opt);
    for (unsigned nodes : {2u, 4u}) {
        db::ClusterParams p = smallCluster(opt.shards);
        p.nodes = nodes;
        sweep.add("nodes-" + std::to_string(nodes), [p] {
            db::ClusterResult r = db::runClusterStudy(p);
            vppbench::RowResult out;
            out.set("avg_ms", r.avgMs);
            out.set("worst_ms", r.worstMs);
            out.set("txns", static_cast<double>(r.txns));
            out.set("epochs", static_cast<double>(r.epochs));
            out.set("cross_events",
                    static_cast<double>(r.crossEvents));
            return out;
        });
    }
    sweep.run();
    EXPECT_TRUE(sweep.ok());
    return sweep.jsonStr();
}

} // namespace

TEST(Shard, SweepMatrixShardsTimesJobsIsByteIdentical)
{
    std::string golden = sweepJson(1, 1);
    for (unsigned jobs : {1u, 8u}) {
        for (unsigned shards : {1u, 2u, 8u}) {
            EXPECT_EQ(golden, sweepJson(jobs, shards))
                << "jobs=" << jobs << " shards=" << shards;
        }
    }
}
