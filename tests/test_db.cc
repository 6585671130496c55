/**
 * @file
 * Tests for the database study substrate: multi-granularity locks,
 * the hierarchical lock manager, and the Table 4 study itself
 * (ordering invariants and determinism on short runs).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/kernel.h" // runTask
#include "db/cluster.h"
#include "db/lock.h"
#include "db/study.h"
#include "sim/mem_accounting.h"
#include "sim/task.h"

namespace vpp::db {
namespace {

using kernel::runTask;
using sim::msec;

// ----------------------------------------------------------------------
// Lock compatibility (property-style over the full matrix)
// ----------------------------------------------------------------------

class Compat : public ::testing::TestWithParam<
                   std::tuple<LockMode, LockMode, bool>>
{};

TEST_P(Compat, MatrixMatchesTextbook)
{
    auto [a, b, expect] = GetParam();
    EXPECT_EQ(lockCompatible(a, b), expect)
        << lockModeName(a) << " vs " << lockModeName(b);
    // Compatibility is symmetric.
    EXPECT_EQ(lockCompatible(a, b), lockCompatible(b, a));
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, Compat,
    ::testing::Values(
        std::make_tuple(LockMode::IS, LockMode::IS, true),
        std::make_tuple(LockMode::IS, LockMode::IX, true),
        std::make_tuple(LockMode::IS, LockMode::S, true),
        std::make_tuple(LockMode::IS, LockMode::X, false),
        std::make_tuple(LockMode::IX, LockMode::IX, true),
        std::make_tuple(LockMode::IX, LockMode::S, false),
        std::make_tuple(LockMode::IX, LockMode::X, false),
        std::make_tuple(LockMode::S, LockMode::S, true),
        std::make_tuple(LockMode::S, LockMode::X, false),
        std::make_tuple(LockMode::X, LockMode::X, false)));

TEST(MultiModeLock, SharedHoldersCoexist)
{
    sim::Simulation s;
    MultiModeLock l(s);
    EXPECT_TRUE(l.tryAcquire(LockMode::S));
    EXPECT_TRUE(l.tryAcquire(LockMode::S));
    EXPECT_TRUE(l.tryAcquire(LockMode::IS));
    EXPECT_FALSE(l.tryAcquire(LockMode::X));
    EXPECT_FALSE(l.tryAcquire(LockMode::IX));
    l.release(LockMode::S);
    l.release(LockMode::S);
    l.release(LockMode::IS);
    EXPECT_TRUE(l.tryAcquire(LockMode::X));
}

TEST(MultiModeLock, WriterWakesWhenReadersLeave)
{
    sim::Simulation s;
    MultiModeLock l(s);
    std::vector<int> order;

    s.spawn([](sim::Simulation &sim, MultiModeLock &lk,
               std::vector<int> &ord) -> sim::Task<> {
        co_await lk.acquire(LockMode::S);
        co_await sim.delay(msec(10));
        ord.push_back(1);
        lk.release(LockMode::S);
    }(s, l, order));
    s.spawn([](sim::Simulation &sim, MultiModeLock &lk,
               std::vector<int> &ord) -> sim::Task<> {
        co_await sim.delay(msec(1));
        co_await lk.acquire(LockMode::X);
        ord.push_back(2);
        lk.release(LockMode::X);
    }(s, l, order));
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(l.waits(), 1u);
    EXPECT_EQ(l.waitTime(), msec(9));
}

TEST(MultiModeLock, FifoPreventsWriterStarvation)
{
    sim::Simulation s;
    MultiModeLock l(s);
    std::vector<int> order;

    auto reader = [](sim::Simulation &sim, MultiModeLock &lk,
                     std::vector<int> &ord, sim::Duration at,
                     int id) -> sim::Task<> {
        co_await sim.delay(at);
        co_await lk.acquire(LockMode::S);
        ord.push_back(id);
        co_await sim.delay(msec(10));
        lk.release(LockMode::S);
    };
    auto writer = [](sim::Simulation &sim, MultiModeLock &lk,
                     std::vector<int> &ord, sim::Duration at,
                     int id) -> sim::Task<> {
        co_await sim.delay(at);
        co_await lk.acquire(LockMode::X);
        ord.push_back(id);
        lk.release(LockMode::X);
    };
    // Reader at t=0, writer at t=1ms, second reader at t=2ms. Without
    // FIFO the second reader would jump the writer.
    s.spawn(reader(s, l, order, 0, 1));
    s.spawn(writer(s, l, order, msec(1), 2));
    s.spawn(reader(s, l, order, msec(2), 3));
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(MultiModeLock, CompatibleWaitersGrantTogether)
{
    sim::Simulation s;
    MultiModeLock l(s);
    int concurrent = 0, peak = 0;

    s.spawn([](sim::Simulation &sim, MultiModeLock &lk) -> sim::Task<> {
        co_await lk.acquire(LockMode::X);
        co_await sim.delay(msec(5));
        lk.release(LockMode::X);
    }(s, l));
    for (int i = 0; i < 3; ++i) {
        s.spawn([](sim::Simulation &sim, MultiModeLock &lk, int &cur,
                   int &pk) -> sim::Task<> {
            co_await sim.delay(msec(1));
            co_await lk.acquire(LockMode::S);
            ++cur;
            pk = std::max(pk, cur);
            co_await sim.delay(msec(5));
            --cur;
            lk.release(LockMode::S);
        }(s, l, concurrent, peak));
    }
    s.run();
    // All three queued shared requests were granted as a batch when
    // the writer left.
    EXPECT_EQ(peak, 3);
}

TEST(HierarchicalLock, PageLocksUnderIntention)
{
    sim::Simulation s;
    HierarchicalLockManager locks(s, 4);
    runTask(s, [](HierarchicalLockManager &lk) -> sim::Task<> {
        co_await lk.lockRelation(0, LockMode::IX);
        co_await lk.lockPage(0, 10, LockMode::X);
        // A second transaction can work on another page of the same
        // relation concurrently.
        co_await lk.lockRelation(0, LockMode::IX);
        co_await lk.lockPage(0, 11, LockMode::X);
        lk.unlockPage(0, 11, LockMode::X);
        lk.unlockRelation(0, LockMode::IX);
        lk.unlockPage(0, 10, LockMode::X);
        lk.unlockRelation(0, LockMode::IX);
    }(locks));
    // Relation-level S blocks intention writers.
    EXPECT_TRUE(locks.relation(1).tryAcquire(LockMode::S));
    EXPECT_FALSE(locks.relation(1).tryAcquire(LockMode::IX));
}

TEST(HierarchicalLock, OrderedAcquisitionAvoidsDeadlock)
{
    // Two transactions that would deadlock if they acquired their
    // relations in opposite orders; with the canonical ascending-id
    // protocol both complete.
    sim::Simulation s;
    HierarchicalLockManager locks(s, 4);
    int completed = 0;

    auto txn = [](sim::Simulation &sim, HierarchicalLockManager &lk,
                  int first, int second, int *done) -> sim::Task<> {
        int lo = std::min(first, second);
        int hi = std::max(first, second);
        co_await lk.lockRelation(lo, LockMode::X);
        co_await sim.delay(msec(5)); // guarantee interleaving
        co_await lk.lockRelation(hi, LockMode::X);
        co_await sim.delay(msec(5));
        lk.unlockRelation(hi, LockMode::X);
        lk.unlockRelation(lo, LockMode::X);
        ++*done;
    };
    // Transaction A wants (1 then 2), transaction B wants (2 then 1).
    s.spawn(txn(s, locks, 1, 2, &completed));
    s.spawn(txn(s, locks, 2, 1, &completed));
    s.run();
    EXPECT_EQ(completed, 2);
    EXPECT_EQ(locks.relation(1).waiting(), 0);
    EXPECT_EQ(locks.relation(2).waiting(), 0);
}

TEST(MultiModeLock, WaitTimeAccounting)
{
    sim::Simulation s;
    MultiModeLock l(s);
    s.spawn([](sim::Simulation &sim, MultiModeLock &lk) -> sim::Task<> {
        co_await lk.acquire(LockMode::X);
        co_await sim.delay(msec(20));
        lk.release(LockMode::X);
    }(s, l));
    s.spawn([](sim::Simulation &sim, MultiModeLock &lk) -> sim::Task<> {
        co_await sim.delay(msec(5));
        co_await lk.acquire(LockMode::S);
        lk.release(LockMode::S);
    }(s, l));
    s.run();
    EXPECT_EQ(l.waits(), 1u);
    EXPECT_EQ(l.waitTime(), msec(15));
}

// ----------------------------------------------------------------------
// Page-lock table: holds only live locks
// ----------------------------------------------------------------------

/** Run @p fn's panic and return its message ("" if none was thrown). */
template <typename F>
std::string
panicMessage(F &&fn)
{
    try {
        fn();
    } catch (const sim::SimPanic &e) {
        return e.what();
    }
    return "";
}

TEST(PageLockTable, DrainsAfterDistinctPageCycles)
{
    sim::Simulation s;
    HierarchicalLockManager locks(s, 4);
    for (std::uint64_t page = 0; page < 10000; ++page) {
        int rel = static_cast<int>(page % 4);
        runTask(s, locks.lockPage(rel, page, LockMode::X));
        ASSERT_EQ(locks.pageLocks(), 1u);
        locks.unlockPage(rel, page, LockMode::X);
        ASSERT_EQ(locks.pageLocks(), 0u);
    }
}

TEST(PageLockTable, SharedHoldersKeepEntryUntilLastLeaves)
{
    sim::Simulation s;
    HierarchicalLockManager locks(s, 1);
    runTask(s, locks.lockPage(0, 5, LockMode::S));
    runTask(s, locks.lockPage(0, 5, LockMode::S));
    EXPECT_EQ(locks.pageLocks(), 1u);
    locks.unlockPage(0, 5, LockMode::S);
    EXPECT_EQ(locks.pageLocks(), 1u);
    locks.unlockPage(0, 5, LockMode::S);
    EXPECT_EQ(locks.pageLocks(), 0u);
}

TEST(PageLockTable, EmptyAfterClusterStudy)
{
    // The leak regression: every transaction has released its page
    // locks once the cluster drains, so no entry may survive.
    ClusterParams p;
    p.nodes = 4;
    p.cpusPerNode = 2;
    p.tps = 2000;
    p.durationSec = 0.5;
    p.workers = 1;
    ClusterResult r = runClusterStudy(p);
    EXPECT_GT(r.txns, 0u);
    EXPECT_GT(r.remoteTxns, 0u);
    EXPECT_EQ(r.pageLocksLeft, 0u);
}

TEST(PageLockTable, QueuedWaiterKeepsEntry)
{
    sim::Simulation s;
    HierarchicalLockManager locks(s, 1);
    std::size_t afterHandOff = 0;

    s.spawn([](sim::Simulation &sim,
               HierarchicalLockManager &lk) -> sim::Task<> {
        co_await lk.lockPage(0, 3, LockMode::X);
        co_await sim.delay(msec(10));
        lk.unlockPage(0, 3, LockMode::X);
    }(s, locks));
    s.spawn([](sim::Simulation &sim, HierarchicalLockManager &lk,
               std::size_t &live) -> sim::Task<> {
        co_await sim.delay(msec(1));
        co_await lk.lockPage(0, 3, LockMode::X);
        // The holder's release handed the lock over; the entry was
        // kept for this waiter rather than erased and recreated.
        live = lk.pageLocks();
        lk.unlockPage(0, 3, LockMode::X);
    }(s, locks, afterHandOff));
    s.run();
    EXPECT_EQ(afterHandOff, 1u);
    EXPECT_EQ(locks.pageLocks(), 0u);
}

TEST(PageLockTable, FifoOrderSurvivesEraseAndRecreate)
{
    sim::Simulation s;
    HierarchicalLockManager locks(s, 2);
    std::vector<int> order;

    auto txn = [](sim::Simulation &sim, HierarchicalLockManager &lk,
                  std::vector<int> &ord, sim::Duration at, LockMode m,
                  int id) -> sim::Task<> {
        co_await sim.delay(at);
        co_await lk.lockPage(1, 42, m);
        ord.push_back(id);
        co_await sim.delay(msec(10));
        lk.unlockPage(1, 42, m);
    };
    // Two rounds on the same page, separated by an idle gap that
    // erases its entry. In each, a writer holds the page while a
    // reader, a writer and a second reader queue behind it; the
    // second reader must not jump the queued writer.
    for (int round = 0; round < 2; ++round) {
        sim::Duration base = msec(100) * round;
        int id = 10 * round;
        s.spawn(txn(s, locks, order, base, LockMode::X, id + 1));
        s.spawn(txn(s, locks, order, base + msec(1), LockMode::S,
                    id + 2));
        s.spawn(txn(s, locks, order, base + msec(2), LockMode::X,
                    id + 3));
        s.spawn(txn(s, locks, order, base + msec(3), LockMode::S,
                    id + 4));
    }
    s.runUntil(msec(99));
    EXPECT_EQ(locks.pageLocks(), 0u);
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 11, 12, 13, 14}));
    EXPECT_EQ(locks.pageLocks(), 0u);
}

TEST(PageLockTable, DoubleUnlockPanics)
{
    sim::Simulation s;
    HierarchicalLockManager locks(s, 4);
    runTask(s, locks.lockPage(2, 7, LockMode::X));
    locks.unlockPage(2, 7, LockMode::X);
    std::string msg =
        panicMessage([&] { locks.unlockPage(2, 7, LockMode::X); });
    EXPECT_NE(msg.find("rel 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("page 7"), std::string::npos) << msg;
    EXPECT_NE(msg.find("X"), std::string::npos) << msg;
}

TEST(PageLockTable, StrayUnlockPanics)
{
    sim::Simulation s;
    HierarchicalLockManager locks(s, 4);
    // Never locked at all.
    EXPECT_THROW(locks.unlockPage(1, 99, LockMode::S), sim::SimPanic);
    // Locked, but in another mode: the S hold must survive.
    runTask(s, locks.lockPage(1, 99, LockMode::S));
    std::string msg =
        panicMessage([&] { locks.unlockPage(1, 99, LockMode::X); });
    EXPECT_NE(msg.find("rel 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("page 99"), std::string::npos) << msg;
    EXPECT_EQ(locks.pageLocks(), 1u);
    locks.unlockPage(1, 99, LockMode::S);
    EXPECT_EQ(locks.pageLocks(), 0u);
}

TEST(MultiModeLock, ReleaseOfUnheldModePanics)
{
    sim::Simulation s;
    MultiModeLock l(s);
    ASSERT_TRUE(l.tryAcquire(LockMode::IS));
    std::string msg = panicMessage([&] { l.release(LockMode::IX); });
    EXPECT_NE(msg.find("IX"), std::string::npos) << msg;
    // The count never went negative: IX is still grantable next to
    // the IS hold, and X still is not.
    EXPECT_EQ(l.holders(LockMode::IX), 0);
    EXPECT_TRUE(l.tryAcquire(LockMode::IX));
    EXPECT_FALSE(l.tryAcquire(LockMode::X));
}

/** A holder that never releases and a waiter parked behind it. */
void
parkWaiter(sim::Simulation &s, HierarchicalLockManager &locks)
{
    s.spawn([](HierarchicalLockManager &lk) -> sim::Task<> {
        co_await lk.lockPage(0, 1, LockMode::X);
    }(locks));
    s.spawn([](sim::Simulation &sim,
               HierarchicalLockManager &lk) -> sim::Task<> {
        co_await sim.delay(msec(1));
        co_await lk.lockPage(0, 1, LockMode::S);
        ADD_FAILURE() << "waiter was granted a lock that is never "
                         "released";
    }(s, locks));
    s.run();
    EXPECT_EQ(s.liveTasks(), 1);
}

TEST(PageLockTable, TeardownWithParkedWaiterLocksFirst)
{
    // Declaration order: the lock table dies first, then the
    // Simulation destroys the parked frame holding the queue node.
    sim::Simulation s;
    HierarchicalLockManager locks(s, 1);
    parkWaiter(s, locks);
    EXPECT_EQ(locks.pageLocks(), 1u);
}

TEST(PageLockTable, TeardownWithParkedWaiterSimulationFirst)
{
    // The Simulation destroys the parked frame (and its queue node)
    // while the lock table that links to it is still alive; neither
    // teardown may touch the other's memory.
    auto s = std::make_unique<sim::Simulation>();
    HierarchicalLockManager locks(*s, 1);
    parkWaiter(*s, locks);
    s.reset();
    EXPECT_EQ(locks.pageLocks(), 1u);
}

// ----------------------------------------------------------------------
// Frameless grants: uncontended at call time, contended when started
// ----------------------------------------------------------------------

TEST(FramelessGrant, UncontendedLocksAllocateNoFrame)
{
    sim::Simulation s;
    HierarchicalLockManager locks(s, 2);
    struct Counts
    {
        std::uint64_t relFrames = 99;
        std::uint64_t pageFrames = 99;
        std::uint64_t pageHeap = 99;
    } c;
    runTask(s, [](HierarchicalLockManager &lk,
                  Counts &out) -> sim::Task<> {
        using sim::detail::FramePool;
        // Warm up: the table's buckets exist and one entry-sized block
        // waits on the pool's free list.
        co_await lk.lockPage(0, 1, LockMode::X);
        lk.unlockPage(0, 1, LockMode::X);

        std::uint64_t f0 = FramePool::threadAllocations();
        co_await lk.lockRelation(1, LockMode::IX);
        out.relFrames = FramePool::threadAllocations() - f0;

        f0 = FramePool::threadAllocations();
        const std::uint64_t h0 = sim::mem::threadAllocations();
        co_await lk.lockPage(1, 7, LockMode::X);
        out.pageFrames = FramePool::threadAllocations() - f0;
        out.pageHeap = sim::mem::threadAllocations() - h0;

        lk.unlockPage(1, 7, LockMode::X);
        lk.unlockRelation(1, LockMode::IX);
    }(locks, c));
    EXPECT_EQ(c.relFrames, 0u);
    EXPECT_EQ(c.pageFrames, 1u); // the pooled table entry
    EXPECT_EQ(c.pageHeap, 0u);
    EXPECT_EQ(locks.pageLocks(), 0u);
}

TEST(FramelessGrant, DeferredAcquireQueuesBehindLaterHolder)
{
    // acquire(X) is built while A holds X, so it returns a lazy slow
    // task. A releases and C takes X before the task starts: when it
    // starts it must queue FIFO behind C, not be granted alongside.
    sim::Simulation s;
    MultiModeLock l(s);
    ASSERT_TRUE(l.tryAcquire(LockMode::X)); // A
    sim::Task<> late = l.acquire(LockMode::X);
    EXPECT_TRUE(late.valid()) << "a contended acquire owns a frame";
    l.release(LockMode::X); // A; nobody is queued yet
    sim::Task<> third = l.acquire(LockMode::X);
    EXPECT_FALSE(third.valid()) << "C is granted at call time";
    EXPECT_EQ(l.holders(LockMode::X), 1);

    sim::SimTime grantedAt = -1;
    int holdersAtGrant = 0;
    s.spawn([](sim::Simulation &sim, MultiModeLock &lk, sim::Task<> t,
               sim::SimTime &at, int &held) -> sim::Task<> {
        co_await std::move(t);
        at = sim.now();
        held = lk.holders(LockMode::X);
        lk.release(LockMode::X);
    }(s, l, std::move(late), grantedAt, holdersAtGrant));
    EXPECT_EQ(l.waiting(), 1);
    EXPECT_EQ(l.holders(LockMode::X), 1);
    s.spawn([](sim::Simulation &sim, MultiModeLock &lk,
               sim::Task<> t) -> sim::Task<> {
        co_await std::move(t);
        co_await sim.delay(msec(5));
        lk.release(LockMode::X); // C
    }(s, l, std::move(third)));
    s.run();
    EXPECT_EQ(grantedAt, msec(5));
    EXPECT_EQ(holdersAtGrant, 1);
    EXPECT_EQ(l.waits(), 1u);
    EXPECT_EQ(l.waitTime(), msec(5));
    EXPECT_TRUE(l.idle());
}

TEST(FramelessGrant, DeferredAcquireOfFreedLockWaitsForNothing)
{
    // Built while contended, started once the lock is free again: the
    // slow task retries the grant when it starts and takes it at once.
    sim::Simulation s;
    MultiModeLock l(s);
    ASSERT_TRUE(l.tryAcquire(LockMode::S));
    sim::Task<> late = l.acquire(LockMode::X);
    l.release(LockMode::S);
    runTask(s, std::move(late));
    EXPECT_EQ(l.holders(LockMode::X), 1);
    EXPECT_EQ(l.waits(), 0u);
    EXPECT_EQ(l.waitTime(), 0);
    EXPECT_EQ(s.now(), 0);
}

TEST(FramelessGrant, DeferredLockPageFindsRecreatedEntry)
{
    // The page entry seen when lockPage(X) is built is erased when
    // its holder leaves; its block goes to page 4's entry and a new
    // one is made for page 9 by the next locker. The deferred task
    // must queue on page 9's live entry, not on the recycled block.
    sim::Simulation s;
    HierarchicalLockManager locks(s, 1);
    runTask(s, locks.lockPage(0, 9, LockMode::X)); // A
    sim::Task<> late = locks.lockPage(0, 9, LockMode::X);
    locks.unlockPage(0, 9, LockMode::X);
    EXPECT_EQ(locks.pageLocks(), 0u);
    runTask(s, locks.lockPage(0, 4, LockMode::X));
    runTask(s, locks.lockPage(0, 9, LockMode::X)); // C
    sim::SimTime grantedAt = -1;
    s.spawn([](sim::Simulation &sim, HierarchicalLockManager &lk,
               sim::Task<> t, sim::SimTime &at) -> sim::Task<> {
        co_await std::move(t);
        at = sim.now();
        lk.unlockPage(0, 9, LockMode::X);
    }(s, locks, std::move(late), grantedAt));
    EXPECT_EQ(locks.pageLocks(), 2u);
    s.spawn([](sim::Simulation &sim,
               HierarchicalLockManager &lk) -> sim::Task<> {
        co_await sim.delay(msec(3));
        lk.unlockPage(0, 9, LockMode::X); // C
        co_await sim.delay(msec(3));
        lk.unlockPage(0, 4, LockMode::X);
    }(s, locks));
    s.run();
    EXPECT_EQ(grantedAt, msec(3));
    EXPECT_EQ(locks.pageLocks(), 0u);
}

// ----------------------------------------------------------------------
// The Table 4 study (short runs)
// ----------------------------------------------------------------------

DbParams
quickParams(std::uint64_t seed = 42)
{
    DbParams p;
    p.durationSec = 60.0;
    p.seed = seed;
    return p;
}

TEST(DbStudy, CompletesAllArrivals)
{
    DbResult r = runDbStudy(DbConfig::IndexInMemory, quickParams());
    // 40 TPS for 60 s: about 2400 transactions, all completed.
    EXPECT_GT(r.txns, 2200u);
    EXPECT_LT(r.txns, 2600u);
    EXPECT_NEAR(static_cast<double>(r.joins) / r.txns, 0.05, 0.02);
}

TEST(DbStudy, DeterministicForSameSeed)
{
    DbResult a = runDbStudy(DbConfig::IndexWithPaging, quickParams(7));
    DbResult b = runDbStudy(DbConfig::IndexWithPaging, quickParams(7));
    EXPECT_EQ(a.txns, b.txns);
    EXPECT_DOUBLE_EQ(a.avgMs, b.avgMs);
    EXPECT_DOUBLE_EQ(a.worstMs, b.worstMs);
}

TEST(DbStudy, Table4OrderingInvariants)
{
    DbParams p = quickParams();
    DbResult none = runDbStudy(DbConfig::NoIndex, p);
    DbResult mem = runDbStudy(DbConfig::IndexInMemory, p);
    DbResult page = runDbStudy(DbConfig::IndexWithPaging, p);
    DbResult regen = runDbStudy(DbConfig::IndexRegeneration, p);

    // The paper's qualitative claims:
    // indices help enormously when memory is available,
    EXPECT_GT(none.avgMs, 10 * mem.avgMs);
    // a little paging destroys most of the benefit,
    EXPECT_GT(page.avgMs, 5 * mem.avgMs);
    EXPECT_LT(page.avgMs, none.avgMs);
    // and regeneration recovers nearly all of it.
    EXPECT_LT(regen.avgMs, 2 * mem.avgMs);
    EXPECT_LT(regen.avgMs, page.avgMs / 5);
    EXPECT_GE(regen.avgMs, mem.avgMs);
    // Worst cases: paging and no-index are the catastrophic tails.
    EXPECT_GT(page.worstMs, 4 * regen.worstMs);
    EXPECT_GT(none.worstMs, mem.worstMs);
}

TEST(DbStudy, PagingFaultsAndRegenRebuildCounts)
{
    DbParams p = quickParams();
    DbResult page = runDbStudy(DbConfig::IndexWithPaging, p);
    DbResult regen = runDbStudy(DbConfig::IndexRegeneration, p);
    DbResult mem = runDbStudy(DbConfig::IndexInMemory, p);

    // ~2400 arrivals / 500 per eviction = ~4 evictions.
    EXPECT_GE(page.indexEvictions, 3u);
    EXPECT_EQ(page.indexPageFaults,
              page.indexEvictions * p.indexPages);
    EXPECT_EQ(page.indexRebuilds, 0u);

    EXPECT_EQ(regen.indexPageFaults, 0u);
    EXPECT_EQ(regen.indexRebuilds, regen.indexEvictions);

    EXPECT_EQ(mem.indexEvictions, 0u);
    EXPECT_EQ(mem.indexPageFaults, 0u);
}

TEST(DbStudy, NoIndexSaturatesCpus)
{
    DbParams p = quickParams();
    DbResult none = runDbStudy(DbConfig::NoIndex, p);
    DbResult mem = runDbStudy(DbConfig::IndexInMemory, p);
    EXPECT_GT(none.cpuUtilization, 0.7);
    EXPECT_LT(mem.cpuUtilization, 0.5);
}

class DbSeeds : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(DbSeeds, OrderingHoldsAcrossSeeds)
{
    DbParams p = quickParams(GetParam());
    DbResult mem = runDbStudy(DbConfig::IndexInMemory, p);
    DbResult page = runDbStudy(DbConfig::IndexWithPaging, p);
    DbResult regen = runDbStudy(DbConfig::IndexRegeneration, p);
    EXPECT_GT(page.avgMs, 5 * mem.avgMs);
    EXPECT_LT(regen.avgMs, 2 * mem.avgMs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DbSeeds,
                         ::testing::Values(1, 17, 99, 2024));

} // namespace
} // namespace vpp::db
