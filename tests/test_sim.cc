/**
 * @file
 * Unit tests for the discrete-event engine, coroutine tasks and
 * synchronisation primitives.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/random.h"
#include "sim/resource.h"
#include "sim/simulation.h"
#include "sim/stats.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "sim/time.h"

namespace vpp::sim {
namespace {

TEST(Time, Conversions)
{
    EXPECT_EQ(usec(1), 1000);
    EXPECT_EQ(msec(1), 1000000);
    EXPECT_EQ(sec(1), 1000000000);
    EXPECT_DOUBLE_EQ(toUsec(usec(107)), 107.0);
    EXPECT_DOUBLE_EQ(toMsec(msec(3.5)), 3.5);
    EXPECT_DOUBLE_EQ(toSec(sec(12)), 12.0);
}

TEST(Simulation, EventsRunInTimeOrder)
{
    Simulation s;
    std::vector<int> order;
    s.schedule(30, [&] { order.push_back(3); });
    s.schedule(10, [&] { order.push_back(1); });
    s.schedule(20, [&] { order.push_back(2); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(s.now(), 30);
    EXPECT_EQ(s.eventsRun(), 3u);
}

TEST(Simulation, SameTimestampIsFifo)
{
    Simulation s;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        s.schedule(5, [&, i] { order.push_back(i); });
    s.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(Simulation, ScheduleIntoPastThrows)
{
    Simulation s;
    s.schedule(10, [&s] {
        EXPECT_THROW(s.schedule(5, [] {}), SimPanic);
    });
    s.run();
}

TEST(Simulation, RunUntilStopsAtDeadline)
{
    Simulation s;
    int ran = 0;
    s.schedule(10, [&] { ++ran; });
    s.schedule(100, [&] { ++ran; });
    s.runUntil(50);
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(s.now(), 50);
    s.run();
    EXPECT_EQ(ran, 2);
}

TEST(Task, DelayAdvancesClock)
{
    Simulation s;
    SimTime done_at = -1;
    s.spawn([](Simulation &sim, SimTime *at) -> Task<> {
        co_await sim.delay(usec(5));
        co_await sim.delay(usec(7));
        *at = sim.now();
    }(s, &done_at));
    s.run();
    EXPECT_EQ(done_at, usec(12));
}

TEST(Task, NestedTasksReturnValues)
{
    Simulation s;
    int result = 0;
    s.spawn([](Simulation &sim, int *out) -> Task<> {
        auto inner = [](Simulation &sm, int x) -> Task<int> {
            co_await sm.delay(10);
            co_return x * 2;
        };
        int a = co_await inner(sim, 21);
        int b = co_await inner(sim, a);
        *out = b;
    }(s, &result));
    s.run();
    EXPECT_EQ(result, 84);
}

TEST(Task, ExceptionPropagatesThroughAwait)
{
    Simulation s;
    bool caught = false;
    s.spawn([](Simulation &sim, bool *c) -> Task<> {
        auto boom = [](Simulation &sm) -> Task<> {
            co_await sm.delay(1);
            throw std::runtime_error("boom");
        };
        try {
            co_await boom(sim);
        } catch (const std::runtime_error &) {
            *c = true;
        }
    }(s, &caught));
    s.run();
    EXPECT_TRUE(caught);
}

TEST(Task, UncaughtRootErrorRethrownFromRun)
{
    Simulation s;
    s.spawn([](Simulation &sim) -> Task<> {
        co_await sim.delay(1);
        throw std::runtime_error("unhandled");
    }(s));
    EXPECT_THROW(s.run(), std::runtime_error);
}

TEST(Task, LiveTaskCounting)
{
    Simulation s;
    EXPECT_EQ(s.liveTasks(), 0);
    s.spawn([](Simulation &sim) -> Task<> {
        co_await sim.delay(100);
    }(s));
    EXPECT_EQ(s.liveTasks(), 1);
    s.run();
    EXPECT_EQ(s.liveTasks(), 0);
}

TEST(Simulation, UnfinishedRootsDestroyedOnceAtTeardown)
{
    // Each root's local counts its destruction in its own slot.
    struct Counted
    {
        int *slot;
        ~Counted() { ++*slot; }
    };
    enum Kind { kBlocks, kFinishes, kThrows };
    const Kind kinds[] = {kBlocks,   kFinishes, kThrows, kBlocks,
                          kFinishes, kThrows,   kBlocks};
    constexpr int kRoots = sizeof(kinds) / sizeof(kinds[0]);
    int destroyed[kRoots] = {};
    int errors = 0;
    {
        Simulation s;
        for (int i = 0; i < kRoots; ++i) {
            s.spawn([](Simulation &sim, Kind k,
                       int *slot) -> Task<> {
                Counted c{slot};
                co_await sim.delay(10);
                if (k == kThrows)
                    throw std::runtime_error("root failed");
                if (k == kBlocks) {
                    Promise<> never(sim);
                    co_await never.future();
                }
            }(s, kinds[i], &destroyed[i]));
        }
        EXPECT_EQ(s.liveTasks(), kRoots);
        // run() rethrows the first root error; run again to finish.
        for (;;) {
            try {
                s.run();
                break;
            } catch (const std::runtime_error &) {
                ++errors;
            }
        }
        EXPECT_GE(errors, 1);
        EXPECT_EQ(s.liveTasks(), 3);
        for (int i = 0; i < kRoots; ++i)
            EXPECT_EQ(destroyed[i], kinds[i] == kBlocks ? 0 : 1)
                << "root " << i << " before teardown";
    }
    for (int i = 0; i < kRoots; ++i)
        EXPECT_EQ(destroyed[i], 1) << "root " << i;
}

// ----------------------------------------------------------------------
// Frame-free ready tasks
// ----------------------------------------------------------------------

TEST(Task, ReadyValueHasNoFrameAndAwaitsAtOnce)
{
    const std::uint64_t frames0 = detail::FramePool::threadAllocations();
    Task<int> t = Task<int>::ready(7);
    EXPECT_EQ(detail::FramePool::threadAllocations(), frames0);
    EXPECT_TRUE(t.valid());
    EXPECT_TRUE(t.done());

    Simulation s;
    int got = 0;
    s.spawn([](Task<int> in, int *out) -> Task<> {
        *out = co_await std::move(in);
    }(std::move(t), &got));
    // The root completed inside spawn(): nothing was scheduled.
    EXPECT_EQ(got, 7);
    EXPECT_EQ(s.liveTasks(), 0);
    EXPECT_EQ(s.nextEventTime(), Simulation::kNoEvent);
    s.run();
    EXPECT_EQ(s.eventsRun(), 0u);
}

TEST(Task, ReadyVoidHasNoFrameAndCompletes)
{
    const std::uint64_t frames0 = detail::FramePool::threadAllocations();
    Task<> t = Task<>::ready();
    EXPECT_EQ(detail::FramePool::threadAllocations(), frames0);
    EXPECT_FALSE(t.valid()); // owns no frame
    EXPECT_TRUE(t.done());

    Simulation s;
    bool after = false;
    s.spawn([](Task<> in, bool *a) -> Task<> {
        co_await std::move(in);
        *a = true;
    }(std::move(t), &after));
    EXPECT_TRUE(after);
    s.run();
    EXPECT_EQ(s.eventsRun(), 0u);
}

TEST(Task, AwaitingEmptyVoidTaskCompletes)
{
    // A default-constructed Task<> has no frame, like ready(): awaiting
    // it must complete, not dereference a null promise.
    Simulation s;
    bool after = false;
    s.spawn([](bool *a) -> Task<> {
        co_await Task<>{};
        *a = true;
    }(&after));
    s.run();
    EXPECT_TRUE(after);
}

TEST(Task, MovedFromReadyTask)
{
    Task<std::vector<int>> a = Task<std::vector<int>>::ready(
        std::vector<int>{1, 2, 3});
    Task<std::vector<int>> b = std::move(a);
    EXPECT_FALSE(a.valid());
    EXPECT_FALSE(a.done());
    EXPECT_TRUE(b.done());

    Task<std::vector<int>> c;
    c = std::move(b);
    EXPECT_FALSE(b.valid());

    Simulation s;
    std::vector<int> got;
    bool emptyThrew = false;
    s.spawn([](Task<std::vector<int>> full, Task<std::vector<int>> empty,
               std::vector<int> *out, bool *threw) -> Task<> {
        *out = co_await std::move(full);
        try {
            (void)co_await std::move(empty);
        } catch (const std::logic_error &) {
            *threw = true;
        }
    }(std::move(c), std::move(a), &got, &emptyThrew));
    s.run();
    EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(emptyThrew);

    // A moved-from Task<> is frameless too, so it awaits as done.
    Task<> v = Task<>::ready();
    Task<> w = std::move(v);
    EXPECT_TRUE(v.done());
    EXPECT_TRUE(w.done());
}

TEST(Task, ReadyTaskSpawnedAsRoot)
{
    Simulation s;
    s.spawn(Task<>::ready());
    EXPECT_EQ(s.liveTasks(), 0);
    s.run();
    EXPECT_EQ(s.eventsRun(), 0u);
}

TEST(Task, ExceptionFromRealTaskUnchangedBesideReadyOnes)
{
    // A frame-backed task still captures its exception and rethrows it
    // at the await, after ready tasks in the same caller completed.
    Simulation s;
    int ready = 0;
    std::string caught;
    s.spawn([](Simulation &sim, int *r, std::string *c) -> Task<> {
        auto boom = [](Simulation &sm) -> Task<int> {
            co_await sm.delay(3);
            throw std::runtime_error("boom");
        };
        *r = co_await Task<int>::ready(4);
        co_await Task<>::ready();
        try {
            (void)co_await boom(sim);
        } catch (const std::runtime_error &e) {
            *c = e.what();
        }
    }(s, &ready, &caught));
    s.run();
    EXPECT_EQ(ready, 4);
    EXPECT_EQ(caught, "boom");
    EXPECT_EQ(s.now(), 3);
}

// ----------------------------------------------------------------------
// Next-event register
// ----------------------------------------------------------------------

/**
 * Randomised event traffic that logs, for every event, the (when, n)
 * pair it was scheduled with (n counts schedule calls, as the engine's
 * seq does) and the order events fire in. The engine must fire them in
 * exactly sorted (when, n) order.
 */
struct OrderRig
{
    Simulation s;
    Random rng{11};
    std::uint64_t nextId = 0;
    std::vector<std::pair<SimTime, std::uint64_t>> scheduled;
    std::vector<std::uint64_t> fired;

    std::uint64_t
    note(SimTime when)
    {
        scheduled.emplace_back(when, nextId);
        return nextId++;
    }

    /** Inline (16-byte trivial) or slot (owns a string) callback. */
    void
    callback(SimTime when, int depth)
    {
        const std::uint64_t id = note(when);
        if (rng.below(2) == 0) {
            struct Inline
            {
                OrderRig *r;
                std::uint32_t id;
                std::uint32_t depth;
                void operator()() const { r->fire(id, depth); }
            };
            static_assert(sizeof(Inline) == 16);
            s.schedule(when, Inline{this, static_cast<std::uint32_t>(id),
                                    static_cast<std::uint32_t>(depth)});
        } else {
            s.schedule(when, [this, id, depth,
                              tag = std::string(40, 'x')] {
                ASSERT_EQ(tag.size(), 40u);
                fire(id, depth);
            });
        }
    }

    void
    fire(std::uint64_t id, int depth)
    {
        fired.push_back(id);
        // Fan out: same-instant and near-future follow-ups.
        for (int k = 0; depth > 0 && k < 2; ++k)
            callback(s.now() + static_cast<SimTime>(rng.below(3) * 7),
                     depth - 1);
    }

    Task<>
    chain(int steps)
    {
        for (int i = 0; i < steps; ++i) {
            const std::uint64_t pick = rng.below(8);
            if (pick == 0) {
                const std::uint64_t id = note(s.now());
                co_await s.yield();
                fired.push_back(id);
            } else {
                const Duration d = static_cast<Duration>(pick * 5);
                const std::uint64_t id = note(s.now() + d);
                co_await s.delay(d);
                fired.push_back(id);
            }
            if (rng.below(4) == 0)
                callback(s.now() + static_cast<SimTime>(rng.below(40)),
                         2);
        }
    }
};

TEST(Simulation, FarFutureEventKeepsExactWhenSeqOrder)
{
    OrderRig r;
    // A far-future event sits in the queue the whole run, as a fault
    // deadline does: the register must not hide it or run it early.
    r.callback(1'000'000'000, 0);
    for (int c = 0; c < 6; ++c)
        r.s.spawn(r.chain(200));
    r.callback(1'000'000'000, 1); // same instant, later seq
    r.s.run();

    auto want = r.scheduled;
    std::sort(want.begin(), want.end());
    ASSERT_EQ(r.fired.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        ASSERT_EQ(r.fired[i], want[i].second) << "event #" << i;
    EXPECT_EQ(r.s.eventsRun(), want.size());
    EXPECT_GE(r.s.now(), 1'000'000'000);
}

TEST(Simulation, NextEventTimeReadsHeapWhenRegisterIsEmpty)
{
    Simulation s;
    int ran = 0;
    s.schedule(100, [&] { ++ran; }); // takes the empty register
    s.schedule(200, [&] { ++ran; }); // later: heaped
    EXPECT_EQ(s.nextEventTime(), 100);
    s.runUntil(150); // consumes the register, leaves it empty
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(s.nextEventTime(), 200);
    // An event between now and the heap top takes the register again.
    s.schedule(170, [&] { ++ran; });
    EXPECT_EQ(s.nextEventTime(), 170);
    s.drainBefore(171);
    EXPECT_EQ(ran, 2);
    EXPECT_EQ(s.nextEventTime(), 200);
    s.run();
    EXPECT_EQ(ran, 3);
    EXPECT_EQ(s.nextEventTime(), Simulation::kNoEvent);
}

TEST(Simulation, DestructorReleasesSlotCallbacksHeldOnlyByHeap)
{
    auto token = std::make_shared<int>(0);
    {
        Simulation s;
        s.schedule(10, [] {});
        // Captures a shared_ptr, so it is a slab-slot callback.
        s.schedule(1000, [token] { ++*token; });
        s.runUntil(20); // register consumed; only the heap holds 1000
        EXPECT_EQ(s.nextEventTime(), 1000);
        EXPECT_EQ(token.use_count(), 2);
    }
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_EQ(*token, 0);
}

TEST(Future, FulfilBeforeAwait)
{
    Simulation s;
    Promise<int> p(s);
    p.setValue(7);
    int got = 0;
    s.spawn([](Future<int> f, int *out) -> Task<> {
        *out = co_await f;
    }(p.future(), &got));
    s.run();
    EXPECT_EQ(got, 7);
}

TEST(Future, FulfilAfterAwaitWakesAllWaiters)
{
    Simulation s;
    Promise<int> p(s);
    int sum = 0;
    for (int i = 0; i < 3; ++i) {
        s.spawn([](Future<int> f, int *acc) -> Task<> {
            *acc += co_await f;
        }(p.future(), &sum));
    }
    s.schedule(50, [&] { p.setValue(10); });
    s.run();
    EXPECT_EQ(sum, 30);
}

TEST(Future, DoubleFulfilThrows)
{
    Simulation s;
    Promise<void> p(s);
    p.setValue();
    EXPECT_THROW(p.setValue(), SimPanic);
}

TEST(Future, ErrorPropagates)
{
    Simulation s;
    Promise<int> p(s);
    bool caught = false;
    s.spawn([](Future<int> f, bool *c) -> Task<> {
        try {
            co_await f;
        } catch (const std::runtime_error &) {
            *c = true;
        }
    }(p.future(), &caught));
    s.schedule(1, [&] {
        p.setError(std::make_exception_ptr(std::runtime_error("x")));
    });
    s.run();
    EXPECT_TRUE(caught);
}

TEST(Semaphore, LimitsConcurrency)
{
    Simulation s;
    Semaphore sem(s, 2);
    int active = 0;
    int peak = 0;
    for (int i = 0; i < 6; ++i) {
        s.spawn([](Simulation &sim, Semaphore &sm, int *act,
                   int *pk) -> Task<> {
            co_await sm.acquire();
            ++*act;
            *pk = std::max(*pk, *act);
            co_await sim.delay(usec(10));
            --*act;
            sm.release();
        }(s, sem, &active, &peak));
    }
    s.run();
    EXPECT_EQ(peak, 2);
    EXPECT_EQ(active, 0);
    EXPECT_EQ(s.now(), usec(30)); // 6 jobs, 2 wide, 10 us each
}

TEST(Semaphore, TryAcquire)
{
    Simulation s;
    Semaphore sem(s, 1);
    EXPECT_TRUE(sem.tryAcquire());
    EXPECT_FALSE(sem.tryAcquire());
    sem.release();
    EXPECT_TRUE(sem.tryAcquire());
}

TEST(SimMutex, MutualExclusion)
{
    Simulation s;
    SimMutex m(s);
    bool inside = false;
    int violations = 0;
    for (int i = 0; i < 4; ++i) {
        s.spawn([](Simulation &sim, SimMutex &mx, bool *in,
                   int *bad) -> Task<> {
            co_await mx.lock();
            if (*in)
                ++*bad;
            *in = true;
            co_await sim.delay(5);
            *in = false;
            mx.unlock();
        }(s, m, &inside, &violations));
    }
    s.run();
    EXPECT_EQ(violations, 0);
}

TEST(Condition, WaitAndNotify)
{
    Simulation s;
    Condition c(s);
    bool flag = false;
    int woke_at = -1;
    s.spawn([](Simulation &sim, Condition &cond, bool *f,
               int *at) -> Task<> {
        while (!*f)
            co_await cond.wait();
        *at = static_cast<int>(sim.now());
    }(s, c, &flag, &woke_at));
    s.schedule(42, [&] {
        flag = true;
        c.notifyAll();
    });
    s.run();
    EXPECT_EQ(woke_at, 42);
}

TEST(Channel, FifoDelivery)
{
    Simulation s;
    Channel<int> ch(s);
    std::vector<int> got;
    s.spawn([](Channel<int> &c, std::vector<int> *out) -> Task<> {
        for (int i = 0; i < 3; ++i)
            out->push_back(co_await c.recv());
    }(ch, &got));
    s.schedule(1, [&] { ch.send(10); });
    s.schedule(2, [&] {
        ch.send(20);
        ch.send(30);
    });
    s.run();
    EXPECT_EQ(got, (std::vector<int>{10, 20, 30}));
}

TEST(Simulation, YieldRunsBehindQueuedPeers)
{
    Simulation s;
    std::vector<int> order;
    s.schedule(0, [&] { order.push_back(2); });
    // spawn() runs the coroutine body immediately; yield() then
    // queues its resumption behind the already-queued event.
    s.spawn([](Simulation &sim, std::vector<int> *ord) -> Task<> {
        ord->push_back(1);
        co_await sim.yield();
        ord->push_back(3);
    }(s, &order));
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(JoinAll, PropagatesFirstError)
{
    Simulation s;
    auto ok = [](Simulation &sim) -> Task<> {
        co_await sim.delay(usec(5));
    };
    auto bad = [](Simulation &sim) -> Task<> {
        co_await sim.delay(usec(1));
        throw std::runtime_error("subtask failed");
    };
    std::vector<Task<>> tasks;
    tasks.push_back(ok(s));
    tasks.push_back(bad(s));
    bool caught = false;
    s.spawn([](Simulation &sim, std::vector<Task<>> ts,
               bool *c) -> Task<> {
        try {
            co_await joinAll(sim, std::move(ts));
        } catch (const std::runtime_error &) {
            *c = true;
        }
    }(s, std::move(tasks), &caught));
    s.run();
    EXPECT_TRUE(caught);
}

TEST(JoinAll, EmptyListCompletesImmediately)
{
    Simulation s;
    bool done = false;
    s.spawn([](Simulation &sim, bool *d) -> Task<> {
        co_await joinAll(sim, {});
        *d = true;
    }(s, &done));
    s.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(s.now(), 0);
}

TEST(JoinAll, WaitsForAllAndKeepsTiming)
{
    Simulation s;
    int done = 0;
    auto job = [](Simulation &sim, Duration d, int *n) -> Task<> {
        co_await sim.delay(d);
        ++*n;
    };
    std::vector<Task<>> tasks;
    tasks.push_back(job(s, usec(10), &done));
    tasks.push_back(job(s, usec(30), &done));
    tasks.push_back(job(s, usec(20), &done));
    SimTime end = -1;
    s.spawn([](Simulation &sim, std::vector<Task<>> ts,
               SimTime *e) -> Task<> {
        co_await joinAll(sim, std::move(ts));
        *e = sim.now();
    }(s, std::move(tasks), &end));
    s.run();
    EXPECT_EQ(done, 3);
    EXPECT_EQ(end, usec(30));
}

TEST(CpuPool, SixJobsOnTwoCpus)
{
    Simulation s;
    CpuPool pool(s, 2);
    for (int i = 0; i < 6; ++i) {
        s.spawn([](Simulation &, CpuPool &p) -> Task<> {
            co_await p.acquire();
            co_await p.compute(msec(1));
            p.release();
        }(s, pool));
    }
    s.run();
    EXPECT_EQ(s.now(), msec(3));
    EXPECT_EQ(pool.busyTime(), msec(6));
    EXPECT_DOUBLE_EQ(pool.utilization(), 1.0);
    EXPECT_EQ(pool.acquisitions(), 6u);
}

TEST(CpuPool, UncontendedAcquireAndComputeAllocateNoFrame)
{
    Simulation s;
    CpuPool pool(s, 2);
    std::uint64_t frames = 99;
    s.spawn([](CpuPool &p, std::uint64_t &out) -> Task<> {
        const std::uint64_t f0 = detail::FramePool::threadAllocations();
        co_await p.acquire();
        co_await p.compute(msec(1));
        out = detail::FramePool::threadAllocations() - f0;
        p.release();
    }(pool, frames));
    s.run();
    EXPECT_EQ(frames, 0u);
    EXPECT_EQ(s.now(), msec(1));
    EXPECT_EQ(pool.busyTime(), msec(1));
    EXPECT_EQ(pool.acquisitions(), 1u);
    EXPECT_EQ(pool.waitTime(), 0);
}

TEST(CpuPool, StatsAcrossFastAndQueuedGrants)
{
    // One CPU; jobs arrive at 0, 0 and 1 ms and compute 2 ms each.
    // The first is granted at call time, the others queue: waits of
    // 2 ms and 3 ms, as when every grant ran in its own coroutine.
    Simulation s;
    CpuPool pool(s, 1);
    for (Duration at : {Duration{0}, Duration{0}, msec(1)}) {
        s.spawn([](Simulation &sim, CpuPool &p, Duration d) -> Task<> {
            co_await sim.delay(d);
            co_await p.acquire();
            co_await p.compute(msec(2));
            p.release();
        }(s, pool, at));
    }
    s.run();
    EXPECT_EQ(s.now(), msec(6));
    EXPECT_EQ(pool.acquisitions(), 3u);
    EXPECT_EQ(pool.busyTime(), msec(6));
    EXPECT_EQ(pool.waitTime(), msec(5));
}

TEST(CpuPool, DeferredAcquireQueuesBehindLaterHolder)
{
    // acquire() built while the only CPU is busy returns a lazy task.
    // The CPU is released and taken by another acquirer before the
    // task starts; the task must then queue, not run on a second CPU.
    Simulation s;
    CpuPool pool(s, 1);
    Task<> first = pool.acquire();
    EXPECT_FALSE(first.valid()) << "a free CPU is granted at call time";
    Task<> late = pool.acquire();
    EXPECT_TRUE(late.valid());
    pool.release();
    Task<> third = pool.acquire();
    EXPECT_FALSE(third.valid());
    SimTime grantedAt = -1;
    s.spawn([](Simulation &sim, CpuPool &p, Task<> t,
               SimTime &at) -> Task<> {
        co_await std::move(t);
        at = sim.now();
        p.release();
    }(s, pool, std::move(late), grantedAt));
    EXPECT_EQ(pool.queued(), 1);
    EXPECT_EQ(pool.idle(), 0);
    s.spawn([](Simulation &sim, CpuPool &p) -> Task<> {
        co_await sim.delay(msec(4));
        p.release();
    }(s, pool));
    s.run();
    EXPECT_EQ(grantedAt, msec(4));
    EXPECT_EQ(pool.acquisitions(), 3u);
    EXPECT_EQ(pool.waitTime(), msec(4));
    EXPECT_EQ(pool.idle(), 1);
}

TEST(CpuGuard, ReleasesOnScopeExit)
{
    Simulation s;
    CpuPool pool(s, 1);
    s.spawn([](Simulation &sim, CpuPool &p) -> Task<> {
        {
            CpuGuard g(p);
            co_await g.acquire();
            co_await sim.delay(10);
        }
        // Guard released; a second acquire must not deadlock.
        CpuGuard g2(p);
        co_await g2.acquire();
    }(s, pool));
    s.run();
    EXPECT_EQ(pool.idle(), 1);
}

TEST(Random, Determinism)
{
    Random a(123), b(123), c(124);
    bool all_equal = true;
    bool any_diff = false;
    for (int i = 0; i < 100; ++i) {
        auto x = a.next();
        if (x != b.next())
            all_equal = false;
        if (x != c.next())
            any_diff = true;
    }
    EXPECT_TRUE(all_equal);
    EXPECT_TRUE(any_diff);
}

TEST(Random, UniformBounds)
{
    Random r(7);
    for (int i = 0; i < 1000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        auto k = r.below(13);
        EXPECT_LT(k, 13u);
        auto b = r.between(-5, 5);
        EXPECT_GE(b, -5);
        EXPECT_LE(b, 5);
    }
}

TEST(Random, ExponentialMean)
{
    Random r(99);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += r.exponential(25.0);
    EXPECT_NEAR(sum / n, 25.0, 1.0);
}

TEST(Random, ZipfSkew)
{
    Random r(5);
    int low = 0;
    const int n = 2000;
    for (int i = 0; i < n; ++i)
        if (r.zipf(100, 1.0) < 10)
            ++low;
    // With s=1, the first 10 of 100 ranks hold well over a third of
    // the mass.
    EXPECT_GT(low, n / 3);
}

TEST(Channel, SizeAndEmpty)
{
    Simulation s;
    Channel<int> ch(s);
    EXPECT_TRUE(ch.empty());
    ch.send(1);
    ch.send(2);
    EXPECT_EQ(ch.size(), 2u);
    int got = 0;
    s.spawn([](Channel<int> &c, int *out) -> Task<> {
        *out = co_await c.recv();
    }(ch, &got));
    s.run();
    EXPECT_EQ(got, 1);
    EXPECT_EQ(ch.size(), 1u);
}

TEST(Stats, DistributionReset)
{
    Distribution d;
    d.add(5);
    d.add(10);
    d.reset();
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.percentile(0.5), 0.0);
    d.add(3);
    EXPECT_DOUBLE_EQ(d.mean(), 3.0);
}

TEST(Stats, SampleAggregates)
{
    SampleStats st;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        st.add(v);
    EXPECT_EQ(st.count(), 8u);
    EXPECT_DOUBLE_EQ(st.mean(), 5.0);
    EXPECT_DOUBLE_EQ(st.min(), 2.0);
    EXPECT_DOUBLE_EQ(st.max(), 9.0);
    EXPECT_NEAR(st.stddev(), 2.138, 0.01);
}

TEST(Stats, DistributionPercentiles)
{
    Distribution d;
    for (int i = 1; i <= 100; ++i)
        d.add(i);
    EXPECT_DOUBLE_EQ(d.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(d.percentile(1.0), 100.0);
    EXPECT_NEAR(d.percentile(0.5), 50.5, 0.01);
    EXPECT_NEAR(d.percentile(0.9), 90.1, 0.2);
    EXPECT_EQ(d.count(), 100u);
    EXPECT_DOUBLE_EQ(d.max(), 100.0);
}

} // namespace
} // namespace vpp::sim
