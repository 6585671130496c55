/**
 * @file
 * Hierarchical locking for the database study (paper §3.3: "A
 * hierarchical locking scheme is used for concurrency control").
 *
 * Standard multi-granularity modes (IS/IX/S/X) on relations plus S/X
 * page locks beneath them. Grants are FIFO: a request that is
 * incompatible with current holders — or behind an incompatible
 * waiter — queues, which prevents writer starvation and makes lock
 * convoys (the phenomenon Table 4 quantifies) behave realistically.
 */

#ifndef VPP_DB_LOCK_H
#define VPP_DB_LOCK_H

#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/simulation.h"
#include "sim/task.h"

namespace vpp::db {

enum class LockMode
{
    IS,
    IX,
    S,
    X,
};

const char *lockModeName(LockMode m);

/** Multi-granularity compatibility matrix. */
bool lockCompatible(LockMode a, LockMode b);

/**
 * One lockable object supporting the four modes with FIFO grants.
 *
 * Constructing one allocates nothing: the wait queue is an intrusive
 * list whose nodes live in the frames of the parked acquire()
 * coroutines. Nodes never point back at the lock, so the lock and
 * the parked frames may be destroyed in either order; the lock must
 * not be used again after its Simulation has destroyed those frames.
 */
class MultiModeLock
{
  public:
    explicit MultiModeLock(sim::Simulation &s) : sim_(&s) {}

    MultiModeLock(const MultiModeLock &) = delete;
    MultiModeLock &operator=(const MultiModeLock &) = delete;

    /**
     * Take one hold of @p m, FIFO behind earlier waiters. When the
     * lock is free for @p m now, the hold is granted here, at call
     * time, and the task is a frameless ready one. Otherwise the
     * task is a coroutine that retries the grant when it starts (the
     * lock may have changed hands since the call) and queues if that
     * fails too.
     */
    sim::Task<> acquire(LockMode m);

    /** Release one hold of @p m; SimPanic if none is held. */
    void release(LockMode m);

    bool tryAcquire(LockMode m);

    int holders(LockMode m) const
    {
        return held_[static_cast<int>(m)];
    }

    int waiting() const { return waiting_; }

    /** No holders and no waiters. */
    bool
    idle() const
    {
        return !head_ && !held_[0] && !held_[1] && !held_[2] &&
               !held_[3];
    }

    /** Aggregate time spent blocked on this lock. */
    sim::Duration waitTime() const { return waitTime_; }
    std::uint64_t waits() const { return waits_; }

  private:
    /** A parked acquire(); lives in that coroutine's frame. */
    struct Waiter
    {
        LockMode mode;
        sim::SimTime since;
        Waiter *next = nullptr;
        std::coroutine_handle<> handle = nullptr;

        bool await_ready() const noexcept { return false; }
        void await_suspend(std::coroutine_handle<> h) noexcept { handle = h; }
        void await_resume() const noexcept {}
    };

    bool compatibleWithHolders(LockMode m) const;
    void drainQueue();
    sim::Task<> acquireSlow(LockMode m);

    sim::Simulation *sim_;
    int held_[4] = {0, 0, 0, 0};
    Waiter *head_ = nullptr;
    Waiter *tail_ = nullptr;
    int waiting_ = 0;
    sim::Duration waitTime_ = 0;
    std::uint64_t waits_ = 0;
};

/**
 * Two-level hierarchy: relations (intention + shared/exclusive) and
 * pages under them. Callers must follow the protocol: an intention
 * mode on the relation before any page lock, and acquire relations in
 * ascending id order (deadlock avoidance).
 *
 * The page table holds only live locks: an entry exists iff the page
 * lock is held or waited on. unlockPage erases the entry the moment
 * it goes idle, so per-page wait time is not kept (only relation
 * wait time is reported). Entries are allocated through FramePool,
 * so a lock/unlock cycle recycles its node instead of calling malloc.
 */
class HierarchicalLockManager
{
  public:
    HierarchicalLockManager(sim::Simulation &s, int relations);

    /**
     * Both lock calls grant an uncontended request at call time and
     * return a frameless ready task; a contended one is granted (or
     * queued) when its task starts. See MultiModeLock::acquire.
     */
    sim::Task<> lockRelation(int rel, LockMode m);
    void unlockRelation(int rel, LockMode m);

    sim::Task<> lockPage(int rel, std::uint64_t page, LockMode m);

    /** Release one hold; SimPanic if (rel, page) holds no @p m. */
    void unlockPage(int rel, std::uint64_t page, LockMode m);

    MultiModeLock &relation(int rel) { return *relations_.at(rel); }

    /** Live page-lock entries (held or waited on). */
    std::size_t pageLocks() const { return pages_.size(); }

    sim::Duration
    totalRelationWaitTime() const
    {
        sim::Duration t = 0;
        for (const auto &r : relations_)
            t += r->waitTime();
        return t;
    }

  private:
    using PageKey = std::pair<int, std::uint64_t>;

    struct PageKeyHash
    {
        std::size_t
        operator()(const PageKey &k) const noexcept
        {
            // splitmix64 finaliser over both fields; equality still
            // compares the full pair, so distinct keys never merge.
            std::uint64_t x =
                k.second ^ (std::uint64_t{static_cast<std::uint32_t>(
                                k.first)} *
                            0x9e3779b97f4a7c15ull);
            x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
            x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
            return static_cast<std::size_t>(x ^ (x >> 31));
        }
    };

    sim::Task<> lockPageSlow(int rel, std::uint64_t page, LockMode m);

    sim::Simulation *sim_;
    std::vector<std::unique_ptr<MultiModeLock>> relations_;
    std::unordered_map<
        PageKey, MultiModeLock, PageKeyHash, std::equal_to<PageKey>,
        sim::detail::PoolAlloc<std::pair<const PageKey, MultiModeLock>>>
        pages_;
};

} // namespace vpp::db

#endif // VPP_DB_LOCK_H
