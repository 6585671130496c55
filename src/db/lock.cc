#include "db/lock.h"

#include <string>

namespace vpp::db {

const char *
lockModeName(LockMode m)
{
    switch (m) {
      case LockMode::IS: return "IS";
      case LockMode::IX: return "IX";
      case LockMode::S: return "S";
      case LockMode::X: return "X";
    }
    return "?";
}

bool
lockCompatible(LockMode a, LockMode b)
{
    static const bool matrix[4][4] = {
        //            IS     IX     S      X
        /* IS */ {true, true, true, false},
        /* IX */ {true, true, false, false},
        /* S  */ {true, false, true, false},
        /* X  */ {false, false, false, false},
    };
    return matrix[static_cast<int>(a)][static_cast<int>(b)];
}

bool
MultiModeLock::compatibleWithHolders(LockMode m) const
{
    for (int i = 0; i < 4; ++i) {
        if (held_[i] > 0 &&
            !lockCompatible(m, static_cast<LockMode>(i))) {
            return false;
        }
    }
    return true;
}

bool
MultiModeLock::tryAcquire(LockMode m)
{
    if (!head_ && compatibleWithHolders(m)) {
        ++held_[static_cast<int>(m)];
        return true;
    }
    return false;
}

sim::Task<>
MultiModeLock::acquire(LockMode m)
{
    if (tryAcquire(m))
        return sim::Task<>::ready();
    return acquireSlow(m);
}

sim::Task<>
MultiModeLock::acquireSlow(LockMode m)
{
    // The task is lazy: by the time it starts, the holder it lost to
    // at call time may be gone, or someone else may hold the lock.
    if (tryAcquire(m))
        co_return;
    ++waits_;
    Waiter w{m, sim_->now()};
    (tail_ ? tail_->next : head_) = &w;
    tail_ = &w;
    ++waiting_;
    co_await w;
}

void
MultiModeLock::release(LockMode m)
{
    int &held = held_[static_cast<int>(m)];
    if (held <= 0) {
        throw sim::SimPanic(std::string("release of an unheld ") +
                            lockModeName(m) + " lock");
    }
    --held;
    drainQueue();
}

void
MultiModeLock::drainQueue()
{
    // Grant from the front while the next waiter is compatible; stop
    // at the first incompatible one (FIFO fairness).
    while (head_ && compatibleWithHolders(head_->mode)) {
        Waiter *w = head_;
        head_ = w->next;
        if (!head_)
            tail_ = nullptr;
        --waiting_;
        ++held_[static_cast<int>(w->mode)];
        waitTime_ += sim_->now() - w->since;
        sim_->scheduleResume(sim_->now(), w->handle);
    }
}

HierarchicalLockManager::HierarchicalLockManager(sim::Simulation &s,
                                                 int relations)
    : sim_(&s)
{
    relations_.reserve(relations);
    for (int i = 0; i < relations; ++i)
        relations_.push_back(std::make_unique<MultiModeLock>(s));
}

sim::Task<>
HierarchicalLockManager::lockRelation(int rel, LockMode m)
{
    return relations_.at(rel)->acquire(m);
}

void
HierarchicalLockManager::unlockRelation(int rel, LockMode m)
{
    relations_.at(rel)->release(m);
}

sim::Task<>
HierarchicalLockManager::lockPage(int rel, std::uint64_t page,
                                  LockMode m)
{
    auto &lock = pages_.try_emplace({rel, page}, *sim_).first->second;
    if (lock.tryAcquire(m))
        return sim::Task<>::ready();
    return lockPageSlow(rel, page, m);
}

sim::Task<>
HierarchicalLockManager::lockPageSlow(int rel, std::uint64_t page,
                                      LockMode m)
{
    // Look the entry up again when the task starts: the one seen at
    // call time is erased if it went idle in between.
    auto &lock = pages_.try_emplace({rel, page}, *sim_).first->second;
    co_await lock.acquire(m);
}

void
HierarchicalLockManager::unlockPage(int rel, std::uint64_t page,
                                    LockMode m)
{
    auto it = pages_.find({rel, page});
    if (it == pages_.end() || it->second.holders(m) == 0) {
        throw sim::SimPanic("unlockPage(rel " + std::to_string(rel) +
                            ", page " + std::to_string(page) + ", " +
                            lockModeName(m) + "): not held");
    }
    it->second.release(m);
    if (it->second.idle())
        pages_.erase(it);
}

} // namespace vpp::db
