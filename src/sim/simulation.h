/**
 * @file
 * Discrete-event simulation engine.
 *
 * The Simulation owns the virtual clock and a time-ordered event queue.
 * Simulated processes are coroutines (Task<T>) spawned onto the engine;
 * they advance time with `co_await sim.delay(d)` and communicate through
 * futures, semaphores and channels (sync.h). Events at the same
 * timestamp run in FIFO order, making every run deterministic.
 *
 * Hot-path design: an event is a 48-byte POD carrying a coroutine
 * handle (the dominant case — delay()/yield() resumption and all
 * sync.h wakeups), a small trivially-copyable callable inline, or an
 * index into a slab of fixed-size callback slots with a free list. No
 * case heap-allocates per event in steady state. Events scheduled for
 * the *current* instant bypass the binary heap through a FIFO side
 * queue; because any event scheduled at `now` necessarily carries a
 * larger sequence number than everything already heaped at `now`,
 * draining the heap's now-events first and the FIFO second reproduces
 * the (when, seq) total order bit-for-bit.
 *
 * Future events go through a one-entry next-event register in front of
 * the heap. Invariant: when the register is full it holds the earliest
 * of all future events; when it is empty the heap holds them all. The
 * register is left empty when its event runs (never refilled from the
 * heap), and a new event enters an empty register only if it precedes
 * the heap top. So a schedule-one/run-one chain never touches the heap,
 * even while a far-future event (a deadline) sits in it.
 */

#ifndef VPP_SIM_SIMULATION_H
#define VPP_SIM_SIMULATION_H

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <new>
#include <queue>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/task.h"
#include "sim/time.h"

namespace vpp::sim {

/** Thrown when a simulation invariant is violated (an engine bug). */
class SimPanic : public std::logic_error
{
  public:
    using std::logic_error::logic_error;
};

struct RootNode;

class Simulation
{
  public:
    Simulation() = default;
    ~Simulation();

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    /** Current simulated time. */
    SimTime now() const { return now_; }

    /** Schedule a callback to run at absolute time @p when. */
    template <typename F>
    void
    schedule(SimTime when, F &&fn)
    {
        if (when < now_)
            throw SimPanic("schedule() into the past");
        using D = std::decay_t<F>;
        Event ev;
        ev.when = when;
        ev.seq = nextSeq_++;
        if constexpr (sizeof(D) <= kInlinePayload &&
                      alignof(D) <= alignof(std::uint64_t) &&
                      std::is_trivially_copyable_v<D> &&
                      std::is_trivially_destructible_v<D>) {
            // Small trivial callables ride inside the event itself:
            // no slab traffic, nothing to destroy.
            ev.kind = Event::kInline;
            ev.slot = 0;
            ::new (static_cast<void *>(ev.payload)) D(fn);
            ev.invoke = [](void *p) {
                (*std::launder(reinterpret_cast<D *>(p)))();
            };
        } else {
            ev.kind = Event::kSlot;
            ev.slot = makeSlot(std::forward<F>(fn));
            ev.invoke = nullptr;
        }
        pushEvent(ev);
    }

    /** Schedule a callback @p after from now. */
    template <typename F>
    void
    scheduleAfter(Duration after, F &&fn)
    {
        schedule(now_ + after, std::forward<F>(fn));
    }

    /**
     * Schedule a coroutine resumption at absolute time @p when. This is
     * the allocation-free fast path used by delay(), yield() and the
     * sync.h primitives.
     */
    void
    scheduleResume(SimTime when, std::coroutine_handle<> h)
    {
        if (when < now_)
            throw SimPanic("schedule() into the past");
        Event ev;
        ev.when = when;
        ev.seq = nextSeq_++;
        ev.kind = Event::kCoroutine;
        ev.slot = 0;
        ev.coro = h.address();
        pushEvent(ev);
    }

    /** Awaitable of delay(); a non-positive duration does not suspend. */
    struct DelayAwaiter
    {
        bool await_ready() const noexcept { return dur <= 0; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            sim->scheduleResume(sim->now_ + dur, h);
        }

        void await_resume() const noexcept {}

        Simulation *sim;
        Duration dur;
    };

    /** Awaitable that suspends the coroutine for @p d simulated time. */
    DelayAwaiter delay(Duration d) { return DelayAwaiter{this, d}; }

    /**
     * Awaitable that reschedules the coroutine at the current time,
     * behind everything already queued for this instant. Used to yield
     * to same-timestamp peers deterministically.
     */
    auto yield() { return YieldAwaiter{this}; }

    /**
     * Start a coroutine as a detached root process. It begins running
     * immediately (until its first suspension); errors escaping it are
     * recorded and rethrown from run().
     */
    void spawn(Task<> t);

    /** Run until the event queue is empty. Returns final time. */
    SimTime run();

    /**
     * Run until simulated time reaches @p deadline (events at exactly
     * @p deadline are executed) or the queue empties, whichever first.
     */
    SimTime runUntil(SimTime deadline);

    /** nextEventTime() result when no event is pending. */
    static constexpr SimTime kNoEvent =
        std::numeric_limits<SimTime>::max();

    /**
     * Timestamp of the earliest pending event, or kNoEvent when the
     * queue is empty. Used by the sharded engine to compute the
     * global epoch horizon without disturbing the queues.
     */
    SimTime
    nextEventTime() const
    {
        if (!nowQueue_.empty())
            return now_;
        if (nextValid_)
            return next_.when;
        if (!heap_.empty())
            return heap_.top().when;
        return kNoEvent;
    }

    /**
     * Execute every event with `when < horizon` (strictly), including
     * events those events schedule inside the window, then stop. The
     * clock is left at the last executed event, never forced forward.
     * This is one shard's share of a conservative epoch window: the
     * sharded engine proves that no cross-shard event can arrive
     * before @p horizon, making everything strictly before it safe.
     */
    SimTime
    drainBefore(SimTime horizon)
    {
        // Integer timestamps make "strictly before horizon" the same
        // set as "at or before horizon - 1".
        return drainUntil(horizon - 1);
    }

    /** Number of spawned root tasks that have not yet finished. */
    int liveTasks() const { return liveTasks_; }

    /** Number of events executed so far. */
    std::uint64_t eventsRun() const { return eventsRun_; }

    /**
     * A root task failed and its error has not been rethrown yet.
     * Only a root that throws in spawn(), before it first suspends,
     * leaves one outside a drain; the next drain rethrows it.
     */
    bool hasPendingError() const { return !errors_.empty(); }

    struct YieldAwaiter
    {
        bool await_ready() const noexcept { return false; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            sim->scheduleResume(sim->now_, h);
        }

        void await_resume() const noexcept {}

        Simulation *sim;
    };

  private:
    static constexpr std::uint32_t kNoSlot =
        std::numeric_limits<std::uint32_t>::max();
    static constexpr std::size_t kInlinePayload = 16;

    /**
     * POD event record, tagged by `kind`: a coroutine resumption (the
     * dominant case), a small trivially-copyable callable carried
     * inline in `payload`, or an index into the callback slab for
     * everything else. (when, seq) is the total execution order.
     */
    struct Event
    {
        enum Kind : std::uint32_t { kCoroutine, kInline, kSlot };

        SimTime when;
        std::uint64_t seq;
        Kind kind;
        std::uint32_t slot;            ///< kSlot: slab index
        void (*invoke)(void *);        ///< kInline: payload trampoline
        union {
            void *coro;                ///< kCoroutine: handle address
            alignas(std::uint64_t)
                unsigned char payload[kInlinePayload]; ///< kInline
        };
    };

    struct EventLater
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /**
     * One slab slot: inline storage for a small callable (or a
     * std::function fallback for oversized ones) plus its manually
     * managed vtable. Slots live in a deque so their addresses are
     * stable while the slab grows, and are recycled via `nextFree`.
     */
    struct CallbackSlot
    {
        static constexpr std::size_t kInline = 48;

        alignas(std::max_align_t) unsigned char storage[kInline];
        void (*invoke)(void *) = nullptr;
        void (*destroy)(void *) = nullptr;
        std::uint32_t nextFree = kNoSlot;
    };

    template <typename F>
    std::uint32_t
    makeSlot(F &&fn)
    {
        using D = std::decay_t<F>;
        std::uint32_t idx;
        if (freeSlots_ != kNoSlot) {
            idx = freeSlots_;
            freeSlots_ = slots_[idx].nextFree;
        } else {
            idx = static_cast<std::uint32_t>(slots_.size());
            slots_.emplace_back();
        }
        CallbackSlot &s = slots_[idx];
        try {
            if constexpr (sizeof(D) <= CallbackSlot::kInline &&
                          alignof(D) <= alignof(std::max_align_t)) {
                ::new (static_cast<void *>(s.storage))
                    D(std::forward<F>(fn));
                s.invoke = [](void *p) {
                    (*std::launder(reinterpret_cast<D *>(p)))();
                };
                s.destroy = [](void *p) {
                    std::launder(reinterpret_cast<D *>(p))->~D();
                };
            } else {
                using Big = std::function<void()>;
                ::new (static_cast<void *>(s.storage))
                    Big(std::forward<F>(fn));
                s.invoke = [](void *p) {
                    (*std::launder(reinterpret_cast<Big *>(p)))();
                };
                s.destroy = [](void *p) {
                    std::launder(reinterpret_cast<Big *>(p))->~Big();
                };
            }
        } catch (...) {
            s.nextFree = freeSlots_;
            freeSlots_ = idx;
            throw;
        }
        return idx;
    }

    void
    releaseSlot(std::uint32_t idx)
    {
        CallbackSlot &s = slots_[idx];
        s.destroy(s.storage);
        s.nextFree = freeSlots_;
        freeSlots_ = idx;
    }

    static bool
    earlier(const Event &a, const Event &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    void
    pushEvent(const Event &ev)
    {
        // Same-instant events take the O(1) FIFO; their seq is larger
        // than anything already heaped at now_, so FIFO == seq order.
        if (ev.when == now_) {
            nowQueue_.push(ev);
            return;
        }
        // The register holds the soonest future event when full and is
        // empty otherwise: an event becomes the register only if it
        // precedes everything else pending, so the schedule-one/run-one
        // pattern skips the heap even behind a far-future event.
        if (nextValid_) {
            if (earlier(ev, next_)) {
                heap_.push(next_);
                next_ = ev;
            } else {
                heap_.push(ev);
            }
        } else if (heap_.empty() || earlier(ev, heap_.top())) {
            next_ = ev;
            nextValid_ = true;
        } else {
            heap_.push(ev);
        }
    }

    /**
     * FIFO of same-instant events over a vector: pops advance a head
     * index and the storage rewinds once everything pushed has been
     * popped, so steady state neither allocates nor frees.
     */
    struct NowQueue
    {
        std::vector<Event> items;
        std::size_t head = 0;

        bool empty() const { return head == items.size(); }
        void push(const Event &ev) { items.push_back(ev); }

        Event
        pop()
        {
            Event ev = items[head++];
            if (head == items.size()) {
                items.clear();
                head = 0;
            }
            return ev;
        }
    };

    void fireEvent(Event &ev);

    SimTime drainUntil(SimTime deadline);

    friend struct RootNode;

    void
    rethrowPending()
    {
        if (!errors_.empty()) [[unlikely]]
            rethrowPendingSlow();
    }

    void rethrowPendingSlow();

    SimTime now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t eventsRun_ = 0;
    int liveTasks_ = 0;
    bool nextValid_ = false;
    Event next_;     ///< minimum of all future events when nextValid_;
                     ///< when empty, the heap holds every future event
    std::priority_queue<Event, std::vector<Event>, EventLater> heap_;
    NowQueue nowQueue_;
    std::deque<CallbackSlot> slots_;
    std::uint32_t freeSlots_ = kNoSlot;
    std::vector<std::exception_ptr> errors_;
    /// Intrusive list of live root frames, each linked by a node in
    /// its own frame; unfinished ones (root tasks blocked forever on a
    /// future/lock) are destroyed by ~Simulation.
    RootNode *rootHead_ = nullptr;
};

} // namespace vpp::sim

#endif // VPP_SIM_SIMULATION_H
