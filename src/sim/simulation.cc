#include "sim/simulation.h"

#include <utility>

namespace vpp::sim {

/**
 * Links a detached root frame into its Simulation's list of live
 * roots. It lives in the root's own frame, so it unlinks itself
 * whenever that frame is destroyed: on normal completion, or when
 * ~Simulation destroys a root that never finished.
 */
struct RootNode
{
    RootNode(Simulation &s, std::coroutine_handle<> f)
        : head(&s.rootHead_), next(s.rootHead_), frame(f)
    {
        if (next)
            next->prev = this;
        *head = this;
    }

    ~RootNode()
    {
        if (prev)
            prev->next = next;
        else
            *head = next;
        if (next)
            next->prev = prev;
    }

    RootNode(const RootNode &) = delete;
    RootNode &operator=(const RootNode &) = delete;

    RootNode **head;
    RootNode *prev = nullptr;
    RootNode *next;
    std::coroutine_handle<> frame;
};

namespace {

/**
 * Self-destructing coroutine used to own a detached root task. Its frame
 * is released automatically when the wrapped task finishes; frames that
 * never finish (a process blocked forever on a future or lock) stay
 * registered with the Simulation, which destroys them on teardown.
 */
struct Detached
{
    struct promise_type : detail::PooledFrame
    {
        Detached get_return_object() { return {}; }
        std::suspend_never initial_suspend() noexcept { return {}; }
        std::suspend_never final_suspend() noexcept { return {}; }
        void return_void() noexcept {}
        void unhandled_exception() noexcept { std::terminate(); }
    };
};

/** Awaitable that hands a coroutine its own handle without suspending. */
struct SelfHandle
{
    std::coroutine_handle<> h;
    bool await_ready() noexcept { return false; }

    bool
    await_suspend(std::coroutine_handle<> me) noexcept
    {
        h = me;
        return false;
    }

    std::coroutine_handle<> await_resume() noexcept { return h; }
};

Detached
runRoot(Simulation *sim, Task<> inner, int *live,
        std::vector<std::exception_ptr> *errors)
{
    RootNode node(*sim, co_await SelfHandle{});
    ++*live;
    try {
        co_await std::move(inner);
    } catch (...) {
        errors->push_back(std::current_exception());
    }
    --*live;
}

} // namespace

Simulation::~Simulation()
{
    // Destroy root frames that never finished (processes still blocked
    // on a future, lock or channel when the run ended). Each root frame
    // owns its await chain, so destruction cascades to every suspended
    // child. Locals' destructors may schedule wakeups; those events are
    // swept with the queues below, never fired.
    while (rootHead_)
        rootHead_->frame.destroy(); // ~RootNode unlinks it

    // Destroy any slab-held callables still queued. Inline payloads
    // are trivially destructible by construction; queued coroutine
    // resumptions are not destroyed here because their frames are
    // owned by the tasks that spawned them.
    while (!nowQueue_.empty()) {
        Event ev = nowQueue_.pop();
        if (ev.kind == Event::kSlot)
            releaseSlot(ev.slot);
    }
    if (nextValid_ && next_.kind == Event::kSlot)
        releaseSlot(next_.slot);
    while (!heap_.empty()) {
        if (heap_.top().kind == Event::kSlot)
            releaseSlot(heap_.top().slot);
        heap_.pop();
    }
}

void
Simulation::spawn(Task<> t)
{
    runRoot(this, std::move(t), &liveTasks_, &errors_);
}

void
Simulation::rethrowPendingSlow()
{
    auto e = errors_.front();
    errors_.clear();
    std::rethrow_exception(e);
}

void
Simulation::fireEvent(Event &ev)
{
    switch (ev.kind) {
      case Event::kCoroutine:
        std::coroutine_handle<>::from_address(ev.coro).resume();
        return;
      case Event::kInline:
        // `ev` is the caller's stack copy, so the payload stays valid
        // however the queues mutate during the call.
        ev.invoke(ev.payload);
        return;
      case Event::kSlot: {
        // The callback is destroyed and its slot recycled even if it
        // throws; slot addresses are stable while the callback runs
        // (the slab is a deque), so it may freely schedule further
        // events.
        struct SlotGuard
        {
            ~SlotGuard() { sim->releaseSlot(idx); }
            Simulation *sim;
            std::uint32_t idx;
        } guard{this, ev.slot};
        CallbackSlot &s = slots_[ev.slot];
        s.invoke(s.storage);
        return;
      }
    }
}

SimTime
Simulation::drainUntil(SimTime deadline)
{
    rethrowPending();
    for (;;) {
        Event ev;
        // The next future event is the register when full, else the
        // heap top; either way it precedes every other future event.
        // Heaped events at now_ precede the FIFO (smaller seq).
        const Event *next = nextValid_        ? &next_
                            : !heap_.empty() ? &heap_.top()
                                             : nullptr;
        if (next && (next->when == now_ ||
                     (nowQueue_.empty() && next->when <= deadline))) {
            ev = *next;
            if (nextValid_)
                nextValid_ = false;
            else
                heap_.pop();
            now_ = ev.when;
        } else if (!nowQueue_.empty() && now_ <= deadline) {
            ev = nowQueue_.pop();
        } else {
            break;
        }
        ++eventsRun_;
        fireEvent(ev);
        rethrowPending();
    }
    return now_;
}

SimTime
Simulation::run()
{
    return drainUntil(std::numeric_limits<SimTime>::max());
}

SimTime
Simulation::runUntil(SimTime deadline)
{
    drainUntil(deadline);
    if (now_ < deadline)
        now_ = deadline;
    return now_;
}

} // namespace vpp::sim
