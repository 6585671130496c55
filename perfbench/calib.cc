#include "calib.h"

#include <array>
#include <cstddef>
#include <cstring>
#include <memory>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kPageBytes = 4096;
constexpr std::uint32_t kDiskPages = 8192; ///< 32 MB backing store
constexpr std::uint32_t kFrames = 2048;    ///< 8 MB of frames
constexpr std::uint32_t kWbPages = 1024;   ///< write-back ring, 4 MB
constexpr std::uint32_t kHotPages = 1536;
constexpr int kHandlers = 48;
constexpr int kProcesses = 256; ///< events in flight
constexpr std::uint64_t kEvents = 80000;
constexpr std::size_t kLiveObjects = 1024;

std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/// Page memory, allocated and filled once per process, so a run pays
/// no page faults. The disk is only read; write-backs go to a ring
/// that is never read, so every run sees the same data.
struct Buffers
{
    std::vector<std::byte> disk;
    std::vector<std::byte> frames;
    std::vector<std::byte> wb;

    Buffers()
        : disk(kDiskPages * kPageBytes), frames(kFrames * kPageBytes),
          wb(kWbPages * kPageBytes)
    {
        for (std::size_t i = 0; i < disk.size() / 8; ++i) {
            const std::uint64_t w = mix(i);
            std::memcpy(&disk[i * 8], &w, 8);
        }
    }

    static Buffers &
    get()
    {
        static Buffers b;
        return b;
    }
};

struct Event
{
    std::uint64_t time;
    std::uint64_t seq;
    std::uint32_t page;
    std::uint16_t kind;

    bool
    operator>(const Event &o) const
    {
        return time != o.time ? time > o.time : seq > o.seq;
    }
};

struct State
{
    Buffers &buf = Buffers::get();
    std::unordered_map<std::uint32_t, std::uint32_t> table;
    std::vector<std::uint32_t> owner = std::vector<std::uint32_t>(kFrames);
    std::vector<std::uint8_t> ref = std::vector<std::uint8_t>(kFrames);
    std::vector<std::uint8_t> dirty = std::vector<std::uint8_t>(kFrames);
    std::uint32_t used = 0;
    std::uint32_t hand = 0;
    std::uint64_t wbNext = 0;
    std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
    std::uint64_t seq = 0;
    std::vector<std::unique_ptr<std::vector<std::uint64_t>>> live =
        std::vector<std::unique_ptr<std::vector<std::uint64_t>>>(
            kLiveObjects);
    std::uint64_t checksum = 0;

    std::byte *
    frame(std::uint32_t f)
    {
        return &buf.frames[f * kPageBytes];
    }

    /// Touch @p page, paging it in under clock replacement on a miss.
    [[gnu::always_inline]] inline std::uint32_t
    touch(std::uint32_t page, bool write)
    {
        auto it = table.find(page);
        if (it != table.end()) {
            ref[it->second] = 1;
            dirty[it->second] |= write;
            return it->second;
        }
        std::uint32_t f;
        if (used < kFrames) {
            f = used++;
        } else {
            while (ref[hand]) {
                ref[hand] = 0;
                hand = (hand + 1) % kFrames;
            }
            f = hand;
            hand = (hand + 1) % kFrames;
            if (dirty[f]) {
                std::memcpy(&buf.wb[(wbNext++ % kWbPages) * kPageBytes],
                            frame(f), kPageBytes);
            }
            table.erase(owner[f]);
        }
        std::memcpy(frame(f), &buf.disk[page * kPageBytes], kPageBytes);
        owner[f] = page;
        ref[f] = 1;
        dirty[f] = write;
        table.emplace(page, f);
        return f;
    }

    std::uint64_t
    word(std::uint32_t f, std::uint64_t slot)
    {
        std::uint64_t w;
        std::memcpy(&w, frame(f) + (slot % (kPageBytes / 8)) * 8, 8);
        return w;
    }

    void
    push(std::uint64_t time, std::uint32_t page, std::uint64_t kind)
    {
        queue.push({time, seq++, page,
                    static_cast<std::uint16_t>(kind % kHandlers)});
    }
};

/// One of kHandlers distinct event handlers; K shapes its work so each
/// instantiation is separate code.
template <int K>
void
handle(State &s, const Event &e)
{
    const std::uint64_t h = mix(e.seq * (K + 1) + e.page);
    const bool write = (h & 7) == static_cast<std::uint64_t>(K % 8);
    const std::uint32_t f = s.touch(e.page, write);
    std::uint64_t acc = h;
    for (int i = 0; i < K % 5 + 1; ++i)
        acc = mix(acc + s.word(f, h >> (8 * i)));
    if (write) {
        std::memcpy(s.frame(f) + (acc % (kPageBytes / 8)) * 8, &acc, 8);
    }
    if constexpr (K % 3 == 0) {
        // Allocation churn: replace one live object.
        auto &slot = s.live[acc % kLiveObjects];
        slot = std::make_unique<std::vector<std::uint64_t>>(
            2 + acc % (8 + K), acc);
        acc += slot->back();
    } else if constexpr (K % 3 == 1) {
        const auto &slot = s.live[(acc >> 12) % kLiveObjects];
        if (slot)
            acc ^= slot->front() + slot->size();
    }
    s.checksum += acc ^ static_cast<std::uint64_t>(K);
    // The next reference of this process: mostly a hot window that
    // drifts with simulated time, sometimes any page.
    const std::uint32_t hotBase =
        static_cast<std::uint32_t>((e.time / 4096) * 97 % kDiskPages);
    const std::uint32_t next =
        (acc >> 20) % 10 < 8
            ? (hotBase + static_cast<std::uint32_t>(acc % kHotPages)) %
                  kDiskPages
            : static_cast<std::uint32_t>((acc >> 24) % kDiskPages);
    s.push(e.time + 1 + acc % (64 + K), next, acc >> 40);
}

using Handler = void (*)(State &, const Event &);

template <int... K>
constexpr std::array<Handler, sizeof...(K)>
makeHandlers(std::integer_sequence<int, K...>)
{
    return {&handle<K>...};
}

constexpr std::array<Handler, kHandlers> kHandlerTable =
    makeHandlers(std::make_integer_sequence<int, kHandlers>{});

} // namespace

CalibResult
runCalibration()
{
    Buffers::get();
    CalibResult out;
    const double t0 = cpuSeconds();
    {
        State s;
        s.table.reserve(2 * kFrames);
        for (int p = 0; p < kProcesses; ++p) {
            const std::uint64_t h = mix(static_cast<std::uint64_t>(p));
            s.push(h % 64, static_cast<std::uint32_t>(h % kDiskPages),
                   h >> 32);
        }
        for (std::uint64_t n = 0; n < kEvents; ++n) {
            const Event e = s.queue.top();
            s.queue.pop();
            kHandlerTable[e.kind](s, e);
        }
        out.checksum = s.checksum + s.wbNext;
    }
    out.cpuSec = cpuSeconds() - t0;
    return out;
}

} // namespace perfbench
