/**
 * @file
 * Refcounted copy-on-write byte buffers.
 *
 * BufRef is the unit of host-side data sharing in the simulated
 * machine: page frames (hw/physmem.h) and file-server chunks
 * (uio/file_server.h) both hold BufRefs, so a simulated copy — frame
 * to frame, frame to disk block, disk block to frame — is a refcount
 * bump instead of a byte copy. Buffers are immutable while shared:
 * mutate() clones the bytes first when any other reference aliases
 * them, so every holder keeps the snapshot it took.
 *
 * Refcounts are plain (non-atomic) integers: a buffer lives inside a
 * single simulation, and every simulation runs on exactly one thread
 * (sim/runner.h parallelises across simulations, never within one).
 * For the same reason the live-byte counter is thread-local, which
 * lets a sweep row report its own buffer footprint.
 */

#ifndef VPP_HW_BUF_H
#define VPP_HW_BUF_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <utility>

namespace vpp::hw {

class BufRef
{
  public:
    BufRef() = default;

    BufRef(const BufRef &o) : ctrl_(o.ctrl_)
    {
        if (ctrl_)
            ++ctrl_->refs;
    }

    BufRef(BufRef &&o) noexcept : ctrl_(o.ctrl_) { o.ctrl_ = nullptr; }

    BufRef &
    operator=(const BufRef &o)
    {
        BufRef tmp(o);
        std::swap(ctrl_, tmp.ctrl_);
        return *this;
    }

    BufRef &
    operator=(BufRef &&o) noexcept
    {
        std::swap(ctrl_, o.ctrl_);
        return *this;
    }

    ~BufRef() { reset(); }

    /** Allocate a zero-filled buffer of @p size bytes. */
    static BufRef
    allocate(std::uint32_t size)
    {
        BufRef b = allocateUninit(size);
        std::memset(bytes(b.ctrl_), 0, size);
        return b;
    }

    explicit operator bool() const { return ctrl_ != nullptr; }
    std::uint32_t size() const { return ctrl_ ? ctrl_->size : 0; }

    const std::byte *
    data() const
    {
        return ctrl_ ? bytes(ctrl_) : nullptr;
    }

    /** True if this is the only reference to the bytes. */
    bool unique() const { return ctrl_ && ctrl_->refs == 1; }

    std::uint32_t refCount() const { return ctrl_ ? ctrl_->refs : 0; }

    /**
     * Writable view of the bytes. If any other reference shares them,
     * the bytes are cloned first (copy-on-write), so other holders
     * keep what they saw. Must not be called on a null ref.
     */
    std::byte *
    mutate()
    {
        if (ctrl_->refs > 1) {
            BufRef copy = allocateUninit(ctrl_->size);
            std::memcpy(bytes(copy.ctrl_), bytes(ctrl_), ctrl_->size);
            std::swap(ctrl_, copy.ctrl_);
        }
        return bytes(ctrl_);
    }

    /** Drop this reference (frees the bytes when it is the last). */
    void
    reset()
    {
        if (ctrl_ && --ctrl_->refs == 0) {
            liveBytes_ -= ctrl_->size;
            ::operator delete(ctrl_);
        }
        ctrl_ = nullptr;
    }

    /** Host bytes held live by buffers created on this thread. */
    static std::int64_t threadLiveBytes() { return liveBytes_; }

  private:
    struct Ctrl
    {
        std::uint32_t refs;
        std::uint32_t size;
    };

    explicit BufRef(Ctrl *c) : ctrl_(c) {}

    /** A buffer whose bytes the caller overwrites in full. */
    static BufRef
    allocateUninit(std::uint32_t size)
    {
        void *raw = ::operator new(sizeof(Ctrl) + size);
        auto *c = static_cast<Ctrl *>(raw);
        c->refs = 1;
        c->size = size;
        liveBytes_ += size;
        return BufRef(c);
    }

    static std::byte *
    bytes(Ctrl *c)
    {
        return reinterpret_cast<std::byte *>(c + 1);
    }

    static const std::byte *
    bytes(const Ctrl *c)
    {
        return reinterpret_cast<const std::byte *>(c + 1);
    }

    inline static thread_local std::int64_t liveBytes_ = 0;

    Ctrl *ctrl_ = nullptr;
};

} // namespace vpp::hw

#endif // VPP_HW_BUF_H
