#include "uio/paging.h"

#include <vector>

namespace vpp::uio {

namespace {

kernel::PageEntry &
entryOrThrow(kernel::Kernel &k, kernel::SegmentId seg,
             kernel::PageIndex page, const char *what)
{
    kernel::PageEntry *e = k.segment(seg).findPage(page);
    if (!e)
        throw kernel::KernelError(kernel::KernelErrc::PageMissing, what);
    return *e;
}

} // namespace

sim::Task<>
chargeWithRetry(sim::Simulation &s, FileServer &srv, std::uint64_t bytes,
                bool is_write, const char *what, std::uint64_t &io_errors,
                std::uint64_t &io_retries)
{
    sim::Duration backoff = kIoRetryBackoff;
    for (int attempt = 1;; ++attempt) {
        // co_await is not permitted inside a catch handler, so the
        // failure is latched and the backoff runs after the try block.
        bool failed = false;
        std::string err;
        try {
            co_await s.delay(srv.requestOverhead());
            if (is_write)
                co_await srv.disk().write(bytes);
            else
                co_await srv.disk().read(bytes);
        } catch (const hw::DiskError &e) {
            failed = true;
            err = e.what();
        }
        if (!failed)
            co_return;
        ++io_errors;
        if (attempt >= kMaxIoRetries) {
            throw kernel::KernelError(
                kernel::KernelErrc::IoError,
                std::string(what) + ": " + err + " after " +
                    std::to_string(attempt) + " attempts");
        }
        ++io_retries;
        srv.disk().noteRetry();
        co_await s.delay(backoff);
        backoff *= 2;
    }
}

void
pageInNow(kernel::Kernel &k, FileServer &srv, FileId f,
          std::uint64_t offset, kernel::SegmentId seg,
          kernel::PageIndex page)
{
    kernel::PageEntry &e = entryOrThrow(k, seg, page, "pageIn");
    hw::PhysicalMemory &pm = k.memory();
    const std::uint32_t fs = pm.frameSize();
    const std::uint32_t fpp = k.segment(seg).pageSize() / fs;
    for (std::uint32_t i = 0; i < fpp; ++i)
        pm.adoptFrame(e.frame + i,
                      srv.shareNow(f, offset + i * std::uint64_t{fs}, fs));
}

void
pageOutNow(kernel::Kernel &k, FileServer &srv, FileId f,
           std::uint64_t offset, kernel::SegmentId seg,
           kernel::PageIndex page)
{
    kernel::PageEntry &e = entryOrThrow(k, seg, page, "pageOut");
    hw::PhysicalMemory &pm = k.memory();
    const std::uint32_t fs = pm.frameSize();
    const std::uint32_t fpp = k.segment(seg).pageSize() / fs;
    for (std::uint32_t i = 0; i < fpp; ++i)
        srv.adoptNow(f, offset + i * std::uint64_t{fs}, fs,
                     pm.shareFrame(e.frame + i));
}

sim::Task<>
pageIn(kernel::Kernel &k, FileServer &srv, FileId f,
       std::uint64_t offset, kernel::SegmentId seg,
       kernel::PageIndex page)
{
    // Snapshot the file bytes on entry (refcounted, no copy), charge the
    // transfer, then install — the timeline readBlock-into-a-buffer +
    // writePageData always had. Copy-on-write keeps the snapshot stable
    // if the chunks are rewritten during the transfer.
    hw::PhysicalMemory &pm = k.memory();
    const std::uint32_t fs = pm.frameSize();
    const std::uint32_t ps = k.segment(seg).pageSize();
    const std::uint32_t fpp = ps / fs;
    // Frame 0 is held apart so a one-frame page allocates no vector.
    hw::BufRef first = srv.shareNow(f, offset, fs);
    std::vector<hw::BufRef> rest;
    rest.reserve(fpp - 1);
    for (std::uint32_t i = 1; i < fpp; ++i)
        rest.push_back(
            srv.shareNow(f, offset + i * std::uint64_t{fs}, fs));
    co_await chargeWithRetry(k.simulation(), srv, ps, false, "pageIn",
                             k.stats().ioErrors, k.stats().ioRetries);
    kernel::PageEntry &e = entryOrThrow(k, seg, page, "pageIn");
    pm.adoptFrame(e.frame, std::move(first));
    for (std::uint32_t i = 1; i < fpp; ++i)
        pm.adoptFrame(e.frame + i, std::move(rest[i - 1]));
}

sim::Task<>
pageOut(kernel::Kernel &k, FileServer &srv, FileId f,
        std::uint64_t offset, kernel::SegmentId seg,
        kernel::PageIndex page)
{
    // Snapshot the page on entry, charge the kernel copy, publish, then
    // charge the server write — the timeline of readPageData +
    // chargeCopy + writeBlock.
    hw::PhysicalMemory &pm = k.memory();
    const std::uint32_t fs = pm.frameSize();
    const std::uint32_t ps = k.segment(seg).pageSize();
    const std::uint32_t fpp = ps / fs;
    hw::BufRef first;
    std::vector<hw::BufRef> rest; // as in pageIn: frames 1.. only
    rest.reserve(fpp - 1);
    {
        kernel::PageEntry &e = entryOrThrow(k, seg, page, "pageOut");
        first = pm.shareFrame(e.frame);
        for (std::uint32_t i = 1; i < fpp; ++i)
            rest.push_back(pm.shareFrame(e.frame + i));
    }
    co_await k.chargeCopy(ps);
    srv.adoptNow(f, offset, fs, std::move(first));
    for (std::uint32_t i = 1; i < fpp; ++i)
        srv.adoptNow(f, offset + i * std::uint64_t{fs}, fs,
                     std::move(rest[i - 1]));
    co_await chargeWithRetry(k.simulation(), srv, ps, true, "pageOut",
                             k.stats().ioErrors, k.stats().ioRetries);
}

} // namespace vpp::uio
