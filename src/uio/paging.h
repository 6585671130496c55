/**
 * @file
 * Page-in / page-out between cached-file segments and the file server.
 *
 * Every manager that backs a segment with a file performs the same two
 * transfers: fill a free-pool page from a file range (page-in) and
 * write a page's bytes back to a file range (page-out). These helpers
 * centralise that data path so the frame store can optimise it once:
 * frames and file chunks share refcounted copy-on-write buffers, so
 * neither direction copies bytes on the host. The *simulated* costs are
 * unchanged — pageIn charges exactly what FileServer::readBlock
 * charged (request overhead + disk transfer), pageOut charges exactly
 * the old readPageData + chargeCopy + writeBlock sequence — so sweep
 * output stays bit-identical.
 */

#ifndef VPP_UIO_PAGING_H
#define VPP_UIO_PAGING_H

#include <cstdint>

#include "core/kernel.h"
#include "uio/file_server.h"

namespace vpp::uio {

/**
 * Disk-error policy for the charged paths: a failed transfer
 * (hw::DiskError, injected by vpp::inject) is retried with doubling
 * backoff up to kMaxIoRetries attempts, then surfaces as
 * KernelErrc::IoError. Retries and errors are counted in
 * Kernel::Stats (ioRetries / ioErrors) and on the disk itself.
 * Without injection the retry wrapper adds no events: timing stays
 * bit-identical to the error-free path.
 */
constexpr int kMaxIoRetries = 4;
constexpr sim::Duration kIoRetryBackoff = sim::msec(2);

/**
 * Charge one server transfer of @p bytes: the server's request
 * overhead, then the disk read or write. A failed transfer is retried
 * under the policy above; each error adds one to @p io_errors and each
 * retry one to @p io_retries, and @p what prefixes the IoError
 * message. The paging helpers below and the conventional-VM baseline
 * both charge their transfers through it.
 */
sim::Task<> chargeWithRetry(sim::Simulation &s, FileServer &srv,
                            std::uint64_t bytes, bool is_write,
                            const char *what, std::uint64_t &io_errors,
                            std::uint64_t &io_retries);

/**
 * Functional page-in with no simulated time: install the file bytes at
 * @p offset into the frames of (@p seg, @p page). Bytes beyond the
 * file's written chunks read as zeroes. The page must be present.
 */
void pageInNow(kernel::Kernel &k, FileServer &srv, FileId f,
               std::uint64_t offset, kernel::SegmentId seg,
               kernel::PageIndex page);

/**
 * Functional page-out with no simulated time: write the bytes of
 * (@p seg, @p page) to the file at @p offset.
 */
void pageOutNow(kernel::Kernel &k, FileServer &srv, FileId f,
                std::uint64_t offset, kernel::SegmentId seg,
                kernel::PageIndex page);

/**
 * Charged page-in: the file snapshot is taken on entry, the server
 * charges request overhead plus disk time for one page, and the page's
 * frames are installed when the transfer completes — the same timeline
 * as readBlock-into-buffer + writePageData. Callers keep charging
 * their own trailing chargeCopy, as the manager fill paths always did.
 */
sim::Task<> pageIn(kernel::Kernel &k, FileServer &srv, FileId f,
                   std::uint64_t offset, kernel::SegmentId seg,
                   kernel::PageIndex page);

/**
 * Charged page-out: snapshot the page's bytes on entry, charge the
 * kernel copy, publish the bytes to the file, then charge request
 * overhead plus disk time — the same timeline as readPageData +
 * chargeCopy + writeBlock.
 */
sim::Task<> pageOut(kernel::Kernel &k, FileServer &srv, FileId f,
                    std::uint64_t offset, kernel::SegmentId seg,
                    kernel::PageIndex page);

} // namespace vpp::uio

#endif // VPP_UIO_PAGING_H
