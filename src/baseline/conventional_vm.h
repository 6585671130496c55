/**
 * @file
 * A conventional, kernel-internal virtual memory system — the "ULTRIX
 * 4.1" comparator of the paper's evaluation.
 *
 * Structure the paper contrasts with V++:
 *  - page faults are serviced entirely inside the kernel: no manager,
 *    no IPC, and a mandatory security zero-fill on every allocation
 *    (the 75 us the paper calls out);
 *  - the application can neither observe nor influence allocation;
 *  - user-level fault handling is only possible via signal delivery
 *    plus mprotect (the 152 us path measured in §3.1);
 *  - the file I/O transfer unit is 8 KB (twice the V++ unit).
 *
 * The model is functional: processes have page tables, files have a
 * buffer cache with dirty tracking, data round-trips through the file
 * server.
 */

#ifndef VPP_BASELINE_CONVENTIONAL_VM_H
#define VPP_BASELINE_CONVENTIONAL_VM_H

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "hw/config.h"
#include "sim/simulation.h"
#include "sim/task.h"
#include "uio/file_server.h"
#include "uio/paging.h"

namespace vpp::baseline {

using ProcId = std::uint32_t;

class ConventionalVm
{
  public:
    ConventionalVm(sim::Simulation &s, const hw::MachineConfig &machine,
                   uio::FileServer &server,
                   std::uint32_t io_unit = 8192);

    ProcId createProcess(std::string name);

    // ------------------------------------------------------------------
    // Memory references
    // ------------------------------------------------------------------

    /**
     * Reference an anonymous page. A first touch takes the in-kernel
     * fault path: trap + fault service + zero-fill + map + return.
     */
    sim::Task<> touch(ProcId p, std::uint64_t vaddr);

    /**
     * The user-level fault handler experiment (§3.1): a reference to a
     * protected page delivers a signal; the handler calls mprotect and
     * returns via sigreturn.
     */
    sim::Task<> protectedTouch(ProcId p, std::uint64_t vaddr);

    /** Drop a page's mapping (so the next touch faults again). */
    void invalidate(ProcId p, std::uint64_t vaddr);

    // ------------------------------------------------------------------
    // File I/O (read/write system calls, 8 KB transfer unit)
    // ------------------------------------------------------------------

    sim::Task<std::uint64_t> read(ProcId p, uio::FileId f,
                                  std::uint64_t offset,
                                  std::span<std::byte> out);

    sim::Task<std::uint64_t> write(ProcId p, uio::FileId f,
                                   std::uint64_t offset,
                                   std::span<const std::byte> data);

    /** Flush dirty blocks and drop the file from the buffer cache. */
    sim::Task<> closeFile(uio::FileId f);

    /** Zero-time population of the buffer cache (benchmark setup). */
    void preloadFileNow(uio::FileId f);

    struct Stats
    {
        std::uint64_t faults = 0;
        std::uint64_t zeroFills = 0;
        std::uint64_t userFaults = 0;
        std::uint64_t readCalls = 0;
        std::uint64_t writeCalls = 0;
        std::uint64_t blockFetches = 0;
        std::uint64_t blockWritebacks = 0;
        std::uint64_t ioErrors = 0;
        std::uint64_t ioRetries = 0;

        void reset() { *this = Stats{}; }
    };

    Stats &stats() { return stats_; }
    std::uint32_t ioUnit() const { return ioUnit_; }

    /** Composed cost of the in-kernel minimal fault (Table 1 row 1). */
    sim::Duration minimalFaultCost() const;

    /** Composed cost of the signal+mprotect fault (§3.1 text). */
    sim::Duration userFaultCost() const;

  private:
    struct File
    {
        std::set<std::uint64_t> resident; ///< cached block numbers
        std::set<std::uint64_t> dirty;
    };

    /**
     * One block transfer, charged and retried exactly as the V++ paging
     * path charges its transfers (uio::chargeWithRetry), so the
     * robustness comparison is apples-to-apples. Surfaces
     * KernelErrc::IoError when the retry budget is exhausted.
     */
    sim::Task<>
    chargeBlock(bool is_write)
    {
        return uio::chargeWithRetry(*sim_, *server_, ioUnit_, is_write,
                                    "conventional vm", stats_.ioErrors,
                                    stats_.ioRetries);
    }

    sim::Simulation *sim_;
    hw::MachineConfig machine_;
    uio::FileServer *server_;
    std::uint32_t ioUnit_;
    std::vector<std::string> procs_;
    std::map<ProcId, std::set<std::uint64_t>> pageTables_;
    std::map<uio::FileId, File> cache_;
    Stats stats_;
};

} // namespace vpp::baseline

#endif // VPP_BASELINE_CONVENTIONAL_VM_H
