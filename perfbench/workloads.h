/**
 * @file
 * The benchmark's three workloads, built only from the simulator's
 * public API (db studies, apps::VppStack, Kernel/manager accessors).
 *
 * Each function runs one instance of its workload — the unit the
 * benchmark times and repeats — and returns the simulated results plus
 * the outcome of that instance's output checks. Nothing here reads
 * the kernel's thread_local counters or parses program output.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <chrono>
#include <cstdint>
#include <ctime>
#include <string>
#include <vector>

#include "db/cluster.h"
#include "db/shared_kernel.h"

namespace perfbench {

namespace db = vpp::db;
using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * CPU seconds used by this process so far. The timed phases run on
 * one host thread, so this is their wall time less any time the host
 * gave the CPU to someone else (other processes, or steal time on a
 * virtual machine with steal accounting).
 */
inline double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Set-ups timed before each repetition; setup_s is their median.
constexpr int kSetupsPerRep = 5;

/// Nearest-rank percentile of @p v (0 for an empty sample).
double percentile(std::vector<double> v, double q);

/** Output checks of one workload instance: counted, never thrown. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures; ///< first few, for the log

    void
    expect(bool ok, const std::string &what)
    {
        ++attempted;
        if (ok)
            return;
        ++failed;
        if (failures.size() < 8)
            failures.push_back(what);
    }

    /** Fold in @p n checks made elsewhere, @p bad of them failed. */
    void
    add(std::uint64_t n, std::uint64_t bad, const std::string &what)
    {
        attempted += n;
        failed += bad;
        if (bad && failures.size() < 8)
            failures.push_back(what);
    }
};

/**
 * In-memory span recorder for the traced run. A span is one call
 * from the benchmark into a layer; spans of one transaction share
 * its id, and the parent index links a touch to its transaction.
 */
class Tracer
{
  public:
    static constexpr std::uint32_t kNoParent = ~std::uint32_t{0};

    enum Name : std::uint8_t
    {
        kStudy,     ///< one db study call
        kTxn,       ///< one vm_paging transaction
        kTouchHit,  ///< Kernel::touchSegment that raised no fault
        kTouchFault, ///< Kernel::touchSegment that faulted
        kClockPass, ///< DefaultSegmentManager::clockPass
        kNames
    };
    static const char *name(Name n);

    struct Span
    {
        std::int64_t startNs;
        std::int64_t endNs;
        std::uint64_t txn;
        std::uint32_t parent;
        Name name;
    };

    explicit Tracer(Clock::time_point origin) : origin_(origin) {}

    std::int64_t
    now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
            .count();
    }

    std::uint32_t
    open(Name n, std::uint64_t txn, std::uint32_t parent = kNoParent)
    {
        spans_.push_back({now(), 0, txn, parent, n});
        return static_cast<std::uint32_t>(spans_.size() - 1);
    }

    void close(std::uint32_t idx) { spans_[idx].endNs = now(); }

    /** Close a span and rename it (a touch is classed on return). */
    void
    close(std::uint32_t idx, Name n)
    {
        spans_[idx].endNs = now();
        spans_[idx].name = n;
    }

    const std::vector<Span> &spans() const { return spans_; }
    void clear() { spans_.clear(); }

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

// ---------------------------------------------------------------------
// dc_cluster: db::runClusterStudy on the 32x8 table_scaleout row.
// ---------------------------------------------------------------------

db::ClusterParams dcClusterParams(std::uint64_t seed);
db::ClusterParams dcClusterWarmupParams(std::uint64_t seed);
void checkCluster(const db::ClusterParams &p, const db::ClusterResult &r,
                  Checks &c);

// ---------------------------------------------------------------------
// shared_kernel: db::runSharedKernelStudy at 32x8, one worker.
// ---------------------------------------------------------------------

db::SharedKernelParams sharedKernelParams(std::uint64_t seed);
db::SharedKernelParams sharedKernelWarmupParams(std::uint64_t seed);
void checkSharedKernel(const db::SharedKernelParams &p,
                       const db::SharedKernelResult &r, Checks &c);

// ---------------------------------------------------------------------
// vm_paging: one closed-loop process over four cached files managed
// by an application DefaultSegmentManager, under clock reclamation.
// ---------------------------------------------------------------------

struct VmPagingParams
{
    std::uint64_t seed = 42;
    /// Long enough that one repetition (about 1.3 s) spans several of
    /// the host's load phases; shorter ones make the median jumpy.
    int txns = 40000;
    int touchesPerTxn = 24;
    double writeFraction = 0.25;
    int files = 4;
    std::uint64_t filePages = 512; ///< 2 MB per file
    int reclaimEveryTxns = 25;
    std::uint64_t reclaimTarget = 192;
};

struct VmPagingResult
{
    /// CPU seconds of each set-up: stack, manager, files, openFile.
    std::vector<double> setupSec;
    double hostSec = 0;     ///< CPU seconds of the transaction loop
    double hostWallSec = 0; ///< and its wall seconds (span shares)
    std::int64_t peakHeapBytes = 0;

    std::uint64_t txns = 0;
    std::uint64_t touches = 0;
    std::uint64_t readBacks = 0;
    double simSec = 0;
    double avgMs = 0; ///< simulated transaction response, mean
    double p99Ms = 0; ///< and nearest-rank p99

    // Kernel::stats()
    std::uint64_t faults = 0;
    std::uint64_t protectionFaults = 0;
    std::uint64_t pagesMigrated = 0;
    std::uint64_t managerCalls = 0;
    std::uint64_t resolveHits = 0;
    std::uint64_t resolveMisses = 0;
    double faultSimUsAvg = 0;
    double faultSimUsMax = 0;
    // Manager, SPCM, policy, disk, engine
    std::uint64_t clockPasses = 0;
    std::uint64_t samplingFaults = 0;
    std::uint64_t writeBacks = 0;
    std::uint64_t spcmGrants = 0;
    std::uint64_t evictions = 0;
    std::uint64_t diskReads = 0;
    std::uint64_t diskWrites = 0;
    std::uint64_t events = 0;
};

/**
 * Run one vm_paging instance: kSetupsPerRep timed set-ups, the last
 * of which runs the transaction loop. With @p tracer non-null, every
 * transaction, touch and clock pass is recorded as a span.
 */
VmPagingResult runVmPaging(const VmPagingParams &p, Checks &c,
                           Tracer *tracer);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
