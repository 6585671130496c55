/**
 * @file
 * The shared-kernel DebitCredit study: ONE kernel, many CPUs, many
 * shards.
 *
 * db/cluster scales DebitCredit as a federation — every shard is a
 * whole node with its own Kernel. This study is the paper's own
 * scenario grown instead: a single multi-CPU machine whose one
 * `core::Kernel` (plus SPCM and one external segment manager)
 * services page faults from CPUs partitioned across
 * `sim::ShardedSimulation` shards. Shard s owns CPUs
 * [s*cpusPerShard, (s+1)*cpusPerShard); the kernel lives on shard 0.
 *
 * Each CPU runs closed-loop transactions touching relation segments.
 * A touch first probes the CPU's own resolve cache
 * (Kernel::cpuResolve) — a hit is serviced entirely on the owning
 * shard, no cross-shard traffic at all. A miss travels to shard 0
 * through the engine mailboxes (one IPI-latency hop each way), where
 * the kernel resolves it through the regular fault path — its CPU
 * touch queue, coalesced batches, the external manager — and ships the
 * resolution back for the CPU to cache. Cache validity uses the
 * per-segment epoch snapshot the kernel publishes from the engine's
 * single-threaded barrier hook, so output is byte-identical at any
 * worker count.
 *
 * A home-shard recycler steadily reclaims relation pages through the
 * manager, so fault traffic (and epoch churn) continues at steady
 * state instead of dying once the working set is resident.
 */

#ifndef VPP_DB_SHARED_KERNEL_H
#define VPP_DB_SHARED_KERNEL_H

#include <cstdint>

#include "sim/time.h"

namespace vpp::db {

struct SharedKernelParams
{
    unsigned shards = 8;   ///< logical shards (CPU groups)
    int cpusPerShard = 8;  ///< simulated CPUs per shard
    double mips = 500.0;   ///< per-CPU
    int relations = 16;    ///< one segment each
    std::uint64_t pagesPerRelation = 128;
    int touchesPerTxn = 8;
    double txnMInstr = 0.2;    ///< compute per transaction
    double hotFraction = 0.9;  ///< touches aimed at the CPU's hot set
    int hotPages = 64;         ///< per-CPU hot window
    double writeFraction = 0.25;
    /// One-way CPU->kernel IPI; doubles as the engine lookahead.
    sim::Duration ipiLatency = sim::usec(50);
    sim::Duration reclaimEvery = sim::msec(10); ///< recycler period
    std::uint64_t reclaimBatch = 16; ///< pages reclaimed per tick
    double durationSec = 0.4;
    std::uint64_t seed = 42;
    unsigned workers = 0; ///< host threads; 0 = VPP_SHARDS, else 1
};

struct SharedKernelResult
{
    unsigned shards = 0;
    int totalCpus = 0;

    std::uint64_t txns = 0;
    std::uint64_t touches = 0;
    std::uint64_t probeHits = 0;   ///< per-CPU cache probe hits
    std::uint64_t probeMisses = 0; ///< per-CPU cache probe misses
    std::uint64_t localHits = 0;   ///< touches served with no kernel trip
    std::uint64_t kernelTrips = 0; ///< touches that went to the kernel
    std::uint64_t crossRpcs = 0;   ///< kernel trips from shards != 0

    std::uint64_t faults = 0;
    std::uint64_t faultBatches = 0;
    std::uint64_t faultsCoalesced = 0;
    std::uint64_t cpuTouchesQueued = 0;
    std::uint64_t pagesMigrated = 0;

    double avgMs = 0;
    double p99Ms = 0;
    double worstMs = 0;
    double tpsAchieved = 0;
    double hitRate = 0; ///< localHits / touches
    double cpuUtilization = 0;

    std::uint64_t epochs = 0;
    std::uint64_t crossEvents = 0;
};

SharedKernelResult
runSharedKernelStudy(const SharedKernelParams &params = {});

} // namespace vpp::db

#endif // VPP_DB_SHARED_KERNEL_H
