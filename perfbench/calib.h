/**
 * @file
 * The benchmark's calibration kernel: a fixed, self-contained
 * miniature of the simulator's host work, timed between repetitions to
 * measure how fast the host runs this kind of code at that moment.
 *
 * It uses nothing from the simulator, so no change to the program
 * under test changes its cost; it does the same work in every run of
 * every commit. What it resembles is the simulator's instruction mix:
 * an event queue, hash-table page lookups, clock eviction, 4 KB page
 * copies, small allocations, and dispatch through many distinct
 * handler functions (a code footprint far larger than a tight loop's).
 */

#ifndef PERFBENCH_CALIB_H
#define PERFBENCH_CALIB_H

#include <cstdint>

namespace perfbench {

struct CalibResult
{
    double cpuSec = 0;          ///< CPU seconds of one run
    std::uint64_t checksum = 0; ///< the same on every run
};

/** Run the calibration kernel once. */
CalibResult runCalibration();

} // namespace perfbench

#endif // PERFBENCH_CALIB_H
