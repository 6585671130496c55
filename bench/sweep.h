/**
 * @file
 * Declaration layer shared by every table/ablation bench driver:
 * declare rows -> submit to the parallel runner -> render.
 *
 * A driver declares each measurement as a named row with a closure
 * that builds its own Simulation + machine + kernel and returns a
 * RowResult (named numeric metrics). Sweep::run() executes the rows
 * on a sim::Runner thread pool (--jobs N / VPP_JOBS, default
 * hardware_concurrency); results land in slots indexed by
 * declaration order, so the rendered tables and the --json emission
 * are byte-identical regardless of the job count. Progress, per-row
 * host cost (wall seconds, peak host heap, and the simulated
 * machine's committed-memory peak) and paper-check summaries go to
 * stderr; stdout carries only the deterministic tables.
 *
 * PaperCheck turns a driver into a CI gate: measured values that
 * diverge from the paper beyond tolerance (or failed shape
 * invariants, or a row whose job threw) make the process exit
 * nonzero.
 */

#ifndef VPP_BENCH_SWEEP_H
#define VPP_BENCH_SWEEP_H

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "hw/disk.h"
#include "hw/physmem.h"
#include "sim/runner.h"

// Thread-local memory-market round/fairness counters (core/kernel.cc;
// sim::Duration is std::int64_t nanoseconds), forward-declared so the
// sweep layer does not drag the whole kernel header into every bench.
namespace vpp::kernel {
void resetThreadMarketCounters();
std::uint64_t threadMarketRounds();
std::uint64_t threadMarketBids();
std::int64_t threadMarketMaxStarve();
} // namespace vpp::kernel

namespace vppbench {

struct Options
{
    unsigned jobs = 0;     ///< 0 = sim::Runner::defaultJobs()
    /// Host worker threads *inside* each sharded row (0 =
    /// sim::ShardedSimulation::defaultWorkers(), i.e. VPP_SHARDS or
    /// 1). Orthogonal to --jobs: jobs spreads rows across threads,
    /// shards spreads one row's simulation across threads. Both are
    /// bit-identical for any value.
    unsigned shards = 0;
    std::string jsonPath;  ///< empty = no JSON; "-" = stdout
    bool progress = true;
    /// Replacement-policy filter for policy-aware benches
    /// (bench/ablation_policy): run only rows for this policy name
    /// ("clock", "slru", "2q", "wsclock", "belady"). Empty (the
    /// default, or VPP_POLICY env) = all policies. Benches without a
    /// policy axis ignore it.
    std::string policy;
};

inline void
usage(const char *benchName)
{
    std::fprintf(
        stderr,
        "usage: %s [--jobs N] [--shards N] [--policy NAME] "
        "[--json[=PATH]] [--no-progress]\n"
        "  --jobs N       worker threads for the sweep (default: \n"
        "                 VPP_JOBS env var, else hardware "
        "concurrency);\n"
        "                 results are bit-identical for any N\n"
        "  --shards N     worker threads inside each sharded-engine "
        "row\n"
        "                 (default: VPP_SHARDS env var, else 1);\n"
        "                 results are bit-identical for any N\n"
        "  --policy NAME  policy-aware benches: run only rows for "
        "this\n"
        "                 replacement policy (clock, slru, 2q, "
        "wsclock,\n"
        "                 belady; default: VPP_POLICY env var, else "
        "all)\n"
        "  --json[=PATH]  emit machine-readable metrics (stdout if "
        "no PATH)\n"
        "  --no-progress  suppress the stderr progress/cost report\n",
        benchName);
}

inline Options
parseArgs(int argc, char **argv, const char *benchName)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strcmp(a, "--jobs") == 0 && i + 1 < argc) {
            opt.jobs = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (std::strncmp(a, "--jobs=", 7) == 0) {
            opt.jobs = static_cast<unsigned>(
                std::strtoul(a + 7, nullptr, 10));
        } else if (std::strcmp(a, "--shards") == 0 && i + 1 < argc) {
            opt.shards = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (std::strncmp(a, "--shards=", 9) == 0) {
            opt.shards = static_cast<unsigned>(
                std::strtoul(a + 9, nullptr, 10));
        } else if (std::strcmp(a, "--policy") == 0 && i + 1 < argc) {
            opt.policy = argv[++i];
        } else if (std::strncmp(a, "--policy=", 9) == 0) {
            opt.policy = a + 9;
        } else if (std::strcmp(a, "--json") == 0) {
            // Not `= "-"`: assigning a literal raises a false GCC 12
            // -Wrestrict warning in Release.
            opt.jsonPath.assign(1, '-');
        } else if (std::strncmp(a, "--json=", 7) == 0) {
            opt.jsonPath = a + 7;
        } else if (std::strcmp(a, "--no-progress") == 0) {
            opt.progress = false;
        } else if (std::strcmp(a, "--help") == 0 ||
                   std::strcmp(a, "-h") == 0) {
            usage(benchName);
            std::exit(0);
        } else {
            std::fprintf(stderr, "%s: unknown argument '%s'\n",
                         benchName, a);
            usage(benchName);
            std::exit(2);
        }
    }
    if (opt.policy.empty()) {
        if (const char *env = std::getenv("VPP_POLICY"))
            opt.policy = env;
    }
    return opt;
}

/**
 * Named numeric metrics produced by one sweep row. Values are
 * doubles; counts below 2^53 stay exact.
 */
struct RowResult
{
    std::vector<std::pair<std::string, double>> metrics;

    void
    set(std::string name, double v)
    {
        metrics.emplace_back(std::move(name), v);
    }

    double
    get(const std::string &name) const
    {
        for (const auto &[k, v] : metrics)
            if (k == name)
                return v;
        throw std::runtime_error("sweep metric missing: " + name);
    }
};

class Sweep
{
  public:
    Sweep(std::string benchName, Options opt)
        : name_(std::move(benchName)), opt_(std::move(opt))
    {}

    /** Declare a row; @p fn must be self-contained (no sharing). */
    void
    add(std::string label, std::function<RowResult()> fn)
    {
        labels_.push_back(std::move(label));
        jobs_.push_back(std::move(fn));
    }

    /** Run all declared rows on the pool; blocks until done. */
    void
    run()
    {
        results_.assign(jobs_.size(), RowResult{});
        committedPeak_.assign(jobs_.size(), 0);
        diskErrors_.assign(jobs_.size(), 0);
        diskRetries_.assign(jobs_.size(), 0);
        marketRounds_.assign(jobs_.size(), 0);
        marketBids_.assign(jobs_.size(), 0);
        marketStarve_.assign(jobs_.size(), 0);
        vpp::sim::Runner runner(opt_.jobs);
        if (opt_.progress) {
            runner.setProgress([this](std::size_t d, std::size_t t) {
                std::fprintf(stderr, "\r%s: %zu/%zu rows",
                             name_.c_str(), d, t);
                if (d == t)
                    std::fputc('\n', stderr);
                std::fflush(stderr);
            });
        }
        for (std::size_t i = 0; i < jobs_.size(); ++i) {
            runner.submit([this, i] {
                // Rows run one at a time per worker thread, so the
                // thread-local high-water mark, reset at row entry, is
                // this row's simulated committed-memory peak.
                vpp::hw::resetThreadCommittedPeak();
                vpp::hw::resetThreadDiskCounters();
                vpp::kernel::resetThreadMarketCounters();
                results_[i] = jobs_[i]();
                committedPeak_[i] = vpp::hw::threadPeakCommittedBytes();
                diskErrors_[i] = vpp::hw::threadDiskErrors();
                diskRetries_[i] = vpp::hw::threadDiskRetries();
                marketRounds_[i] = vpp::kernel::threadMarketRounds();
                marketBids_[i] = vpp::kernel::threadMarketBids();
                marketStarve_[i] =
                    vpp::kernel::threadMarketMaxStarve();
            });
        }
        runner.wait();

        failures_ = runner.failedCount();
        for (std::size_t i = 0; i < jobs_.size(); ++i) {
            const vpp::sim::RunSlot &s = runner.slot(i);
            if (s.failed()) {
                try {
                    std::rethrow_exception(s.error);
                } catch (const std::exception &e) {
                    std::fprintf(stderr,
                                 "%s: row '%s' FAILED: %s\n",
                                 name_.c_str(), labels_[i].c_str(),
                                 e.what());
                } catch (...) {
                    std::fprintf(
                        stderr,
                        "%s: row '%s' FAILED: unknown exception\n",
                        name_.c_str(), labels_[i].c_str());
                }
            } else if (opt_.progress) {
                double committed =
                    static_cast<double>(committedPeak_[i]) /
                    (1024.0 * 1024.0);
                // Disk fault-injection traffic, when present, rides
                // along on the cost line (stderr only; never part of
                // the diffed stdout/JSON).
                char disk[64] = "";
                if (diskErrors_[i] || diskRetries_[i]) {
                    std::snprintf(disk, sizeof(disk),
                                  ", disk err %llu/retry %llu",
                                  static_cast<unsigned long long>(
                                      diskErrors_[i]),
                                  static_cast<unsigned long long>(
                                      diskRetries_[i]));
                }
                // Market auction rounds and per-tenant fairness ride
                // the cost line the same way (stderr only; never part
                // of the diffed stdout/JSON).
                char mkt[96] = "";
                if (marketRounds_[i] || marketStarve_[i]) {
                    std::snprintf(
                        mkt, sizeof(mkt),
                        ", market rounds %llu/bids %llu/starve "
                        "%.1f ms",
                        static_cast<unsigned long long>(
                            marketRounds_[i]),
                        static_cast<unsigned long long>(
                            marketBids_[i]),
                        static_cast<double>(marketStarve_[i]) /
                            1e6);
                }
                if (s.peakHeapBytes >= 0) {
                    std::fprintf(
                        stderr,
                        "  %-36s %7.3f s host, peak heap %.1f MB, "
                        "sim committed %.1f MB%s%s\n",
                        labels_[i].c_str(), s.hostSeconds,
                        static_cast<double>(s.peakHeapBytes) /
                            (1024.0 * 1024.0),
                        committed, disk, mkt);
                } else {
                    std::fprintf(stderr,
                                 "  %-36s %7.3f s host, "
                                 "sim committed %.1f MB%s%s\n",
                                 labels_[i].c_str(), s.hostSeconds,
                                 committed, disk, mkt);
                }
            }
        }
    }

    std::size_t size() const { return results_.size(); }
    const std::string &label(std::size_t i) const
    {
        return labels_.at(i);
    }
    const RowResult &at(std::size_t i) const
    {
        return results_.at(i);
    }
    /** Metric of row @p i, after run(). */
    double
    get(std::size_t i, const std::string &name) const
    {
        return results_.at(i).get(name);
    }
    bool ok() const { return failures_ == 0; }

    /** Deterministic JSON of every row's metrics, in order. */
    std::string
    jsonStr() const
    {
        // Built by appending pieces: `literal + std::string` chains
        // make GCC 12 raise false -Wrestrict warnings in Release.
        std::string out;
        out.reserve(64 + 128 * results_.size());
        out.append("{\n  \"bench\": \"")
            .append(escape(name_))
            .append("\",\n  \"rows\": [\n");
        for (std::size_t i = 0; i < results_.size(); ++i) {
            out.append("    { \"name\": \"")
                .append(escape(labels_[i]))
                .append("\", \"metrics\": {");
            const auto &ms = results_[i].metrics;
            for (std::size_t m = 0; m < ms.size(); ++m) {
                char buf[64];
                std::snprintf(buf, sizeof(buf), "%.10g",
                              ms[m].second);
                out.append(m ? ", \"" : " \"")
                    .append(escape(ms[m].first))
                    .append("\": ")
                    .append(buf);
            }
            out.append(" } }").append(i + 1 < results_.size() ? ",\n"
                                                               : "\n");
        }
        out.append("  ]\n}\n");
        return out;
    }

    /** Honour --json[=PATH]. Returns false on I/O failure. */
    bool
    emitJson() const
    {
        if (opt_.jsonPath.empty())
            return true;
        std::string j = jsonStr();
        if (opt_.jsonPath == "-") {
            std::fwrite(j.data(), 1, j.size(), stdout);
            return true;
        }
        FILE *f = std::fopen(opt_.jsonPath.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "%s: cannot write %s\n",
                         name_.c_str(), opt_.jsonPath.c_str());
            return false;
        }
        std::fwrite(j.data(), 1, j.size(), f);
        std::fclose(f);
        return true;
    }

  private:
    static std::string
    escape(const std::string &s)
    {
        std::string out;
        for (char c : s) {
            if (c == '"' || c == '\\')
                out += '\\';
            out += c;
        }
        return out;
    }

    std::string name_;
    Options opt_;
    std::vector<std::string> labels_;
    std::vector<std::function<RowResult()>> jobs_;
    std::vector<RowResult> results_;
    std::vector<std::int64_t> committedPeak_; ///< simulated bytes per row
    std::vector<std::uint64_t> diskErrors_;   ///< injected failures per row
    std::vector<std::uint64_t> diskRetries_;  ///< paging retries per row
    std::vector<std::uint64_t> marketRounds_; ///< auction rounds per row
    std::vector<std::uint64_t> marketBids_;   ///< bids carried in them
    std::vector<std::int64_t> marketStarve_;  ///< worst bid age (nsec)
    std::size_t failures_ = 0;
};

/**
 * Paper-tolerance gate: divergence beyond tolerance exits nonzero so
 * sweeps are CI-gateable.
 */
class PaperCheck
{
  public:
    explicit PaperCheck(std::string benchName)
        : name_(std::move(benchName))
    {}

    /** |measured - paper| must be within relTol * |paper|. */
    void
    near(const std::string &what, double measured, double paper,
         double relTol)
    {
        ++checks_;
        double err = std::fabs(measured - paper);
        double lim = relTol * std::fabs(paper);
        if (!(err <= lim)) {
            ++failed_;
            std::fprintf(stderr,
                         "%s: CHECK FAIL %s: measured %.6g vs paper "
                         "%.6g (err %.1f%% > tol %.1f%%)\n",
                         name_.c_str(), what.c_str(), measured,
                         paper, 100.0 * err / std::fabs(paper),
                         100.0 * relTol);
        }
    }

    /** A qualitative shape invariant from the paper. */
    void
    that(const std::string &what, bool cond)
    {
        ++checks_;
        if (!cond) {
            ++failed_;
            std::fprintf(stderr, "%s: CHECK FAIL %s\n", name_.c_str(),
                         what.c_str());
        }
    }

    std::size_t failures() const { return failed_; }

    /**
     * Print the summary and compute the process exit code, folding
     * in sweep/job failures and JSON I/O problems.
     */
    int
    exitCode(const Sweep &sweep) const
    {
        bool jsonOk = sweep.emitJson();
        std::fprintf(stderr, "%s: %zu/%zu paper checks passed\n",
                     name_.c_str(), checks_ - failed_, checks_);
        return (failed_ == 0 && sweep.ok() && jsonOk) ? 0 : 1;
    }

  private:
    std::string name_;
    std::size_t checks_ = 0;
    std::size_t failed_ = 0;
};

/** Exit code for drivers with no paper values to check against. */
inline int
exitCode(const Sweep &sweep)
{
    return (sweep.ok() && sweep.emitJson()) ? 0 : 1;
}

} // namespace vppbench

#endif // VPP_BENCH_SWEEP_H
