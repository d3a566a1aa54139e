/**
 * @file
 * Benchmark inputs and the untraced sweeps: the three workloads built
 * from a seed, the per-job stats digests that prove a run's output,
 * and the library entry points users call (sim::sweepPrefetchers,
 * sim::sweepMixes, sim::IsolatedIpcCache::prewarm).
 */

#ifndef PERFBENCH_PLAN_HH
#define PERFBENCH_PLAN_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/multicore.hh"
#include "sim/runner.hh"
#include "workloads/mixes.hh"
#include "workloads/registry.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/** Workers in every job pool: 3 workers plus the waiting main thread. */
constexpr unsigned poolWorkers = 3;

/** One simulation of a sweep, in submission order. */
struct JobSpec
{
    /** Unique key, e.g. "603.bwaves_s-like/spp" or "mix3/bop". */
    std::string key;

    /** Line-up entry the job runs ("none" for isolated runs). */
    std::string prefetcher;

    /** Index into Plan::programs (single-core) or Plan::mixes. */
    std::size_t input = 0;

    /** A 4-core mix run (else a single-core run). */
    bool mix = false;

    /** An isolated-IPC run of fig11's weighted speedup. */
    bool isolated = false;
};

/** Everything one benchmark workload runs, built from the seed. */
struct Plan
{
    /** Programs with their seeded trace configs. */
    std::vector<pfsim::workloads::Workload> programs;

    /** fig11 only: mixes drawn from programs. */
    std::vector<pfsim::workloads::Mix> mixes;

    /** "none" plus the paper line-up, resolved on the main thread. */
    std::vector<std::string> lineUp;

    pfsim::sim::SystemConfig base;
    pfsim::sim::SystemConfig isolated;
    pfsim::sim::RunConfig run;

    std::vector<JobSpec> jobs;

    /** Golden digests by job key (empty when none are stored). */
    std::map<std::string, std::uint64_t> golden;
};

/**
 * Build @p workload's plan for @p seed: fig09_mem, fig09_compute or
 * fig11_mix4, else std::invalid_argument.  Loads golden digests from
 * @p golden_path when it is non-empty and the file was made for
 * @p seed.
 */
Plan makePlan(const std::string &workload, std::uint64_t seed,
              const std::string &golden_path);

/** Digest of a run's simulated output (host telemetry excluded). */
std::uint64_t digest(const pfsim::sim::RunResult &result);
std::uint64_t digest(const pfsim::sim::MixResult &result);

/** Digest of an isolated run, whose only output is its IPC. */
std::uint64_t digestIpc(double ipc);

/** One finished job of a sweep. */
struct JobResult
{
    std::uint64_t digest = 0;

    /** Host seconds of the run (0 for isolated runs, not exposed). */
    double hostSeconds = 0.0;
};

/** One untraced sweep. */
struct SweepResult
{
    double wallSeconds = 0.0;

    /** Indexed like Plan::jobs. */
    std::vector<JobResult> jobs;

    /**
     * fig09: geomean IPC speedup of spp_ppf over spp; fig11: the
     * same ratio of weighted-speedup geomeans.
     */
    double ppfOverSpp = 0.0;
};

/** Run @p plan through the library sweep entry points. */
SweepResult sweepUntraced(const Plan &plan);

/**
 * Re-run job @p index alone with @p mode selected and return its
 * digest (the --fast-path=off oracle).
 */
std::uint64_t runAlone(const Plan &plan, std::size_t index,
                       pfsim::sim::FastPathMode mode);

} // namespace perfbench

#endif // PERFBENCH_PLAN_HH
