/**
 * @file
 * The traced sweep: the same jobs as the untraced sweep, rebuilt from
 * public layer calls (workload.make(), the trace::SyntheticTrace
 * constructor, sim::System construction, runUntilRetired, resetStats,
 * settle) with a span recorded around each call.  Spans are kept in
 * memory per job and written out when the run ends; per-layer
 * counters are read from each finished system.
 */

#ifndef PERFBENCH_TRACED_HH
#define PERFBENCH_TRACED_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "plan.hh"
#include "util/types.hh"

namespace perfbench
{

/** One timed interval: name, start, end, parent and job. */
struct Span
{
    const char *name = "";

    /** Job index, or -1 for spans outside any job. */
    int job = -1;

    /** Index of the enclosing span in the same log, or -1. */
    int parent = -1;

    /** Nanoseconds since the run's epoch. */
    std::int64_t start = 0;
    std::int64_t end = 0;
};

/**
 * The spans of one job (or of the main thread), recorded by a single
 * thread: open() nests under the innermost open span.
 */
class SpanLog
{
  public:
    SpanLog(int job, Clock::time_point epoch) : job_(job), epoch_(epoch)
    {}

    int open(const char *name);
    void close(int id);

    /** Record an already finished span with no parent. */
    void add(const char *name, Clock::time_point start,
             Clock::time_point end);

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::int64_t ns(Clock::time_point t) const;

    int job_;
    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** Branch outcomes captured from a job's trace, for predictor replay. */
struct BranchStream
{
    std::vector<pfsim::Pc> pcs;
    std::vector<std::uint8_t> taken;
};

/** One finished traced job. */
struct TracedJob
{
    std::uint64_t digest = 0;

    /** Pool worker (0-based) that ran the job. */
    int worker = -1;

    /** Failure text; empty when the job ran to completion. */
    std::string error;

    /** Per-layer counters, summed over the job's cores. */
    std::map<std::string, double> counters;

    std::vector<BranchStream> branches;
    SpanLog spans;
};

/** One traced sweep. */
struct TracedSweep
{
    double wallSeconds = 0.0;

    /** Indexed like Plan::jobs. */
    std::vector<TracedJob> jobs;

    /** Main-thread spans (the sweep). */
    SpanLog main;
};

/** Run every job of @p plan traced on a pool of poolWorkers threads. */
TracedSweep sweepTraced(const Plan &plan, Clock::time_point epoch);

/**
 * Replay each captured branch stream through a fresh
 * cpu::PerceptronBp (predict, then update), recording one
 * "cpu.bp_replay" span per job and the bp_replay_* counters.
 */
void replayBranches(TracedSweep &sweep);

} // namespace perfbench

#endif // PERFBENCH_TRACED_HH
