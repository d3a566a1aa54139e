/**
 * @file
 * pfsim_perfbench: runs one benchmark workload for a time budget and
 * writes its raw measurements as JSON (run.py turns them into the
 * reported metrics).
 *
 *   --workload=fig09_mem|fig09_compute|fig11_mix4
 *   --seed=N          drives the program seeds and the mix draw
 *   --seconds=S       measuring budget
 *   --trace=0|1       0: untraced sweeps through the library entry
 *                     points; 1: untraced/traced sweep pairs, spans and
 *                     per-layer counters
 *   --golden=PATH     golden digests to check (used for their seed only)
 *   --write-golden=PATH  write the first sweep's digests there
 *   --out=PATH        raw measurements (JSON)
 *   --spans=PATH      span records (TSV; traced mode)
 *
 * Every job's digest must match its golden digest, the same job in
 * every other sweep, a sampled --fast-path=off re-run and, in traced
 * mode, the traced re-run.  Each failed comparison counts the job as
 * failed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "plan.hh"
#include "traced.hh"
#include "util/args.hh"

namespace
{

using namespace perfbench;
using pfsim::sim::FastPathMode;

/** Jobs re-run under --fast-path=off after the timed sweeps. */
constexpr std::size_t oracleSamples = 3;

/** Set-ups timed per run. */
constexpr std::size_t setupRepeats = 15;

/** Keeps the reference loop's result alive. */
volatile std::uint64_t refKernelSink;

/** A fixed reference loop, ns per iteration: host-speed drift. */
double
refKernelNs()
{
    constexpr std::uint64_t iterations = 1u << 22;
    const auto start = Clock::now();
    std::uint64_t x = 0x243f6a8885a308d3ull;
    for (std::uint64_t i = 0; i < iterations; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        x ^= x >> 29;
    }
    refKernelSink = x;
    return secondsSince(start) * 1e9 / double(iterations);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0;
}

/** Job accounting shared by every check. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            if (errors.size() < 20)
                errors.push_back(what);
        }
    }
};

std::string
hex(std::uint64_t value)
{
    char text[20];
    std::snprintf(text, sizeof(text), "%016" PRIx64, value);
    return text;
}

/** Check every job of @p sweep against the golden and first sweeps. */
void
checkSweep(const Plan &plan, const SweepResult &sweep,
           const SweepResult &first, Tally &tally)
{
    for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
        const std::string &key = plan.jobs[i].key;
        const std::uint64_t got = sweep.jobs[i].digest;
        bool ok = got == first.jobs[i].digest;
        std::string why = key + ": digest differs from the first sweep";
        if (const auto it = plan.golden.find(key); it != plan.golden.end()) {
            ok = ok && got == it->second;
            why = key + ": digest " + hex(got) + " != golden " +
                hex(it->second);
        }
        tally.check(ok, why);
    }
}

void
writeNumbers(std::FILE *out, const char *name,
             const std::vector<double> &values)
{
    std::fprintf(out, "\"%s\": [", name);
    for (std::size_t i = 0; i < values.size(); ++i)
        std::fprintf(out, "%s%.9g", i == 0 ? "" : ", ", values[i]);
    std::fprintf(out, "]");
}

void
writeSpans(const std::string &path, const TracedSweep &sweep)
{
    std::ofstream out(path);
    out << "job\tid\tparent\tname\tstart_ns\tend_ns\n";
    auto write = [&out](const SpanLog &log, int job) {
        for (std::size_t i = 0; i < log.spans().size(); ++i) {
            const Span &span = log.spans()[i];
            out << job << '\t' << i << '\t' << span.parent << '\t'
                << span.name << '\t' << span.start << '\t' << span.end
                << '\n';
        }
    };
    write(sweep.main, -1);
    for (std::size_t j = 0; j < sweep.jobs.size(); ++j)
        write(sweep.jobs[j].spans, int(j));
}

} // namespace

int
main(int argc, char **argv)
{
    const auto process_start = Clock::now();
    pfsim::Args args(argc, argv,
                     {"workload", "seed", "seconds", "trace", "golden",
                      "write-golden", "out", "spans"});
    const std::string workload = args.get("workload", "");
    const std::uint64_t seed = args.getUnsigned("seed", 1);
    const double seconds = args.getDouble("seconds", 10.0);
    const bool traced = args.getUnsigned("trace", 0) != 0;
    const std::string golden_path = args.get("golden", "");
    const std::string out_path = args.get("out", "");

    Plan plan;
    try {
        plan = makePlan(workload, seed, golden_path);
    } catch (const std::invalid_argument &err) {
        std::fprintf(stderr, "pfsim_perfbench: %s\n", err.what());
        return 2;
    }
    if (out_path.empty()) {
        std::fprintf(stderr, "pfsim_perfbench: --out=PATH is required\n");
        return 2;
    }

    Tally tally;
    std::vector<double> setup_s, sweep_wall_s, traced_wall_s, ref_ns;
    std::vector<SweepResult> sweeps;
    std::vector<TracedSweep> traced_sweeps;

    // Set-up is timed several times back to back, the first from
    // process start, and reported as the median.
    setup_s.push_back(secondsSince(process_start));
    while (setup_s.size() < setupRepeats) {
        const auto setup_start = Clock::now();
        plan = makePlan(workload, seed, golden_path);
        setup_s.push_back(secondsSince(setup_start));
    }
    const auto measure_start = Clock::now();
    for (;;) {
        ref_ns.push_back(refKernelNs());
        sweeps.push_back(sweepUntraced(plan));
        sweep_wall_s.push_back(sweeps.back().wallSeconds);
        checkSweep(plan, sweeps.back(), sweeps.front(), tally);
        double round = sweeps.back().wallSeconds;
        if (traced) {
            traced_sweeps.push_back(sweepTraced(plan, process_start));
            const TracedSweep &t = traced_sweeps.back();
            traced_wall_s.push_back(t.wallSeconds);
            round += t.wallSeconds;
            for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
                const std::string &key = plan.jobs[i].key;
                tally.check(t.jobs[i].error.empty() &&
                                t.jobs[i].digest == sweeps.back().jobs[i].digest,
                            key + ": traced run " +
                                (t.jobs[i].error.empty()
                                     ? "digest differs from untraced"
                                     : "failed: " + t.jobs[i].error));
            }
            // Only the latest traced sweep is reported.
            if (traced_sweeps.size() > 1)
                traced_sweeps.erase(traced_sweeps.begin());
        }
        ref_ns.push_back(refKernelNs());
        if (secondsSince(measure_start) + round > seconds)
            break;
    }

    // The naive oracle, outside the timed window.
    const std::size_t jobs = plan.jobs.size();
    for (std::size_t k = 0; k < oracleSamples && jobs > 0; ++k) {
        const std::size_t index =
            oracleSamples == 1 ? 0 : k * (jobs - 1) / (oracleSamples - 1);
        const std::uint64_t got = runAlone(plan, index, FastPathMode::Off);
        tally.check(got == sweeps.front().jobs[index].digest,
                    plan.jobs[index].key +
                        ": --fast-path=off oracle digest differs");
    }

    if (args.has("write-golden")) {
        std::ofstream golden(args.get("write-golden", ""));
        golden << "seed " << seed << '\n';
        for (std::size_t i = 0; i < jobs; ++i)
            golden << plan.jobs[i].key << '\t'
                   << hex(sweeps.front().jobs[i].digest) << '\n';
    }

    std::FILE *out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
        std::perror(out_path.c_str());
        return 1;
    }
    std::fprintf(out, "{\"workload\": \"%s\", \"seed\": %" PRIu64
                      ", \"trace\": %d, \"jobs_per_sweep\": %zu,\n",
                 workload.c_str(), seed, traced ? 1 : 0, jobs);
    std::fprintf(out, "\"golden_jobs\": %zu, \"peak_rss_mb\": %.6g, "
                      "\"ppf_over_spp\": %.17g,\n",
                 plan.golden.size(), peakRssMb(), sweeps.front().ppfOverSpp);
    std::fprintf(out, "\"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                      ", \"errors\": [",
                 tally.attempted, tally.failed);
    for (std::size_t i = 0; i < tally.errors.size(); ++i) {
        std::string text = tally.errors[i];
        std::replace_if(
            text.begin(), text.end(),
            [](char c) { return c == '"' || c == '\\' || c < ' '; }, '\'');
        std::fprintf(out, "%s\"%s\"", i == 0 ? "" : ", ", text.c_str());
    }
    std::fprintf(out, "],\n");
    writeNumbers(out, "setup_s", setup_s);
    std::fprintf(out, ",\n");
    writeNumbers(out, "sweep_wall_s", sweep_wall_s);
    std::fprintf(out, ",\n");
    writeNumbers(out, "traced_wall_s", traced_wall_s);
    std::fprintf(out, ",\n");
    writeNumbers(out, "ref_kernel_ns", ref_ns);
    std::fprintf(out, ",\n\"runs\": [");
    bool first = true;
    for (const SweepResult &sweep : sweeps) {
        for (std::size_t i = 0; i < jobs; ++i) {
            if (plan.jobs[i].isolated)
                continue;
            std::fprintf(out, "%s\n  [\"%s\", \"%s\", %.9g]",
                         first ? "" : ",", plan.jobs[i].key.c_str(),
                         plan.jobs[i].prefetcher.c_str(),
                         sweep.jobs[i].hostSeconds);
            first = false;
        }
    }
    std::fprintf(out, "],\n\"traced_jobs\": [");
    if (!traced_sweeps.empty()) {
        TracedSweep &t = traced_sweeps.back();
        replayBranches(t);
        for (std::size_t i = 0; i < jobs; ++i) {
            std::fprintf(out, "%s\n  {\"key\": \"%s\", \"prefetcher\": \"%s\", "
                              "\"mix\": %d, \"isolated\": %d, \"worker\": %d",
                         i == 0 ? "" : ",", plan.jobs[i].key.c_str(),
                         plan.jobs[i].prefetcher.c_str(),
                         plan.jobs[i].mix ? 1 : 0,
                         plan.jobs[i].isolated ? 1 : 0, t.jobs[i].worker);
            for (const auto &[name, value] : t.jobs[i].counters)
                std::fprintf(out, ", \"%s\": %.17g", name.c_str(), value);
            std::fprintf(out, "}");
        }
        if (args.has("spans"))
            writeSpans(args.get("spans", ""), t);
    }
    std::fprintf(out, "]}\n");
    std::fclose(out);
    return 0;
}
