#include "plan.hh"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "prefetch/registry/registry.hh"
#include "sim/experiment.hh"
#include "sim/service/wire.hh"
#include "snapshot/serial.hh"
#include "stats/summary.hh"
#include "util/random.hh"

namespace perfbench
{

using namespace pfsim;

namespace
{

std::uint64_t
fnv1a(const std::uint8_t *data, std::size_t size)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= data[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Copies of @p suite whose trace configs carry a seed derived from
 * @p seed and the program name; the programs see only these configs.
 */
std::vector<workloads::Workload>
seeded(const std::vector<workloads::Workload> &suite, std::uint64_t seed)
{
    std::vector<workloads::Workload> out;
    for (const workloads::Workload &program : suite) {
        trace::SyntheticConfig config = program.make();
        const auto *name =
            reinterpret_cast<const std::uint8_t *>(program.name.data());
        config.seed = splitmix64(seed ^ fnv1a(name, program.name.size()));
        workloads::Workload copy = program;
        copy.make = [config] { return config; };
        out.push_back(std::move(copy));
    }
    return out;
}

/** Golden digests of @p path, or none when it was made for another
 *  seed or does not exist. */
std::map<std::string, std::uint64_t>
loadGolden(const std::string &path, std::uint64_t seed)
{
    std::map<std::string, std::uint64_t> golden;
    std::ifstream in(path);
    std::string line;
    if (!in || !std::getline(in, line) ||
        line != "seed " + std::to_string(seed))
        return golden;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string key, hex;
        if (fields >> key >> hex)
            golden[key] = std::stoull(hex, nullptr, 16);
    }
    return golden;
}

/**
 * fig11's program pool cut into one stratum per core, by rising
 * no-prefetch IPC (fig09_mem, seed 1).  A mix runs until its slowest
 * program retires its region, so how programs are grouped sets the
 * sweep's cost: workloads::makeMixes draws with replacement, and
 * across five seeds its sweeps took 4.7 to 6.7 s, too wide a spread
 * to hold a bound on.
 */
const std::vector<std::vector<std::string>> mixStrata = {
    {"620.omnetpp_s-like", "657.xz_s-like", "605.mcf_s-like"},
    {"602.gcc_s-like", "623.xalancbmk_s-like", "607.cactuBSSN_s-like"},
    {"654.roms_s-like", "649.fotonik3d_s-like", "603.bwaves_s-like"},
    {"628.pop2_s-like", "619.lbm_s-like"},
};

/** Index of the program named @p name in @p pool. */
std::size_t
programIndex(const std::vector<workloads::Workload> &pool,
             const std::string &name)
{
    for (std::size_t i = 0; i < pool.size(); ++i) {
        if (pool[i].name == name)
            return i;
    }
    throw std::invalid_argument("program " + name + " not in the pool");
}

/**
 * Eighteen mixes, one program per stratum each, laid out as two
 * orthogonal Latin squares: for i, j in 0..2, mix (i, j) runs S0[i],
 * S1[j], S2[(i + j) % 3] with S3[0], and its twin runs S0[i], S1[j],
 * S2[(i + 2j) % 3] with S3[1].  Every program of a stratum runs in
 * equally many mixes and every pair across the first three strata
 * shares the same number of them.  The seed shuffles which program
 * holds each position of every stratum, so each seed draws other
 * mixes while the pairings that set a sweep's cost stay balanced.
 */
std::vector<workloads::Mix>
latinMixes(const std::vector<workloads::Workload> &pool,
           std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<std::size_t>> strata;
    for (const std::vector<std::string> &names : mixStrata) {
        std::vector<std::size_t> stratum;
        for (const std::string &name : names)
            stratum.push_back(programIndex(pool, name));
        for (std::size_t i = stratum.size() - 1; i > 0; --i)
            std::swap(stratum[i], stratum[rng.below(i + 1)]);
        strata.push_back(std::move(stratum));
    }
    std::vector<workloads::Mix> mixes;
    for (std::size_t twin = 0; twin < 2; ++twin) {
        for (std::size_t i = 0; i < 3; ++i) {
            for (std::size_t j = 0; j < 3; ++j) {
                mixes.push_back({pool[strata[0][i]], pool[strata[1][j]],
                                 pool[strata[2][(i + (twin + 1) * j) % 3]],
                                 pool[strata[3][twin]]});
            }
        }
    }
    return mixes;
}

std::uint64_t
digestOf(const snapshot::Sink &sink)
{
    return fnv1a(sink.buffer().data(), sink.buffer().size());
}

} // namespace

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

Plan
makePlan(const std::string &workload, std::uint64_t seed,
         const std::string &golden_path)
{
    const bool mixes = workload == "fig11_mix4";
    if (!mixes && workload != "fig09_mem" && workload != "fig09_compute")
        throw std::invalid_argument("unknown workload '" + workload + "'");
    Plan plan;

    const auto &suite = workloads::spec17Suite();
    std::vector<workloads::Workload> pool;
    for (const workloads::Workload &program : suite) {
        const bool want_mem = workload != "fig09_compute";
        if (program.memIntensive == want_mem)
            pool.push_back(program);
    }
    plan.programs = seeded(pool, seed);

    // Resolve every line-up spec here, on the main thread, before any
    // worker can touch the prefetcher registry.
    plan.lineUp = {"none"};
    for (const std::string &spec : sim::paperPrefetchers())
        plan.lineUp.push_back(spec);
    for (std::string &spec : plan.lineUp)
        spec = prefetch::parsePrefetcherSpec(spec).canonical;

    plan.run.jobs = poolWorkers;
    if (mixes) {
        plan.mixes = latinMixes(plan.programs, seed);
        plan.base = sim::SystemConfig::defaultConfig(
            unsigned(mixStrata.size()));
        plan.isolated = sim::SystemConfig::defaultConfig();
        plan.isolated.llc = plan.base.llc;
        plan.run.warmupInstructions = 20000;
        plan.run.simInstructions = 80000;

        // Isolated runs first (prewarm order: first appearance), then
        // the mix runs (sweepMixes order).
        std::map<std::string, bool> queued;
        for (const auto &mix : plan.mixes) {
            for (const workloads::Workload &program : mix) {
                if (queued[program.name])
                    continue;
                queued[program.name] = true;
                plan.jobs.push_back({"isolated/" + program.name, "none",
                                     programIndex(plan.programs,
                                                  program.name),
                                     false, true});
            }
        }
        for (std::size_t m = 0; m < plan.mixes.size(); ++m) {
            for (const std::string &spec : plan.lineUp) {
                plan.jobs.push_back({"mix" + std::to_string(m) + "/" +
                                         spec,
                                     spec, m, true, false});
            }
        }
    } else {
        plan.base = sim::SystemConfig::defaultConfig();
        plan.run.warmupInstructions = 100000;
        plan.run.simInstructions = 400000;
        for (std::size_t w = 0; w < plan.programs.size(); ++w) {
            for (const std::string &spec : plan.lineUp) {
                plan.jobs.push_back({plan.programs[w].name + "/" + spec,
                                     spec, w, false, false});
            }
        }
    }

    if (!golden_path.empty())
        plan.golden = loadGolden(golden_path, seed);
    return plan;
}

std::uint64_t
digest(const sim::RunResult &result)
{
    sim::RunResult copy = result;
    copy.throughput = {};
    snapshot::Sink sink;
    sim::service::writeRunResult(sink, copy);
    return digestOf(sink);
}

std::uint64_t
digest(const sim::MixResult &result)
{
    sim::MixResult copy = result;
    copy.throughput = {};
    snapshot::Sink sink;
    sim::service::writeMixResult(sink, copy);
    return digestOf(sink);
}

std::uint64_t
digestIpc(double ipc)
{
    snapshot::Sink sink;
    sink.f64(ipc);
    return digestOf(sink);
}

SweepResult
sweepUntraced(const Plan &plan)
{
    SweepResult out;
    out.jobs.resize(plan.jobs.size());
    const std::vector<std::string> &paper = sim::paperPrefetchers();
    const std::size_t width = plan.lineUp.size();

    if (plan.mixes.empty()) {
        const auto start = Clock::now();
        const auto rows = sim::sweepPrefetchers(plan.base, paper,
                                                plan.programs, plan.run);
        out.wallSeconds = secondsSince(start);
        for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
            const sim::RunResult &result =
                rows[i / width].results.at(plan.jobs[i].prefetcher);
            out.jobs[i] = {digest(result), result.throughput.hostSeconds};
        }
        out.ppfOverSpp = sim::geomeanSpeedup(rows, "spp_ppf") /
            sim::geomeanSpeedup(rows, "spp");
        return out;
    }

    sim::IsolatedIpcCache cache;
    const auto start = Clock::now();
    std::vector<workloads::Workload> isolated_pool;
    for (const auto &mix : plan.mixes)
        isolated_pool.insert(isolated_pool.end(), mix.begin(), mix.end());
    cache.prewarm(plan.isolated, isolated_pool, plan.run);
    const auto rows =
        sim::sweepMixes(plan.base, paper, plan.mixes, plan.run);
    out.wallSeconds = secondsSince(start);

    std::map<std::string, std::vector<double>> speedups;
    for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
        const JobSpec &job = plan.jobs[i];
        if (job.isolated) {
            const double ipc = cache.get(
                plan.isolated, plan.programs[job.input], plan.run);
            out.jobs[i] = {digestIpc(ipc), 0.0};
            continue;
        }
        const auto &results = rows[job.input].results;
        const sim::MixResult &result = results.at(job.prefetcher);
        out.jobs[i] = {digest(result), result.throughput.hostSeconds};
        const double weighted =
            sim::weightedIpc(result, plan.isolated, plan.mixes[job.input],
                             plan.run, cache);
        const double baseline = sim::weightedIpc(
            results.at("none"), plan.isolated, plan.mixes[job.input],
            plan.run, cache);
        speedups[job.prefetcher].push_back(weighted / baseline);
    }
    out.ppfOverSpp = stats::geomean(speedups["spp_ppf"]) /
        stats::geomean(speedups["spp"]);
    return out;
}

std::uint64_t
runAlone(const Plan &plan, std::size_t index, sim::FastPathMode mode)
{
    const JobSpec &job = plan.jobs[index];
    sim::RunConfig run = plan.run;
    run.fastPath = mode;
    if (job.mix) {
        return digest(sim::runMix(plan.base.withPrefetcher(job.prefetcher),
                                  plan.mixes[job.input], run));
    }
    if (job.isolated) {
        return digestIpc(
            sim::runSingleCore(plan.isolated, plan.programs[job.input], run)
                .ipc);
    }
    return digest(sim::runSingleCore(
        plan.base.withPrefetcher(job.prefetcher), plan.programs[job.input],
        run));
}

} // namespace perfbench
