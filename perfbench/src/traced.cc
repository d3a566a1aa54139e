#include "traced.hh"

#include <atomic>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "core/spp_ppf.hh"
#include "cpu/perceptron_bp.hh"
#include "prefetch/spp.hh"
#include "sim/system.hh"
#include "trace/synthetic.hh"
#include "util/thread_pool.hh"

namespace perfbench
{

using namespace pfsim;

int
SpanLog::open(const char *name)
{
    const int id = int(spans_.size());
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, job_, parent, ns(Clock::now()), 0});
    stack_.push_back(id);
    return id;
}

void
SpanLog::close(int id)
{
    spans_[std::size_t(id)].end = ns(Clock::now());
    stack_.pop_back();
}

void
SpanLog::add(const char *name, Clock::time_point start,
             Clock::time_point end)
{
    spans_.push_back({name, job_, -1, ns(start), ns(end)});
}

std::int64_t
SpanLog::ns(Clock::time_point t) const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
}

namespace
{

/** RAII span. */
class Scoped
{
  public:
    Scoped(SpanLog &log, const char *name) : log_(log), id_(log.open(name))
    {}
    ~Scoped() { log_.close(id_); }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

  private:
    SpanLog &log_;
    int id_;
};

/** Branches kept per trace stream for the predictor replay. */
constexpr std::size_t branchesPerStream = 16384;

/**
 * Block-buffered TraceSource decorator: refills a block of
 * instructions from the wrapped source at once, under one
 * "trace.next" span per fill rather than one per next().  The
 * instruction stream is unchanged, so the simulation is too.
 */
class TimedBlockTrace : public trace::TraceSource
{
  public:
    TimedBlockTrace(trace::TraceSource &inner, SpanLog &spans,
                    BranchStream &branches)
        : inner_(inner), spans_(spans), branches_(branches),
          block_(blockSize)
    {}

    bool
    next(Instruction &out) override
    {
        if (head_ == size_ && !fill())
            return false;
        out = block_[head_++];
        return true;
    }

    const std::string &name() const override { return inner_.name(); }

    std::uint64_t generated() const { return generated_; }

  private:
    static constexpr std::size_t blockSize = 4096;

    bool
    fill()
    {
        Scoped span(spans_, "trace.next");
        size_ = 0;
        head_ = 0;
        while (size_ < blockSize && inner_.next(block_[size_])) {
            const Instruction &inst = block_[size_++];
            if (inst.isBranch && branches_.pcs.size() < branchesPerStream) {
                branches_.pcs.push_back(inst.pc);
                branches_.taken.push_back(inst.branchTaken ? 1 : 0);
            }
        }
        generated_ += size_;
        return size_ > 0;
    }

    trace::TraceSource &inner_;
    SpanLog &spans_;
    BranchStream &branches_;
    std::vector<Instruction> block_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::uint64_t generated_ = 0;
};

void
addCache(std::map<std::string, double> &c, const std::string &level,
         const cache::CacheStats &s)
{
    c[level + "_access"] += double(s.demandAccesses());
    c[level + "_hit"] += double(s.demandHits());
}

/** Fold the measured-region statistics of @p system into @p c. */
void
collectCounters(sim::System &system, std::map<std::string, double> &c)
{
    const unsigned n = system.coreCount();
    for (unsigned i = 0; i < n; ++i) {
        const cpu::CoreStats &core = system.core(i).stats();
        c["instructions"] += double(core.instructions);
        c["core_cycles"] += double(core.cycles);
        c["branches"] += double(core.branches);
        c["mispredicts"] += double(core.mispredicts);
        c["rob_full_stalls"] += double(core.robFullStalls);
        addCache(c, "l1d", system.l1d(i).stats());
        const cache::CacheStats &l2 = system.l2(i).stats();
        addCache(c, "l2", l2);
        c["l2_pf_issued"] += double(l2.pfIssued);
        c["l2_pf_useful"] += double(l2.pfUseful);
        c["l2_pf_late"] += double(l2.pfLate);
        c["l2_pf_dropped_mshr"] += double(l2.pfDroppedMshr);
        c["l2_miss_latency_sum"] += double(l2.missLatencySum);
        c["l2_miss_latency_count"] += double(l2.missLatencyCount);

        prefetch::Prefetcher &pf = system.prefetcher(i);
        const prefetch::SppStats *spp = nullptr;
        if (auto *plain = dynamic_cast<prefetch::SppPrefetcher *>(&pf)) {
            spp = &plain->sppStats();
        } else if (auto *filtered =
                       dynamic_cast<ppf::SppPpfPrefetcher *>(&pf)) {
            spp = &filtered->spp().sppStats();
            const ppf::PpfStats &ppf = filtered->filter().ppfStats();
            c["ppf_candidates"] += double(ppf.candidates);
            c["ppf_accepted_l2"] += double(ppf.acceptedL2);
            c["ppf_accepted_llc"] += double(ppf.acceptedLlc);
            c["ppf_rejected"] += double(ppf.rejected);
            c["ppf_instructions"] += double(core.instructions);
        }
        if (spp != nullptr) {
            c["spp_issued"] += double(spp->issued);
            c["spp_depth_sum"] += double(spp->depthSum);
        }
    }
    const cache::CacheStats &llc = system.llc().stats();
    addCache(c, "llc", llc);
    c["llc_pf_useful"] += double(llc.pfUseful);

    const dram::DramStats &dram = system.dram().stats();
    c["dram_reads"] += double(dram.reads);
    c["dram_row_hits"] += double(dram.rowHits);
    c["dram_row_accesses"] +=
        double(dram.rowHits + dram.rowMisses + dram.rowConflicts);
    c["dram_bus_busy_cycles"] += double(dram.busBusyCycles);
    c["dram_read_latency_sum"] += double(dram.readLatencySum);

    c["cycles"] += double(system.now());
    c["ticks_core"] += double(system.tickCounts().core);
    c["ticks_cache"] += double(system.tickCounts().cache);
    c["ticks_dram"] += double(system.tickCounts().dram);
}

/** The pool worker index of the calling thread. */
int
workerIndex(std::atomic<int> &next)
{
    thread_local int index = -1;
    thread_local const std::atomic<int> *owner = nullptr;
    if (owner != &next) {
        owner = &next;
        index = next.fetch_add(1);
    }
    return index;
}

/**
 * The measured region of a mix, as sim::runMix runs it: every core
 * keeps running until the last one has retired its region, and each
 * core's IPC is taken at the cycle it crossed.
 */
std::vector<double>
runMixRegion(sim::System &system, InstrCount instructions)
{
    const unsigned cores = system.coreCount();
    std::vector<Cycle> done_cycle(cores, 0);
    const Cycle start = system.now();
    unsigned remaining = cores;
    InstrCount watchdog_last = 0;
    Cycle watchdog_cycle = system.now();
    while (remaining > 0) {
        system.step(watchdog_cycle + 1000001);
        InstrCount total_retired = 0;
        for (unsigned i = 0; i < cores; ++i) {
            total_retired += system.core(i).retired();
            if (done_cycle[i] == 0 &&
                system.core(i).retired() >= instructions) {
                done_cycle[i] = system.now();
                --remaining;
            }
        }
        if (total_retired != watchdog_last) {
            watchdog_last = total_retired;
            watchdog_cycle = system.now();
        } else if (system.now() - watchdog_cycle > 1000000) {
            throw std::runtime_error("mix made no progress for 1M cycles");
        }
    }
    std::vector<double> ipc;
    for (unsigned i = 0; i < cores; ++i)
        ipc.push_back(double(instructions) / double(done_cycle[i] - start));
    return ipc;
}

/** Run one job of @p plan under spans; fills @p out. */
void
runJob(const Plan &plan, const JobSpec &job, TracedJob &out)
{
    SpanLog &log = out.spans;
    const int job_span = log.open("job");

    std::vector<const workloads::Workload *> programs;
    if (job.mix) {
        for (const workloads::Workload &program : plan.mixes[job.input])
            programs.push_back(&program);
    } else {
        programs.push_back(&plan.programs[job.input]);
    }
    const sim::SystemConfig config = job.isolated
        ? plan.isolated
        : plan.base.withPrefetcher(job.prefetcher);

    std::vector<trace::SyntheticConfig> configs;
    {
        Scoped span(log, "workloads.make");
        for (const workloads::Workload *program : programs)
            configs.push_back(program->make());
    }

    std::vector<std::unique_ptr<trace::SyntheticTrace>> traces;
    std::vector<std::unique_ptr<TimedBlockTrace>> timed;
    std::unique_ptr<sim::System> system;
    out.branches.resize(programs.size());
    {
        Scoped span(log, "sim.construct");
        std::vector<trace::TraceSource *> sources;
        for (std::size_t i = 0; i < configs.size(); ++i) {
            traces.push_back(std::make_unique<trace::SyntheticTrace>(
                std::move(configs[i])));
            timed.push_back(std::make_unique<TimedBlockTrace>(
                *traces.back(), log, out.branches[i]));
            sources.push_back(timed.back().get());
        }
        system = std::make_unique<sim::System>(config, sources);
        system->setFastPath(plan.run.fastPath);
    }
    {
        Scoped span(log, "sim.warmup");
        system->runUntilRetired(plan.run.warmupInstructions);
    }
    {
        Scoped span(log, "sim.reset_stats");
        system->resetStats();
    }
    std::vector<double> mix_ipc;
    const Cycle measure_start = system->now();
    {
        Scoped span(log, "sim.measure");
        if (job.mix)
            mix_ipc = runMixRegion(*system, plan.run.simInstructions);
        else
            system->runUntilRetired(plan.run.simInstructions);
    }
    {
        Scoped span(log, "sim.settle");
        system->settle();
    }

    std::map<std::string, double> &c = out.counters;
    collectCounters(*system, c);
    c["measure_cycles"] = double(system->now() - measure_start);
    for (const auto &source : timed)
        c["trace_instructions"] += double(source->generated());
    c["trace_streams"] = double(traces.size());

    if (job.mix) {
        sim::MixResult result;
        result.prefetcher = config.prefetcher;
        for (const workloads::Workload *program : programs)
            result.workloads.push_back(program->name);
        result.ipc = mix_ipc;
        result.llc = system->llc().stats();
        result.dram = system->dram().stats();
        out.digest = digest(result);
        for (const double ipc : mix_ipc) {
            c["ipc_log_sum"] += std::log(ipc);
            c["ipc_count"] += 1.0;
        }
    } else {
        sim::RunResult result;
        result.workload = programs[0]->name;
        result.prefetcher = config.prefetcher;
        result.core = system->core(0).stats();
        result.ipc = result.core.ipc();
        result.l1d = system->l1d(0).stats();
        result.l2 = system->l2(0).stats();
        result.llc = system->llc().stats();
        result.dram = system->dram().stats();
        prefetch::Prefetcher &pf = system->prefetcher(0);
        if (auto *spp = dynamic_cast<prefetch::SppPrefetcher *>(&pf)) {
            result.spp = spp->sppStats();
        } else if (auto *spp_ppf =
                       dynamic_cast<ppf::SppPpfPrefetcher *>(&pf)) {
            result.spp = spp_ppf->spp().sppStats();
            result.ppf = spp_ppf->filter().ppfStats();
        }
        out.digest = job.isolated ? digestIpc(result.ipc) : digest(result);
        c["ipc_log_sum"] += std::log(result.ipc);
        c["ipc_count"] += 1.0;
    }
    log.close(job_span);
}

} // namespace

TracedSweep
sweepTraced(const Plan &plan, Clock::time_point epoch)
{
    TracedSweep sweep{0.0, {}, SpanLog(-1, epoch)};
    sweep.jobs.reserve(plan.jobs.size());
    for (std::size_t i = 0; i < plan.jobs.size(); ++i)
        sweep.jobs.push_back(TracedJob{0, -1, {}, {}, {},
                                       SpanLog(int(i), epoch)});

    const auto start = Clock::now();
    const int sweep_span = sweep.main.open("sweep");
    std::atomic<int> next_worker{0};
    {
        util::ThreadPool pool(poolWorkers);

        // Isolated runs are a phase of their own, as in
        // IsolatedIpcCache::prewarm before sim::sweepMixes.
        bool isolated_phase = !plan.jobs.empty() && plan.jobs[0].isolated;
        for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
            if (isolated_phase && !plan.jobs[i].isolated) {
                pool.wait();
                isolated_phase = false;
            }
            const auto submitted = Clock::now();
            pool.submit([&plan, &sweep, &next_worker, submitted, i] {
                TracedJob &job = sweep.jobs[i];
                job.worker = workerIndex(next_worker);
                job.spans.add("pool.queue", submitted, Clock::now());
                const int task = job.spans.open("pool.task");
                try {
                    runJob(plan, plan.jobs[i], job);
                } catch (const std::exception &err) {
                    job.error = err.what();
                }
                job.spans.close(task);
            });
        }
        pool.wait();
    }
    sweep.main.close(sweep_span);
    sweep.wallSeconds = secondsSince(start);
    return sweep;
}

void
replayBranches(TracedSweep &sweep)
{
    for (TracedJob &job : sweep.jobs) {
        const auto start = Clock::now();
        double branches = 0.0;
        for (const BranchStream &stream : job.branches) {
            cpu::PerceptronBp bp;
            for (std::size_t i = 0; i < stream.pcs.size(); ++i) {
                bp.predict(stream.pcs[i]);
                bp.update(stream.pcs[i], stream.taken[i] != 0);
            }
            branches += double(stream.pcs.size());
        }
        const auto end = Clock::now();
        job.spans.add("cpu.bp_replay", start, end);
        job.counters["bp_replay_ns"] = double(
            std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
                .count());
        job.counters["bp_replay_branches"] = branches;
        job.branches.clear();
    }
}

} // namespace perfbench
