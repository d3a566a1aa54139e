#!/usr/bin/env python3
"""The repository benchmark: paper-style prefetcher sweeps, timed.

Builds the simulator library and the benchmark binary from source
(perfbench/CMakeLists.txt, build tree in .bench_build/perfbench), runs
one workload for a time budget, checks every run's simulated output
and prints one JSON object as the last line of stdout:

    python3 perfbench/run.py --workload fig09_mem --seed 1 \
        --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics of untraced sweeps; --trace 1
reports the per-layer metrics of a traced sweep (spans are written to
.bench_build/perfbench/spans-<workload>-<seed>.tsv).  NOTES.md maps
each per-layer metric to the end-to-end metric it should move.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "pfsim_perfbench"
WORKLOADS = ("fig09_mem", "fig09_compute", "fig11_mix4")
LINE_UP = ("none", "bop", "da_ampm", "spp", "spp_ppf")
DEFAULT_SEED = 1  # the seed the golden digests were made with
DEADLINE_S = 170  # a run must end within 180 s once built
WORKERS = 3

# Spans whose self time accounts for a job's host time.
LAYER_SPANS = ("workloads.make", "sim.construct", "trace.next",
               "sim.warmup", "sim.measure", "sim.reset_stats",
               "sim.settle")
COVERAGE_TOLERANCE = 0.05


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure once and build; False when the sources are missing."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: simulator sources (src/) not found next to "
            "perfbench/; nothing to build")
        return False
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            log("perfbench: build step failed: " + " ".join(step))
            return False
    return BINARY.is_file()


def quartiles(values):
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4)


def ratio(num, den):
    return num / den if den else 0.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(raw):
    runs = [run[2] for run in raw["runs"]]
    q = quartiles(runs)
    log(f"perfbench: {len(raw['sweep_wall_s'])} sweeps, {len(runs)} runs "
        f"(run_s_p75 has {len(runs) - math.ceil(0.75 * len(runs))} "
        f"samples beyond it), {len(raw['setup_s'])} set-ups")
    return {
        "setup_s": metric(statistics.median(raw["setup_s"]), "s"),
        "sweep_wall_s": metric(statistics.median(raw["sweep_wall_s"]), "s"),
        "run_s_p50": metric(q[1], "s"),
        "run_s_p75": metric(q[2], "s"),
        "peak_rss_mb": metric(raw["peak_rss_mb"], "MB"),
        "run_ok_ratio": metric(
            ratio(raw["attempted"] - raw["failed"], raw["attempted"]),
            "ratio"),
        "ppf_over_spp_speedup": metric(raw["ppf_over_spp"], "x"),
    }


def read_spans(path):
    """Per job: {span id: (name, parent, start_ns, end_ns)}."""
    jobs = defaultdict(dict)
    with open(path) as spans:
        next(spans)
        for line in spans:
            job, sid, parent, name, start, end = line.rstrip("\n").split("\t")
            jobs[int(job)][int(sid)] = (name, int(parent), int(start),
                                        int(end))
    return jobs


def span_times(jobs):
    """Inclusive and self seconds per span name, and per-job coverage."""
    inclusive = defaultdict(float)
    self_time = defaultdict(float)
    durations = defaultdict(list)
    coverage = []
    for job, spans in jobs.items():
        child = defaultdict(int)
        for name, parent, start, end in spans.values():
            if parent >= 0:
                child[parent] += end - start
        covered = 0
        job_ns = 0
        for sid, (name, parent, start, end) in spans.items():
            seconds = (end - start) / 1e9
            inclusive[name] += seconds
            durations[name].append(seconds)
            own = end - start - child[sid]
            self_time[name] += own / 1e9
            if name in LAYER_SPANS:
                covered += own
            elif name == "job":
                job_ns = end - start
        if job >= 0 and job_ns > 0:
            coverage.append(covered / job_ns)
    return inclusive, self_time, durations, coverage


def per_layer(raw, spans_path):
    jobs = raw["traced_jobs"]
    total = defaultdict(float)
    for job in jobs:
        for key, value in job.items():
            if isinstance(value, (int, float)):
                total[key] += value
    sweep_jobs = [j for j in jobs if not j["isolated"]]
    ipc_log = sum(j.get("ipc_log_sum", 0.0) for j in sweep_jobs)
    ipc_count = sum(j.get("ipc_count", 0.0) for j in sweep_jobs)

    span_jobs = read_spans(spans_path)
    inclusive, self_time, durations, coverage = span_times(span_jobs)
    main = {name: (start, end)
            for name, _, start, end in span_jobs[-1].values()}
    sweep_start, sweep_end = main["sweep"]
    wall = (sweep_end - sweep_start) / 1e9

    # Drain: from the first worker to go idle for good to sweep end.
    last_end = defaultdict(int)
    for index, job in enumerate(jobs):
        for name, _, _, end in span_jobs[index].values():
            if name == "pool.task":
                last_end[job["worker"]] = max(last_end[job["worker"]], end)
    drain = (sweep_end - min(last_end.values())) / 1e9 if last_end else 0.0

    run_s = defaultdict(list)
    by_key = defaultdict(list)
    for key, prefetcher, seconds in raw["runs"]:
        run_s[prefetcher].append(seconds)
        by_key[key].append(seconds)
    overhead = 0.0
    for key, seconds in by_key.items():
        if key.endswith("/spp_ppf"):
            spp = by_key[key[:-len("spp_ppf")] + "spp"]
            overhead += statistics.median(seconds) - statistics.median(spp)

    kernel_self = self_time["sim.warmup"] + self_time["sim.measure"]
    job_time = inclusive["job"]
    busy = inclusive["pool.task"]
    untraced = statistics.median(raw["sweep_wall_s"])
    traced = statistics.median(raw["traced_wall_s"])
    values = {
        "workloads.make_s": (inclusive["workloads.make"], "s"),
        "trace.next_s": (inclusive["trace.next"], "s"),
        "trace.ns_per_instr": (ratio(inclusive["trace.next"] * 1e9,
                                     total["trace_instructions"]), "ns"),
        "trace.streams_generated": (total["trace_streams"], "count"),
        "trace.share": (ratio(inclusive["trace.next"], job_time), "ratio"),
        "sim.construct_s": (self_time["sim.construct"], "s"),
        "sim.warmup_s": (inclusive["sim.warmup"], "s"),
        "sim.measure_s": (inclusive["sim.measure"], "s"),
        "sim.kernel_self_s": (kernel_self, "s"),
        "sim.kernel_ns_per_cycle": (ratio(kernel_self * 1e9,
                                          total["cycles"]), "ns"),
        "sim.cycles": (total["cycles"], "count"),
        "sim.settle_s": (inclusive["sim.settle"] +
                         inclusive["sim.reset_stats"], "s"),
        "sched.core_ticks_per_cycle": (ratio(total["ticks_core"],
                                             total["cycles"]), "ratio"),
        "sched.cache_ticks_per_cycle": (ratio(total["ticks_cache"],
                                              total["cycles"]), "ratio"),
        "sched.dram_ticks_per_cycle": (ratio(total["ticks_dram"],
                                             total["cycles"]), "ratio"),
        "cache.l1d_hit_ratio": (ratio(total["l1d_hit"],
                                      total["l1d_access"]), "ratio"),
        "cache.l2_hit_ratio": (ratio(total["l2_hit"], total["l2_access"]),
                               "ratio"),
        "cache.llc_hit_ratio": (ratio(total["llc_hit"],
                                      total["llc_access"]), "ratio"),
        "cache.l2_accesses_per_kinstr": (ratio(1000 * total["l2_access"],
                                               total["instructions"]),
                                         "1/kinstr"),
        "cache.l2_pf_dropped_mshr": (total["l2_pf_dropped_mshr"], "count"),
        "cache.l2_miss_latency_avg_cycles": (
            ratio(total["l2_miss_latency_sum"],
                  total["l2_miss_latency_count"]), "cycles"),
        "dram.reads_per_kinstr": (ratio(1000 * total["dram_reads"],
                                        total["instructions"]), "1/kinstr"),
        "dram.row_hit_ratio": (ratio(total["dram_row_hits"],
                                     total["dram_row_accesses"]), "ratio"),
        "dram.bus_busy_ratio": (ratio(total["dram_bus_busy_cycles"],
                                      total["measure_cycles"]), "ratio"),
        "dram.read_latency_avg_cycles": (ratio(total["dram_read_latency_sum"],
                                               total["dram_reads"]),
                                         "cycles"),
        "cpu.ipc_geomean": (math.exp(ratio(ipc_log, ipc_count)), "ipc"),
        "cpu.mispredict_ratio": (ratio(total["mispredicts"],
                                       total["branches"]), "ratio"),
        "cpu.rob_full_stall_ratio": (ratio(total["rob_full_stalls"],
                                           total["core_cycles"]), "ratio"),
        "cpu.bp_replay_ns_per_branch": (ratio(total["bp_replay_ns"],
                                              total["bp_replay_branches"]),
                                        "ns"),
        "prefetch.l2_issued": (total["l2_pf_issued"], "count"),
        "prefetch.accuracy": (ratio(total["l2_pf_useful"] +
                                    total["llc_pf_useful"],
                                    total["l2_pf_issued"]), "ratio"),
        "prefetch.late_ratio": (ratio(total["l2_pf_late"],
                                      total["l2_pf_useful"]), "ratio"),
        "spp.avg_depth": (ratio(total["spp_depth_sum"],
                                total["spp_issued"]), "depth"),
    }
    for prefetcher in LINE_UP:
        values["prefetch.run_s_" + prefetcher] = (
            statistics.median(run_s[prefetcher]), "s")
    values.update({
        "ppf.candidates_per_kinstr": (ratio(1000 * total["ppf_candidates"],
                                            total["ppf_instructions"]),
                                      "1/kinstr"),
        "ppf.accept_l2_ratio": (ratio(total["ppf_accepted_l2"],
                                      total["ppf_candidates"]), "ratio"),
        "ppf.accept_llc_ratio": (ratio(total["ppf_accepted_llc"],
                                       total["ppf_candidates"]), "ratio"),
        "ppf.reject_ratio": (ratio(total["ppf_rejected"],
                                   total["ppf_candidates"]), "ratio"),
        "ppf.run_overhead_s": (overhead, "s"),
        "pool.busy_s": (busy, "s"),
        "pool.efficiency": (ratio(busy, wall * WORKERS), "ratio"),
        "pool.queue_wait_s_p50": (statistics.median(durations["pool.queue"]),
                                  "s"),
        "pool.drain_s": (drain, "s"),
        "host.ref_kernel_ns": (statistics.median(raw["ref_kernel_ns"]), "ns"),
        "tracing.overhead_pct": (100 * (traced / untraced - 1), "%"),
        "tracing.span_coverage_min": (min(coverage), "ratio"),
        "bench.run_samples": (len(raw["runs"]), "count"),
    })
    worst = max(abs(1 - c) for c in coverage)
    if worst > COVERAGE_TOLERANCE:
        log(f"perfbench: spans cover a job's host time only to within "
            f"{worst:.1%} (allowed {COVERAGE_TOLERANCE:.0%})")
    return ({name: metric(v, unit) for name, (v, unit) in values.items()},
            worst <= COVERAGE_TOLERANCE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        sys.exit(1)
    started = time.monotonic()
    tag = f"{args.workload}-{args.seed}-{args.trace}"
    raw_path = BUILD / f"raw-{tag}.json"
    spans_path = BUILD / f"spans-{args.workload}-{args.seed}.tsv"
    log_path = BUILD / f"log-{tag}.txt"
    command = [str(BINARY), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds}",
               f"--trace={args.trace}",
               f"--golden={HERE / 'golden' / (args.workload + '.txt')}",
               f"--out={raw_path}", f"--spans={spans_path}"]
    if raw_path.exists():
        raw_path.unlink()
    with open(log_path, "w") as progress:
        try:
            code = subprocess.run(command, stdout=progress, stderr=progress,
                                  timeout=DEADLINE_S).returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
    if code != 0:
        log(f"perfbench: pfsim_perfbench exited with {code}; see {log_path}")
        sys.exit(1)
    raw = json.loads(raw_path.read_text())
    for error in raw["errors"]:
        log("perfbench: FAILED " + error)
    if raw["golden_jobs"] == 0 and args.seed == DEFAULT_SEED:
        log("perfbench: no golden digests for the default seed")
        sys.exit(1)

    correct = raw["failed"] == 0
    if args.trace:
        metrics, covered = per_layer(raw, spans_path)
        correct = correct and covered
    else:
        metrics = end_to_end(raw)
    log(f"perfbench: {tag} done in {time.monotonic() - started:.1f} s")
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
