/**
 * @file
 * Full-matrix parallel sweep: every paper benchmark on every machine
 * configuration (8 x 4 = 32 independent simulations) through the
 * SweepRunner thread pool. --suite sparse swaps in the sparse &
 * stencil family (SpMV/Stencil/Histogram), --suite all runs both, and
 * --dataset <file.mtx> appends an external SpMV workload to whichever
 * suite is selected.
 *
 * Prints per-job wall time, total wall time, and the aggregate
 * parallel speedup (sum of job times / sweep wall time). The --json
 * results report contains *only* simulation results — no timing — so
 * it is byte-identical for any --jobs value; timing goes to the
 * separate --timing-json report. Host performance is measured by
 * perfbench/run.py, not by this binary (DESIGN.md §13).
 *
 * Resilience (DESIGN.md §Sweep resilience): with --journal each
 * finished job is durably appended to a JSONL journal; --resume
 * replays journaled jobs so a killed sweep continues where it stopped,
 * with a --json report byte-identical to an uninterrupted run's.
 * --timeout-s bounds each attempt's wall-clock time and --retries
 * re-runs TimedOut attempts with jittered backoff. The hidden
 * --with-hang flag injects a synthetic never-terminating job (used by
 * CI to prove a hung job cannot block the sweep).
 */
#include <cinttypes>
#include <csignal>
#include <cstdlib>

#include "bench_util.h"
#include "workloads/external.h"

using namespace isrf;
using namespace isrf::bench;

namespace {

/**
 * Root cancel token tripped by SIGINT/SIGTERM. Before this handler the
 * default disposition killed the process mid-sweep, abandoning the
 * journal's final record mid-append more often than necessary; now
 * in-flight jobs finish as Cancelled at the next cycle boundary and
 * the journal closes cleanly (the torn-tail recovery on resume becomes
 * the SIGKILL-only path it was designed to be). CancelToken::cancel()
 * is one relaxed atomic store — async-signal-safe.
 */
CancelToken gSignalCancel;
volatile std::sig_atomic_t gSignalSeen = 0;

void
onTerminationSignal(int sig)
{
    gSignalSeen = sig;
    gSignalCancel.cancel();
}

void
writeTimingJson(const std::string &path, const BenchRun &run)
{
    const SweepTiming &t = run.runner().timing();
    JsonWriter w;
    w.beginObject();
    w.key("threads").value(static_cast<uint64_t>(t.threads));
    w.key("wall_seconds").value(t.wallSeconds);
    w.key("sum_job_seconds").value(t.sumJobSeconds);
    w.key("speedup").value(t.speedup());
    w.key("replayed").value(static_cast<uint64_t>(t.replayed));
    // Resume-loss accounting: all zero on a clean resume. Operators
    // (and CI) read these to tell a clean recovery from a lossy one.
    w.key("journal_torn_records")
        .value(static_cast<uint64_t>(t.tornRecordsDropped));
    w.key("journal_torn_bytes")
        .value(static_cast<uint64_t>(t.tornBytesDropped));
    w.key("journal_lines_skipped")
        .value(static_cast<uint64_t>(t.journalLinesSkipped));
    // Checkpoint accounting (all zero without --checkpoint-dir). CI's
    // resilience job asserts a resumed sweep's sim_cycles_executed is
    // strictly below the uninterrupted baseline's — proof the resume
    // actually skipped work instead of silently re-simulating.
    w.key("checkpoint_saves").value(t.checkpointSaves);
    w.key("checkpoint_restores").value(t.checkpointRestores);
    w.key("sim_cycles_executed").value(t.simCyclesExecuted);
    w.key("jobs").beginArray();
    for (const auto &o : run.outcomes()) {
        w.beginObject();
        w.key("workload").value(o.workload);
        w.key("machine").value(machineKindName(o.kind));
        w.key("wall_seconds").value(o.wallSeconds);
        w.key("cycles").value(o.result.cycles);
        w.key("correct").value(o.result.correct);
        w.key("status").value(std::string(runStatusName(o.status)));
        w.key("attempts").value(static_cast<uint64_t>(o.attempts));
        w.key("from_journal").value(o.fromJournal);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    if (!writeTextFile(path, w.str()))
        reportWriteFailed("timing JSON", path);
    std::fprintf(stderr, "wrote timing JSON to %s\n", path.c_str());
}

/**
 * Synthetic hung job (--with-hang): drives a real Machine with a
 * predicate that never holds, exercising the genuine cooperative-
 * deadline exit path. Without --timeout-s (or an external cancel) it
 * runs to the 2^40-cycle limit — i.e., effectively forever.
 */
WorkloadResult
runHang(const MachineConfig &cfg, const WorkloadOptions &opts)
{
    WorkloadResult res;
    res.workload = "Hang";
    res.kind = cfg.kind;
    Machine m;
    m.init(cfg);
    m.setCancel(opts.cancel);
    RunResult r = m.runUntil([] { return false; }, 1ull << 40);
    res.status = r.status;
    res.cycles = r.cycles;
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    // Sweep-only flags, handled by the shared parser (BenchFlag hook).
    SweepPolicy policy;
    std::vector<std::string> datasetWorkloads;
    std::string timingPath;
    std::string suite = "paper";
    uint64_t checkpointEvery = 250000;  // default cadence
    bool withHang = false;
    BenchArgs args = parseBenchArgs(argc, argv, {
        {"--journal", true,
         [&](const std::string &v) { policy.journalPath = v; },
         "[--journal <path>]"},
        {"--resume", false,
         [&](const std::string &) { policy.resume = true; },
         "[--resume]"},
        {"--timeout-s", true,
         [&](const std::string &v) {
             if (!parseF64(v, policy.timeoutSeconds) ||
                 !(policy.timeoutSeconds > 0.0)) {
                 std::fprintf(stderr, "--timeout-s expects a positive "
                              "number, got '%s'\n", v.c_str());
                 std::exit(2);
             }
         },
         "[--timeout-s <secs>]"},
        {"--retries", true,
         [&](const std::string &v) {
             uint64_t n = 0;
             if (!parseU64(v, n) || n > 100) {
                 std::fprintf(stderr, "--retries expects an integer in "
                              "[0,100], got '%s'\n", v.c_str());
                 std::exit(2);
             }
             policy.retries = static_cast<uint32_t>(n);
         },
         "[--retries <n>]"},
        {"--dataset", true,
         [&](const std::string &path) {
             std::string name;
             std::vector<std::string> errs;
             if (!registerExternalDataset(path, &name, &errs)) {
                 std::fprintf(stderr, "--dataset: cannot load '%s':\n",
                              path.c_str());
                 for (const auto &e : errs)
                     std::fprintf(stderr, "  %s\n", e.c_str());
                 std::exit(2);
             }
             datasetWorkloads.push_back(name);
         },
         "[--dataset <file.mtx>]..."},
        {"--timing-json", true,
         [&](const std::string &v) { timingPath = v; }},
        {"--suite", true,
         [&](const std::string &v) {
             if (v != "paper" && v != "sparse" && v != "all") {
                 std::fprintf(stderr, "--suite expects paper, sparse "
                              "or all, got '%s'\n", v.c_str());
                 std::exit(2);
             }
             suite = v;
         }},
        {"--checkpoint-dir", true,
         [&](const std::string &v) { policy.checkpointDir = v; }},
        {"--checkpoint-every-cycles", true,
         [&](const std::string &v) {
             if (!parseU64(v, checkpointEvery) || checkpointEvery == 0) {
                 std::fprintf(stderr, "--checkpoint-every-cycles "
                              "expects a positive cycle count, got "
                              "'%s'\n", v.c_str());
                 std::exit(2);
             }
         }},
        {"--with-hang", false,
         [&](const std::string &) { withHang = true; }},
    });
    if (policy.resume && policy.journalPath.empty()) {
        std::fprintf(stderr, "--resume requires --journal <path>\n");
        std::exit(2);
    }
    // --suite paper is the default so the perf job's 32-job contract
    // (8 paper benchmarks x 4 machines) holds without flags; sparse
    // adds the irregular-access family, and --dataset workloads ride
    // along with whichever suite is selected.
    std::vector<std::string> names;
    if (suite == "paper" || suite == "all")
        names.insert(names.end(), benchmarkOrder().begin(),
                     benchmarkOrder().end());
    if (suite == "sparse" || suite == "all")
        names.insert(names.end(), sparseBenchmarkOrder().begin(),
                     sparseBenchmarkOrder().end());
    names.insert(names.end(), datasetWorkloads.begin(),
                 datasetWorkloads.end());

    heading("Parallel full-matrix sweep (benchmarks x 4 configs)",
            "driver for Figures 11-13 data; results are --jobs "
            "invariant");

    WorkloadOptions opts;
    opts.repeats = 2;
    auto jobs = benchJobs(args, names, machineOrder(), opts);
    if (withHang) {
        jobs.push_back({.workload = "Hang",
                        .cfg = benchConfig(MachineKind::Base, args),
                        .opts = opts,
                        .runner = runHang});
    }

    policy.cancel = &gSignalCancel;
    policy.checkpointEveryCycles = checkpointEvery;
    std::signal(SIGINT, onTerminationSignal);
    std::signal(SIGTERM, onTerminationSignal);

    std::printf("running %zu jobs on %u thread(s)...\n\n", jobs.size(),
                args.jobs);
    const BenchRun run(args, jobs, policy,
        [](const SweepJob &job, bool finished, size_t done,
           size_t total) {
            if (finished)
                progressf("  [%zu/%zu] %s on %s done\n", done, total,
                          job.workload.c_str(),
                          job.cfg.name().c_str());
        });

    Table t({"Benchmark", "Config", "Cycles", "Correct", "Status",
             "Att", "Wall (s)"});
    bool allGood = true;
    for (const auto &o : run.outcomes()) {
        allGood = allGood &&
            o.status == RunStatus::Done && o.result.correct;
        t.addRow({o.workload, machineKindName(o.kind),
                  std::to_string(o.result.cycles),
                  o.result.correct ? "yes" : "NO",
                  o.fromJournal
                      ? std::string(runStatusName(o.status)) + "*"
                      : runStatusName(o.status),
                  std::to_string(o.attempts),
                  fmtDouble(o.wallSeconds, 3)});
    }
    std::printf("%s\n", t.render().c_str());
    const SweepTiming &timing = run.runner().timing();
    if (timing.replayed > 0)
        std::printf("(* = replayed from journal %s)\n\n",
                    policy.journalPath.c_str());

    std::printf("threads:            %u\n", timing.threads);
    std::printf("total wall time:    %.3f s\n", timing.wallSeconds);
    std::printf("sum of job times:   %.3f s\n", timing.sumJobSeconds);
    if (policy.resume) {
        // One line an operator can grep to tell a clean resume from a
        // lossy one: how much journal input was dropped on recovery.
        if (timing.tornRecordsDropped || timing.journalLinesSkipped)
            std::printf("replayed jobs:      %zu (lossy resume: "
                        "%zu torn record(s) dropped, %zu bytes; "
                        "%zu blank line(s) skipped)\n",
                        timing.replayed, timing.tornRecordsDropped,
                        timing.tornBytesDropped,
                        timing.journalLinesSkipped);
        else
            std::printf("replayed jobs:      %zu (clean resume, no "
                        "journal lines dropped)\n", timing.replayed);
    } else {
        std::printf("replayed jobs:      %zu\n", timing.replayed);
    }
    if (!policy.checkpointDir.empty())
        std::printf("checkpoints:        %" PRIu64 " saved, %" PRIu64
                    " restored; %" PRIu64 " sim cycles executed\n",
                    timing.checkpointSaves, timing.checkpointRestores,
                    timing.simCyclesExecuted);
    std::printf("aggregate speedup:  %.2fx\n", timing.speedup());
    std::printf("all done+correct:   %s\n", allGood ? "yes" : "NO");
    if (gSignalSeen) {
        std::printf("interrupted by signal %d: in-flight jobs finished "
                    "as cancelled, journal closed cleanly%s\n",
                    static_cast<int>(gSignalSeen),
                    policy.journalPath.empty()
                        ? ""
                        : "; re-run with --resume to continue");
    }

    if (!timingPath.empty())
        writeTimingJson(timingPath, run);
    finishBench(args, run);
    return allGood ? 0 : 1;
}
