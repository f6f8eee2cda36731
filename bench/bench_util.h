/**
 * @file
 * Shared helpers for the benchmark harnesses: standard benchmark and
 * configuration lists, result caching across a binary's tables
 * (optionally filled in parallel by the sweep driver), and printing
 * conventions.
 */
#ifndef ISRF_BENCH_BENCH_UTIL_H
#define ISRF_BENCH_BENCH_UTIL_H

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "driver/perf_diff.h"
#include "driver/sweep_runner.h"
#include "sim/profiler.h"
#include "sim/trace.h"
#include "util/json.h"
#include "util/parse.h"
#include "util/table.h"
#include "workloads/external.h"
#include "workloads/workload.h"

namespace isrf {
namespace bench {

/** Benchmark order used by the paper's figures. */
inline const std::vector<std::string> &
benchmarkOrder()
{
    static const std::vector<std::string> names = {
        "FFT 2D", "Rijndael", "Sort", "Filter",
        "IG_SML", "IG_DMS", "IG_DCS", "IG_SCL",
    };
    return names;
}

/**
 * The sparse & stencil workload family (irregular-access counterpart
 * to benchmarkOrder(); bench_sweep --suite sparse, EXPERIMENTS.md).
 */
inline const std::vector<std::string> &
sparseBenchmarkOrder()
{
    static const std::vector<std::string> names = {
        "SpMV Banded", "SpMV Random", "SpMV Power",
        "Stencil 2D5", "Stencil 2D9", "Stencil 3D27",
        "Histogram",
    };
    return names;
}

inline const std::vector<MachineKind> &
machineOrder()
{
    static const std::vector<MachineKind> kinds = {
        MachineKind::Base, MachineKind::ISRF1, MachineKind::ISRF4,
        MachineKind::Cache,
    };
    return kinds;
}

// ----------------------------------------------------------------------
// Progress printing
// ----------------------------------------------------------------------

/** Suppress progress chatter (--quiet). Results still print. */
inline bool &
quietFlag()
{
    static bool quiet = false;
    return quiet;
}

/**
 * Mutex-guarded progress printer: whole lines go to stderr atomically,
 * so concurrent sweep workers can't interleave garbled output.
 * Silenced by --quiet.
 */
inline void
progressf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

inline void
progressf(const char *fmt, ...)
{
    static std::mutex mu;
    if (quietFlag())
        return;
    va_list ap;
    va_start(ap, fmt);
    char buf[512];
    vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    std::lock_guard<std::mutex> lock(mu);
    std::fputs(buf, stderr);
}

// ----------------------------------------------------------------------
// Command-line options
// ----------------------------------------------------------------------

/** Common command-line options shared by every bench binary. */
struct BenchArgs
{
    std::string jsonPath;      ///< --json: machine-readable results
    std::string tracePath;     ///< --trace: Chrome trace-event JSON
    std::string traceChannels; ///< --trace-channels: channel list
    std::string profilePath;   ///< --profile: host-time profile dump
    std::string faultSpec;     ///< --faults: the spec as given
    FaultConfig faults;        ///< --faults: parsed once, at flag time
    unsigned jobs = 1;         ///< --jobs: sweep thread-pool width
    bool quiet = false;        ///< --quiet: suppress progress chatter
    // Sweep resilience (bench_sweep; DESIGN.md §Sweep resilience):
    std::string journalPath;   ///< --journal: per-job JSONL journal
    bool resume = false;       ///< --resume: replay journaled jobs
    double timeoutSeconds = 0; ///< --timeout-s: per-attempt deadline
    unsigned retries = 0;      ///< --retries: extra attempts
    /** Workload names registered via --dataset, in flag order. */
    std::vector<std::string> datasetWorkloads;
};

/**
 * A binary-specific flag handled inside parseBenchArgs, so binaries
 * never hand-peel argv (which silently diverges from the shared
 * parser's error handling and --help).
 */
struct BenchFlag
{
    std::string name;        ///< e.g. "--timing-json"
    bool takesValue = false;
    /** Called with the value (or "" for valueless flags). */
    std::function<void(const std::string &)> apply;
};

/**
 * Parse the standard bench options:
 *   --json <path>            write run results as JSON
 *   --trace <path>           write a Chrome/Perfetto trace
 *   --trace-channels <spec>  trace only these channels (sim/trace.h
 *                            syntax; --trace alone traces all)
 *   --profile <path>         write a host-time profile (Chrome trace /
 *                            speedscope)
 *   --faults <spec>          enable fault injection (FaultConfig::parse
 *                            syntax; a bad spec exits 2)
 *   --jobs <n>               run independent simulations n-wide
 *   --quiet                  suppress progress output
 *   --journal <path>         append per-job outcomes to a JSONL journal
 *   --resume                 replay journaled outcomes (with --journal)
 *   --timeout-s <secs>       per-attempt wall-clock deadline
 *   --retries <n>            retry TimedOut/Stalled jobs up to n times
 *   --dataset <file.mtx>     register a MatrixMarket file as an
 *                            "SpMV:<stem>" workload (repeatable;
 *                            registered names land in
 *                            BenchArgs::datasetWorkloads)
 * --faults, --trace, --trace-channels and --profile reach the machines
 * only through benchConfig(). `extra` adds binary-specific flags to the
 * same parse (and to --help). Exits on unknown options.
 */
inline BenchArgs
parseBenchArgs(int argc, char **argv,
               const std::vector<BenchFlag> &extra = {})
{
    BenchArgs args;
    auto next = [&](int &i, const char *flag) -> std::string {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "%s requires an argument\n", flag);
            std::exit(2);
        }
        return argv[++i];
    };
    for (int i = 1; i < argc; i++) {
        std::string s = argv[i];
        const BenchFlag *ex = nullptr;
        for (const BenchFlag &f : extra)
            if (f.name == s)
                ex = &f;
        if (ex) {
            ex->apply(ex->takesValue ? next(i, ex->name.c_str()) : "");
        } else if (s == "--json") {
            args.jsonPath = next(i, "--json");
        } else if (s == "--trace") {
            args.tracePath = next(i, "--trace");
        } else if (s == "--profile") {
            args.profilePath = next(i, "--profile");
        } else if (s == "--trace-channels") {
            args.traceChannels = next(i, "--trace-channels");
        } else if (s == "--faults") {
            args.faultSpec = next(i, "--faults");
            std::string err;
            if (!FaultConfig::tryParse(args.faultSpec, args.faults, &err)) {
                std::fprintf(stderr, "--faults: %s\n", err.c_str());
                std::exit(2);
            }
        } else if (s == "--jobs") {
            std::string v = next(i, "--jobs");
            uint64_t n = 0;
            if (!parseU64(v, n) || n == 0 || n > 1024) {
                std::fprintf(stderr,
                             "--jobs expects an integer in [1,1024], "
                             "got '%s'\n", v.c_str());
                std::exit(2);
            }
            args.jobs = static_cast<unsigned>(n);
        } else if (s == "--journal") {
            args.journalPath = next(i, "--journal");
        } else if (s == "--resume") {
            args.resume = true;
        } else if (s == "--timeout-s") {
            std::string v = next(i, "--timeout-s");
            double secs = 0;
            if (!parseF64(v, secs) || !(secs > 0.0)) {
                std::fprintf(stderr,
                             "--timeout-s expects a positive number, "
                             "got '%s'\n", v.c_str());
                std::exit(2);
            }
            args.timeoutSeconds = secs;
        } else if (s == "--dataset") {
            std::string path = next(i, "--dataset");
            std::string name;
            std::vector<std::string> errs;
            if (!registerExternalDataset(path, &name, &errs)) {
                std::fprintf(stderr,
                             "--dataset: cannot load '%s':\n",
                             path.c_str());
                for (const auto &e : errs)
                    std::fprintf(stderr, "  %s\n", e.c_str());
                std::exit(2);
            }
            args.datasetWorkloads.push_back(name);
        } else if (s == "--retries") {
            std::string v = next(i, "--retries");
            uint64_t n = 0;
            if (!parseU64(v, n) || n > 100) {
                std::fprintf(stderr,
                             "--retries expects an integer in [0,100], "
                             "got '%s'\n", v.c_str());
                std::exit(2);
            }
            args.retries = static_cast<unsigned>(n);
        } else if (s == "--quiet") {
            args.quiet = true;
            quietFlag() = true;
        } else if (s == "--help" || s == "-h") {
            std::string extras;
            for (const BenchFlag &f : extra) {
                extras += " [" + f.name;
                if (f.takesValue)
                    extras += " <v>";
                extras += "]";
            }
            std::printf(
                "usage: %s [--json <path>] [--trace <path>] "
                "[--trace-channels <spec>] [--profile <path>] "
                "[--faults <spec>] "
                "[--jobs <n>] [--quiet] [--journal <path>] "
                "[--resume] [--timeout-s <secs>] [--retries <n>] "
                "[--dataset <file.mtx>]...%s\n",
                argv[0], extras.c_str());
            std::exit(0);
        } else {
            std::fprintf(stderr, "unknown option '%s' (try --help)\n",
                         s.c_str());
            std::exit(2);
        }
    }
    if (args.resume && args.journalPath.empty()) {
        std::fprintf(stderr, "--resume requires --journal <path>\n");
        std::exit(2);
    }
    return args;
}

/**
 * The machine a bench job runs on: the Table 2 row make(kind) plus the
 * command line's --faults schedule, --trace channels ("all" unless
 * --trace-channels lists some; none without --trace) and --profile.
 * The one way configuration reaches a bench binary's machines.
 */
inline MachineConfig
benchConfig(MachineKind kind, const BenchArgs &args)
{
    MachineConfig cfg = MachineConfig::make(kind);
    cfg.faults = args.faults;
    if (!args.tracePath.empty())
        cfg.traceSpec =
            args.traceChannels.empty() ? "all" : args.traceChannels;
    cfg.profileEnabled = !args.profilePath.empty();
    return cfg;
}

// ----------------------------------------------------------------------
// Result cache
// ----------------------------------------------------------------------

/** Finished runs in submission order (what --trace/--profile fold). */
using RunList = std::vector<const WorkloadResult *>;

/**
 * Runs-and-caches workload results within one bench binary, each on
 * benchConfig(kind, args).
 *
 * With --jobs > 1, prefetch() fills the cache through the SweepRunner
 * thread pool; get() then serves hits. Results are identical to the
 * serial path — each job runs in an isolated simulation context.
 */
class ResultCache
{
  public:
    ResultCache(const BenchArgs &args, WorkloadOptions opts)
        : args_(args), opts_(opts)
    {
    }

    /**
     * Run every (workload, kind) pair not yet cached, --jobs-wide
     * in parallel, and cache the results in deterministic order.
     */
    void
    prefetch(const std::vector<std::string> &names,
             const std::vector<MachineKind> &kinds)
    {
        std::vector<SweepJob> jobs;
        for (const auto &name : names) {
            for (MachineKind kind : kinds) {
                if (cache_.count(key(name, kind)))
                    continue;
                SweepJob j;
                j.workload = name;
                j.cfg = benchConfig(kind, args_);
                j.opts = opts_;
                jobs.push_back(std::move(j));
            }
        }
        if (jobs.empty())
            return;
        SweepRunner runner(args_.jobs);
        auto outcomes = runner.run(jobs,
            [](const SweepJob &job, bool finished, size_t done,
               size_t total) {
                progressf("  [%s %s on %s (%zu/%zu)]\n",
                          finished ? "finished" : "running",
                          job.workload.c_str(), job.cfg.name().c_str(),
                          done, total);
            });
        for (auto &o : outcomes) {
            warnIncorrect(o.workload, o.kind, o.result);
            auto it = cache_.emplace(key(o.workload, o.kind),
                                     std::move(o.result)).first;
            runs_.push_back(&it->second);
        }
        driverProfile_.mergeFrom(runner.profiler());
    }

    const WorkloadResult &
    get(const std::string &name, MachineKind kind)
    {
        auto k = key(name, kind);
        auto it = cache_.find(k);
        if (it == cache_.end()) {
            progressf("  [running %s on %s...]\n", name.c_str(),
                      machineKindName(kind));
            it = cache_.emplace(
                k, runWorkload(name, benchConfig(kind, args_), opts_))
                     .first;
            runs_.push_back(&it->second);
            warnIncorrect(name, kind, it->second);
        }
        return it->second;
    }

    WorkloadOptions &options() { return opts_; }

    /** All results run so far, keyed "workload/machine". */
    const std::map<std::string, WorkloadResult> &results() const
    {
        return cache_;
    }

    /** The same results in the order they were run. */
    const RunList &runs() const { return runs_; }

    /** Host phases of the sweeps prefetch() ran (SweepRunner's own). */
    const Profiler &driverProfile() const { return driverProfile_; }

  private:
    static std::string
    key(const std::string &name, MachineKind kind)
    {
        return name + "/" + machineKindName(kind);
    }

    static void
    warnIncorrect(const std::string &name, MachineKind kind,
                  const WorkloadResult &res)
    {
        if (res.correct)
            return;
        // Not progress chatter: always printed, but still atomic.
        bool wasQuiet = quietFlag();
        quietFlag() = false;
        progressf("  WARNING: %s on %s failed functional validation\n",
                  name.c_str(), machineKindName(kind));
        quietFlag() = wasQuiet;
    }

    BenchArgs args_;
    WorkloadOptions opts_;
    std::map<std::string, WorkloadResult> cache_;
    RunList runs_;  ///< into cache_ (std::map nodes never move)
    Profiler driverProfile_;
};

/** Serialize a result map as {"results":{...}} and write it. */
inline void
writeBenchJson(const std::string &path,
               const std::map<std::string, WorkloadResult> &results)
{
    JsonWriter w;
    w.beginObject();
    w.key("results").beginObject();
    for (const auto &kv : results) {
        w.key(kv.first);
        resultJson(w, kv.second);
    }
    w.endObject();
    w.endObject();
    if (writeTextFile(path, w.str()))
        std::fprintf(stderr, "wrote JSON results to %s\n", path.c_str());
    else
        std::fprintf(stderr, "ERROR: could not write %s\n", path.c_str());
}

/**
 * The host profile a binary reports: every run's, folded in order,
 * plus the sweep driver's own phases (`driver`, when one ran them).
 */
inline void
foldProfiles(const BenchArgs &args, const RunList &runs,
             const Profiler *driver, Profiler &profile)
{
    const MachineConfig cfg = benchConfig(MachineKind::Base, args);
    profile.configure(cfg.profileEnabled, cfg.profileStride);
    for (const WorkloadResult *r : runs)
        if (r->profile)
            profile.mergeFrom(*r->profile);
    if (driver)
        profile.mergeFrom(*driver);
}

/**
 * Write the --json/--trace/--profile outputs (no-ops without them).
 * --trace and --profile export `runs`' traces and host profiles,
 * folded in submission order, so the files do not depend on --jobs;
 * --profile adds the `driver` profile of the sweep that ran them. A
 * binary without a ResultCache writes an empty --json results object.
 */
inline void
finishBench(const BenchArgs &args, const RunList &runs = {},
            const Profiler *driver = nullptr)
{
    if (!args.jsonPath.empty())
        writeBenchJson(args.jsonPath, {});
    if (!args.profilePath.empty()) {
        Profiler profile;
        foldProfiles(args, runs, driver, profile);
        if (profile.writeChromeTrace(args.profilePath))
            std::fprintf(stderr, "wrote host profile to %s\n",
                         args.profilePath.c_str());
        else
            std::fprintf(stderr, "ERROR: could not write profile to "
                         "%s\n", args.profilePath.c_str());
    }
    if (args.tracePath.empty())
        return;
    Tracer trace;
    trace.setCapacity(benchConfig(MachineKind::Base, args).traceCapacity);
    for (const WorkloadResult *r : runs)
        if (r->trace)
            trace.mergeFrom(*r->trace);
    if (trace.writeChromeJson(args.tracePath)) {
        std::fprintf(stderr, "wrote trace to %s (%zu events)\n",
                     args.tracePath.c_str(), trace.size());
    } else {
        std::fprintf(stderr, "ERROR: could not write trace to %s\n",
                     args.tracePath.c_str());
    }
}

/** finishBench() over a ResultCache's results. */
inline void
finishBench(const BenchArgs &args, const ResultCache &cache)
{
    if (!args.jsonPath.empty())
        writeBenchJson(args.jsonPath, cache.results());
    BenchArgs observeOnly = args;
    observeOnly.jsonPath.clear();
    finishBench(observeOnly, cache.runs(), &cache.driverProfile());
}

/** A sweep's results in submission order. */
inline RunList
sweepRuns(const std::vector<SweepOutcome> &outcomes)
{
    RunList runs;
    for (const SweepOutcome &o : outcomes)
        runs.push_back(&o.result);
    return runs;
}

// ----------------------------------------------------------------------
// Perf records (BENCH_*.json, schema isrf-perf-record-v1)
// ----------------------------------------------------------------------

/**
 * Commit being measured: GITHUB_SHA when CI exports it, else the local
 * `git rev-parse HEAD`, else "unknown". Best-effort metadata only —
 * perf records stay valid outside a checkout.
 */
inline std::string
gitSha()
{
    const char *env = std::getenv("GITHUB_SHA");
    std::string sha = env ? env : "";
    if (!sha.empty())
        return sha;
    std::FILE *p = ::popen("git rev-parse HEAD 2>/dev/null", "r");
    if (p) {
        char buf[128] = {0};
        if (std::fgets(buf, sizeof buf, p))
            sha = buf;
        ::pclose(p);
    }
    while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r'))
        sha.pop_back();
    return sha.empty() ? "unknown" : sha;
}

/**
 * Write one perf record (schema isrf-perf-record-v1) for a finished
 * sweep: host metadata, sweep totals (wall time, parallel speedup,
 * simulated cycles per host second), per-job wall times, and — when
 * profiling is on — the host-time profile: every job's, plus the
 * runner's own phases. This is the BENCH_*.json format tools/perf_diff
 * compares.
 */
inline void
writeBenchPerfJson(const std::string &path, const std::string &bench,
                   const BenchArgs &args, const SweepRunner &runner,
                   const std::vector<SweepOutcome> &outcomes)
{
    const SweepTiming &t = runner.timing();
    uint64_t simCycles = 0, freshCycles = 0;
    size_t failed = 0;
    for (const auto &o : outcomes) {
        simCycles += o.result.cycles;
        if (!o.fromJournal)
            freshCycles += o.result.cycles;
        if (o.status != RunStatus::Done)
            failed++;
    }
    JsonWriter w;
    w.beginObject();
    w.field("schema", std::string(kPerfRecordSchema));
    w.field("bench", bench);
    w.field("git_sha", gitSha());
    w.key("host").beginObject();
    w.field("cpus", static_cast<uint64_t>(
        std::thread::hardware_concurrency()));
    w.field("jobs", static_cast<uint64_t>(args.jobs));
    w.endObject();
    w.key("totals").beginObject();
    w.field("wall_seconds", t.wallSeconds);
    w.field("sum_job_seconds", t.sumJobSeconds);
    w.field("speedup", t.speedup());
    w.field("jobs", static_cast<uint64_t>(outcomes.size()));
    w.field("failed", static_cast<uint64_t>(failed));
    w.field("replayed", static_cast<uint64_t>(t.replayed));
    w.field("sim_cycles", simCycles);
    // Throughput over *executed* work only: replayed jobs contribute
    // neither cycles nor seconds, so a resumed sweep's rate is
    // comparable to a fresh one's.
    w.field("sim_cycles_per_second",
            t.sumJobSeconds > 0.0
                ? static_cast<double>(freshCycles) / t.sumJobSeconds
                : 0.0);
    w.endObject();
    w.key("jobs").beginArray();
    for (const auto &o : outcomes) {
        w.beginObject();
        w.field("workload", o.workload);
        w.field("machine", std::string(machineKindName(o.kind)));
        w.field("status", std::string(runStatusName(o.status)));
        w.field("wall_seconds", o.wallSeconds);
        w.field("sim_cycles", o.result.cycles);
        w.field("sim_cycles_per_second",
                o.wallSeconds > 0.0
                    ? static_cast<double>(o.result.cycles) /
                          o.wallSeconds
                    : 0.0);
        w.field("replayed", o.fromJournal);
        w.endObject();
    }
    w.endArray();
    Profiler profile;
    foldProfiles(args, sweepRuns(outcomes), &runner.profiler(), profile);
    if (profile.enabled() && profile.hasData()) {
        w.key("profile");
        profile.reportJson(w);
    }
    w.endObject();
    if (writeTextFile(path, w.str()))
        std::fprintf(stderr, "wrote perf record to %s\n", path.c_str());
    else
        std::fprintf(stderr, "ERROR: could not write %s\n",
                     path.c_str());
}

inline void
heading(const char *title, const char *paperRef)
{
    std::printf("\n================================================="
                "=============================\n");
    std::printf("%s\n", title);
    std::printf("Reproduces: %s\n", paperRef);
    std::printf("==================================================="
                "===========================\n\n");
}

} // namespace bench
} // namespace isrf

#endif // ISRF_BENCH_BENCH_UTIL_H
