/**
 * @file
 * Shared helpers for the benchmark harnesses: the standard benchmark
 * and machine lists, the shared flag parser, printing conventions, and
 * the one job path every simulating binary takes. Such a binary builds
 * a std::vector<SweepJob> (benchJobs() for a workload x machine
 * matrix, or one job per ablated config, each on benchConfig()), runs
 * it as a BenchRun -- one SweepRunner, --jobs wide, outcomes in
 * submission order -- renders its tables from the outcomes, and hands
 * the BenchRun to finishBench(), which writes --json, --trace and
 * --profile. Binaries that simulate no workload (tables, and the
 * micro-throughput drivers that tick standalone components) call
 * finishBench(args) alone.
 */
#ifndef ISRF_BENCH_BENCH_UTIL_H
#define ISRF_BENCH_BENCH_UTIL_H

#include <algorithm>
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
#include "util/log.h"
#include "util/parse.h"
#include "util/table.h"
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
    /**
     * Its --help entry; "" means "[<name>]" or "[<name> <v>]".
     * Defaulted so that brace lists may leave it out.
     */
    std::string usage = "";
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
 * --faults, --trace, --trace-channels and --profile reach the machines
 * only through benchConfig(). `extra` adds binary-specific flags to the
 * same parse (and to --help, in list order). Exits 2 on unknown
 * options.
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
        } else if (s == "--quiet") {
            quietFlag() = true;
        } else if (s == "--help" || s == "-h") {
            std::string extras;
            for (const BenchFlag &f : extra) {
                if (!f.usage.empty()) {
                    extras += " " + f.usage;
                    continue;
                }
                extras += " [" + f.name;
                if (f.takesValue)
                    extras += " <v>";
                extras += "]";
            }
            std::printf(
                "usage: %s [--json <path>] [--trace <path>] "
                "[--trace-channels <spec>] [--profile <path>] "
                "[--faults <spec>] "
                "[--jobs <n>] [--quiet]%s\n",
                argv[0], extras.c_str());
            std::exit(0);
        } else {
            std::fprintf(stderr, "unknown option '%s' (try --help)\n",
                         s.c_str());
            std::exit(2);
        }
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
// The job path
// ----------------------------------------------------------------------

/**
 * The workloads x kinds matrix in figure order (workload-major), each
 * job on benchConfig(kind, args).
 */
inline std::vector<SweepJob>
benchJobs(const BenchArgs &args, const std::vector<std::string> &names,
          const std::vector<MachineKind> &kinds,
          const WorkloadOptions &opts)
{
    std::vector<SweepJob> jobs = SweepRunner::matrix(names, kinds, opts);
    for (SweepJob &j : jobs)
        j.cfg = benchConfig(j.cfg.kind, args);
    return jobs;
}

/** The default progress lines: one as each job starts and finishes. */
inline void
printJobProgress(const SweepJob &job, bool finished, size_t done,
                 size_t total)
{
    progressf("  [%s %s on %s (%zu/%zu)]\n",
              finished ? "finished" : "running", job.workload.c_str(),
              job.cfg.name().c_str(), done, total);
}

/**
 * A bench binary's job list, run once on one SweepRunner, --jobs wide.
 * Outcomes come back in submission order whatever --jobs says; a job
 * that ran to completion but failed functional validation gets a
 * WARNING line on stderr even under --quiet.
 */
class BenchRun
{
  public:
    /** No jobs: what a binary that simulates no workload exports. */
    BenchRun() = default;

    BenchRun(const BenchArgs &args, const std::vector<SweepJob> &jobs,
             const SweepPolicy &policy = {},
             SweepRunner::ProgressFn progress = printJobProgress)
        : runner_(args.jobs),
          outcomes_(runner_.run(jobs, policy, std::move(progress)))
    {
        for (const SweepOutcome &o : outcomes_)
            warnIncorrect(o);
    }

    const std::vector<SweepOutcome> &outcomes() const
    {
        return outcomes_;
    }

    /** The first job's result for (workload, kind); fatal if none. */
    const WorkloadResult &
    result(const std::string &workload, MachineKind kind) const
    {
        for (const SweepOutcome &o : outcomes_)
            if (o.workload == workload && o.kind == kind)
                return o.result;
        fatal("no bench job ran %s on %s", workload.c_str(),
              machineKindName(kind));
    }

    /** Timing of the sweep that ran the jobs. */
    const SweepRunner &runner() const { return runner_; }

  private:
    static void
    warnIncorrect(const SweepOutcome &o)
    {
        if (o.status != RunStatus::Done || o.result.correct)
            return;
        // Not progress chatter: always printed, but still atomic.
        bool wasQuiet = quietFlag();
        quietFlag() = false;
        progressf("  WARNING: %s on %s failed functional validation\n",
                  o.workload.c_str(), machineKindName(o.kind));
        quietFlag() = wasQuiet;
    }

    SweepRunner runner_;
    std::vector<SweepOutcome> outcomes_;
};

/**
 * Write outcomes as {"results":{...}} keyed "workload/machine" (the
 * first job per key). Each result is its outcome's resultText, so a
 * job replayed from a journal writes the journaled bytes.
 */
inline void
writeBenchJson(const std::string &path,
               const std::vector<SweepOutcome> &outcomes)
{
    std::map<std::string, const SweepOutcome *> keyed;
    for (const SweepOutcome &o : outcomes)
        keyed.emplace(o.workload + "/" + machineKindName(o.kind), &o);
    JsonWriter w;
    w.beginObject();
    w.key("results").beginObject();
    for (const auto &[key, o] : keyed)
        w.key(key).raw(o->resultText.empty() ? resultJson(o->result)
                                             : o->resultText);
    w.endObject();
    w.endObject();
    if (writeTextFile(path, w.str()))
        std::fprintf(stderr, "wrote JSON results to %s\n", path.c_str());
    else
        std::fprintf(stderr, "ERROR: could not write %s\n", path.c_str());
}

/** The host profile a binary reports: the sum of every run's. */
inline Profiler
foldProfiles(const BenchRun &run)
{
    Profiler profile;
    for (const SweepOutcome &o : run.outcomes())
        profile.mergeFrom(o.result.profile);
    return profile;
}

/** What a binary's --json lists. */
enum class JsonResults
{
    Keyed, ///< every outcome, keyed "workload/machine"
    None,  ///< {"results":{}}: the jobs share keys (an option sweep)
};

/**
 * Write the --json/--trace/--profile outputs (no-ops without them).
 * --trace and --profile export the runs' traces and host profiles,
 * folded in submission order, so the files do not depend on --jobs.
 */
inline void
finishBench(const BenchArgs &args, const BenchRun &run = {},
            JsonResults json = JsonResults::Keyed)
{
    const std::vector<SweepOutcome> none;
    if (!args.jsonPath.empty())
        writeBenchJson(args.jsonPath,
                       json == JsonResults::Keyed ? run.outcomes() : none);
    if (!args.profilePath.empty()) {
        if (writeTextFile(args.profilePath,
                          foldProfiles(run).chromeTraceJson()))
            std::fprintf(stderr, "wrote host profile to %s\n",
                         args.profilePath.c_str());
        else
            std::fprintf(stderr, "ERROR: could not write profile to "
                         "%s\n", args.profilePath.c_str());
    }
    if (args.tracePath.empty())
        return;
    // One ring holding every event each run kept; the file's
    // "dropped" is then the sum of the runs' own drops.
    size_t events = 0;
    for (const SweepOutcome &o : run.outcomes())
        if (o.result.trace)
            events += o.result.trace->size();
    Tracer trace;
    trace.setCapacity(std::max<size_t>(events, 1));
    for (const SweepOutcome &o : run.outcomes())
        if (o.result.trace)
            trace.mergeFrom(*o.result.trace);
    if (trace.writeChromeJson(args.tracePath)) {
        std::fprintf(stderr, "wrote trace to %s (%zu events)\n",
                     args.tracePath.c_str(), trace.size());
    } else {
        std::fprintf(stderr, "ERROR: could not write trace to %s\n",
                     args.tracePath.c_str());
    }
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
 * profiling is on — the host-time profile summed over every job.
 * This is the BENCH_*.json format tools/perf_diff compares.
 */
inline void
writeBenchPerfJson(const std::string &path, const std::string &bench,
                   const BenchArgs &args, const BenchRun &run)
{
    const SweepTiming &t = run.runner().timing();
    const std::vector<SweepOutcome> &outcomes = run.outcomes();
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
    if (!args.profilePath.empty()) {
        w.key("profile");
        foldProfiles(run).reportJson(w);
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
