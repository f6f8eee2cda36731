/**
 * @file
 * perfbench: runs one benchmark workload through the public workload
 * API and prints one JSON object of raw measurements as its last
 * stdout line. perfbench/run.py builds this program, runs it, and turns
 * the raw samples into the metrics listed in BENCHMARK.json.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             --scratch <dir>
 *
 * Load shape: one process, one worker thread, jobs back to back (a
 * closed loop with one client). A "pass" runs every job of the
 * workload once; untraced runs repeat passes while the next one is
 * expected to end within --seconds (at least two, so the result digest
 * can be compared between repeats). A traced run makes one untraced
 * pass, one traced pass with per-job spans and set-up replays, and then
 * the layer probes.
 */
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "driver/sweep_runner.h"
#include "probes.h"
#include "spans.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/random.h"
#include "workloads/fft.h"
#include "workloads/filter.h"
#include "workloads/igraph.h"
#include "workloads/rijndael.h"
#include "workloads/sparse.h"

using namespace isrf;
using namespace perfbench;

namespace {

const std::vector<MachineKind> kAllKinds = {
    MachineKind::Base, MachineKind::ISRF1, MachineKind::ISRF4,
    MachineKind::Cache};

/** Machine set-up samples per kind in every run. */
constexpr int kSetupSamples = 11;

struct WorkloadSpec
{
    std::string name;
    std::vector<std::string> programs;  ///< workloadRegistry() names
    std::vector<MachineKind> kinds;
    uint32_t repeats = 2;
};

/** Why each workload exists: see perfbench/README.md. */
const std::vector<WorkloadSpec> &
workloadSpecs()
{
    static const std::vector<WorkloadSpec> specs = {
        {"ig_dense", {"IG_DMS", "IG_DCS"}, kAllKinds, 1},
        {"paper_regular",
         {"FFT 2D", "Rijndael", "Sort", "Filter", "IG_SML", "IG_SCL"},
         kAllKinds, 2},
        {"sparse_indexed",
         {"SpMV Banded", "SpMV Random", "SpMV Power", "Stencil 2D5",
          "Stencil 2D9", "Stencil 3D27", "Histogram"},
         kAllKinds, 2},
        // Harness self-test only (perfbench/tests): one short job.
        {"tiny", {"Rijndael"}, {MachineKind::ISRF4}, 1},
    };
    return specs;
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

std::string
jobId(const SweepJob &job)
{
    return job.workload + "/" + job.cfg.name();
}

struct PassResult
{
    double wallS = 0.0;
    std::vector<double> jobS;
    uint64_t simCycles = 0;
    uint64_t digest = 0;
    std::vector<std::string> failures;
    std::vector<SweepOutcome> outcomes;
};

/**
 * Fold a pass's outcomes: failures (not Done, or not correct) and the
 * FNV-1a digest over the jobs' canonical resultJson, sorted by job id.
 */
void
harvest(PassResult &pass)
{
    std::map<std::string, std::string> byId;
    for (const auto &o : pass.outcomes) {
        const std::string id = o.workload + "/" + machineKindName(o.kind);
        pass.jobS.push_back(o.wallSeconds);
        pass.simCycles += o.result.cycles;
        if (o.status != RunStatus::Done || !o.result.correct)
            pass.failures.push_back(
                id + ": status " + runStatusName(o.status) +
                (o.result.correct ? "" : ", output incorrect") +
                (o.result.error.empty() ? "" : ", " + o.result.error));
        byId[id] = o.resultText.empty() ? resultJson(o.result)
                                        : o.resultText;
    }
    uint64_t h = kFnvBasis;
    for (const auto &kv : byId)
        h = fnv1a(kv.first + "\n" + kv.second + "\n", h);
    pass.digest = h;
}

PassResult
untracedPass(const std::vector<SweepJob> &jobs)
{
    PassResult pass;
    auto t0 = std::chrono::steady_clock::now();
    pass.outcomes = SweepRunner(1).run(jobs);
    pass.wallS = secondsSince(t0);
    harvest(pass);
    return pass;
}

/**
 * Replay the set-up a job performs before its first cycle (machine
 * init, input generation, functional reference), as child spans of the
 * job span, so the job's unattributed remainder is simulation.
 */
void
replayJobSetup(SpanRecorder &rec, const SweepJob &job, int parent)
{
    const std::string id = jobId(job);
    const uint64_t seed = job.opts.seed;
    rec.measure("core.machine_init", "", 1.0, [&] {
        auto m = std::make_unique<Machine>();
        m->init(job.cfg);
        return 1.0;
    }, id, parent);

    const std::string &w = job.workload;
    if (w.rfind("IG_", 0) == 0) {
        IgGraph graph;
        rec.measure("workloads.generate.ig", "", 1.0, [&] {
            graph = igGenerate(igDataset(w), seed);
            return 1.0;
        }, id, parent);
        Rng rng(seed ^ 0x77);
        std::vector<float> vals(graph.nodes);
        for (auto &v : vals)
            v = rng.uniformf(0.1f, 1.0f);
        rec.measure("workloads.reference.ig", "", 1.0, [&] {
            igReferenceUpdate(graph, vals);
            return 1.0;
        }, id, parent);
    } else if (w.rfind("SpMV ", 0) == 0) {
        CsrMatrix csr;
        rec.measure("workloads.generate.spmv", "", 1.0, [&] {
            csr = spmvDatasetMatrix(w, seed);
            return 1.0;
        }, id, parent);
        Rng rng(seed ^ 0x5bull);
        std::vector<float> x(csr.cols);
        for (auto &v : x)
            v = rng.uniformf(0.1f, 1.0f);
        rec.measure("workloads.reference.spmv", "", 1.0, [&] {
            spmvReference(csr, x);
            return 1.0;
        }, id, parent);
    } else if (w == "Filter") {
        const uint32_t n = FilterParams{}.size;
        Rng rng(seed);
        std::vector<float> img(static_cast<size_t>(n) * n);
        for (auto &p : img)
            p = rng.uniformf(0.0f, 1.0f);
        rec.measure("workloads.reference.filter", "", 1.0, [&] {
            conv5x5Reference(img, n);
            return 1.0;
        }, id, parent);
    } else if (w == "FFT 2D") {
        const uint32_t n = FftParams{}.n;
        Rng rng(seed);
        std::vector<Cplx> a(static_cast<size_t>(n) * n);
        for (auto &c : a)
            c = Cplx(rng.uniformf(-1, 1), rng.uniformf(-1, 1));
        rec.measure("workloads.reference.fft", "", 1.0, [&] {
            fft2dReference(a, n);
            return 1.0;
        }, id, parent);
    } else if (w == "Rijndael") {
        Rng rng(seed);
        std::array<uint8_t, 16> key{}, iv{};
        for (auto &k : key)
            k = static_cast<uint8_t>(rng.below(256));
        std::vector<std::array<uint8_t, 16>> blocks(
            RijndaelParams{}.blocksPerLane);
        for (auto &blk : blocks)
            for (auto &byte : blk)
                byte = static_cast<uint8_t>(rng.below(256));
        rec.measure("workloads.reference.rijndael", "", 1.0, [&] {
            for (uint32_t l = 0; l < job.cfg.srf.lanes; l++)
                aesCbcEncrypt128(key, iv, blocks);
            return 1.0;
        }, id, parent);
    }
}

/** One pass with a span per job plus its set-up replays. */
PassResult
tracedPass(const std::vector<SweepJob> &jobs, SpanRecorder &rec)
{
    PassResult pass;
    for (const SweepJob &job : jobs) {
        int span = rec.begin("driver.job", jobId(job));
        auto one = SweepRunner(1).run({job});
        double s = rec.end(span, "driver.job_s").seconds();
        pass.wallS += s;
        pass.outcomes.insert(pass.outcomes.end(), one.begin(), one.end());
        replayJobSetup(rec, job, span);
    }
    harvest(pass);
    return pass;
}

/** Summed WorkloadResult model counts of one pass (exact, simulated). */
std::map<std::string, double>
modelCounts(const PassResult &pass)
{
    std::map<std::string, double> c;
    for (const auto &o : pass.outcomes) {
        const WorkloadResult &r = o.result;
        c["srf.seq_words"] += r.srfSeqWords;
        c["srf.idx_words"] += r.srfIdxWords;
        c["mem.dram_words"] += r.dramWords;
        c["mem.cache_words"] += r.cacheWords;
        c["core.breakdown.loop_body"] += r.breakdown.loopBody;
        c["core.breakdown.mem_stall"] += r.breakdown.memStall;
        c["core.breakdown.srf_stall"] += r.breakdown.srfStall;
        c["core.breakdown.overhead"] += r.breakdown.overhead;
    }
    return c;
}

uint64_t
peakRssKiB()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<uint64_t>(ru.ru_maxrss);
}

std::string
hex64(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> --scratch "
                 "<dir>\n",
                 msg);
    std::exit(2);
}

uint64_t
parseU64(const std::string &flag, const std::string &v)
{
    char *end = nullptr;
    uint64_t x = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || *end != '\0')
        usage((flag + " expects a whole number, got '" + v + "'").c_str());
    return x;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, scratch;
    uint64_t seed = WorkloadOptions{}.seed;
    double seconds = 10.0;
    bool trace = false;
    for (int i = 1; i < argc; i++) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage((flag + " needs a value").c_str());
        std::string v = argv[++i];
        if (flag == "--workload")
            workload = v;
        else if (flag == "--seed")
            seed = parseU64(flag, v);
        else if (flag == "--seconds")
            seconds = static_cast<double>(parseU64(flag, v));
        else if (flag == "--trace")
            trace = parseU64(flag, v) != 0;
        else if (flag == "--scratch")
            scratch = v;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (scratch.empty())
        usage("--scratch is required");
    const WorkloadSpec *spec = nullptr;
    for (const auto &s : workloadSpecs())
        if (s.name == workload)
            spec = &s;
    if (!spec)
        usage(("unknown workload '" + workload + "'").c_str());
    std::filesystem::create_directories(scratch);

    WorkloadOptions opts;
    opts.seed = seed;
    opts.repeats = spec->repeats;
    std::vector<SweepJob> jobs;
    std::map<std::string, uint64_t> jobsPerKind;
    for (const auto &program : spec->programs) {
        for (MachineKind kind : spec->kinds) {
            SweepJob job;
            job.workload = program;
            job.cfg = MachineConfig::make(kind);
            job.opts = opts;
            jobs.push_back(std::move(job));
            jobsPerKind[machineKindName(kind)]++;
        }
    }

    SpanRecorder rec;
    std::vector<PassResult> passes;
    std::map<std::string, double> counts;
    auto t0 = std::chrono::steady_clock::now();
    if (trace) {
        passes.push_back(untracedPass(jobs));
        passes.push_back(tracedPass(jobs, rec));
    } else {
        // At least two passes; then only passes expected to end within
        // --seconds, judged by the previous pass.
        while (passes.size() < 2 ||
               secondsSince(t0) + passes.back().wallS <= seconds)
            passes.push_back(untracedPass(jobs));
    }
    const double measuredS = secondsSince(t0);
    const uint64_t rssKiB = peakRssKiB();

    // Set-up: construct + init a fresh machine per kind, interleaved.
    std::map<std::string, std::vector<double>> setup;
    for (int rep = 0; rep < kSetupSamples; rep++) {
        for (MachineKind kind : spec->kinds) {
            auto s0 = std::chrono::steady_clock::now();
            auto m = std::make_unique<Machine>();
            m->init(MachineConfig::make(kind));
            setup[machineKindName(kind)].push_back(secondsSince(s0));
        }
    }

    if (trace) {
        counts = modelCounts(passes.front());
        std::map<std::string, double> probeCounts;
        runLayerProbes(rec, seed, scratch, probeCounts);
        counts.insert(probeCounts.begin(), probeCounts.end());
    }

    JsonWriter w;
    w.beginObject();
    w.key("workload").value(spec->name);
    w.key("seed").value(seed);
    w.key("trace").value(trace);
    w.key("measured_s").value(measuredS);
    w.key("build_type").value(PERFBENCH_BUILD_TYPE);
    w.key("compiler").value(std::string(__VERSION__));
    w.key("jobs").beginArray();
    for (const auto &job : jobs)
        w.value(jobId(job));
    w.endArray();
    w.key("jobs_per_kind").beginObject();
    for (const auto &kv : jobsPerKind)
        w.key(kv.first).value(kv.second);
    w.endObject();
    w.key("passes").beginArray();
    for (const auto &p : passes) {
        w.beginObject();
        w.key("wall_s").value(p.wallS);
        w.key("job_s").beginArray();
        for (double s : p.jobS)
            w.value(s);
        w.endArray();
        w.key("sim_cycles").value(p.simCycles);
        w.key("digest").value(hex64(p.digest));
        w.key("failures").beginArray();
        for (const auto &f : p.failures)
            w.value(f);
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.key("setup_s").beginObject();
    for (const auto &kv : setup) {
        w.key(kv.first).beginArray();
        for (double s : kv.second)
            w.value(s);
        w.endArray();
    }
    w.endObject();
    w.key("peak_rss_kib").value(rssKiB);
    w.key("counts").beginObject();
    for (const auto &kv : counts)
        w.key(kv.first).value(kv.second);
    w.endObject();
    w.key("spans");
    rec.write(w);
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
}
