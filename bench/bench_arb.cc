/**
 * @file
 * Microbenchmark of the SRF port-arbitration hot path (host side:
 * this measures the *simulator*, not the modeled hardware). Four fixed-work scenarios cover the regimes the
 * event-driven overhaul cares about:
 *
 *   arb/idle-heavy      zero-claim cycles dominate (quiescent machine)
 *   arb/conflict-heavy  every claimant claims every cycle
 *   srf/quiescent       full Srf::endCycle() with nothing pending
 *                       (a zero claims mask, no slot scan)
 *   srf/seq-stream      Srf::endCycle() with a live sequential stream
 *                       (mask maintenance + global arbitration)
 *
 * --bench-json writes an isrf-perf-record-v1 record so tools/perf_diff
 * gates arbitration regressions specifically, not just whole-sweep
 * wall time (CI perf job; committed baseline in bench/baselines/).
 */
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "srf/arbiter.h"
#include "srf/srf.h"
#include "util/random.h"

namespace isrf {
namespace bench {
namespace {

struct Scenario
{
    const char *workload;  ///< perf-record "workload" field
    const char *name;      ///< perf-record "machine" field
    uint64_t ops;          ///< iterations executed
    double seconds;        ///< measured wall time
};

double
now()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

/**
 * Arbitrate over a pre-generated claim-mask trace so the measured loop
 * is arbitration only, not mask synthesis. Returns the grant checksum
 * to keep the loop observable.
 */
uint64_t
runArbiter(const std::vector<uint64_t> &trace, uint64_t iters,
           uint32_t claimants, Scenario &sc)
{
    RoundRobinArbiter arb(claimants);
    uint64_t sum = 0;
    double t0 = now();
    for (uint64_t i = 0; i < iters; i++) {
        sum += static_cast<uint64_t>(
            arb.arbitrate(trace[i & (trace.size() - 1)]) + 1);
    }
    sc.seconds = now() - t0;
    sc.ops = iters;
    return sum;
}

Scenario
benchIdleHeavy(uint64_t iters)
{
    Scenario sc{"arb", "idle-heavy", 0, 0.0};
    // One claim every 64 cycles; everything else is the zero-mask
    // early-out the quiescent machine hits.
    std::vector<uint64_t> trace(1024, 0);
    Rng rng(7);
    for (size_t i = 0; i < trace.size(); i += 64)
        trace[i] = uint64_t{1} << rng.below(33);
    uint64_t sum = runArbiter(trace, iters, 33, sc);
    progressf("  idle-heavy checksum %llu\n",
              static_cast<unsigned long long>(sum));
    return sc;
}

Scenario
benchConflictHeavy(uint64_t iters)
{
    Scenario sc{"arb", "conflict-heavy", 0, 0.0};
    // All 33 claimants (32 slots + the indexed bundle) claim every
    // cycle: maximum rotation pressure.
    std::vector<uint64_t> trace(1024, (uint64_t{1} << 33) - 1);
    uint64_t sum = runArbiter(trace, iters, 33, sc);
    progressf("  conflict-heavy checksum %llu\n",
              static_cast<unsigned long long>(sum));
    return sc;
}

Scenario
benchSrfQuiescent(uint64_t iters)
{
    Scenario sc{"srf", "quiescent", iters, 0.0};
    SrfGeometry geom;
    Srf srf;
    srf.init(geom, SrfMode::Indexed4, nullptr);
    double t0 = now();
    for (uint64_t c = 0; c < iters; c++) {
        srf.beginCycle(c);
        srf.endCycle(c);
    }
    sc.seconds = now() - t0;
    progressf("  quiescent idle credit %llu\n",
              static_cast<unsigned long long>(
                  srf.stats().counter("port_idle_cycles").value()));
    return sc;
}

Scenario
benchSrfSeqStream(uint64_t iters)
{
    Scenario sc{"srf", "seq-stream", iters, 0.0};
    SrfGeometry geom;
    Srf srf;
    srf.init(geom, SrfMode::Indexed4, nullptr);
    SlotConfig cfg;
    cfg.dir = StreamDir::In;
    cfg.lengthWords = 16384;  // half the SRF
    SlotId id = srf.openSlot(cfg);
    std::vector<Word> data(16384, 5);
    srf.fillSlot(id, data);
    uint64_t popped = 0;
    double t0 = now();
    for (uint64_t c = 0; c < iters; c++) {
        srf.beginCycle(c);
        // Drain so the refill machinery keeps claiming the port;
        // rewind for another pass whenever the stream runs dry.
        for (uint32_t l = 0; l < geom.lanes; l++) {
            while (srf.seqCanRead(l, id)) {
                srf.seqRead(l, id);
                popped++;
            }
        }
        srf.endCycle(c);
        if (popped == cfg.lengthWords) {
            popped = 0;
            srf.rewindSlot(id);
        }
    }
    sc.seconds = now() - t0;
    progressf("  seq-stream grants %llu\n",
              static_cast<unsigned long long>(
                  srf.stats().counter("seq_grant_cycles").value()));
    return sc;
}

void
writeArbPerfJson(const std::string &path, const BenchArgs &args,
                 const std::vector<Scenario> &scenarios)
{
    double wall = 0.0;
    uint64_t ops = 0;
    for (const Scenario &sc : scenarios) {
        wall += sc.seconds;
        ops += sc.ops;
    }
    JsonWriter w;
    w.beginObject();
    w.field("schema", std::string(kPerfRecordSchema));
    w.field("bench", std::string("arb"));
    w.field("git_sha", gitSha());
    w.key("host").beginObject();
    w.field("cpus", static_cast<uint64_t>(
        std::thread::hardware_concurrency()));
    w.field("jobs", static_cast<uint64_t>(args.jobs));
    w.endObject();
    w.key("totals").beginObject();
    w.field("wall_seconds", wall);
    w.field("sum_job_seconds", wall);
    w.field("speedup", 1.0);
    w.field("jobs", static_cast<uint64_t>(scenarios.size()));
    w.field("failed", static_cast<uint64_t>(0));
    w.field("replayed", static_cast<uint64_t>(0));
    w.field("sim_cycles", ops);
    w.field("sim_cycles_per_second",
            wall > 0.0 ? static_cast<double>(ops) / wall : 0.0);
    w.endObject();
    w.key("jobs").beginArray();
    for (const Scenario &sc : scenarios) {
        w.beginObject();
        w.field("workload", std::string(sc.workload));
        w.field("machine", std::string(sc.name));
        w.field("status", std::string("done"));
        w.field("wall_seconds", sc.seconds);
        w.field("sim_cycles", sc.ops);
        w.field("sim_cycles_per_second",
                sc.seconds > 0.0
                    ? static_cast<double>(sc.ops) / sc.seconds
                    : 0.0);
        w.field("replayed", false);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    if (writeTextFile(path, w.str()))
        std::fprintf(stderr, "wrote perf record to %s\n", path.c_str());
    else
        std::fprintf(stderr, "ERROR: could not write %s\n",
                     path.c_str());
}

} // namespace
} // namespace bench
} // namespace isrf

int
main(int argc, char **argv)
{
    using namespace isrf;
    using namespace isrf::bench;

    std::string benchJsonPath;
    uint64_t scale = 1;
    BenchArgs args = parseBenchArgs(argc, argv, {
        {"--bench-json", true,
         [&](const std::string &v) { benchJsonPath = v; }},
        {"--scale", true,
         [&](const std::string &v) {
             if (!parseU64(v, scale) || scale == 0 || scale > 1000) {
                 std::fprintf(stderr, "--scale expects [1,1000]\n");
                 std::exit(2);
             }
         }},
    });
    heading("SRF port-arbitration microbenchmark",
            "host-side hot path (no paper figure); gates the "
            "event-driven arbitration overhaul");

    std::vector<Scenario> scenarios;
    scenarios.push_back(benchIdleHeavy(scale * 100000000));
    scenarios.push_back(benchConflictHeavy(scale * 100000000));
    scenarios.push_back(benchSrfQuiescent(scale * 20000000));
    scenarios.push_back(benchSrfSeqStream(scale * 1000000));

    Table t({"Scenario", "Ops", "Wall (s)", "Mops/s"});
    for (const Scenario &sc : scenarios) {
        t.addRow({std::string(sc.workload) + "/" + sc.name,
               strprintf("%llu",
                         static_cast<unsigned long long>(sc.ops)),
               strprintf("%.3f", sc.seconds),
               strprintf("%.1f", sc.seconds > 0.0
                                     ? static_cast<double>(sc.ops) /
                                           sc.seconds / 1e6
                                     : 0.0)});
    }
    std::fputs(t.render().c_str(), stdout);

    if (!benchJsonPath.empty())
        writeArbPerfJson(benchJsonPath, args, scenarios);
    finishBench(args);
    return 0;
}
