/**
 * @file
 * Extension (§7 future work): sparse interconnects for the cross-lane
 * address and data networks.
 *
 * The paper's implementation uses two fully connected crossbars and
 * lists "the impact of sparse interconnects" as future work. This
 * ablation swaps both networks for bidirectional rings and measures
 * (a) cross-lane random-read throughput (the Figure 18 driver),
 * (b) the cross-lane benchmark IG_SML end to end, and
 * (c) the area saved by the sparse networks (CACTI-lite).
 */
#include "area/cacti_lite.h"
#include "bench_util.h"
#include "workloads/micro.h"

using namespace isrf;
using namespace isrf::bench;

int
main(int argc, char **argv)
{
    BenchArgs args = parseBenchArgs(argc, argv);
    heading("Sparse-interconnect ablation: crossbar vs ring for the "
            "cross-lane networks", "Section 7 future work");

    // (a) Microbenchmark throughput.
    Table micro({"Ports/bank", "Crossbar (w/c/lane)", "Ring (w/c/lane)",
                 "Ring/Crossbar"});
    for (uint32_t ports : {1u, 2u}) {
        CrossLaneMicroParams xp;
        xp.netPortsPerBank = ports;
        CrossLaneMicroParams rp = xp;
        rp.topology = NetTopology::Ring;
        double x = crossLaneRandomThroughput(xp);
        double r = crossLaneRandomThroughput(rp);
        micro.addRow({std::to_string(ports), fmtDouble(x, 3),
                      fmtDouble(r, 3), fmtDouble(r / x, 2)});
    }
    std::printf("Random cross-lane reads (Figure 18 driver):\n%s\n",
                micro.render().c_str());

    // (b) End-to-end on the cross-lane benchmark.
    WorkloadOptions opts;
    opts.repeats = 1;
    std::vector<SweepJob> jobs;
    for (NetTopology topology : {NetTopology::Crossbar, NetTopology::Ring}) {
        SweepJob job{.workload = "IG_SML",
                     .cfg = benchConfig(MachineKind::ISRF4, args),
                     .opts = opts};
        job.cfg.srf.netTopology = topology;
        jobs.push_back(job);
    }
    const BenchRun run(args, jobs);
    const WorkloadResult &a = run.outcomes()[0].result;
    const WorkloadResult &b = run.outcomes()[1].result;
    Table e2e({"Network", "IG_SML cycles", "Slowdown", "Correct"});
    e2e.addRow({"Crossbar", std::to_string(a.cycles), "1.00",
                a.correct ? "yes" : "NO"});
    e2e.addRow({"Ring", std::to_string(b.cycles),
                fmtDouble(static_cast<double>(b.cycles) /
                          static_cast<double>(a.cycles), 2),
                b.correct ? "yes" : "NO"});
    std::printf("%s\n", e2e.render().c_str());

    // (c) Area comparison.
    SrfAreaModel model;
    double full = model.overheadOver(model.crossLane());
    double sparse = model.overheadOver(model.crossLaneSparse());
    std::printf("SRF area overhead over sequential: crossbar networks "
                "%+.1f%%, ring networks %+.1f%%\n", 100.0 * full,
                100.0 * sparse);
    std::printf("The ring trades %.1f%% SRF area for a %.0f%% IG_SML "
                "slowdown.\n",
                100.0 * (full - sparse),
                100.0 * (static_cast<double>(b.cycles) /
                             static_cast<double>(a.cycles) - 1.0));
    finishBench(args, run, JsonResults::None);
    return 0;
}
