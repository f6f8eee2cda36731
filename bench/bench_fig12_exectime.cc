/**
 * @file
 * Figure 12: execution time of every benchmark on all four machine
 * configurations, normalized to Base and broken into kernel loop body,
 * memory stall, SRF stall, and kernel overheads. Also reports the
 * headline speedups (paper: 1.03x to 4.1x; FFT 2D 2.24x, Rijndael
 * 4.11x; ISRF1 loses 42%/18% of Rijndael/Filter time to SRF stalls).
 */
#include "bench_util.h"

using namespace isrf;
using namespace isrf::bench;

int
main(int argc, char **argv)
{
    BenchArgs args = parseBenchArgs(argc, argv);
    heading("Execution time breakdown, normalized to Base",
            "Figure 12 + headline speedups (1.03x-4.1x)");

    WorkloadOptions opts;
    opts.repeats = 2;
    const BenchRun run(args,
                       benchJobs(args, benchmarkOrder(), machineOrder(),
                                 opts));

    Table t({"Benchmark", "Config", "Total", "Loop", "MemStall",
             "SrfStall", "Overhead", "Speedup"});
    double minSpeed = 1e9, maxSpeed = 0;
    for (const auto &name : benchmarkOrder()) {
        const WorkloadResult &base = run.result(name, MachineKind::Base);
        auto baseTotal = static_cast<double>(base.breakdown.total());
        for (MachineKind kind : machineOrder()) {
            const WorkloadResult &r = run.result(name, kind);
            const TimeBreakdown &b = r.breakdown;
            double total = static_cast<double>(b.total()) / baseTotal;
            double speed = static_cast<double>(base.cycles) /
                static_cast<double>(r.cycles);
            if (kind == MachineKind::ISRF4) {
                minSpeed = std::min(minSpeed, speed);
                maxSpeed = std::max(maxSpeed, speed);
            }
            t.addRow({name, machineKindName(kind), fmtDouble(total, 3),
                      fmtDouble(b.loopBody / baseTotal, 3),
                      fmtDouble(b.memStall / baseTotal, 3),
                      fmtDouble(b.srfStall / baseTotal, 3),
                      fmtDouble(b.overhead / baseTotal, 3),
                      fmtDouble(speed, 2)});
        }
        t.addSeparator();
    }
    std::printf("%s\n", t.render().c_str());

    std::printf("ISRF4 execution time normalized to Base (Fig. 12 "
                "stacks):\n");
    for (const auto &name : benchmarkOrder()) {
        const WorkloadResult &base = run.result(name, MachineKind::Base);
        const WorkloadResult &r = run.result(name, MachineKind::ISRF4);
        double total = static_cast<double>(r.breakdown.total()) /
            static_cast<double>(base.breakdown.total());
        std::printf("  %-9s |%s| %.2f\n", name.c_str(),
                    asciiBar(total, 1.0, 40).c_str(), total);
    }

    std::printf("\nISRF4 speedup range over Base: %.2fx .. %.2fx "
                "(paper: 1.03x .. 4.1x)\n", minSpeed, maxSpeed);

    // The ISRF1 SRF-stall observation (§5.3).
    for (const char *name : {"Rijndael", "Filter"}) {
        const WorkloadResult &r1 = run.result(name, MachineKind::ISRF1);
        double frac = static_cast<double>(r1.breakdown.srfStall) /
            static_cast<double>(r1.breakdown.total());
        std::printf("%s on ISRF1 spends %.0f%% of execution in SRF "
                    "stalls (paper: %s)\n", name, 100.0 * frac,
                    std::string(name) == "Rijndael" ? "42%" : "18%");
    }
    finishBench(args, run);
    return 0;
}
