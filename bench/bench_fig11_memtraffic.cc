/**
 * @file
 * Figure 11: off-chip memory traffic of the ISRF and Cache
 * configurations, normalized to Base, for all eight benchmarks.
 *
 * Paper shape: FFT 2D halves its traffic (the through-memory rotation
 * disappears); Rijndael drops by ~95% (table lookups leave memory);
 * Sort and Filter are unchanged; the IG datasets drop to ~0.35-0.65
 * (replication removed, offset by pointer overhead), with the Cache
 * capturing even more IG locality (inter-strip overlap).
 */
#include "bench_util.h"

using namespace isrf;
using namespace isrf::bench;

int
main(int argc, char **argv)
{
    BenchArgs args = parseBenchArgs(argc, argv);
    heading("Off-chip memory traffic, normalized to Base",
            "Figure 11 (and the 'up to 95% bandwidth reduction' claim)");

    WorkloadOptions opts;
    opts.repeats = 2;
    const BenchRun run(args, benchJobs(args, benchmarkOrder(),
                                       {MachineKind::Base,
                                        MachineKind::ISRF4,
                                        MachineKind::Cache},
                                       opts));

    Table t({"Benchmark", "Base (words)", "ISRF", "Cache"});
    double maxReduction = 0;
    for (const auto &name : benchmarkOrder()) {
        uint64_t base = run.result(name, MachineKind::Base).dramWords;
        uint64_t isrf = run.result(name, MachineKind::ISRF4).dramWords;
        uint64_t cch = run.result(name, MachineKind::Cache).dramWords;
        double ri = static_cast<double>(isrf) / static_cast<double>(base);
        double rc = static_cast<double>(cch) / static_cast<double>(base);
        maxReduction = std::max(maxReduction, 1.0 - ri);
        t.addRow({name, std::to_string(base), fmtDouble(ri, 3),
                  fmtDouble(rc, 3)});
    }
    std::printf("%s\n", t.render().c_str());

    std::printf("ISRF normalized traffic (paper Figure 11 bars):\n");
    for (const auto &name : benchmarkOrder()) {
        uint64_t base = run.result(name, MachineKind::Base).dramWords;
        uint64_t isrf = run.result(name, MachineKind::ISRF4).dramWords;
        double r = static_cast<double>(isrf) / static_cast<double>(base);
        std::printf("  %-9s |%s| %.2f\n", name.c_str(),
                    asciiBar(r, 1.0, 40).c_str(), r);
    }
    std::printf("\nMaximum bandwidth reduction: %.0f%% "
                "(paper: up to 95%%, on Rijndael)\n",
                100.0 * maxReduction);
    finishBench(args, run);
    return 0;
}
