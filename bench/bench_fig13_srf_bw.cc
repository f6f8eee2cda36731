/**
 * @file
 * Figure 13: sustained SRF bandwidth demands (words/cycle/cluster) of
 * the benchmark kernels on ISRF4, split into sequential, in-lane
 * indexed, and cross-lane indexed components.
 *
 * Paper shape: Rijndael has the largest in-lane indexed demand (~1.2);
 * Filter is in-lane heavy; the IG kernels are the only cross-lane
 * users (~0.3-0.5); everything stays well under the peak bandwidths,
 * but the bursty patterns rely on decoupled early address issue.
 */
#include <algorithm>

#include "bench_util.h"

using namespace isrf;
using namespace isrf::bench;

int
main(int argc, char **argv)
{
    BenchArgs args = parseBenchArgs(argc, argv);
    heading("Sustained SRF bandwidth demands on ISRF4 "
            "(words/cycle/cluster)", "Figure 13");

    WorkloadOptions opts;
    opts.repeats = 2;

    // Kernel -> owning benchmark (for running the right workload).
    const std::vector<std::pair<std::string, std::string>> kernels = {
        {"fft2d", "FFT 2D"},     {"rijndael", "Rijndael"},
        {"sort1", "Sort"},       {"sort2", "Sort"},
        {"filter", "Filter"},    {"igraph1", "IG_SML"},
        {"igraph2", "IG_SCL"},
    };
    std::vector<std::string> benches;
    for (const auto &[kernel, benchName] : kernels)
        if (std::find(benches.begin(), benches.end(), benchName) ==
            benches.end())
            benches.push_back(benchName);
    const BenchRun run(args,
                       benchJobs(args, benches, {MachineKind::ISRF4}, opts));

    Table t({"Kernel", "Sequential", "In-lane idx", "Cross-lane idx",
             "Total"});
    for (const auto &[kernel, benchName] : kernels) {
        const WorkloadResult &r = run.result(benchName,
                                             MachineKind::ISRF4);
        auto it = r.kernelBw.find(kernel);
        if (it == r.kernelBw.end()) {
            t.addRow({kernel, "-", "-", "-", "-"});
            continue;
        }
        const KernelBwRecord &bw = it->second;
        double seq = bw.seqPerLaneCycle();
        double inl = bw.inLanePerLaneCycle();
        double cross = bw.crossPerLaneCycle();
        t.addRow({kernel, fmtDouble(seq, 3), fmtDouble(inl, 3),
                  fmtDouble(cross, 3), fmtDouble(seq + inl + cross, 3)});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("Peak bandwidths for reference (Table 3): sequential 4 "
                "words/cycle/cluster,\nin-lane indexed 4, cross-lane "
                "indexed 1.\n");
    finishBench(args, run);
    return 0;
}
