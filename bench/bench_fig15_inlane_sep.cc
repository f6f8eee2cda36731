/**
 * @file
 * Figure 15: execution time of the in-lane indexed kernels as the
 * address/data separation varies from 2 to 10 cycles, normalized to
 * each kernel's best point.
 *
 * Paper shape: performance first improves with separation (SRF stalls
 * shrink as reads are issued earlier) and then degrades as schedule
 * length growth dominates — most sharply for the kernels with
 * loop-carried index dependencies (Rijndael, Sort1/Sort2).
 */
#include "bench_util.h"

using namespace isrf;
using namespace isrf::bench;

namespace {

/** Total kernel execution lane-cycles of a run (Figure 15 metric). */
double
kernelTime(const WorkloadResult &r)
{
    double t = 0;
    for (const auto &kv : r.kernelBw)
        t += static_cast<double>(kv.second.laneCycles);
    return t;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = parseBenchArgs(argc, argv);
    heading("Execution time of in-lane indexed kernels vs address/data "
            "separation (ISRF4)", "Figure 15");

    const std::vector<std::string> benches = {"FFT 2D", "Rijndael",
                                              "Filter", "Sort"};
    std::vector<uint32_t> seps = {2, 4, 6, 8, 10};

    std::vector<std::string> header = {"Benchmark"};
    for (uint32_t s : seps)
        header.push_back("sep=" + std::to_string(s));
    Table t(header);

    // Every run, kept for the --trace/--profile export.
    std::vector<WorkloadResult> results;
    for (const auto &name : benches) {
        std::vector<double> times;
        for (uint32_t s : seps) {
            WorkloadOptions opts;
            opts.repeats = 2;
            opts.separationOverride = s;
            std::fprintf(stderr, "  [running %s at sep=%u...]\n",
                         name.c_str(), s);
            const WorkloadResult &r = results.emplace_back(runWorkload(
                name, benchConfig(MachineKind::ISRF4, args), opts));
            times.push_back(kernelTime(r));
        }
        double best = *std::min_element(times.begin(), times.end());
        std::vector<std::string> row = {name};
        for (double v : times)
            row.push_back(fmtDouble(v / best, 3));
        t.addRow(row);
    }
    std::printf("Kernel execution time normalized to each kernel's "
                "best separation:\n%s\n", t.render().c_str());
    std::printf("Expected: improvement then degradation; the paper's "
                "default is 6 cycles (§5.1).\n");
    RunList runs;
    for (const WorkloadResult &r : results)
        runs.push_back(&r);
    finishBench(args, runs);
    return 0;
}
