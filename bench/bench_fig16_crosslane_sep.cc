/**
 * @file
 * Figure 16: execution time of the cross-lane indexed kernels
 * (IGraph1 via IG_SML, IGraph2 via IG_SCL) as the address/data
 * separation varies from 4 to 24 cycles.
 *
 * Paper shape: these kernels tolerate very long separations with only
 * a few percent variation — they have high compute density and no
 * loop-carried dependencies, so software pipelining hides the latency
 * (the default cross-lane separation is 20 cycles, §5.1).
 */
#include "bench_util.h"

using namespace isrf;
using namespace isrf::bench;

namespace {

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
    heading("Execution time of cross-lane indexed kernels vs "
            "address/data separation (ISRF4)", "Figure 16");

    const std::vector<std::pair<std::string, std::string>> benches = {
        {"IGraph1", "IG_SML"},
        {"IGraph2", "IG_SCL"},
    };
    std::vector<uint32_t> seps = {4, 8, 12, 16, 20, 24};

    std::vector<std::string> header = {"Kernel"};
    for (uint32_t s : seps)
        header.push_back("sep=" + std::to_string(s));
    Table t(header);

    // Every run, kept for the --trace/--profile export.
    std::vector<WorkloadResult> results;
    for (const auto &[kernel, bench] : benches) {
        std::vector<double> times;
        for (uint32_t s : seps) {
            WorkloadOptions opts;
            opts.repeats = 1;
            opts.separationOverride = s;
            std::fprintf(stderr, "  [running %s at sep=%u...]\n",
                         bench.c_str(), s);
            const WorkloadResult &r = results.emplace_back(runWorkload(
                bench, benchConfig(MachineKind::ISRF4, args), opts));
            times.push_back(kernelTime(r));
        }
        double best = *std::min_element(times.begin(), times.end());
        std::vector<std::string> row = {kernel};
        for (double v : times)
            row.push_back(fmtDouble(v / best, 3));
        t.addRow(row);
    }
    std::printf("Kernel execution time normalized to each kernel's "
                "best separation:\n%s\n", t.render().c_str());
    std::printf("Expected: nearly flat curves (within a few percent) "
                "across 4..24 cycles.\n");
    RunList runs;
    for (const WorkloadResult &r : results)
        runs.push_back(&r);
    finishBench(args, runs);
    return 0;
}
