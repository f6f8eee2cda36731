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

    std::vector<SweepJob> jobs;
    for (const auto &[kernel, bench] : benches) {
        for (uint32_t s : seps) {
            WorkloadOptions opts;
            opts.repeats = 1;
            opts.separationOverride = s;
            jobs.push_back({.workload = bench,
                            .cfg = benchConfig(MachineKind::ISRF4, args),
                            .opts = opts});
        }
    }
    const BenchRun run(args, jobs);

    // Outcomes are kernel-major, one per separation.
    const std::vector<SweepOutcome> &out = run.outcomes();
    for (size_t k = 0; k < benches.size(); k++) {
        std::vector<double> times;
        for (size_t i = 0; i < seps.size(); i++)
            times.push_back(kernelTime(out[k * seps.size() + i].result));
        double best = *std::min_element(times.begin(), times.end());
        std::vector<std::string> row = {benches[k].first};
        for (double v : times)
            row.push_back(fmtDouble(v / best, 3));
        t.addRow(row);
    }
    std::printf("Kernel execution time normalized to each kernel's "
                "best separation:\n%s\n", t.render().c_str());
    std::printf("Expected: nearly flat curves (within a few percent) "
                "across 4..24 cycles.\n");
    finishBench(args, run, JsonResults::None);
    return 0;
}
