/**
 * @file
 * Ablation: how much indexed bandwidth do the benchmarks actually
 * need? Sweeps the number of sub-arrays per bank (= peak in-lane
 * indexed words/cycle/lane) on the two multi-stream benchmarks and on
 * the energy/area trade-off.
 *
 * §5.3's observation: "none of the benchmarks suffer significantly
 * from a lack of indexed SRF bandwidth on ISRF4", while ISRF1 loses
 * 42%/18% of Rijndael/Filter to SRF stalls — i.e. the useful range is
 * between 1 and 4 accesses/cycle, with diminishing returns beyond.
 */
#include "area/cacti_lite.h"
#include "bench_util.h"

using namespace isrf;
using namespace isrf::bench;

int
main(int argc, char **argv)
{
    BenchArgs args = parseBenchArgs(argc, argv);
    heading("Sub-array (in-lane indexed bandwidth) ablation",
            "extends §5.3 / Figure 12 (ISRF1 vs ISRF4)");

    const std::vector<uint32_t> subArrays = {1, 2, 4, 8};
    const std::vector<std::string> benches = {"Rijndael", "Filter"};

    std::vector<std::string> header = {"Benchmark"};
    for (uint32_t s : subArrays)
        header.push_back("s=" + std::to_string(s));
    Table t(header);
    Table stalls(header);

    WorkloadOptions opts;
    opts.repeats = 2;
    std::vector<SweepJob> jobs;
    for (const auto &name : benches) {
        for (uint32_t s : subArrays) {
            SweepJob job{.workload = name,
                         .cfg = benchConfig(MachineKind::ISRF4, args),
                         .opts = opts};
            job.cfg.srf.subArrays = s;
            jobs.push_back(job);
        }
    }
    const BenchRun run(args, jobs);

    // Outcomes are benchmark-major, one per sub-array count.
    const std::vector<SweepOutcome> &out = run.outcomes();
    for (size_t b = 0; b < benches.size(); b++) {
        std::vector<std::string> row = {benches[b]};
        std::vector<std::string> stallRow = {benches[b]};
        std::vector<double> cycles;
        for (size_t i = 0; i < subArrays.size(); i++) {
            const WorkloadResult &r = out[b * subArrays.size() + i].result;
            cycles.push_back(static_cast<double>(r.cycles));
            double stall = static_cast<double>(r.breakdown.srfStall) /
                static_cast<double>(r.breakdown.total());
            stallRow.push_back(fmtDouble(100.0 * stall, 1) + "%");
        }
        double best = *std::min_element(cycles.begin(), cycles.end());
        for (double c : cycles)
            row.push_back(fmtDouble(c / best, 3));
        t.addRow(row);
        stalls.addRow(stallRow);
    }
    std::printf("Execution time normalized to the best sub-array "
                "count:\n%s\n", t.render().c_str());
    std::printf("SRF-stall share of execution time:\n%s\n",
                stalls.render().c_str());

    // Area cost of each point.
    Table area({"Sub-arrays", "SRF area overhead"});
    for (uint32_t s : subArrays) {
        SrfGeometry g;
        g.subArrays = s;
        SrfAreaModel model(g);
        area.addRow({std::to_string(s),
                     fmtDouble(100.0 * model.overheadOver(model.isrf4()),
                               1) + "%"});
    }
    std::printf("%s\n", area.render().c_str());
    std::printf("Expected: large gains 1->4 (the paper's ISRF1 vs "
                "ISRF4), marginal gains beyond 4\nfor rising area — "
                "supporting the paper's choice of s=4.\n");
    finishBench(args, run, JsonResults::None);
    return 0;
}
