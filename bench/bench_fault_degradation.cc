/**
 * @file
 * Graceful-degradation study: sustained in-lane indexed throughput of
 * the ISRF4 bank as sub-arrays are taken offline (DESIGN.md §Fault
 * model). With all sub-arrays online the bank sustains close to its
 * peak of min(4, subArrays) words/cycle/lane; every sub-array that an
 * uncorrectable-fault burst retires remaps its indexed traffic onto
 * the survivors, so ISRF4 degrades toward ISRF1-like bandwidth instead
 * of failing — throughput must fall monotonically with offline count.
 */
#include "bench_util.h"
#include "workloads/micro.h"

using namespace isrf;
using namespace isrf::bench;

int
main(int argc, char **argv)
{
    BenchArgs args = parseBenchArgs(argc, argv);
    heading("SRF graceful degradation (offline sub-arrays)",
            "extends §5.4 / Figure 17 with the fault model");

    const uint32_t subArrays = 4;
    Table t({"Offline sub-arrays", "Online", "Words/cycle/lane",
             "Vs. healthy"});
    std::vector<double> throughputs;
    for (uint32_t off = 0; off < subArrays; off++) {
        InLaneMicroParams p;
        p.subArrays = subArrays;
        p.offlineSubArrays = off;
        std::fprintf(stderr, "  [running with %u/%u sub-arrays "
                     "offline...]\n", off, subArrays);
        double bw = inLaneRandomThroughput(p);
        throughputs.push_back(bw);
        t.addRow({std::to_string(off), std::to_string(subArrays - off),
                  fmtDouble(bw, 3),
                  fmtDouble(100.0 * bw / throughputs.front(), 1) + "%"});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("Expected: monotonically decreasing throughput; with "
                "one sub-array left the\nISRF4 bank behaves like ISRF1 "
                "(single conflict domain).\n");

    if (!args.jsonPath.empty()) {
        JsonWriter w;
        w.beginObject();
        w.field("sub_arrays", subArrays);
        w.key("throughput_words_per_cycle_per_lane").beginArray();
        for (double bw : throughputs)
            w.value(bw);
        w.endArray();
        w.endObject();
        if (!writeTextFile(args.jsonPath, w.str()))
            reportWriteFailed("JSON results", args.jsonPath);
        std::fprintf(stderr, "wrote JSON results to %s\n",
                     args.jsonPath.c_str());
    }
    BenchArgs traceOnly = args;
    traceOnly.jsonPath.clear();
    finishBench(traceOnly);
    return 0;
}
