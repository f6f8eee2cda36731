/**
 * @file
 * Extension of §4.4: per-benchmark access-energy estimates.
 *
 * The paper argues indexed SRF accesses are cheap in energy terms —
 * ~4x a sequential SRF word but an order of magnitude below an
 * off-chip DRAM access — so replacing memory traffic with indexed SRF
 * traffic is an energy win wherever it is a bandwidth win. This bench
 * combines the measured access counts of every benchmark with the
 * §4.4 energy model to quantify that.
 */
#include "area/energy.h"
#include "bench_util.h"

using namespace isrf;
using namespace isrf::bench;

int
main(int argc, char **argv)
{
    BenchArgs args = parseBenchArgs(argc, argv);
    heading("Access-energy estimates per benchmark (Base vs ISRF4)",
            "extends Section 4.4");

    WorkloadOptions opts;
    opts.repeats = 2;
    const BenchRun run(args, benchJobs(args, benchmarkOrder(),
                                       {MachineKind::Base,
                                        MachineKind::ISRF4},
                                       opts));
    EnergyModel energy;

    auto estimate = [&](const WorkloadResult &r) {
        EnergyCounts c;
        c.seqSrfWords = r.srfSeqWords;
        c.idxSrfWords = r.srfIdxWords;
        c.cacheWords = r.cacheWords;
        c.dramWords = r.dramWords;
        return energy.estimate(c);
    };

    Table t({"Benchmark", "Base total (uJ)", "Base DRAM share",
             "ISRF4 total (uJ)", "ISRF4 idx-SRF share", "Energy ratio"});
    for (const auto &name : benchmarkOrder()) {
        EnergyEstimate base = estimate(run.result(name,
                                                 MachineKind::Base));
        EnergyEstimate isrf = estimate(run.result(name,
                                                 MachineKind::ISRF4));
        t.addRow({name, fmtDouble(base.totalNj() / 1000.0, 1),
                  fmtDouble(100.0 * base.dramNj / base.totalNj(), 1) +
                      "%",
                  fmtDouble(isrf.totalNj() / 1000.0, 1),
                  fmtDouble(100.0 * isrf.idxSrfNj / isrf.totalNj(), 1) +
                      "%",
                  fmtDouble(isrf.totalNj() / base.totalNj(), 2)});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("DRAM dominates access energy on Base; replacing its "
                "traffic with indexed SRF\naccesses (4x a sequential "
                "word, ~50x below DRAM) makes every bandwidth win an\n"
                "energy win — largest for Rijndael, none for "
                "Sort/Filter.\n");
    finishBench(args, run);
    return 0;
}
