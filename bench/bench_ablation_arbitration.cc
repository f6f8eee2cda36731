/**
 * @file
 * Ablation (§5.4): SRF-port arbitration policy.
 *
 * The paper used simple round-robin arbitration and reports that
 * "complex arbiters that prioritize streams likely to cause stalls
 * were found to provide less than 10% improvement in throughput."
 * This ablation runs the indexed-access-heavy benchmarks under both
 * policies and checks that claim on our model.
 */
#include "bench_util.h"

using namespace isrf;
using namespace isrf::bench;

int
main(int argc, char **argv)
{
    BenchArgs args = parseBenchArgs(argc, argv);
    heading("Arbitration-policy ablation: round-robin vs stall-aware "
            "indexed priority", "Section 5.4 (<10% claim)");

    const std::vector<std::string> benches = {"Rijndael", "Filter",
                                              "FFT 2D", "IG_SML"};
    WorkloadOptions opts;
    opts.repeats = 2;
    std::vector<SweepJob> jobs;
    for (const auto &name : benches) {
        for (ArbPolicy policy :
             {ArbPolicy::RoundRobin, ArbPolicy::IndexedPriority}) {
            SweepJob job{.workload = name,
                         .cfg = benchConfig(MachineKind::ISRF4, args),
                         .opts = opts};
            job.cfg.srf.arbPolicy = policy;
            jobs.push_back(job);
        }
    }
    const BenchRun run(args, jobs);

    Table t({"Benchmark", "Round-robin (cycles)",
             "Indexed-priority (cycles)", "Gain"});
    double maxGain = 0;
    for (size_t i = 0; i < benches.size(); i++) {
        const WorkloadResult &a = run.outcomes()[2 * i].result;
        const WorkloadResult &b = run.outcomes()[2 * i + 1].result;
        double gain = static_cast<double>(a.cycles) /
            static_cast<double>(b.cycles) - 1.0;
        maxGain = std::max(maxGain, gain);
        t.addRow({benches[i], std::to_string(a.cycles),
                  std::to_string(b.cycles),
                  fmtDouble(100.0 * gain, 1) + "%"});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("Largest gain from the stall-aware arbiter: %.1f%% "
                "(paper: <10%%) -> %s\n", 100.0 * maxGain,
                maxGain < 0.10 ? "round-robin is the right choice"
                               : "EXCEEDS the paper's bound");
    finishBench(args, run, JsonResults::None);
    return 0;
}
