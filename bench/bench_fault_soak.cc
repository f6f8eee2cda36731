/**
 * @file
 * Fault soak: run fast workloads under a fixed seeded fault schedule
 * and check that ECC corrects every injected bit flip with zero
 * uncorrectable escapes and bit-identical output (correct==true means
 * the result validated word-for-word against the reference model).
 *
 * CI's fault-soak job runs this with --json and re-asserts the
 * counters from the report; the binary also self-checks and exits
 * nonzero on any escape so it is usable standalone.
 */
#include "bench_util.h"

using namespace isrf;
using namespace isrf::bench;

namespace {

/**
 * Canonical soak schedule: 160 single-bit faults spread across SRF
 * sub-arrays and DRAM, degradation disabled (threshold=0) so ECC has
 * to correct everything in place. Overridden by --faults.
 */
const char *kDefaultSpec =
    "seed=11;threshold=0;"
    "srf_bit:start=400,period=17,count=40;"
    "dram_bit:start=200,period=13,count=120";

double
extraOr0(const WorkloadResult &r, const char *key)
{
    auto it = r.extra.find(key);
    return it == r.extra.end() ? 0.0 : it->second;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = parseBenchArgs(argc, argv);
    if (args.faultSpec.empty()) {
        args.faultSpec = kDefaultSpec;
        args.faults = FaultConfig::parse(kDefaultSpec);
    }
    heading("Fault soak: seeded injection, zero-escape check",
            "robustness extension (no paper figure)");
    std::printf("faults: %s\n\n", args.faultSpec.c_str());

    WorkloadOptions opts;
    opts.repeats = 2;
    const BenchRun run(args, benchJobs(args, {"Sort", "Filter"},
                                       {MachineKind::ISRF4,
                                        MachineKind::ISRF1},
                                       opts));

    const std::vector<std::pair<std::string, MachineKind>> rows = {
        {"Sort", MachineKind::ISRF4},
        {"Filter", MachineKind::ISRF4},
        {"Sort", MachineKind::ISRF1},
        {"Filter", MachineKind::ISRF1},
    };

    Table t({"Run", "correct", "injected", "corrected",
             "uncorrectable", "retries", "poisoned"});
    bool ok = true;
    double injected = 0, corrected = 0, uncorrectable = 0, poisoned = 0;
    for (const auto &[name, kind] : rows) {
        const WorkloadResult &r = run.result(name, kind);
        double inj = extraOr0(r, "faults_injected");
        double cor = extraOr0(r, "ecc_corrected");
        double unc = extraOr0(r, "ecc_uncorrectable");
        double poi = extraOr0(r, "poisoned_words");
        injected += inj;
        corrected += cor;
        uncorrectable += unc;
        poisoned += poi;
        ok = ok && r.correct && unc == 0 && poi == 0;
        t.addRow({r.workload + "/" + machineKindName(r.kind),
                  r.correct ? "yes" : "NO",
                  std::to_string(static_cast<uint64_t>(inj)),
                  std::to_string(static_cast<uint64_t>(cor)),
                  std::to_string(static_cast<uint64_t>(unc)),
                  std::to_string(
                      static_cast<uint64_t>(extraOr0(r, "retries"))),
                  std::to_string(static_cast<uint64_t>(poi))});
    }
    std::printf("%s\n", t.render().c_str());

    ok = ok && injected >= 100 && corrected >= 100;
    std::printf("totals: injected=%.0f corrected=%.0f "
                "uncorrectable=%.0f poisoned=%.0f\n",
                injected, corrected, uncorrectable, poisoned);
    std::printf("%s\n",
                ok ? "SOAK PASS: every injected fault corrected, "
                     "outputs bit-identical"
                   : "SOAK FAIL: uncorrectable escape or wrong output");

    finishBench(args, run);
    return ok ? 0 : 1;
}
