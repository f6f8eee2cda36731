/**
 * @file
 * Golden pins: the model's output for a fixed job set, committed under
 * tests/data/golden/ so that a change to simulated behaviour shows up
 * across commits, not only as a dense-vs-skip mismatch inside one
 * build. Each pin is a job's `cycles` plus the FNV-1a digest of its
 * resultJson (default WorkloadOptions, MachineConfig::make).
 *
 * Regenerate the pins, only when the model changes on purpose:
 *
 *   build/tests/golden_tests --write-golden tests/data/golden/pins.tsv
 */
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/hash.h"
#include "workloads/workload.h"

namespace isrf {
namespace {

const char *const kWorkloads[] = {"IG_SML", "IG_SCL", "Filter",
                                  "Histogram", "SpMV Banded"};
const MachineKind kKinds[] = {MachineKind::Base, MachineKind::ISRF1,
                              MachineKind::ISRF4, MachineKind::Cache};

struct Pin
{
    std::string workload;
    std::string machine;
    uint64_t cycles = 0;
    uint64_t digest = 0;
};

std::string
pinsPath()
{
    return std::string(ISRF_TEST_DATA_DIR) + "/golden/pins.tsv";
}

/** Run one job and pin its output. */
Pin
computePin(const std::string &workload, MachineKind kind)
{
    WorkloadResult res =
        runWorkload(workload, MachineConfig::make(kind), WorkloadOptions{});
    return {workload, machineKindName(kind), res.cycles,
            fnv1a(resultJson(res))};
}

std::string
formatPin(const Pin &p)
{
    char digest[17];
    std::snprintf(digest, sizeof digest, "%016" PRIx64, p.digest);
    return p.workload + "\t" + p.machine + "\t" + std::to_string(p.cycles) +
        "\t" + digest;
}

/** Parse the pins file; '#' lines are comments. */
std::vector<Pin>
readPins(const std::string &path)
{
    std::vector<Pin> pins;
    std::ifstream f(path);
    std::string line;
    while (std::getline(f, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        Pin p;
        std::string cycles, digest;
        if (!std::getline(fields, p.workload, '\t') ||
                !std::getline(fields, p.machine, '\t') ||
                !std::getline(fields, cycles, '\t') ||
                !std::getline(fields, digest))
            continue;
        p.cycles = std::stoull(cycles);
        p.digest = std::stoull(digest, nullptr, 16);
        pins.push_back(p);
    }
    return pins;
}

TEST(GoldenPins, JobsMatchCommittedPins)
{
    const std::vector<Pin> pins = readPins(pinsPath());
    ASSERT_EQ(pins.size(), std::size(kWorkloads) * std::size(kKinds))
        << "unexpected pin count in " << pinsPath();
    size_t i = 0;
    for (const char *w : kWorkloads) {
        for (MachineKind k : kKinds) {
            const Pin &want = pins[i++];
            ASSERT_EQ(want.workload + "/" + want.machine,
                      std::string(w) + "/" + machineKindName(k))
                << "pins file out of order";
            const Pin got = computePin(w, k);
            ASSERT_TRUE(got.cycles == want.cycles &&
                        got.digest == want.digest)
                << "first diverging job: " << want.workload << "/"
                << want.machine << "\n  pinned:   " << formatPin(want)
                << "\n  computed: " << formatPin(got);
        }
    }
}

} // namespace
} // namespace isrf

int
main(int argc, char **argv)
{
    if (argc == 3 && std::strcmp(argv[1], "--write-golden") == 0) {
        std::ofstream f(argv[2]);
        f << "# workload\tmachine\tcycles\tfnv1a(resultJson)\n";
        for (const char *w : isrf::kWorkloads)
            for (isrf::MachineKind k : isrf::kKinds)
                f << isrf::formatPin(isrf::computePin(w, k)) << "\n";
        return f.good() ? 0 : 1;
    }
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
