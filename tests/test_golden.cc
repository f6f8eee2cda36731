/**
 * @file
 * Golden pins: the model's output for a fixed job set, committed under
 * tests/data/golden/ so that a change to simulated behaviour shows up
 * across commits. Each pin is a job's `cycles` plus the FNV-1a digest
 * of its resultJson (default WorkloadOptions, MachineConfig::make).
 *
 * The job set is every workload of `bench_sweep --suite all`, plus
 * tests/data/tiny.mtx registered the way `--dataset` registers it, each
 * on all four machine kinds. One parameterized test per workload, so
 * `ctest -j` runs them in parallel; each names the first job of its
 * workload that diverges.
 *
 * Regenerate the pins, only when the model changes on purpose:
 *
 *   build/tests/golden_tests --write-golden tests/data/golden/pins.tsv
 */
#include <gtest/gtest.h>

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/hash.h"
#include "workloads/external.h"
#include "workloads/workload.h"

namespace isrf {
namespace {

const MachineKind kKinds[] = {MachineKind::Base, MachineKind::ISRF1,
                              MachineKind::ISRF4, MachineKind::Cache};

/**
 * The external-dataset workload: tests/data/tiny.mtx, registered once
 * per process exactly as `bench_sweep --dataset` does.
 */
const std::string &
datasetWorkload()
{
    static const std::string name = [] {
        std::string n;
        std::vector<std::string> errs;
        const std::string path = std::string(ISRF_TEST_DATA_DIR) +
            "/tiny.mtx";
        if (!registerExternalDataset(path, &n, &errs)) {
            std::fprintf(stderr, "cannot register %s\n", path.c_str());
            std::abort();
        }
        return n;
    }();
    return name;
}

/** `bench_sweep --suite all` order, then the external dataset. */
std::vector<std::string>
goldenWorkloads()
{
    return {"FFT 2D", "Rijndael", "Sort", "Filter", "IG_SML", "IG_DMS",
            "IG_DCS", "IG_SCL", "SpMV Banded", "SpMV Random", "SpMV Power",
            "Stencil 2D5", "Stencil 2D9", "Stencil 3D27", "Histogram",
            datasetWorkload()};
}

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

TEST(GoldenPins, FileCoversEveryJobInOrder)
{
    const std::vector<Pin> pins = readPins(pinsPath());
    const std::vector<std::string> workloads = goldenWorkloads();
    ASSERT_EQ(pins.size(), workloads.size() * std::size(kKinds))
        << "unexpected pin count in " << pinsPath();
    size_t i = 0;
    for (const std::string &w : workloads) {
        for (MachineKind k : kKinds) {
            const Pin &p = pins[i++];
            EXPECT_EQ(p.workload + "/" + p.machine,
                      w + "/" + machineKindName(k))
                << "pins file out of order at line " << i;
        }
    }
}

class Workload : public ::testing::TestWithParam<std::string>
{};

TEST_P(Workload, JobsMatchCommittedPins)
{
    const std::string &w = GetParam();
    std::vector<Pin> want;
    for (const Pin &p : readPins(pinsPath()))
        if (p.workload == w)
            want.push_back(p);
    ASSERT_EQ(want.size(), std::size(kKinds))
        << "no full pin set for " << w << " in " << pinsPath();
    for (size_t i = 0; i < want.size(); i++) {
        ASSERT_EQ(want[i].machine, machineKindName(kKinds[i]))
            << "pins file out of order";
        const Pin got = computePin(w, kKinds[i]);
        ASSERT_TRUE(got.cycles == want[i].cycles &&
                    got.digest == want[i].digest)
            << "first diverging job: " << w << "/" << want[i].machine
            << "\n  pinned:   " << formatPin(want[i])
            << "\n  computed: " << formatPin(got);
    }
}

/** Test-name suffix: the workload name with non-alphanumerics as '_'. */
std::string
paramName(const ::testing::TestParamInfo<std::string> &info)
{
    std::string s = info.param;
    for (char &c : s)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return s;
}

INSTANTIATE_TEST_SUITE_P(GoldenPins, Workload,
                         ::testing::ValuesIn(goldenWorkloads()),
                         paramName);

} // namespace
} // namespace isrf

int
main(int argc, char **argv)
{
    if (argc == 3 && std::strcmp(argv[1], "--write-golden") == 0) {
        std::ofstream f(argv[2]);
        f << "# workload\tmachine\tcycles\tfnv1a(resultJson)\n";
        for (const std::string &w : isrf::goldenWorkloads())
            for (isrf::MachineKind k : isrf::kKinds)
                f << isrf::formatPin(isrf::computePin(w, k)) << "\n";
        return f.good() ? 0 : 1;
    }
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
