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
 * Snapshot pins (tests/data/golden/snapshot_pins.tsv) hold the FNV-1a
 * digest of every section of one mid-run checkpoint per job of a small
 * fixed set, so a change to the checkpoint wire format shows up too.
 *
 * Regenerate a pins file, only when the model (pins.tsv) or a snapshot
 * section layout (snapshot_pins.tsv, together with a
 * kSnapshotFormatVersion bump) changes on purpose; the file name picks
 * which pins are written:
 *
 *   build/tests/golden_tests --write-golden tests/data/golden/pins.tsv
 *   build/tests/golden_tests --write-golden \
 *       tests/data/golden/snapshot_pins.tsv
 */
#include <gtest/gtest.h>

#include <unistd.h>

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
#include "util/snapshot.h"
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

// ----------------------------------------------------------------------
// Snapshot pins
// ----------------------------------------------------------------------

/**
 * One checkpointed job: it saves once, at the first multiple of
 * `every` cycles, and stops. Each save cycle is one on which no op of
 * the stream program completes, so the pins describe the machine and
 * program state the run loop has agreed on.
 */
struct SnapshotJob
{
    std::string workload;
    MachineKind kind;
    uint64_t every;
    /** FaultConfig::parse spec ("" = faults off). */
    std::string faults = "";
    /** MachineConfig::statSampleInterval. */
    uint64_t sampleInterval = 0;
};

/**
 * All four kinds; the indexed SRFs and the cache each appear, and the
 * last job adds the optional sections (watchdog, sampler, injector)
 * and pending ECC faults in the SRF and DRAM.
 */
std::vector<SnapshotJob>
snapshotJobs()
{
    return {{"Histogram", MachineKind::Base, 20000},
            {"IG_SML", MachineKind::ISRF1, 15000},
            {"SpMV Random", MachineKind::ISRF4, 10000},
            {"Stencil 2D5", MachineKind::Cache, 15000},
            {"Filter", MachineKind::ISRF4, 25000},
            {"Histogram", MachineKind::ISRF4, 20000,
             "seed=3;watchdog=5000;srf_bit:start=100,period=97,count=60;"
             "dram_bit:start=50,period=89,count=60",
             2000}};
}

/** One section of one job's checkpoint. */
struct SectionPin
{
    std::string job;  ///< "<workload>/<machine>@<save cycle>"
    std::string tag;
    uint64_t digest = 0;
};

std::string
snapshotPinsPath()
{
    return std::string(ISRF_TEST_DATA_DIR) + "/golden/snapshot_pins.tsv";
}

/** Run `job` to its first save and pin every section of the file. */
std::vector<SectionPin>
computeSectionPins(const SnapshotJob &job)
{
    const std::string path = ::testing::TempDir() + "isrf_snapshot_pin_" +
        std::to_string(::getpid()) + ".ckpt";
    const uint64_t fp = 0x5eed;
    CheckpointContext ctx(path, fp, job.every);
    ctx.stopAfterSave = true;
    WorkloadOptions opts;
    opts.checkpoint = &ctx;
    MachineConfig cfg = MachineConfig::make(job.kind);
    cfg.faults = FaultConfig::parse(job.faults);
    cfg.statSampleInterval = job.sampleInterval;
    runWorkload(job.workload, cfg, opts);
    Snapshot snap;
    std::string err;
    const SnapshotLoad got = loadSnapshotFile(path, fp, snap, err);
    std::remove(path.c_str());
    std::vector<SectionPin> pins;
    if (ctx.saves() != 1 || got != SnapshotLoad::Ok)
        return pins;
    const std::string name = job.workload + "/" +
        machineKindName(job.kind) + "@" + std::to_string(snap.cycle);
    for (const Snapshot::Section &s : snap.sections) {
        std::string tag;
        for (int i = 0; i < 4; i++)
            tag += static_cast<char>(s.tag >> (8 * i) & 0xff);
        pins.push_back({name, tag, fnv1a(s.payload)});
    }
    return pins;
}

std::string
formatSectionPin(const SectionPin &p)
{
    char digest[17];
    std::snprintf(digest, sizeof digest, "%016" PRIx64, p.digest);
    return p.job + "\t" + p.tag + "\t" + digest;
}

std::vector<SectionPin>
readSectionPins(const std::string &path)
{
    std::vector<SectionPin> pins;
    std::ifstream f(path);
    std::string line;
    while (std::getline(f, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        SectionPin p;
        std::string digest;
        if (!std::getline(fields, p.job, '\t') ||
                !std::getline(fields, p.tag, '\t') ||
                !std::getline(fields, digest))
            continue;
        p.digest = std::stoull(digest, nullptr, 16);
        pins.push_back(p);
    }
    return pins;
}

TEST(SnapshotPins, SectionsMatchCommittedPins)
{
    std::vector<SectionPin> got;
    for (const SnapshotJob &job : snapshotJobs()) {
        const std::vector<SectionPin> pins = computeSectionPins(job);
        ASSERT_FALSE(pins.empty())
            << job.workload << "/" << machineKindName(job.kind)
            << ": no checkpoint was saved";
        got.insert(got.end(), pins.begin(), pins.end());
    }
    const std::vector<SectionPin> want = readSectionPins(snapshotPinsPath());
    ASSERT_EQ(got.size(), want.size())
        << "section count differs from " << snapshotPinsPath();
    for (size_t i = 0; i < want.size(); i++) {
        EXPECT_TRUE(got[i].job == want[i].job && got[i].tag == want[i].tag &&
                    got[i].digest == want[i].digest)
            << "snapshot section " << want[i].tag << " of " << want[i].job
            << " changed"
            << "\n  pinned:   " << formatSectionPin(want[i])
            << "\n  computed: " << formatSectionPin(got[i])
            << "\nA checkpoint written by the previous build would no "
               "longer restore: if the layout change is intended, bump "
               "kSnapshotFormatVersion and regenerate the pins.";
    }
}

} // namespace
} // namespace isrf

int
main(int argc, char **argv)
{
    if (argc == 3 && std::strcmp(argv[1], "--write-golden") == 0) {
        const std::string path = argv[2];
        std::ofstream f(path);
        const std::string snapshotPins = "snapshot_pins.tsv";
        if (path.size() >= snapshotPins.size() &&
                path.compare(path.size() - snapshotPins.size(),
                             snapshotPins.size(), snapshotPins) == 0) {
            f << "# workload/machine@cycle\tsection\tfnv1a(payload)\n";
            for (const isrf::SnapshotJob &job : isrf::snapshotJobs())
                for (const isrf::SectionPin &p :
                     isrf::computeSectionPins(job))
                    f << isrf::formatSectionPin(p) << "\n";
            return f.good() ? 0 : 1;
        }
        f << "# workload\tmachine\tcycles\tfnv1a(resultJson)\n";
        for (const std::string &w : isrf::goldenWorkloads())
            for (isrf::MachineKind k : isrf::kKinds)
                f << isrf::formatPin(isrf::computePin(w, k)) << "\n";
        return f.good() ? 0 : 1;
    }
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
