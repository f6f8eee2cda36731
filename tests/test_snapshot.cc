/**
 * @file
 * Tests for the versioned snapshot subsystem (util/snapshot.h,
 * DESIGN.md §17) and mid-job checkpoint/restore:
 *
 *  - SnapshotWriter/SnapshotReader roundtrips and bounds checks;
 *  - file-format framing, checksums, atomic writes, quarantine;
 *  - exhaustive durability fuzz on the loader: truncation at EVERY
 *    byte offset and a single-bit flip at EVERY byte offset must be
 *    detected (never crash, never restore), plus the same corruptions
 *    against a full machine checkpoint;
 *  - the keystone golden-equivalence property: run to cycle C,
 *    snapshot, load into a fresh Machine, run to completion — the
 *    workload report is byte-identical to an uninterrupted run,
 *    across all four machine kinds and representative workloads
 *    (including SpMV and stencil);
 *  - the SweepRunner checkpoint lifecycle: resume-from-checkpoint
 *    executes strictly fewer cycles, files are removed once a job's
 *    outcome is journal-replayable.
 */
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "core/machine.h"
#include "core/stream_program.h"
#include "driver/sweep_runner.h"
#include "util/snapshot.h"
#include "workloads/workload.h"
#include "test_helpers.h"

namespace isrf {
namespace {

/** Temp checkpoint directory removed (with contents) on scope exit. */
class TempCkptDir
{
  public:
    explicit TempCkptDir(const char *tag)
    {
        path_ = ::testing::TempDir() + "isrf_ckpt_" + tag + "_" +
            std::to_string(::getpid());
        std::string err;
        EXPECT_TRUE(ensureCheckpointDir(path_, err)) << err;
    }
    ~TempCkptDir()
    {
        // Best-effort cleanup of the flat files this suite creates.
        for (const char *suffix : {"", ".bad"}) {
            std::remove((path_ + "/job.ckpt" + suffix).c_str());
            std::remove((path_ + "/fuzz.ckpt" + suffix).c_str());
            std::remove((path_ + "/ref.ckpt" + suffix).c_str());
        }
        ::rmdir(path_.c_str());
    }
    std::string file(const char *name) const
    {
        return path_ + "/" + name;
    }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(),
            static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(f.good()) << path;
}

std::string
readBytes(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(f),
                       std::istreambuf_iterator<char>());
}

// ----------------------------------------------------------------------
// Writer/Reader primitives
// ----------------------------------------------------------------------

TEST(SnapshotIo, WriterReaderRoundtrip)
{
    SnapshotWriter w;
    w.u8(0xAB);
    w.b(true);
    w.b(false);
    w.u32(0xDEADBEEF);
    w.u64(0x0123456789ABCDEFull);
    w.i64(-42);
    w.f64(3.14159265358979);
    w.f64(-0.0);
    w.str("hello snapshot");
    w.str("");

    SnapshotReader r(w.data());
    uint8_t u8v = 0;
    bool b1 = false, b2 = true;
    uint32_t u32v = 0;
    uint64_t u64v = 0;
    int64_t i64v = 0;
    double d1 = 0, d2 = 1;
    std::string s1, s2;
    EXPECT_TRUE(r.u8(u8v));
    EXPECT_TRUE(r.b(b1));
    EXPECT_TRUE(r.b(b2));
    EXPECT_TRUE(r.u32(u32v));
    EXPECT_TRUE(r.u64(u64v));
    EXPECT_TRUE(r.i64(i64v));
    EXPECT_TRUE(r.f64(d1));
    EXPECT_TRUE(r.f64(d2));
    EXPECT_TRUE(r.str(s1));
    EXPECT_TRUE(r.str(s2));
    EXPECT_EQ(u8v, 0xAB);
    EXPECT_TRUE(b1);
    EXPECT_FALSE(b2);
    EXPECT_EQ(u32v, 0xDEADBEEFu);
    EXPECT_EQ(u64v, 0x0123456789ABCDEFull);
    EXPECT_EQ(i64v, -42);
    EXPECT_DOUBLE_EQ(d1, 3.14159265358979);
    EXPECT_TRUE(std::signbit(d2));  // -0.0 restored bit-exactly
    EXPECT_EQ(s1, "hello snapshot");
    EXPECT_EQ(s2, "");
    EXPECT_TRUE(r.atEnd());
}

TEST(SnapshotIo, ReaderBoundsAreSticky)
{
    SnapshotWriter w;
    w.u32(7);
    SnapshotReader r(w.data());
    uint64_t v = 0;
    EXPECT_FALSE(r.u64(v));  // only 4 bytes available
    EXPECT_FALSE(r.ok());
    uint32_t u = 0;
    EXPECT_FALSE(r.u32(u));  // sticky: nothing reads after a failure
    EXPECT_FALSE(r.atEnd());
}

TEST(SnapshotIo, LenGuardRejectsOversizedCounts)
{
    // A corrupted count must not drive a huge allocation: len()
    // validates the claimed element count against remaining bytes.
    SnapshotWriter w;
    w.u64(1ull << 40);  // claims 2^40 entries
    SnapshotReader r(w.data());
    uint64_t n = 0;
    EXPECT_FALSE(r.len(n, 8));
    EXPECT_FALSE(r.ok());
}

// ----------------------------------------------------------------------
// File format: framing, checksums, atomic write, quarantine
// ----------------------------------------------------------------------

Snapshot
syntheticSnapshot()
{
    Snapshot s;
    s.fingerprint = 0xF00DF00Dull;
    s.cycle = 424242;
    s.geometry = 0xBEEFBEEFull;
    SnapshotWriter a;
    a.u32(1);
    a.u64(2);
    a.str("machine-ish payload");
    s.addSection(kSnapMachine, a);
    SnapshotWriter b;
    for (int i = 0; i < 16; i++)
        b.f64(i * 1.5);
    s.addSection(kSnapSrf, b);
    SnapshotWriter c;
    c.u64(99);
    s.addSection(kSnapProgram, c);
    return s;
}

TEST(SnapshotFile, SerializeParseRoundtrip)
{
    Snapshot s = syntheticSnapshot();
    std::string bytes = s.serialize();
    Snapshot out;
    std::string err;
    ASSERT_TRUE(out.parse(bytes, err)) << err;
    EXPECT_EQ(out.fingerprint, s.fingerprint);
    EXPECT_EQ(out.cycle, s.cycle);
    EXPECT_EQ(out.geometry, s.geometry);
    ASSERT_EQ(out.sections.size(), 3u);
    const std::string *mach = out.findSection(kSnapMachine);
    ASSERT_NE(mach, nullptr);
    EXPECT_EQ(*mach, *s.findSection(kSnapMachine));
    EXPECT_EQ(out.findSection(kSnapMemory), nullptr);
}

TEST(SnapshotFile, LoadFileOkMissingStale)
{
    TempCkptDir dir("okms");
    const std::string path = dir.file("job.ckpt");
    Snapshot s = syntheticSnapshot();
    std::string err;
    ASSERT_TRUE(s.writeAtomic(path, err)) << err;

    Snapshot out;
    EXPECT_EQ(loadSnapshotFile(path, s.fingerprint, out, err),
              SnapshotLoad::Ok);
    EXPECT_EQ(out.cycle, s.cycle);

    // Wrong job fingerprint: Stale, with a diagnostic.
    EXPECT_EQ(loadSnapshotFile(path, 0x1234, out, err),
              SnapshotLoad::Stale);
    EXPECT_FALSE(err.empty());

    // No file: Missing, err empty (a first run, not a problem).
    err.clear();
    EXPECT_EQ(loadSnapshotFile(dir.file("nope.ckpt"), 1, out, err),
              SnapshotLoad::Missing);
    EXPECT_TRUE(err.empty());
}

TEST(SnapshotFile, ConcurrentWritersOfOnePathAllSucceed)
{
    // Two processes checkpointing the same job into a shared directory:
    // every write succeeds, the file is always one whole snapshot, and
    // no temp file is left behind.
    TempCkptDir dir("race");
    const std::string path = dir.file("job.ckpt");
    Snapshot a = syntheticSnapshot();
    Snapshot b = syntheticSnapshot();
    b.cycle = a.cycle + 1;
    SnapshotWriter pad;
    pad.str(std::string(1 << 16, 'x'));
    a.addSection(kSnapMemory, pad);
    b.addSection(kSnapMemory, pad);

    std::atomic<int> failures{0};
    auto writer = [&](const Snapshot &s) {
        for (int i = 0; i < 200; i++) {
            std::string err;
            if (!s.writeAtomic(path, err))
                failures++;
        }
    };
    std::thread ta(writer, std::cref(a));
    std::thread tb(writer, std::cref(b));
    ta.join();
    tb.join();
    EXPECT_EQ(failures.load(), 0);

    Snapshot out;
    std::string err;
    ASSERT_EQ(loadSnapshotFile(path, a.fingerprint, out, err),
              SnapshotLoad::Ok) << err;
    EXPECT_TRUE(out.cycle == a.cycle || out.cycle == b.cycle)
        << out.cycle;

    std::vector<std::string> entries;
    if (DIR *d = ::opendir(dir.path().c_str())) {
        while (const dirent *e = ::readdir(d))
            if (std::string(e->d_name) != "." &&
                std::string(e->d_name) != "..")
                entries.push_back(e->d_name);
        ::closedir(d);
    }
    EXPECT_EQ(entries, std::vector<std::string>{"job.ckpt"});
}

TEST(SnapshotFile, QuarantineRenamesToBad)
{
    TempCkptDir dir("quar");
    const std::string path = dir.file("job.ckpt");
    writeBytes(path, "definitely not a snapshot");
    quarantineSnapshotFile(path, "test corruption");
    EXPECT_FALSE(fileExists(path));
    EXPECT_TRUE(fileExists(path + ".bad"));
}

TEST(SnapshotFile, CheckpointPathHelper)
{
    EXPECT_EQ(checkpointFilePath("/tmp/x", 0xABCDull),
              "/tmp/x/job-000000000000abcd.ckpt");
}

TEST(SnapshotFile, EnsureCheckpointDirCreatesNested)
{
    std::string base = ::testing::TempDir() + "isrf_ckpt_nest_" +
        std::to_string(::getpid());
    std::string nested = base + "/a/b";
    std::string err;
    ASSERT_TRUE(ensureCheckpointDir(nested, err)) << err;
    EXPECT_TRUE(fileExists(nested));
    ASSERT_TRUE(ensureCheckpointDir(nested, err)) << err;  // idempotent
    ::rmdir(nested.c_str());
    ::rmdir((base + "/a").c_str());
    ::rmdir(base.c_str());
}

// ----------------------------------------------------------------------
// Durability fuzz: the loader must detect EVERY truncation and EVERY
// single-bit flip — never crash, never return Ok for damaged bytes.
// ----------------------------------------------------------------------

TEST(SnapshotFuzz, TruncationAtEveryByteOffsetIsDetected)
{
    TempCkptDir dir("trunc");
    const std::string path = dir.file("fuzz.ckpt");
    const std::string bytes = syntheticSnapshot().serialize();
    ASSERT_GT(bytes.size(), 100u);

    for (size_t cut = 0; cut < bytes.size(); cut++) {
        writeBytes(path, bytes.substr(0, cut));
        Snapshot out;
        std::string err;
        EXPECT_EQ(loadSnapshotFile(path, 0xF00DF00Dull, out, err),
                  SnapshotLoad::Corrupt)
            << "truncation at byte " << cut << " not detected";
        EXPECT_FALSE(err.empty());
    }
    // Sanity: the untruncated file loads.
    writeBytes(path, bytes);
    Snapshot out;
    std::string err;
    EXPECT_EQ(loadSnapshotFile(path, 0xF00DF00Dull, out, err),
              SnapshotLoad::Ok) << err;
}

TEST(SnapshotFuzz, BitFlipAtEveryByteOffsetIsDetected)
{
    TempCkptDir dir("flip");
    const std::string path = dir.file("fuzz.ckpt");
    const std::string bytes = syntheticSnapshot().serialize();

    for (size_t i = 0; i < bytes.size(); i++) {
        std::string damaged = bytes;
        damaged[i] = static_cast<char>(
            static_cast<uint8_t>(damaged[i]) ^ (1u << (i % 8)));
        writeBytes(path, damaged);
        Snapshot out;
        std::string err;
        EXPECT_EQ(loadSnapshotFile(path, 0xF00DF00Dull, out, err),
                  SnapshotLoad::Corrupt)
            << "bit flip at byte " << i << " not detected";
    }
}

// ----------------------------------------------------------------------
// Keystone: checkpoint/resume golden equivalence through workloads
// ----------------------------------------------------------------------

/**
 * Run `workload` on `kind` uninterrupted; again with a checkpoint
 * context that stops right after its first mid-run save; then resume
 * from that checkpoint in a fresh Machine and require the final
 * report to be byte-identical to the uninterrupted run's, with the
 * resumed process having executed strictly fewer cycles.
 */
/** Issued-but-incomplete ops recorded in a checkpoint's PROG cursor. */
struct SavedCursor
{
    bool kernelInFlight = false;
    uint64_t memInFlight = 0;
};

SavedCursor
readSavedCursor(const std::string &path, uint64_t fp)
{
    SavedCursor c;
    Snapshot snap;
    std::string err;
    EXPECT_EQ(loadSnapshotFile(path, fp, snap, err), SnapshotLoad::Ok)
        << err;
    const std::string *prog = snap.findSection(kSnapProgram);
    if (!prog) {
        ADD_FAILURE() << "no PROG section";
        return c;
    }
    SnapshotReader r(*prog);
    uint64_t hash = 0, scan = 0, nops = 0;
    int64_t active = -1;
    EXPECT_TRUE(r.u64(hash) && r.u64(scan) && r.i64(active) &&
                r.u64(nops));
    for (uint64_t i = 0; i < nops; i++) {
        bool issued = false, completed = false;
        int64_t memId = 0;
        EXPECT_TRUE(r.b(issued) && r.b(completed) && r.i64(memId));
        if (issued && !completed && static_cast<int64_t>(i) != active)
            c.memInFlight++;
    }
    c.kernelInFlight = active >= 0;
    return c;
}

/**
 * `cadenceDivisor` sets the save cadence to base.cycles / divisor.
 * With `expectInFlight`, the saved cursor must catch a kernel and at
 * least one memory op in flight, so the resume rebuilds a scoreboard
 * with in-flight work.
 */
void
expectResumeEquivalent(const std::string &workload, MachineKind kind,
                       const char *tag, uint64_t cadenceDivisor = 3,
                       bool expectInFlight = false)
{
    SCOPED_TRACE(workload + " / " + machineKindName(kind));
    MachineConfig cfg = MachineConfig::make(kind);
    WorkloadOptions opts;
    opts.repeats = 2;

    // Uninterrupted baseline.
    WorkloadResult base = runWorkload(workload, cfg, opts);
    ASSERT_EQ(base.status, RunStatus::Done);
    ASSERT_TRUE(base.correct);
    ASSERT_GT(base.cycles, 10u);
    const std::string baseJson = resultJson(base);

    TempCkptDir dir(tag);
    const std::string path = dir.file("job.ckpt");
    const uint64_t fp = 0x1234ABCDull;
    const uint64_t cadence =
        std::max<uint64_t>(1, base.cycles / cadenceDivisor);

    // Interrupted run: save one mid-flight checkpoint, then stop (the
    // stopAfterSave hook stands in for a SIGKILL at that cycle).
    CheckpointContext c1(path, fp, cadence);
    c1.stopAfterSave = true;
    WorkloadOptions o1 = opts;
    o1.checkpoint = &c1;
    WorkloadResult part = runWorkload(workload, cfg, o1);
    ASSERT_EQ(c1.saves(), 1u);
    ASSERT_EQ(part.status, RunStatus::Cancelled);
    ASSERT_LT(part.cycles, base.cycles);
    ASSERT_TRUE(fileExists(path));
    if (expectInFlight) {
        SavedCursor saved = readSavedCursor(path, fp);
        EXPECT_TRUE(saved.kernelInFlight);
        EXPECT_GT(saved.memInFlight, 0u);
    }

    // Resume in a fresh Machine (the workload rebuilds it), run to
    // completion: the report must be byte-identical.
    CheckpointContext c2(path, fp, cadence);
    WorkloadOptions o2 = opts;
    o2.checkpoint = &c2;
    WorkloadResult resumed = runWorkload(workload, cfg, o2);
    EXPECT_EQ(c2.restores(), 1u);
    EXPECT_EQ(c2.quarantined(), 0u);
    EXPECT_EQ(resumed.status, RunStatus::Done);
    EXPECT_TRUE(resumed.correct);
    EXPECT_EQ(resultJson(resumed), baseJson);
    // The resumed process simulated only the tail: strictly fewer
    // cycles than the whole run (the CI resilience invariant).
    EXPECT_GT(c2.executedCycles(), 0u);
    EXPECT_LT(c2.executedCycles(), base.cycles);
}

TEST(CheckpointResume, GoldenEquivalenceBase)
{
    expectResumeEquivalent("Histogram", MachineKind::Base, "gbase");
}

TEST(CheckpointResume, GoldenEquivalenceIsrf1)
{
    expectResumeEquivalent("Histogram", MachineKind::ISRF1, "gisrf1");
}

TEST(CheckpointResume, GoldenEquivalenceIsrf4)
{
    expectResumeEquivalent("Histogram", MachineKind::ISRF4, "gisrf4");
}

TEST(CheckpointResume, GoldenEquivalenceCache)
{
    expectResumeEquivalent("Histogram", MachineKind::Cache, "gcache");
}

TEST(CheckpointResume, GoldenEquivalenceSpmv)
{
    expectResumeEquivalent("SpMV Random", MachineKind::ISRF4, "gspmv");
    expectResumeEquivalent("SpMV Banded", MachineKind::Base, "gspmvb");
    expectResumeEquivalent("SpMV Power", MachineKind::Cache, "gspmvp");
}

TEST(CheckpointResume, GoldenEquivalenceStencil)
{
    expectResumeEquivalent("Stencil 2D5", MachineKind::Cache, "gsten");
}

TEST(CheckpointResume, GoldenEquivalenceFft)
{
    expectResumeEquivalent("FFT 2D", MachineKind::ISRF4, "gfft");
}

// IG_SML: strip-mined, software-pipelined programs. A cadence of 1/38
// of the run lands the first save while a kernel and memory ops are in
// flight on every machine kind (checked from the saved cursor).
TEST(CheckpointResume, GoldenEquivalenceIgSmlBase)
{
    expectResumeEquivalent("IG_SML", MachineKind::Base, "gigb", 38, true);
}

TEST(CheckpointResume, GoldenEquivalenceIgSmlIsrf1)
{
    expectResumeEquivalent("IG_SML", MachineKind::ISRF1, "gig1", 38, true);
}

TEST(CheckpointResume, GoldenEquivalenceIgSmlIsrf4)
{
    expectResumeEquivalent("IG_SML", MachineKind::ISRF4, "gig4", 38, true);
}

TEST(CheckpointResume, GoldenEquivalenceIgSmlCache)
{
    expectResumeEquivalent("IG_SML", MachineKind::Cache, "gigc", 38, true);
}

// Sort at a quarter of the run saves on the cycle a kernel retires:
// the machine has already unbound it, so the checkpoint must not still
// name it active in the program cursor.
TEST(CheckpointResume, SaveOnKernelRetireCycleResumes)
{
    expectResumeEquivalent("Sort", MachineKind::Base, "gsortb", 4);
    expectResumeEquivalent("Sort", MachineKind::Cache, "gsortc", 4);
}

// ----------------------------------------------------------------------
// Full-state resume equivalence: a resumed machine is the machine that
// never stopped, section by section, not only in its final report.
// ----------------------------------------------------------------------

/** Load a verified checkpoint file. */
Snapshot
readCheckpoint(const std::string &path, uint64_t fp)
{
    Snapshot snap;
    std::string err;
    EXPECT_EQ(loadSnapshotFile(path, fp, snap, err), SnapshotLoad::Ok)
        << err;
    return snap;
}

/**
 * Run A saves at cycle K and stops; run B resumes from A, saves at 2K
 * and stops; run C saves once at 2K without ever stopping. Every
 * section of B must be byte-equal to C's, so a field that is saved
 * but restored wrongly fails here even when the final report hides it.
 */
void
expectFullStateResumeEquivalent(const std::string &workload,
                                const MachineConfig &cfg,
                                uint64_t cadenceDivisor)
{
    SCOPED_TRACE(workload + " / " + cfg.name() + " / cycles/" +
                 std::to_string(cadenceDivisor));
    const WorkloadOptions opts;
    const WorkloadResult base = runWorkload(workload, cfg, opts);
    ASSERT_EQ(base.status, RunStatus::Done);
    const uint64_t k = std::max<uint64_t>(1, base.cycles / cadenceDivisor);
    ASSERT_LT(2 * k, base.cycles);

    TempCkptDir dir("full");
    const std::string resumed = dir.file("job.ckpt");
    const std::string straight = dir.file("ref.ckpt");
    const uint64_t fp = 0xF011ull;
    auto runOnce = [&](CheckpointContext &ctx) {
        ctx.stopAfterSave = true;
        WorkloadOptions o = opts;
        o.checkpoint = &ctx;
        runWorkload(workload, cfg, o);
        ASSERT_EQ(ctx.saves(), 1u);
    };

    CheckpointContext a(resumed, fp, k);
    runOnce(a);
    CheckpointContext b(resumed, fp, k);
    runOnce(b);
    ASSERT_EQ(b.restores(), 1u);
    CheckpointContext c(straight, fp, 2 * k);
    runOnce(c);

    const Snapshot got = readCheckpoint(resumed, fp);
    const Snapshot want = readCheckpoint(straight, fp);
    ASSERT_EQ(want.cycle, 2 * k);
    EXPECT_TRUE(test::sameSnapshotState(got, want)) << "after a resume";
}

class FullStateResume : public ::testing::TestWithParam<std::string>
{};

/**
 * The faulted input: an ISRF4 Filter job under every fault kind, each
 * firing across both save points, so delayed and dropping memory
 * units, retries and pending SRF/DRAM ECC faults cross a resume.
 */
constexpr char kFaultedFilter[] = "Filter+faults";

TEST_P(FullStateResume, SectionsMatchUninterruptedRun)
{
    const std::string &w = GetParam();
    if (w == kFaultedFilter) {
        MachineConfig cfg = MachineConfig::make(MachineKind::ISRF4);
        cfg.faults = FaultConfig::parse(
            "seed=3;retry=3;backoff=2;"
            "srf_bit:start=50,period=31,count=100000;"
            "dram_bit:start=50,period=29,count=100000,transient,bits=2,"
            "max=65536;"
            "mem_drop:start=60,period=11,count=100000;"
            "mem_delay:start=80,period=101,count=100000,delay=6;"
            "xbar_stall:start=40,period=7,count=100000");
        expectFullStateResumeEquivalent("Filter", cfg, 5);
        return;
    }
    for (MachineKind kind : {MachineKind::Base, MachineKind::ISRF1,
                             MachineKind::ISRF4, MachineKind::Cache}) {
        const MachineConfig cfg = MachineConfig::make(kind);
        expectFullStateResumeEquivalent(w, cfg, 5);
        if (w == "FFT 2D" || w == "Rijndael")
            expectFullStateResumeEquivalent(w, cfg, 4);
    }
}

std::string
workloadParamName(const ::testing::TestParamInfo<std::string> &info)
{
    std::string s = info.param;
    for (char &c : s)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return s;
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, FullStateResume,
    ::testing::Values("Sort", "Filter", "IG_SML", "IG_SCL", "IG_DMS",
                      "SpMV Power", "SpMV Random", "Stencil 2D5",
                      "Stencil 3D27", "Histogram", "FFT 2D", "Rijndael",
                      kFaultedFilter),
    workloadParamName);

// ----------------------------------------------------------------------
// StreamProgram::snapshot load checks: checksum-valid cursors that
// describe a state the driver could never reach are rejected.
// ----------------------------------------------------------------------

/**
 * ops: 0 load s0; 1 kernel s0->s1 (dep 0); 2 store s1 (dep 1);
 *      3 load s2; 4 kernel s2->s3 (dep 3).
 */
class ProgCursorTest : public ::testing::Test
{
  protected:
    void SetUp() override { prog_ = build(m_); }

    /** Initialise `m` and build the five-op program on it. */
    std::unique_ptr<StreamProgram>
    build(Machine &m) const
    {
        MachineConfig cfg = MachineConfig::make(MachineKind::Base);
        cfg.dram.capacityWords = 1 << 16;
        m.init(cfg);
        m.mem().dram().fill(0, data_);
        auto prog = std::make_unique<StreamProgram>(m);
        SlotId s[4];
        for (int i = 0; i < 4; i++)
            s[i] = prog->addStream("s" + std::to_string(i), 256);
        prog->load(s[0], 0);
        prog->kernel(test::makeCopyInvocation(m, &graph_, s[0], s[1],
                                              data_));
        prog->store(s[1], 4096);
        prog->load(s[2], 0);
        prog->kernel(test::makeCopyInvocation(m, &graph_, s[2], s[3],
                                              data_));
        return prog;
    }

    /** A PROG section; `flags` holds "ic" pairs per op (1 = set). */
    std::string
    section(uint64_t scan, int64_t active,
            const std::vector<const char *> &flags) const
    {
        SnapshotWriter w;
        w.u64(prog_->structureHash());
        w.u64(scan);
        w.i64(active);
        w.u64(flags.size());
        for (size_t i = 0; i < flags.size(); i++) {
            w.b(flags[i][0] == '1');
            w.b(flags[i][1] == '1');
            w.i64(flags[i][0] == '1' ? static_cast<int64_t>(i) + 1 : 0);
        }
        return w.data();
    }

    /** Load `bytes`; true iff accepted. Rejection must mark the reader. */
    bool
    load(const std::string &bytes)
    {
        SnapshotReader r(bytes);
        SnapshotIo io(r);
        prog_->snapshot(io);
        bool ok = io.ok();
        EXPECT_EQ(ok, r.ok());
        return ok && r.atEnd();
    }

    Machine m_;
    std::vector<Word> data_ = std::vector<Word>(256, 5);
    KernelGraph graph_ = test::makeCopyKernel();
    std::unique_ptr<StreamProgram> prog_;
};

TEST_F(ProgCursorTest, ConsistentCursorAccepted)
{
    // Load 0 done, kernel 1 active, load 3 in flight.
    EXPECT_TRUE(load(section(1, 1, {"11", "10", "00", "10", "00"})));
}

TEST_F(ProgCursorTest, CompletedButNotIssuedRejected)
{
    EXPECT_FALSE(load(section(0, -1, {"00", "00", "00", "01", "00"})));
}

TEST_F(ProgCursorTest, IssuedBeforeDepsCompleteRejected)
{
    // Kernel 1 issued while its load (op 0) is still in flight.
    EXPECT_FALSE(load(section(0, 1, {"10", "10", "00", "00", "00"})));
    // Store 2 issued while kernel 1 has not run.
    EXPECT_FALSE(load(section(1, -1, {"11", "00", "10", "00", "00"})));
}

TEST_F(ProgCursorTest, ActiveKernelOpMustBeIssuedIncompleteKernel)
{
    // Not issued.
    EXPECT_FALSE(load(section(1, 1, {"11", "00", "00", "00", "00"})));
    // Already completed.
    EXPECT_FALSE(load(section(2, 1, {"11", "11", "00", "00", "00"})));
    // Not a kernel.
    EXPECT_FALSE(load(section(0, 0, {"10", "00", "00", "00", "00"})));
}

TEST_F(ProgCursorTest, SecondIssuedKernelRejected)
{
    // Kernel 1 is active; kernel 4 is also issued and incomplete.
    EXPECT_FALSE(load(section(1, 1, {"11", "10", "00", "11", "10"})));
    // An issued, incomplete kernel with no active kernel recorded.
    EXPECT_FALSE(load(section(1, -1, {"11", "10", "00", "00", "00"})));
}

TEST_F(ProgCursorTest, IncompleteOpBelowScanStartRejected)
{
    EXPECT_FALSE(load(section(2, 1, {"11", "10", "00", "00", "00"})));
}

TEST_F(ProgCursorTest, RejectedCursorLeavesProgramUntouched)
{
    EXPECT_FALSE(load(section(2, 1, {"11", "10", "00", "00", "00"})));
    EXPECT_FALSE(load(section(0, -1, {"11", "11", "11", "11", "01"})));
    uint64_t cycles = prog_->run();
    EXPECT_EQ(prog_->lastStatus(), RunStatus::Done);

    Machine fresh;
    EXPECT_EQ(build(fresh)->run(), cycles);
    EXPECT_EQ(m_.mem().dram().dump(4096, 256), data_);
}

// ----------------------------------------------------------------------
// Fallback behavior through the full run path
// ----------------------------------------------------------------------

TEST(CheckpointResume, CorruptCheckpointQuarantinedAndRestartsClean)
{
    const std::string workload = "Histogram";
    MachineConfig cfg = MachineConfig::make(MachineKind::ISRF1);
    WorkloadOptions opts;
    opts.repeats = 2;
    WorkloadResult base = runWorkload(workload, cfg, opts);
    ASSERT_EQ(base.status, RunStatus::Done);
    const std::string baseJson = resultJson(base);

    TempCkptDir dir("corrupt");
    const std::string path = dir.file("job.ckpt");
    const uint64_t fp = 0x77ull;
    const uint64_t cadence = std::max<uint64_t>(1, base.cycles / 3);

    CheckpointContext c1(path, fp, cadence);
    c1.stopAfterSave = true;
    WorkloadOptions o1 = opts;
    o1.checkpoint = &c1;
    runWorkload(workload, cfg, o1);
    ASSERT_EQ(c1.saves(), 1u);

    // Flip one byte in the middle of the file.
    std::string bytes = readBytes(path);
    ASSERT_GT(bytes.size(), 64u);
    bytes[bytes.size() / 2] =
        static_cast<char>(static_cast<uint8_t>(
            bytes[bytes.size() / 2]) ^ 0x40);
    writeBytes(path, bytes);

    // The resume must detect it, quarantine, restart from zero, and
    // still produce the byte-identical correct report.
    CheckpointContext c2(path, fp, 0);  // cadence 0: no periodic saves
    WorkloadOptions o2 = opts;
    o2.checkpoint = &c2;
    WorkloadResult res = runWorkload(workload, cfg, o2);
    EXPECT_EQ(c2.restores(), 0u);
    EXPECT_EQ(c2.quarantined(), 1u);
    EXPECT_FALSE(fileExists(path));
    EXPECT_TRUE(fileExists(path + ".bad"));
    EXPECT_EQ(res.status, RunStatus::Done);
    EXPECT_TRUE(res.correct);
    EXPECT_EQ(resultJson(res), baseJson);
    std::remove((path + ".bad").c_str());
}

TEST(CheckpointResume, OldFormatVersionQuarantinedAndRestartsClean)
{
    // A checkpoint written by a build with an older section layout
    // (version 1 carried MACH/MEMS fields of the retired skip engine,
    // version 2 the components' clock copies and DRAM as runs,
    // version 3 the SAMP section, the memory and fault stat groups and
    // each lane's last cycle category, version 4 the SRF stat group
    // and the watchdog's trip cycle) is checksum-valid but
    // unreadable: for every older version the loader must refuse it,
    // the job must quarantine it and rerun from cycle 0 to the
    // byte-identical report.
    const std::string workload = "Histogram";
    MachineConfig cfg = MachineConfig::make(MachineKind::ISRF4);
    WorkloadOptions opts;
    opts.repeats = 2;
    WorkloadResult base = runWorkload(workload, cfg, opts);
    ASSERT_EQ(base.status, RunStatus::Done);
    const std::string baseJson = resultJson(base);

    TempCkptDir dir("oldver");
    const std::string path = dir.file("job.ckpt");
    const uint64_t fp = 0x99ull;
    CheckpointContext c1(path, fp,
                         std::max<uint64_t>(1, base.cycles / 3));
    c1.stopAfterSave = true;
    WorkloadOptions o1 = opts;
    o1.checkpoint = &c1;
    runWorkload(workload, cfg, o1);
    ASSERT_EQ(c1.saves(), 1u);
    Snapshot snap;
    std::string err;
    ASSERT_TRUE(snap.parse(readBytes(path), err)) << err;

    ASSERT_GE(kSnapshotFormatVersion, 5u);
    for (uint32_t version = 1; version < kSnapshotFormatVersion;
         version++) {
        SCOPED_TRACE("version " + std::to_string(version));
        // Re-serialize the real checkpoint under the old version:
        // serialize() recomputes every checksum, so only the version
        // is wrong.
        snap.version = version;
        writeBytes(path, snap.serialize());
        Snapshot out;
        EXPECT_EQ(loadSnapshotFile(path, fp, out, err),
                  SnapshotLoad::Corrupt);
        EXPECT_NE(err.find("unsupported snapshot format version " +
                           std::to_string(version)),
                  std::string::npos) << err;

        CheckpointContext c2(path, fp, 0);  // cadence 0: no saves
        WorkloadOptions o2 = opts;
        o2.checkpoint = &c2;
        WorkloadResult res = runWorkload(workload, cfg, o2);
        EXPECT_EQ(c2.restores(), 0u);
        EXPECT_EQ(c2.quarantined(), 1u);
        EXPECT_EQ(c2.executedCycles(), base.cycles)
            << "the job must rerun from cycle 0";
        EXPECT_FALSE(fileExists(path));
        EXPECT_TRUE(fileExists(path + ".bad"));
        EXPECT_EQ(res.status, RunStatus::Done);
        EXPECT_TRUE(res.correct);
        EXPECT_EQ(resultJson(res), baseJson);
        std::remove((path + ".bad").c_str());
    }
}

TEST(CheckpointResume, TruncatedCheckpointQuarantinedAtManyOffsets)
{
    // The exhaustive per-byte fuzz above runs on a small synthetic
    // snapshot; this pass drives a REAL machine checkpoint through
    // the same loader at strided truncation points (exhaustive would
    // be O(size^2) on a multi-KB file).
    const std::string workload = "Histogram";
    MachineConfig cfg = MachineConfig::make(MachineKind::Base);
    WorkloadOptions opts;
    opts.repeats = 2;
    WorkloadResult base = runWorkload(workload, cfg, opts);
    ASSERT_EQ(base.status, RunStatus::Done);

    TempCkptDir dir("trreal");
    const std::string path = dir.file("job.ckpt");
    const uint64_t fp = 0x88ull;
    CheckpointContext c1(path, fp,
                         std::max<uint64_t>(1, base.cycles / 3));
    c1.stopAfterSave = true;
    WorkloadOptions o1 = opts;
    o1.checkpoint = &c1;
    runWorkload(workload, cfg, o1);
    ASSERT_EQ(c1.saves(), 1u);

    const std::string bytes = readBytes(path);
    ASSERT_GT(bytes.size(), 256u);
    const size_t stride = std::max<size_t>(1, bytes.size() / 97);
    for (size_t cut = 0; cut < bytes.size(); cut += stride) {
        writeBytes(path, bytes.substr(0, cut));
        Snapshot out;
        std::string err;
        EXPECT_EQ(loadSnapshotFile(path, fp, out, err),
                  SnapshotLoad::Corrupt)
            << "truncation at byte " << cut << "/" << bytes.size();
    }
    // And single-bit flips at the same strided offsets.
    for (size_t i = 0; i < bytes.size(); i += stride) {
        std::string damaged = bytes;
        damaged[i] = static_cast<char>(
            static_cast<uint8_t>(damaged[i]) ^ (1u << (i % 8)));
        writeBytes(path, damaged);
        Snapshot out;
        std::string err;
        EXPECT_EQ(loadSnapshotFile(path, fp, out, err),
                  SnapshotLoad::Corrupt)
            << "bit flip at byte " << i << "/" << bytes.size();
    }
    writeBytes(path, bytes);
    Snapshot out;
    std::string err;
    EXPECT_EQ(loadSnapshotFile(path, fp, out, err), SnapshotLoad::Ok)
        << err;
}

TEST(CheckpointResume, StaleFingerprintIgnoredNotQuarantined)
{
    const std::string workload = "Histogram";
    MachineConfig cfg = MachineConfig::make(MachineKind::Base);
    WorkloadOptions opts;
    opts.repeats = 2;
    WorkloadResult base = runWorkload(workload, cfg, opts);
    const std::string baseJson = resultJson(base);

    TempCkptDir dir("stale");
    const std::string path = dir.file("job.ckpt");
    CheckpointContext c1(path, 0xAAAAull,
                         std::max<uint64_t>(1, base.cycles / 3));
    c1.stopAfterSave = true;
    WorkloadOptions o1 = opts;
    o1.checkpoint = &c1;
    runWorkload(workload, cfg, o1);
    ASSERT_EQ(c1.saves(), 1u);

    // A context for a DIFFERENT job must not restore, must not
    // quarantine (the file belongs to someone else), and must still
    // produce a clean from-zero run.
    CheckpointContext c2(path, 0xBBBBull, 0);
    WorkloadOptions o2 = opts;
    o2.checkpoint = &c2;
    WorkloadResult res = runWorkload(workload, cfg, o2);
    EXPECT_EQ(c2.restores(), 0u);
    EXPECT_EQ(c2.quarantined(), 0u);
    EXPECT_TRUE(fileExists(path));  // untouched
    EXPECT_EQ(res.status, RunStatus::Done);
    EXPECT_EQ(resultJson(res), baseJson);
}

// ----------------------------------------------------------------------
// SweepRunner lifecycle
// ----------------------------------------------------------------------

TEST(SweepCheckpoint, RunnerResumesAndCleansUp)
{
    SweepJob job;
    job.workload = "Histogram";
    job.cfg = MachineConfig::make(MachineKind::Base);
    job.opts.repeats = 2;
    const uint64_t fp = SweepRunner::fingerprint(job);

    // Uninterrupted baseline through the runner.
    SweepRunner runner(1);
    auto baseOut = runner.run({job});
    ASSERT_EQ(baseOut.size(), 1u);
    ASSERT_EQ(baseOut[0].status, RunStatus::Done);
    const std::string baseJson = baseOut[0].resultText;
    const uint64_t totalCycles = baseOut[0].result.cycles;
    ASSERT_GT(totalCycles, 10u);

    // Simulate a killed job: leave a mid-flight checkpoint behind at
    // the exact path the runner derives from the job fingerprint.
    TempCkptDir dir("runner");
    const std::string path = checkpointFilePath(dir.path(), fp);
    CheckpointContext c1(path, fp,
                         std::max<uint64_t>(1, totalCycles / 3));
    c1.stopAfterSave = true;
    WorkloadOptions o1 = job.opts;
    o1.checkpoint = &c1;
    runWorkload(job.workload, job.cfg, o1);
    ASSERT_EQ(c1.saves(), 1u);
    ASSERT_TRUE(fileExists(path));

    // The policy-driven run resumes from it, reports byte-identical
    // results, executed strictly fewer cycles, and removes the file
    // once the outcome is replayable.
    SweepPolicy policy;
    policy.checkpointDir = dir.path();
    policy.checkpointEveryCycles =
        std::max<uint64_t>(1, totalCycles / 3);
    auto out = runner.run({job}, policy);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].status, RunStatus::Done);
    EXPECT_EQ(out[0].resultText, baseJson);
    const SweepTiming &t = runner.timing();
    EXPECT_EQ(t.checkpointRestores, 1u);
    EXPECT_GT(t.simCyclesExecuted, 0u);
    EXPECT_LT(t.simCyclesExecuted, totalCycles);
    EXPECT_FALSE(fileExists(path));

    // A fresh checkpointed run (no file) starts from zero, saves on
    // cadence, still matches, and cleans up after itself.
    auto out2 = runner.run({job}, policy);
    EXPECT_EQ(out2[0].resultText, baseJson);
    EXPECT_EQ(runner.timing().checkpointRestores, 0u);
    EXPECT_GE(runner.timing().checkpointSaves, 1u);
    EXPECT_EQ(runner.timing().simCyclesExecuted, totalCycles);
    EXPECT_FALSE(fileExists(path));
}

TEST(SweepCheckpoint, RunnerRemovesStaleTempFilesOfFinishedJobs)
{
    // A save killed between mkstemp() and rename() leaves
    // <ckpt>.tmp.XXXXXX behind. The job's replayable outcome removes it
    // with the .ckpt; another job's temp file is left alone.
    SweepJob job;
    job.workload = "Sort";
    job.cfg = MachineConfig::make(MachineKind::Base);
    TempCkptDir dir("stale_tmp");
    const std::string stale =
        checkpointFilePath(dir.path(), SweepRunner::fingerprint(job)) +
        ".tmp.Ab12Cd";
    const std::string other =
        checkpointFilePath(dir.path(), 1) + ".tmp.Ab12Cd";
    writeBytes(stale, "torn");
    writeBytes(other, "torn");

    SweepPolicy policy;
    policy.checkpointDir = dir.path();
    policy.journalPath = dir.file("sweep.jsonl");
    SweepRunner runner(1);
    auto out = runner.run({job}, policy);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].status, RunStatus::Done);
    EXPECT_FALSE(fileExists(stale));

    // A resumed sweep replays the job from the journal instead of
    // running it, and removes what a killed save left all the same.
    writeBytes(stale, "torn");
    policy.resume = true;
    out = runner.run({job}, policy);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0].fromJournal);
    EXPECT_FALSE(fileExists(stale));
    EXPECT_TRUE(fileExists(other));
    std::remove(other.c_str());
    std::remove(policy.journalPath.c_str());
}

TEST(SweepCheckpoint, PolicyKnobsExcludedFromFingerprint)
{
    // Checkpointing observes a run without changing its results, so
    // it must not invalidate journals: the canonical job text (and
    // hence every fingerprint) ignores the checkpoint policy and the
    // per-job context pointer.
    SweepJob a;
    a.workload = "Filter";
    a.cfg = MachineConfig::make(MachineKind::Base);
    SweepJob b = a;
    CheckpointContext ctx("/tmp/nowhere.ckpt", 1, 100);
    b.opts.checkpoint = &ctx;
    EXPECT_EQ(SweepRunner::canonicalJobText(a),
              SweepRunner::canonicalJobText(b));
    EXPECT_EQ(SweepRunner::fingerprint(a), SweepRunner::fingerprint(b));
}

// ----------------------------------------------------------------------
// Machine-level snapshot plumbing
// ----------------------------------------------------------------------

TEST(MachineSnapshot, GeometryHashSeparatesConfigs)
{
    Machine base, isrf4, cache;
    base.init(MachineConfig::make(MachineKind::Base));
    isrf4.init(MachineConfig::make(MachineKind::ISRF4));
    cache.init(MachineConfig::make(MachineKind::Cache));
    EXPECT_NE(base.geometryHash(), isrf4.geometryHash());
    EXPECT_NE(base.geometryHash(), cache.geometryHash());
    EXPECT_NE(isrf4.geometryHash(), cache.geometryHash());

    Machine base2;
    base2.init(MachineConfig::make(MachineKind::Base));
    EXPECT_EQ(base.geometryHash(), base2.geometryHash());
}

TEST(MachineSnapshot, LoadRejectsWrongGeometry)
{
    Machine base;
    base.init(MachineConfig::make(MachineKind::Base));
    Snapshot snap;
    base.saveSnapshot(snap);

    Machine other;
    other.init(MachineConfig::make(MachineKind::ISRF4));
    std::string err;
    EXPECT_FALSE(other.loadSnapshot(snap, nullptr, &err));
    EXPECT_NE(err.find("geometry"), std::string::npos) << err;
}

TEST(MachineSnapshot, IdleMachineRoundtripRestoresClock)
{
    Machine m;
    m.init(MachineConfig::make(MachineKind::ISRF1));
    m.step(1234);
    EXPECT_EQ(m.now(), 1234u);
    Snapshot snap;
    m.saveSnapshot(snap);
    EXPECT_EQ(snap.cycle, 1234u);

    Machine fresh;
    fresh.init(MachineConfig::make(MachineKind::ISRF1));
    EXPECT_EQ(fresh.now(), 0u);
    std::string err;
    ASSERT_TRUE(fresh.loadSnapshot(snap, nullptr, &err)) << err;
    EXPECT_EQ(fresh.now(), 1234u);
}

} // namespace
} // namespace isrf
