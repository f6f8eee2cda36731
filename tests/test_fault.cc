/**
 * @file
 * Fault-injection, ECC, retry, degradation and watchdog tests
 * (DESIGN.md §Fault model). Registered under the `fault` ctest label
 * so CI's fault-soak job can run exactly this suite.
 */
#include <gtest/gtest.h>

#include <cstdlib>

#include "core/machine.h"
#include "core/report.h"
#include "core/stream_program.h"
#include "fault/ecc.h"
#include "fault/fault_config.h"
#include "fault/watchdog.h"
#include "mem/dram.h"
#include "srf/srf_bank.h"
#include "util/json.h"
#include "workloads/workload.h"

namespace isrf {
namespace {

/** Scoped ISRF_FAULTS setting; restores the environment on exit. */
class ScopedFaultsEnv
{
  public:
    explicit ScopedFaultsEnv(const char *spec)
    {
        const char *old = std::getenv("ISRF_FAULTS");
        if (old)
            saved_ = old;
        had_ = old != nullptr;
        setenv("ISRF_FAULTS", spec, 1);
    }
    ~ScopedFaultsEnv()
    {
        if (had_)
            setenv("ISRF_FAULTS", saved_.c_str(), 1);
        else
            unsetenv("ISRF_FAULTS");
    }

  private:
    std::string saved_;
    bool had_ = false;
};

// ---------------------------------------------------------------- ECC

TEST(Ecc, SingleBitFaultIsCorrectedAndScrubbed)
{
    EccDomain ecc;
    Word storage = 0xABCD1234u;
    ecc.inject(7, 1u << 5, false, &storage);
    EXPECT_NE(storage, 0xABCD1234u);
    EXPECT_EQ(ecc.pendingFaults(), 1u);
    EXPECT_EQ(ecc.check(7, &storage), EccStatus::Corrected);
    EXPECT_EQ(storage, 0xABCD1234u);  // scrubbed in place
    EXPECT_EQ(ecc.pendingFaults(), 0u);
    EXPECT_EQ(ecc.corrected(), 1u);
    EXPECT_EQ(ecc.check(7, &storage), EccStatus::Clean);
}

TEST(Ecc, DoubleBitFaultIsDetectedNotCorrected)
{
    EccDomain ecc;
    Word storage = 0x5555AAAAu;
    ecc.inject(3, 0b11u, false, &storage);
    EXPECT_EQ(ecc.check(3, &storage), EccStatus::Uncorrectable);
    // A persistent hard fault stays: the data is still corrupt and a
    // re-read detects it again.
    EXPECT_NE(storage, 0x5555AAAAu);
    EXPECT_EQ(ecc.check(3, &storage), EccStatus::Uncorrectable);
    EXPECT_EQ(ecc.uncorrectable(), 2u);
    EXPECT_EQ(ecc.corrected(), 0u);
}

TEST(Ecc, TransientUncorrectableClearsOnDetection)
{
    EccDomain ecc;
    Word storage = 0x13579BDFu;
    ecc.inject(9, 0b101u, true, &storage);
    // The detecting read still observes failure...
    EXPECT_EQ(ecc.check(9, &storage), EccStatus::Uncorrectable);
    // ...but the fault was transient: storage is restored and a retry
    // of the same address succeeds.
    EXPECT_EQ(storage, 0x13579BDFu);
    EXPECT_EQ(ecc.check(9, &storage), EccStatus::Clean);
}

TEST(Ecc, WriteReencodesAndDropsPendingFault)
{
    EccDomain ecc;
    Word storage = 1;
    ecc.inject(0, 0b11u, false, &storage);
    ecc.onWrite(0);
    storage = 42;
    EXPECT_EQ(ecc.check(0, &storage), EccStatus::Clean);
    EXPECT_EQ(storage, 42u);
}

TEST(Ecc, RepeatedSameBitFlipsCancel)
{
    EccDomain ecc;
    Word storage = 0xFFFF0000u;
    ecc.inject(4, 1u << 3, false, &storage);
    ecc.inject(4, 1u << 3, false, &storage);
    EXPECT_EQ(storage, 0xFFFF0000u);
    EXPECT_EQ(ecc.pendingFaults(), 0u);
    EXPECT_EQ(ecc.faultsInjected(), 2u);
}

TEST(Ecc, ScrubRepairsAllSingleBitFaults)
{
    EccDomain ecc;
    std::vector<Word> mem(16, 0xC0FFEEu);
    ecc.inject(1, 1u << 0, false, &mem[1]);
    ecc.inject(5, 1u << 9, false, &mem[5]);
    ecc.inject(8, 0b11000u, false, &mem[8]);  // uncorrectable
    uint64_t repaired =
        ecc.scrub([&](uint64_t addr) { return &mem[addr]; });
    EXPECT_EQ(repaired, 2u);
    EXPECT_EQ(mem[1], 0xC0FFEEu);
    EXPECT_EQ(mem[5], 0xC0FFEEu);
    EXPECT_EQ(ecc.uncorrectable(), 1u);
}

// --------------------------------------------------- FaultConfig parse

TEST(FaultConfig, EmptyAndZeroSpecsDisable)
{
    EXPECT_FALSE(FaultConfig::parse("").enabled);
    EXPECT_FALSE(FaultConfig::parse("0").enabled);
}

TEST(FaultConfig, GlobalKeysParse)
{
    FaultConfig fc = FaultConfig::parse(
        "seed=7;ecc=0;retry=9;backoff=2;timeout=1000;threshold=3;"
        "watchdog=500;stall_intervals=6");
    EXPECT_TRUE(fc.enabled);
    EXPECT_EQ(fc.seed, 7u);
    EXPECT_FALSE(fc.eccEnabled);
    EXPECT_EQ(fc.retryLimit, 9u);
    EXPECT_EQ(fc.retryBackoffBase, 2u);
    EXPECT_EQ(fc.opTimeoutCycles, 1000u);
    EXPECT_EQ(fc.degradeThreshold, 3u);
    EXPECT_EQ(fc.watchdogInterval, 500u);
    EXPECT_EQ(fc.watchdogStallIntervals, 6u);
    EXPECT_TRUE(fc.schedule.empty());
}

TEST(FaultConfig, ScheduleEntriesParse)
{
    FaultConfig fc = FaultConfig::parse(
        "srf_bit:start=100,period=50,count=200,bits=2,max=64,transient;"
        "mem_delay:delay=12;xbar_stall");
    ASSERT_EQ(fc.schedule.size(), 3u);
    const FaultScheduleEntry &e = fc.schedule[0];
    EXPECT_EQ(e.kind, FaultKind::SrfBit);
    EXPECT_EQ(e.start, 100u);
    EXPECT_EQ(e.period, 50u);
    EXPECT_EQ(e.count, 200u);
    EXPECT_EQ(e.bits, 2u);
    EXPECT_EQ(e.maxAddr, 64u);
    EXPECT_TRUE(e.transient);
    EXPECT_EQ(fc.schedule[1].kind, FaultKind::MemDelay);
    EXPECT_EQ(fc.schedule[1].delayCycles, 12u);
    EXPECT_EQ(fc.schedule[2].kind, FaultKind::XbarStall);
}

TEST(FaultConfigDeathTest, UnknownKeysAndKindsAreFatal)
{
    EXPECT_DEATH(FaultConfig::parse("bogus=1"), "unknown key");
    EXPECT_DEATH(FaultConfig::parse("nope:count=1"),
                 "unknown fault kind");
    EXPECT_DEATH(FaultConfig::parse("srf_bit:bogus=1"), "unknown");
    EXPECT_DEATH(FaultConfig::parse("srf_bit:bits=40"), "bits must be");
}

// --------------------------------------------------------- SRF bank

TEST(SrfBankFault, SingleBitFaultCorrectedOnRead)
{
    SrfGeometry geom;
    SrfBank bank;
    bank.init(geom, 0);
    bank.write(100, 0xDEADBEEFu);
    bank.injectBitFlips(100, 1u << 17, false);
    EXPECT_EQ(bank.read(100), 0xDEADBEEFu);
    EXPECT_EQ(bank.ecc().corrected(), 1u);
    EXPECT_EQ(bank.ecc().uncorrectable(), 0u);
}

TEST(SrfBankFault, UncorrectableBurstDegradesSubArray)
{
    SrfGeometry geom;  // subArrays=4, seqWidth=4: addr 0..3 -> sub 0
    SrfBank bank;
    bank.init(geom, 0);
    bank.setDegradeThreshold(2);
    bank.injectBitFlips(0, 0b11u, false);  // persistent hard fault
    bank.read(0);
    EXPECT_FALSE(bank.subArrayOffline(0));
    bank.read(0);  // second uncorrectable hits the threshold
    EXPECT_TRUE(bank.subArrayOffline(0));
    EXPECT_EQ(bank.offlineSubArrays(), 1u);

    // Indexed accesses to the dead sub-array remap onto the next
    // online one, which then carries the combined port pressure.
    bank.newCycle();
    EXPECT_TRUE(bank.claimIndexedWord(0));   // remapped to sub-array 1
    EXPECT_FALSE(bank.claimIndexedWord(4));  // sub-array 1: port busy
    EXPECT_TRUE(bank.claimIndexedWord(8));   // sub-array 2 unaffected
}

TEST(SrfBankFault, LastOnlineSubArrayIsProtected)
{
    SrfGeometry geom;
    SrfBank bank;
    bank.init(geom, 0);
    for (uint32_t s = 1; s < geom.subArrays; s++)
        bank.setSubArrayOffline(s, true);
    EXPECT_EQ(bank.offlineSubArrays(), geom.subArrays - 1);
    EXPECT_DEATH(bank.setSubArrayOffline(0, true), "last online");
}

TEST(SrfFault, InjectAndScrubAcrossBanks)
{
    SrfGeometry geom;
    Srf srf;
    srf.init(geom, SrfMode::Indexed4, nullptr);
    srf.writeWord(2, 50, 0x12345678u);
    srf.injectBitFlips(2, 50, 1u << 4, false);
    EXPECT_EQ(srf.faultsInjected(), 1u);
    EXPECT_EQ(srf.scrubFaults(), 1u);
    EXPECT_EQ(srf.readWord(2, 50), 0x12345678u);
    EXPECT_EQ(srf.eccCorrected(), 1u);
    EXPECT_EQ(srf.eccUncorrectable(), 0u);
}

// ------------------------------------------------ machine validation

TEST(ConfigValidateDeathTest, ReportsAllViolationsAtOnce)
{
    MachineConfig cfg = MachineConfig::base();
    cfg.srf.subArrays = 3;       // not a power of two
    cfg.dram.accessLatency = 0;  // invalid
    // Both violations appear in one fatal() message.
    EXPECT_DEATH(cfg.validate(), "2 violation");
    EXPECT_DEATH(cfg.validate(), "subArrays must be a power of two");
    EXPECT_DEATH(cfg.validate(), "accessLatency must be nonzero");
}

TEST(ConfigValidateDeathTest, KeepsExistingChecks)
{
    MachineConfig cfg = MachineConfig::base();
    cfg.mem.cacheEnabled = true;
    EXPECT_DEATH(cfg.validate(), "cache enabled");
    MachineConfig cc = MachineConfig::cacheCfg();
    cc.mem.cacheEnabled = false;
    EXPECT_DEATH(cc.validate(), "without cache");
    MachineConfig lw = MachineConfig::base();
    lw.srf.laneWords = 4098;
    EXPECT_DEATH(lw.validate(), "multiple of seqWidth");
}

TEST(ConfigValidateDeathTest, SeqWidthBeyondRowBufferIsConfigError)
{
    // Used to hard-fatal() inside Srf::init() at machine-build time;
    // now reported collect-all with the other config violations.
    MachineConfig cfg = MachineConfig::base();
    cfg.srf.seqWidth = 16;  // keeps laneWords a multiple: one violation
    EXPECT_DEATH(cfg.validate(), "seqWidth > 8 unsupported");
}

TEST(ConfigValidateDeathTest, TooManySlotsForGlobalArbiter)
{
    MachineConfig cfg = MachineConfig::base();
    cfg.srf.maxStreamSlots = 64;  // + indexed bundle = 65 claimants
    EXPECT_DEATH(cfg.validate(), "at most 64 claimants");
}

// ----------------------------------------------- retry / poison path

MachineConfig
faultMachineConfig()
{
    MachineConfig cfg = MachineConfig::base();
    cfg.dram.capacityWords = 1 << 18;
    cfg.faults.enabled = true;
    cfg.faults.retryLimit = 2;
    cfg.faults.retryBackoffBase = 2;
    return cfg;
}

TEST(MemRetry, TransientUncorrectableRecoversViaRetry)
{
    Machine m;
    m.init(faultMachineConfig());
    std::vector<Word> input(256);
    for (size_t i = 0; i < input.size(); i++)
        input[i] = static_cast<Word>(i + 1);
    m.mem().dram().fill(0, input);
    // Noise on the array's read path: the stored data is intact, so
    // the bounded-backoff retry observes clean data.
    m.mem().dram().injectBitFlips(17, 0b101u, true);

    StreamProgram prog(m);
    SlotId s = prog.addStream("s", 256);
    prog.load(s, 0);
    prog.run();
    EXPECT_EQ(prog.dumpStream(s), input);
    EXPECT_GE(m.mem().retries(), 1u);
    EXPECT_EQ(m.mem().poisonedWords(), 0u);
}

TEST(MemRetry, PersistentUncorrectablePoisonsInsteadOfAborting)
{
    Machine m;
    m.init(faultMachineConfig());
    std::vector<Word> input(256, 7);
    m.mem().dram().fill(0, input);
    m.mem().dram().injectBitFlips(100, 0b11u, false);  // hard fault

    StreamProgram prog(m);
    SlotId s = prog.addStream("s", 256);
    prog.load(s, 0);
    prog.run();  // completes despite the uncorrectable word
    std::vector<Word> out = prog.dumpStream(s);
    EXPECT_EQ(out[100], kPoisonWord);
    out[100] = 7;
    EXPECT_EQ(out, input);
    EXPECT_EQ(m.mem().poisonedWords(), 1u);
    // Both configured retries were spent before poisoning.
    EXPECT_EQ(m.mem().retries(), 2u);
    EXPECT_EQ(m.mem().stats().counter("ops_poisoned").value(), 1u);
}

// ------------------------------------------------------- watchdog

TEST(Watchdog, TriggersAfterStalledIntervals)
{
    // Machine::step ticks the watchdog after the machine, every cycle.
    // Progress (SRF + DRAM words, loop-body cycles) for a while: no
    // trigger.
    MachineConfig cfg = MachineConfig::base();
    cfg.faults = FaultConfig::parse("watchdog=100;stall_intervals=2");
    cfg.dram.capacityWords = 1 << 16;
    Machine m;
    m.init(cfg);
    ASSERT_NE(m.watchdog(), nullptr);
    std::vector<Word> data(4096, 3);
    m.mem().dram().fill(0, data);
    StreamProgram prog(m);
    SlotId s = prog.addStream("s", 4096);
    prog.load(s, 0);
    prog.run();
    EXPECT_EQ(prog.lastStatus(), RunStatus::Done);
    EXPECT_GT(m.now(), 300u) << "the load must span several intervals";
    EXPECT_FALSE(m.watchdogTriggered());
    // Now idle: two zero-progress intervals trip it (the first check
    // may still see the load's last words).
    m.step(300);
    EXPECT_TRUE(m.watchdogTriggered());
    EXPECT_TRUE(jsonValid(m.watchdog()->reportJson()));
    m.watchdog()->rearm();
    EXPECT_FALSE(m.watchdogTriggered());
}

TEST(Watchdog, MachineRunUntilReportsStalled)
{
    Machine m;
    MachineConfig cfg = MachineConfig::base();
    cfg.faults = FaultConfig::parse("watchdog=50;stall_intervals=2");
    cfg.dram.capacityWords = 1 << 16;
    m.init(cfg);
    ASSERT_NE(m.watchdog(), nullptr);
    // An idle machine makes no progress: the watchdog trips and the
    // run resolves to Stalled rather than a plain cycle-limit Limit.
    RunResult r = m.runUntil([]() { return false; }, 1000);
    EXPECT_EQ(r.status, RunStatus::Stalled);
    // The loop stops as soon as the watchdog trips, not at the cap.
    EXPECT_LT(r.cycles, 1000u);
    EXPECT_TRUE(m.watchdogTriggered());
    EXPECT_TRUE(jsonValid(m.watchdog()->reportJson()));
}

// -------------------------------------------------- acceptance soak

const char *kSoakSpec =
    "seed=11;threshold=0;"
    "srf_bit:start=400,period=17,count=40;"
    "dram_bit:start=200,period=13,count=120";

TEST(FaultSoak, SeededScheduleCorrectsEverythingBitIdentical)
{
    WorkloadOptions opts;
    opts.repeats = 2;
    WorkloadResult clean =
        runWorkload("Sort", MachineKind::ISRF4, opts);
    ASSERT_TRUE(clean.correct);

    ScopedFaultsEnv env(kSoakSpec);
    WorkloadResult faulty =
        runWorkload("Sort", MachineKind::ISRF4, opts);
    // Output is validated word-for-word against the reference model:
    // correct==true under injection means the run was bit-identical.
    EXPECT_TRUE(faulty.correct);
    EXPECT_GE(faulty.extra.at("faults_injected"), 100.0);
    EXPECT_GE(faulty.extra.at("ecc_corrected"), 100.0);
    EXPECT_EQ(faulty.extra.at("ecc_uncorrectable"), 0.0);
    EXPECT_EQ(faulty.extra.at("poisoned_words"), 0.0);
    // Data-only faults never perturb timing.
    EXPECT_EQ(faulty.cycles, clean.cycles);
}

TEST(FaultSoak, InjectionIsDeterministic)
{
    ScopedFaultsEnv env(kSoakSpec);
    WorkloadOptions opts;
    opts.repeats = 1;
    WorkloadResult a = runWorkload("Filter", MachineKind::ISRF4, opts);
    WorkloadResult b = runWorkload("Filter", MachineKind::ISRF4, opts);
    EXPECT_TRUE(a.correct);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.extra.at("faults_injected"),
              b.extra.at("faults_injected"));
    EXPECT_EQ(a.extra.at("ecc_corrected"), b.extra.at("ecc_corrected"));
    EXPECT_EQ(a.extra.at("retries"), b.extra.at("retries"));
}

TEST(FaultSoak, AllFaultKindsRunToCompletion)
{
    ScopedFaultsEnv env(
        "seed=3;retry=3;backoff=2;"
        "srf_bit:start=50,period=31,count=20;"
        "dram_bit:start=50,period=29,count=20,transient,bits=2;"
        "mem_drop:start=60,period=11,count=30;"
        "mem_delay:start=80,period=101,count=10,delay=6;"
        "xbar_stall:start=40,period=7,count=50");
    WorkloadOptions opts;
    opts.repeats = 1;
    WorkloadResult r = runWorkload("Filter", MachineKind::ISRF4, opts);
    // Timing faults shift cycles but never correctness.
    EXPECT_TRUE(r.correct);
    EXPECT_GT(r.extra.at("faults_injected"), 0.0);
}

TEST(FaultSoak, ReportsCarryFaultSection)
{
    Machine m;
    MachineConfig cfg = MachineConfig::base();
    cfg.faults =
        FaultConfig::parse("seed=2;dram_bit:start=10,period=5,count=30");
    cfg.dram.capacityWords = 1 << 16;
    m.init(cfg);
    std::vector<Word> data(512, 9);
    m.mem().dram().fill(0, data);
    StreamProgram prog(m);
    SlotId s = prog.addStream("s", 512);
    prog.load(s, 0);
    prog.run();

    std::string text = machineReport(m);
    EXPECT_NE(text.find("fault:"), std::string::npos);
    EXPECT_NE(text.find("ecc_corrected"), std::string::npos);
    std::string json = machineReportJson(m);
    ASSERT_TRUE(jsonValid(json));
    EXPECT_NE(json.find("\"fault\""), std::string::npos);
    EXPECT_NE(json.find("\"ecc_detected_uncorrectable\""),
              std::string::npos);
}

} // namespace
} // namespace isrf
