/**
 * @file
 * Tests for the machine's clock and run loop (stepping, the stop rule,
 * cooperative cancellation), Machine re-initialization, breakdown
 * arithmetic and trace utilities.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/breakdown.h"
#include "core/stream_program.h"
#include "test_helpers.h"
#include "workloads/trace_util.h"
#include "workloads/workload.h"

namespace isrf {
namespace {

/** A Base machine with a small DRAM: cheap to init, idle until used. */
MachineConfig
idleConfig()
{
    MachineConfig cfg = MachineConfig::base();
    cfg.dram.capacityWords = 1 << 16;
    return cfg;
}

/** The SRF section of a standalone Srf of `cfg` after `n` idle cycles. */
std::string
idleSrfSection(const MachineConfig &cfg, Cycle n)
{
    Srf srf;
    srf.init(cfg.srf, cfg.srfMode, nullptr);
    for (Cycle c = 0; c < n; c++) {
        srf.beginCycle(c);
        srf.endCycle(c);
    }
    return test::srfSection(srf);
}

TEST(Engine, StepInvokesTickAndPostTickInOrder)
{
    // Each step ticks the machine, then advances the clock: every idle
    // machine cycle adds one lanes-wide breakdown cycle and ends one SRF
    // cycle, so the SRF's state is a standalone Srf's after as many
    // idle cycles (its cross-lane route pointer turns once per cycle).
    const MachineConfig cfg = idleConfig();
    Machine m;
    m.init(cfg);
    m.step();
    EXPECT_EQ(m.now(), 1u);
    EXPECT_EQ(m.breakdown().total(), m.lanes());
    EXPECT_EQ(test::srfSection(m.srf()), idleSrfSection(cfg, 1));
    m.step(9);
    EXPECT_EQ(m.now(), 10u) << "step(n) advances exactly n cycles";
    EXPECT_EQ(m.breakdown().total(), 10u * m.lanes());
    const std::string srf = test::srfSection(m.srf());
    EXPECT_EQ(srf, idleSrfSection(cfg, 10));
    EXPECT_NE(srf, idleSrfSection(cfg, 9));
    EXPECT_NE(srf, idleSrfSection(cfg, 11));
}

TEST(Engine, RunUntilStopsOnPredicate)
{
    Machine m;
    m.init(idleConfig());
    RunResult r = m.runUntil([&]() { return m.now() >= 42; });
    EXPECT_EQ(r.status, RunStatus::Done);
    EXPECT_TRUE(r.done());
    EXPECT_EQ(r.cycles, 42u);
    EXPECT_EQ(m.now(), 42u);
}

TEST(Engine, RunUntilLimitReturnsStatus)
{
    Machine m;
    m.init(idleConfig());
    RunResult r = m.runUntil([]() { return false; }, 100);
    EXPECT_EQ(r.status, RunStatus::Limit);
    EXPECT_FALSE(r.done());
    EXPECT_EQ(r.cycles, 100u);
    EXPECT_EQ(m.lastRunStatus(), RunStatus::Limit);
    // The machine keeps running normally after a limit return.
    EXPECT_EQ(m.now(), 100u);
    RunResult r2 = m.runUntil([&]() { return m.now() >= 150; }, 1000);
    EXPECT_EQ(r2.status, RunStatus::Done);
    EXPECT_EQ(r2.cycles, 50u);
}

TEST(Engine, RunStatusNames)
{
    EXPECT_STREQ(runStatusName(RunStatus::Done), "done");
    EXPECT_STREQ(runStatusName(RunStatus::Limit), "limit");
    EXPECT_STREQ(runStatusName(RunStatus::Stalled), "stalled");
}

// ----------------------------------------------------------------------
// Cooperative cancellation / deadline
// ----------------------------------------------------------------------

TEST(EngineCancel, PreCancelledTokenStopsBeforeTheFirstStep)
{
    // Cancellation is observed at cycle boundaries only; a token that
    // is already tripped must stop the run at cycle 0.
    Machine m;
    m.init(idleConfig());
    CancelToken token;
    token.cancel();
    m.setCancel(&token);
    RunResult r = m.runUntil([] { return false; }, 1000);
    EXPECT_EQ(r.status, RunStatus::Cancelled);
    EXPECT_EQ(r.cycles, 0u);
    EXPECT_EQ(m.now(), 0u);
    EXPECT_EQ(m.breakdown().total(), 0u) << "no cycle was ticked";
}

TEST(EngineCancel, ExpiredDeadlineReportsTimedOut)
{
    Machine m;
    m.init(idleConfig());
    CancelToken token;
    token.setTimeout(1e-9);  // expires immediately
    m.setCancel(&token);
    RunResult r = m.runUntil([] { return false; }, 1000);
    EXPECT_EQ(r.status, RunStatus::TimedOut);
    EXPECT_EQ(r.cycles, 0u);
}

TEST(EngineCancel, CancellationWinsOverDeadline)
{
    Machine m;
    m.init(idleConfig());
    CancelToken token;
    token.cancel();
    token.setTimeout(1e-9);
    m.setCancel(&token);
    EXPECT_EQ(m.runUntil([] { return false; }, 10).status,
              RunStatus::Cancelled);
}

TEST(EngineCancel, FinishedRunIsNeverReportedCancelled)
{
    // The predicate is checked before the token: a run that is already
    // done must return Done even under a tripped token.
    Machine m;
    m.init(idleConfig());
    CancelToken token;
    token.cancel();
    m.setCancel(&token);
    EXPECT_EQ(m.runUntil([] { return true; }, 1000).status,
              RunStatus::Done);
}

TEST(EngineCancel, UntrippedTokenDoesNotPerturbResults)
{
    // A workload run under a generous (never-expiring) deadline must
    // be byte-identical to one run with no token at all — the
    // resilience layer is invisible to healthy runs.
    WorkloadOptions plain;
    plain.repeats = 1;
    MachineConfig cfg = MachineConfig::make(MachineKind::ISRF4);
    WorkloadResult bare = runWorkload("Sort", cfg, plain);

    CancelToken token;
    token.setTimeout(3600.0);
    WorkloadOptions guarded = plain;
    guarded.cancel = &token;
    WorkloadResult watched = runWorkload("Sort", cfg, guarded);

    EXPECT_TRUE(watched.correct);
    EXPECT_EQ(resultJson(bare), resultJson(watched));
}

TEST(EngineCancel, ChainedTokenPropagatesParentCancel)
{
    CancelToken parent, child;
    child.chainTo(&parent);
    EXPECT_FALSE(child.cancelRequested());
    parent.cancel();
    EXPECT_TRUE(child.cancelRequested());

    Machine m;
    m.init(idleConfig());
    m.setCancel(&child);
    EXPECT_EQ(m.runUntil([] { return false; }, 10).status,
              RunStatus::Cancelled);
}

TEST(EngineCancel, DetachingTheTokenRestoresPlainRuns)
{
    Machine m;
    m.init(idleConfig());
    CancelToken token;
    token.cancel();
    m.setCancel(&token);
    EXPECT_EQ(m.runUntil([] { return false; }, 10).status,
              RunStatus::Cancelled);
    m.setCancel(nullptr);
    EXPECT_EQ(m.runUntil([] { return false; }, 10).status,
              RunStatus::Limit);
    EXPECT_EQ(m.now(), 10u);
}

TEST(DeadlinePolling, ExpiredDeadlineObservedWithinGranularity)
{
    const auto never = [] { return false; };
    const uint64_t limit = 10 * Machine::kDeadlineCheckCycles;
    {
        // Already expired when attached: the first poll reads the clock.
        Machine m;
        m.init(idleConfig());
        CancelToken tok;
        tok.setTimeout(1e-9);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        m.setCancel(&tok);
        RunResult r = m.runUntil(never, limit);
        EXPECT_EQ(r.status, RunStatus::TimedOut);
        EXPECT_LE(r.cycles, Machine::kDeadlineCheckCycles);
    }
    // Expires between two clock reads: noticed at the next read, at
    // most one polling window after the previous one.
    Machine m;
    m.init(idleConfig());
    CancelToken tok;
    m.setCancel(&tok);
    // Reads the clock at cycle 0.
    EXPECT_EQ(m.stopStatus(0, limit), RunStatus::Done);
    tok.setTimeout(1e-9);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    RunResult r = m.runUntil(never, limit);
    EXPECT_EQ(r.status, RunStatus::TimedOut);
    EXPECT_GT(m.now(), 0u);
    EXPECT_LE(m.now(), Machine::kDeadlineCheckCycles);
}

// ----------------------------------------------------------------------
// Machine re-initialization
// ----------------------------------------------------------------------

/**
 * Run a 256-word copy kernel on `m` (already init()ed with a DRAM of
 * at least 1 << 16 words). @return the program's cycle count.
 */
uint64_t
runCopyProgram(Machine &m)
{
    std::vector<Word> data(256);
    for (size_t i = 0; i < data.size(); i++)
        data[i] = static_cast<Word>(i * 3 + 1);
    m.mem().dram().fill(0, data);
    StreamProgram prog(m);
    SlotId in = prog.addStream("in", 256);
    SlotId out = prog.addStream("out", 256);
    prog.load(in, 0);
    static KernelGraph g = test::makeCopyKernel();
    prog.kernel(test::makeCopyInvocation(m, &g, in, out, data));
    return prog.run();
}

TEST(MachineReinit, SecondInitMatchesFreshMachine)
{
    // The watchdog is owned by a unique_ptr that init() re-creates
    // and latches absolute cycle numbers, so a second init() must also
    // rewind the clock (run under ASan in CI).
    MachineConfig cfg = MachineConfig::isrf4();
    cfg.faults.watchdogInterval = 512;
    cfg.dram.capacityWords = 1 << 16;

    Machine fresh;
    fresh.init(cfg);
    const uint64_t freshCycles = runCopyProgram(fresh);

    Machine m;
    m.init(cfg);
    std::vector<Word> data(512, 7);
    m.mem().dram().fill(0, data);
    {
        StreamProgram prog(m);
        SlotId in = prog.addStream("in", 512);
        SlotId out = prog.addStream("out", 512);
        prog.load(in, 0);
        static KernelGraph g = test::makeCopyKernel();
        prog.kernel(test::makeCopyInvocation(m, &g, in, out, data));
        prog.run();
    }
    EXPECT_GT(m.now(), 0u);

    // Re-init the dirty machine and run the reference program: the
    // clock and every checkpointed byte must match a fresh machine.
    m.init(cfg);
    EXPECT_EQ(runCopyProgram(m), freshCycles);
    EXPECT_TRUE(test::sameMachineState(m, fresh));
}

TEST(StreamProgramDeathTest, CycleCapDumpsTraceTailBeforePanic)
{
    // Hitting the cycle cap is a model deadlock: the run loop prints
    // the machine's trace tail, tagged with its config name, and then
    // panics.
    MachineConfig cfg = MachineConfig::isrf4();
    cfg.dram.capacityWords = 1 << 16;
    cfg.traceSpec = "all";
    EXPECT_DEATH(
        {
            Machine m;
            m.init(cfg);
            std::vector<Word> data(256, 5);
            m.mem().dram().fill(0, data);
            StreamProgram prog(m);
            SlotId in = prog.addStream("in", 256);
            prog.load(in, 0);
            prog.run(8);
        },
        "--- \\[ISRF4\\] last [0-9]+ trace events.*cycle [0-9]+ .*"
        "exceeded 8 cycles");
}

TEST(Breakdown, TotalsAndAccumulate)
{
    TimeBreakdown a;
    a.loopBody = 10;
    a.memStall = 5;
    TimeBreakdown b;
    b.srfStall = 3;
    b.overhead = 2;
    a += b;
    EXPECT_EQ(a.total(), 20u);
    EXPECT_DOUBLE_EQ(a.frac(a.loopBody, a.total()), 0.5);
    a.reset();
    EXPECT_EQ(a.total(), 0u);
}

TEST(TraceUtil, SplitMergeRoundtrip)
{
    SrfGeometry g;
    std::vector<Word> data(1000);
    for (size_t i = 0; i < data.size(); i++)
        data[i] = static_cast<Word>(i * 3);
    auto lanes = splitStriped(g, data);
    EXPECT_EQ(lanes.size(), g.lanes);
    EXPECT_EQ(mergeStriped(g, lanes), data);
    // Lane 0 holds words 0..3, 32..35, ...
    EXPECT_EQ(lanes[0][0], 0u);
    EXPECT_EQ(lanes[0][4], 32u * 3);
    EXPECT_EQ(lanes[1][0], 4u * 3);
}

TEST(TraceUtil, FloatWordConversionRoundtrip)
{
    std::vector<float> f = {0.0f, -1.5f, 3.14159f, 1e-20f, 1e20f};
    EXPECT_EQ(wordsToFloats(floatsToWords(f)), f);
}

TEST(TraceUtil, StripeLaneMatchesSrfMapping)
{
    SrfGeometry g;
    Srf srf;
    srf.init(g, SrfMode::SequentialOnly, nullptr);
    for (uint64_t w : {0ull, 5ull, 31ull, 32ull, 100ull, 8191ull}) {
        EXPECT_EQ(stripeLane(g, w), srf.stripedLocation(0, w).first)
            << w;
    }
}

} // namespace
} // namespace isrf
