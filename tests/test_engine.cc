/**
 * @file
 * Tests for the tick engine (stepping, clear, cooperative
 * cancellation), Machine re-initialization, breakdown arithmetic and
 * trace utilities.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/breakdown.h"
#include "core/report.h"
#include "core/stream_program.h"
#include "sim/engine.h"
#include "test_helpers.h"
#include "workloads/trace_util.h"
#include "workloads/workload.h"

namespace isrf {
namespace {

struct CountingComponent : Ticked
{
    uint64_t ticks = 0;
    uint64_t posts = 0;
    Cycle lastNow = 0;
    void
    tick(Cycle now) override
    {
        ticks++;
        lastNow = now;
    }
    void postTick(Cycle) override { posts++; }
    bool hasPostTick() const override { return true; }
    std::string tickedName() const override { return "counter"; }
};

TEST(Engine, StepInvokesTickAndPostTickInOrder)
{
    Engine e;
    CountingComponent a, b;
    e.add(&a);
    e.add(&b);
    e.step();
    EXPECT_EQ(a.ticks, 1u);
    EXPECT_EQ(b.ticks, 1u);
    EXPECT_EQ(a.posts, 1u);
    EXPECT_EQ(e.now(), 1u);
    e.steps(9);
    EXPECT_EQ(a.ticks, 10u);
    EXPECT_EQ(a.lastNow, 9u);
    EXPECT_EQ(e.now(), 10u) << "steps(n) advances exactly n cycles";
}

TEST(Engine, RunUntilStopsOnPredicate)
{
    Engine e;
    CountingComponent a;
    e.add(&a);
    RunResult r = e.runUntil([&]() { return a.ticks >= 42; });
    EXPECT_EQ(r.status, RunStatus::Done);
    EXPECT_TRUE(r.done());
    EXPECT_EQ(r.cycles, 42u);
    EXPECT_EQ(e.now(), 42u);
}

TEST(Engine, RunUntilLimitReturnsStatus)
{
    Engine e;
    CountingComponent a;
    e.add(&a);
    RunResult r = e.runUntil([]() { return false; }, 100);
    EXPECT_EQ(r.status, RunStatus::Limit);
    EXPECT_FALSE(r.done());
    EXPECT_EQ(r.cycles, 100u);
    // The engine keeps running normally after a limit return.
    EXPECT_EQ(e.now(), 100u);
    RunResult r2 = e.runUntil([&]() { return a.ticks >= 150; }, 1000);
    EXPECT_EQ(r2.status, RunStatus::Done);
}

TEST(Engine, RunStatusNames)
{
    EXPECT_STREQ(runStatusName(RunStatus::Done), "done");
    EXPECT_STREQ(runStatusName(RunStatus::Limit), "limit");
    EXPECT_STREQ(runStatusName(RunStatus::Stalled), "stalled");
}

TEST(Engine, NullComponentPanics)
{
    Engine e;
    EXPECT_DEATH(e.add(nullptr), "null component");
}

TEST(EngineClear, UnregistersComponentsAndRewindsClock)
{
    Engine e;
    CountingComponent a;
    e.add(&a);
    e.steps(5);
    EXPECT_EQ(e.now(), 5u);
    EXPECT_EQ(a.ticks, 5u);
    e.clear();
    EXPECT_EQ(e.now(), 0u);
    e.steps(3);
    EXPECT_EQ(a.ticks, 5u) << "cleared components must not be ticked";
}

// ----------------------------------------------------------------------
// Cooperative cancellation / deadline
// ----------------------------------------------------------------------

TEST(EngineCancel, PreCancelledTokenStopsBeforeTheFirstStep)
{
    // Cancellation is observed at cycle boundaries only; a token that
    // is already tripped must stop the run at cycle 0.
    Engine e;
    CountingComponent c;
    e.add(&c);
    CancelToken token;
    token.cancel();
    e.setCancel(&token);
    RunResult r = e.runUntil([] { return false; }, 1000);
    EXPECT_EQ(r.status, RunStatus::Cancelled);
    EXPECT_EQ(r.cycles, 0u);
    EXPECT_EQ(c.ticks, 0u);
    EXPECT_EQ(e.now(), 0u);
}

TEST(EngineCancel, ExpiredDeadlineReportsTimedOut)
{
    Engine e;
    CountingComponent c;
    e.add(&c);
    CancelToken token;
    token.setTimeout(1e-9);  // expires immediately
    e.setCancel(&token);
    RunResult r = e.runUntil([] { return false; }, 1000);
    EXPECT_EQ(r.status, RunStatus::TimedOut);
    EXPECT_EQ(r.cycles, 0u);
}

TEST(EngineCancel, CancellationWinsOverDeadline)
{
    Engine e;
    CountingComponent c;
    e.add(&c);
    CancelToken token;
    token.cancel();
    token.setTimeout(1e-9);
    e.setCancel(&token);
    EXPECT_EQ(e.runUntil([] { return false; }, 10).status,
              RunStatus::Cancelled);
}

TEST(EngineCancel, FinishedRunIsNeverReportedCancelled)
{
    // The predicate is checked before the token: a run that is already
    // done must return Done even under a tripped token.
    Engine e;
    CountingComponent c;
    e.add(&c);
    CancelToken token;
    token.cancel();
    e.setCancel(&token);
    EXPECT_EQ(e.runUntil([] { return true; }, 1000).status,
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

    Engine e;
    CountingComponent c;
    e.add(&c);
    e.setCancel(&child);
    EXPECT_EQ(e.runUntil([] { return false; }, 10).status,
              RunStatus::Cancelled);
}

TEST(EngineCancel, DetachingTheTokenRestoresPlainRuns)
{
    Engine e;
    CountingComponent c;
    e.add(&c);
    CancelToken token;
    token.cancel();
    e.setCancel(&token);
    EXPECT_EQ(e.runUntil([] { return false; }, 10).status,
              RunStatus::Cancelled);
    e.setCancel(nullptr);
    EXPECT_EQ(e.runUntil([] { return false; }, 10).status,
              RunStatus::Limit);
    EXPECT_EQ(c.ticks, 10u);
}

TEST(DeadlinePolling, ExpiredDeadlineObservedWithinGranularity)
{
    const auto never = [] { return false; };
    const uint64_t limit = 10 * Engine::kDeadlineCheckCycles;
    {
        // Already expired when attached: the first poll reads the clock.
        Engine e;
        CancelToken tok;
        tok.setTimeout(1e-9);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        e.setCancel(&tok);
        RunResult r = e.runUntil(never, limit);
        EXPECT_EQ(r.status, RunStatus::TimedOut);
        EXPECT_LE(r.cycles, Engine::kDeadlineCheckCycles);
    }
    // Expires between two clock reads: noticed at the next read, at
    // most one polling window after the previous one.
    Engine e;
    CancelToken tok;
    e.setCancel(&tok);
    EXPECT_EQ(e.pollCancel(), RunStatus::Done);  // clock read at cycle 0
    tok.setTimeout(1e-9);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    RunResult r = e.runUntil(never, limit);
    EXPECT_EQ(r.status, RunStatus::TimedOut);
    EXPECT_GT(e.now(), 0u);
    EXPECT_LE(e.now(), Engine::kDeadlineCheckCycles);
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
    // watchdogInterval/statSampleInterval both register Ticked
    // components owned by unique_ptrs that init() re-creates; before
    // Engine::clear() existed, the second init() left the engine
    // ticking dangling pointers (caught by ASan) and kept the old
    // clock running.
    MachineConfig cfg = MachineConfig::isrf4();
    cfg.faults.watchdogInterval = 512;
    cfg.statSampleInterval = 256;
    cfg.dram.capacityWords = 1 << 16;

    Machine fresh;
    fresh.init(cfg);
    const uint64_t freshCycles = runCopyProgram(fresh);
    const std::string freshReport = machineReportJson(fresh);

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

    // Re-init the dirty machine and run the reference program: every
    // stat, the clock, and the report must match a fresh machine.
    m.init(cfg);
    EXPECT_EQ(runCopyProgram(m), freshCycles);
    EXPECT_EQ(machineReportJson(m), freshReport);
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
    EXPECT_EQ(a.summary(), "(empty breakdown)");
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
