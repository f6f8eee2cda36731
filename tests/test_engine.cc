/**
 * @file
 * Tests for the tick engine, breakdown arithmetic and trace utilities.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "core/breakdown.h"
#include "sim/engine.h"
#include "workloads/trace_util.h"

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
