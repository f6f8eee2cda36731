/**
 * @file
 * Host-side self-profiler (sim/profiler.h) and perf-record comparator
 * (driver/perf_diff.h) tests.
 *
 * The profiler's cardinal rule is zero observable effect: a profiled
 * run's resultJson() and machineReportJson() (minus its own "profile"
 * section) must be byte-identical to an unprofiled run's. The
 * perf_diff tests pin the CI gate's threshold
 * semantics: regression vs improvement direction handling, the
 * absolute noise floor, and missing-metric classification.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/machine.h"
#include "core/report.h"
#include "driver/perf_diff.h"
#include "sim/profiler.h"
#include "util/json.h"
#include "workloads/workload.h"

namespace isrf {
namespace {

// ----------------------------------------------------------------------
// Scoped timers
// ----------------------------------------------------------------------

TEST(ProfilerScope, DisabledProfilerRecordsNothing)
{
    Profiler p;
    {
        Profiler::Scope s(p, Profiler::Report);
    }
    EXPECT_FALSE(p.enabled());
    EXPECT_FALSE(p.hasData());
    EXPECT_EQ(p.phase(Profiler::Report).calls, 0u);
}

TEST(ProfilerScope, CountsAndTimesTopLevelScopes)
{
    Profiler p;
    p.configure(true, 1);
    for (int i = 0; i < 5; i++) {
        Profiler::Scope s(p, Profiler::Report);
    }
    Profiler::PhaseStats s = p.phase(Profiler::Report);
    EXPECT_EQ(s.calls, 5u);
    EXPECT_EQ(s.timed, 5u);  // Report is always timed
    EXPECT_TRUE(p.hasData());
}

TEST(ProfilerScope, ReentrantSamePhaseCountsOnce)
{
    Profiler p;
    p.configure(true, 1);
    {
        Profiler::Scope outer(p, Profiler::Run);
        {
            Profiler::Scope inner(p, Profiler::Run);
            {
                Profiler::Scope inner2(p, Profiler::Run);
            }
        }
    }
    // Only the outermost scope counts — recursion must not inflate
    // call counts or double-book the same wall time.
    Profiler::PhaseStats s = p.phase(Profiler::Run);
    EXPECT_EQ(s.calls, 1u);
    EXPECT_EQ(s.timed, 1u);

    // And the guard resets: a later top-level scope counts again.
    {
        Profiler::Scope again(p, Profiler::Run);
    }
    EXPECT_EQ(p.phase(Profiler::Run).calls, 2u);
}

TEST(ProfilerScope, DifferentPhasesNestIndependently)
{
    Profiler p;
    p.configure(true, 1);
    {
        Profiler::Scope outer(p, Profiler::MachineTick);
        {
            Profiler::Scope inner(p, Profiler::MemTick);
        }
        {
            Profiler::Scope inner(p, Profiler::ClusterTick);
        }
    }
    EXPECT_EQ(p.phase(Profiler::MachineTick).calls, 1u);
    EXPECT_EQ(p.phase(Profiler::MemTick).calls, 1u);
    EXPECT_EQ(p.phase(Profiler::ClusterTick).calls, 1u);
}

TEST(ProfilerScope, StrideSamplesHotPhases)
{
    Profiler p;
    p.configure(true, 4);
    ASSERT_TRUE(Profiler::phaseSampled(Profiler::MachineTick));
    ASSERT_FALSE(Profiler::phaseSampled(Profiler::Report));
    for (int i = 0; i < 8; i++) {
        Profiler::Scope s(p, Profiler::MachineTick);
        Profiler::Scope r(p, Profiler::Report);
    }
    // Sampled phase: every call counted, 1 in 4 timed (entries 0, 4).
    Profiler::PhaseStats hot = p.phase(Profiler::MachineTick);
    EXPECT_EQ(hot.calls, 8u);
    EXPECT_EQ(hot.timed, 2u);
    // Coarse phase: always timed regardless of stride.
    Profiler::PhaseStats coarse = p.phase(Profiler::Report);
    EXPECT_EQ(coarse.calls, 8u);
    EXPECT_EQ(coarse.timed, 8u);
    // Extrapolation scales measured ns to the full call count.
    if (hot.ns > 0) {
        EXPECT_GT(hot.estNs(), static_cast<double>(hot.ns));
    }
}

TEST(ProfilerScope, MergeAndResetAccumulate)
{
    Profiler a, b;
    a.configure(true, 1);
    b.configure(true, 1);
    {
        Profiler::Scope s(a, Profiler::Journal);
    }
    {
        Profiler::Scope s(b, Profiler::Journal);
        Profiler::Scope t(b, Profiler::Report);
    }
    a.mergeFrom(b);
    EXPECT_EQ(a.phase(Profiler::Journal).calls, 2u);
    EXPECT_EQ(a.phase(Profiler::Report).calls, 1u);

    a.reset();
    EXPECT_FALSE(a.hasData());
    EXPECT_TRUE(a.enabled()) << "reset clears data, not configuration";
}

// ----------------------------------------------------------------------
// Exports
// ----------------------------------------------------------------------

TEST(ProfilerExport, ReportAndChromeTraceAreValidJson)
{
    Profiler p;
    p.configure(true, 2);
    for (int i = 0; i < 6; i++) {
        Profiler::Scope s(p, Profiler::MachineTick);
        Profiler::Scope r(p, Profiler::Report);
    }
    std::string rep = p.reportJson();
    EXPECT_TRUE(jsonValid(rep)) << rep;
    EXPECT_NE(rep.find("\"stride\":2"), std::string::npos);
    EXPECT_NE(rep.find("\"machine_tick\""), std::string::npos);
    EXPECT_NE(rep.find("\"report_serialize\""), std::string::npos);

    std::string trace = p.chromeTraceJson();
    EXPECT_TRUE(jsonValid(trace)) << trace;
    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);

    std::string path = ::testing::TempDir() + "isrf_prof_trace.json";
    EXPECT_TRUE(p.writeChromeTrace(path));
    std::remove(path.c_str());
}

// ----------------------------------------------------------------------
// Zero observable effect on simulation results
// ----------------------------------------------------------------------

WorkloadResult
runProfiled(bool profiled)
{
    MachineConfig cfg = MachineConfig::make(MachineKind::ISRF4);
    cfg.profileEnabled = profiled;
    cfg.profileStride = 8;
    WorkloadOptions opts;
    opts.repeats = 1;
    return runWorkload("FFT 2D", cfg, opts);
}

TEST(ProfilerInvariance, ResultJsonByteIdenticalDense)
{
    std::string off = resultJson(runProfiled(false));
    std::string on = resultJson(runProfiled(true));
    EXPECT_EQ(off, on)
        << "profiling must not perturb simulation results";
}

TEST(ProfilerInvariance, MachineReportGainsProfileOnlyWhenEnabled)
{
    MachineConfig cfg = MachineConfig::make(MachineKind::Base);
    for (bool profiled : {false, true}) {
        cfg.profileEnabled = profiled;
        Machine m;
        m.init(cfg);
        m.step(64);
        std::string json = machineReportJson(m);
        EXPECT_TRUE(jsonValid(json));
        EXPECT_EQ(json.find("\"profile\"") != std::string::npos,
                  profiled)
            << "profile section present iff profiling enabled";
    }
}

TEST(ProfilerInvariance, ResultCarriesItsOwnProfile)
{
    // A run's host profile travels in its result; nothing is folded
    // into process-wide state, so runs never see each other's counts.
    WorkloadResult first = runProfiled(true);
    ASSERT_NE(first.profile, nullptr)
        << "a profiled result must carry its profile";
    EXPECT_TRUE(first.profile->enabled());
    EXPECT_EQ(first.profile->stride(), 8u);
    uint64_t runCalls = first.profile->phase(Profiler::Run).calls;
    EXPECT_GT(runCalls, 0u);

    WorkloadResult second = runProfiled(true);
    ASSERT_NE(second.profile, nullptr);
    EXPECT_EQ(second.profile->phase(Profiler::Run).calls, runCalls)
        << "a second run must not accumulate onto the first";
    EXPECT_EQ(first.profile->phase(Profiler::Run).calls, runCalls);

    WorkloadResult off = runProfiled(false);
    EXPECT_EQ(off.profile, nullptr)
        << "an unprofiled result must carry no profile";
    EXPECT_EQ(off.trace, nullptr) << "nor a trace when untraced";
}

// ----------------------------------------------------------------------
// perf_diff
// ----------------------------------------------------------------------

std::string
record(double wallSeconds, double cyclesPerSecond,
       double sortSeconds = 0.5, bool sortReplayed = false,
       const char *schema = "isrf-perf-record-v1")
{
    JsonWriter w;
    w.beginObject();
    w.field("schema", std::string(schema));
    w.field("bench", std::string("sweep"));
    w.key("totals").beginObject();
    w.field("wall_seconds", wallSeconds);
    w.field("sum_job_seconds", wallSeconds);
    w.field("sim_cycles_per_second", cyclesPerSecond);
    w.endObject();
    w.key("jobs").beginArray();
    w.beginObject();
    w.field("workload", std::string("Sort"));
    w.field("machine", std::string("ISRF4"));
    w.field("wall_seconds", sortSeconds);
    w.field("replayed", sortReplayed);
    w.endObject();
    w.endArray();
    w.endObject();
    return w.str();
}

TEST(PerfDiff, WithinNoisePasses)
{
    PerfDiffOptions opts;
    opts.threshold = 0.25;
    auto res = perfDiff(record(10.0, 1e6), record(11.0, 0.95e6), opts);
    ASSERT_TRUE(res.ok()) << res.error;
    EXPECT_FALSE(res.regression()) << res.summary();
    for (const auto &d : res.deltas)
        EXPECT_EQ(d.kind, PerfDeltaKind::Noise) << d.metric;
}

TEST(PerfDiff, FlagsWallTimeRegression)
{
    PerfDiffOptions opts;
    opts.threshold = 0.20;
    // +50% wall time: far beyond a 20% threshold.
    auto res = perfDiff(record(10.0, 1e6), record(15.0, 1e6), opts);
    ASSERT_TRUE(res.ok());
    EXPECT_TRUE(res.regression()) << res.summary();
    bool found = false;
    for (const auto &d : res.deltas)
        if (d.metric == "totals.wall_seconds") {
            EXPECT_EQ(d.kind, PerfDeltaKind::Regression);
            EXPECT_NEAR(d.frac, 0.5, 1e-9);
            found = true;
        }
    EXPECT_TRUE(found);
}

TEST(PerfDiff, CyclesPerSecondIsHigherIsBetter)
{
    PerfDiffOptions opts;
    opts.threshold = 0.20;
    // Throughput halved = regression even though the number went DOWN.
    auto res = perfDiff(record(10.0, 1e6), record(10.0, 0.5e6), opts);
    ASSERT_TRUE(res.ok());
    EXPECT_TRUE(res.regression()) << res.summary();

    // Throughput doubled = improvement, not a regression.
    res = perfDiff(record(10.0, 1e6), record(10.0, 2e6), opts);
    ASSERT_TRUE(res.ok());
    EXPECT_FALSE(res.regression()) << res.summary();
    bool improved = false;
    for (const auto &d : res.deltas)
        if (d.metric == "totals.sim_cycles_per_second")
            improved = d.kind == PerfDeltaKind::Improvement;
    EXPECT_TRUE(improved);
}

TEST(PerfDiff, ImprovementIsNotRegression)
{
    auto res = perfDiff(record(10.0, 1e6), record(5.0, 1e6));
    ASSERT_TRUE(res.ok());
    EXPECT_FALSE(res.regression());
}

TEST(PerfDiff, MinSecondsFloorsTinyAbsoluteChanges)
{
    PerfDiffOptions opts;
    opts.threshold = 0.20;
    opts.minSeconds = 0.05;
    // +100% on a 10 ms job is under the 50 ms absolute floor: noise.
    auto res = perfDiff(record(10.0, 1e6, 0.01),
                        record(10.0, 1e6, 0.02), opts);
    ASSERT_TRUE(res.ok());
    EXPECT_FALSE(res.regression()) << res.summary();

    // The same fraction above the floor IS a regression.
    res = perfDiff(record(10.0, 1e6, 0.5), record(10.0, 1e6, 1.0),
                   opts);
    ASSERT_TRUE(res.ok());
    EXPECT_TRUE(res.regression()) << res.summary();
}

TEST(PerfDiff, MissingMetricClassification)
{
    // Baseline has the Sort job; current replays it (dropped from the
    // metric set) — a baseline metric missing from current is a
    // failure (it can hide a deleted benchmark).
    auto res = perfDiff(record(10.0, 1e6, 0.5, false),
                        record(10.0, 1e6, 0.5, true));
    ASSERT_TRUE(res.ok());
    EXPECT_TRUE(res.regression()) << res.summary();
    bool sawMissing = false;
    for (const auto &d : res.deltas)
        if (d.kind == PerfDeltaKind::MissingInCurrent)
            sawMissing = true;
    EXPECT_TRUE(sawMissing);

    // The reverse — a new metric with no baseline — is informational.
    res = perfDiff(record(10.0, 1e6, 0.5, true),
                   record(10.0, 1e6, 0.5, false));
    ASSERT_TRUE(res.ok());
    EXPECT_FALSE(res.regression()) << res.summary();
    bool sawNew = false;
    for (const auto &d : res.deltas)
        if (d.kind == PerfDeltaKind::MissingInBaseline)
            sawNew = true;
    EXPECT_TRUE(sawNew);
}

TEST(PerfDiff, RejectsBadInput)
{
    EXPECT_FALSE(perfDiff("not json", record(1, 1)).ok());
    EXPECT_FALSE(perfDiff(record(1, 1), "{}").ok());
    // Wrong schema tag: refuse rather than compare garbage.
    EXPECT_FALSE(
        perfDiff(record(1, 1), record(1, 1, 0.5, false, "v999")).ok());
}

TEST(PerfDiff, SplitJsonArrayHandlesNestingAndStrings)
{
    std::vector<std::string> out;
    EXPECT_TRUE(splitJsonArray("[]", out));
    EXPECT_TRUE(out.empty());

    EXPECT_TRUE(splitJsonArray("[1,2,3]", out));
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[1], "2");

    EXPECT_TRUE(splitJsonArray(
        R"([{"a":[1,2]},{"s":"br,]ack\"et"},[3,[4]]])", out));
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0], R"({"a":[1,2]})");
    EXPECT_EQ(out[1], R"({"s":"br,]ack\"et"})");
    EXPECT_EQ(out[2], "[3,[4]]");

    EXPECT_FALSE(splitJsonArray("{\"a\":1}", out));
    EXPECT_FALSE(splitJsonArray("[1,2", out));
}

} // namespace
} // namespace isrf
