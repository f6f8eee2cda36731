/**
 * @file
 * Host-side self-profiler (sim/profiler.h) and perf-record comparator
 * (driver/perf_diff.h) tests.
 *
 * The profiler's cardinal rule is zero observable effect: a profiled
 * run's resultJson() must be byte-identical to an unprofiled run's. Its second
 * rule is that its phase tree adds up: no node's children sum past
 * the node. The perf_diff tests pin the CI gate's threshold
 * semantics: regression vs improvement direction handling, the
 * absolute noise floor, and missing-metric classification.
 */
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/machine.h"
#include "driver/perf_diff.h"
#include "driver/sweep_runner.h"
#include "sim/profiler.h"
#include "util/json.h"
#include "workloads/workload.h"

namespace isrf {
namespace {

/** Every phase's children sum to at most the phase. */
void
expectTreeAddsUp(const Profiler &p)
{
    for (int i = 0; i < Profiler::kPhaseCount; i++) {
        auto ph = static_cast<Profiler::Phase>(i);
        EXPECT_GE(p.selfNs(ph), 0) << Profiler::phaseName(ph);
        EXPECT_GE(p.totalNs(ph), 0) << Profiler::phaseName(ph);
    }
}

// ----------------------------------------------------------------------
// Timers and the per-cycle sample
// ----------------------------------------------------------------------

TEST(ProfilerScope, DisabledProfilerRecordsNothing)
{
    Profiler p;
    {
        Profiler::Timer t(p, Profiler::ReportSerialize);
    }
    for (int i = 0; i < 1000; i++)
        EXPECT_FALSE(p.sampleCycle());
    EXPECT_FALSE(p.enabled());
    EXPECT_EQ(p.calls(Profiler::ReportSerialize), 0u);
    EXPECT_EQ(p.cycles(), 0u);
}

TEST(ProfilerScope, CountsAndTimesTopLevelScopes)
{
    Profiler p;
    p.configure(true);
    for (int i = 0; i < 5; i++) {
        Profiler::Timer t(p, Profiler::ReportSerialize);
    }
    EXPECT_EQ(p.calls(Profiler::ReportSerialize), 5u);
    EXPECT_GE(p.totalNs(Profiler::ReportSerialize), 0);
}

TEST(ProfilerScope, DifferentPhasesNestIndependently)
{
    Profiler p;
    p.configure(true);
    {
        Profiler::Timer job(p, Profiler::Job);
        {
            Profiler::Timer r(p, Profiler::ReportSerialize);
        }
        {
            Profiler::Timer j(p, Profiler::Journal);
        }
    }
    EXPECT_EQ(p.calls(Profiler::Job), 1u);
    EXPECT_EQ(p.calls(Profiler::ReportSerialize), 1u);
    EXPECT_EQ(p.calls(Profiler::Journal), 1u);
    EXPECT_EQ(p.selfNs(Profiler::Job),
              p.totalNs(Profiler::Job) -
                  p.totalNs(Profiler::ReportSerialize) -
                  p.totalNs(Profiler::Journal));
    expectTreeAddsUp(p);
}

TEST(ProfilerScope, MergeAndResetAccumulate)
{
    Profiler a, b;
    a.configure(true);
    b.configure(true);
    a.record(Profiler::Journal, 0, 1000);
    b.record(Profiler::Journal, 0, 1000);
    b.record(Profiler::ReportSerialize, 0, 1000);
    for (int i = 0; i < 300; i++)
        b.sampleCycle();
    a.mergeFrom(b);
    EXPECT_EQ(a.calls(Profiler::Journal), 2u);
    EXPECT_EQ(a.calls(Profiler::ReportSerialize), 1u);
    EXPECT_EQ(a.cycles(), 300u);
    EXPECT_EQ(a.sampledCycles(), b.sampledCycles());

    a.configure(true);
    EXPECT_EQ(a.calls(Profiler::Journal), 0u)
        << "configure() starts a fresh profile";
    EXPECT_EQ(a.cycles(), 0u);
    EXPECT_TRUE(a.enabled());
}

TEST(ProfilerSampling, GapsAreNotAStride)
{
    // One decision per cycle, with random gaps of mean 64: about one
    // cycle in 64 is timed, and the timed cycles fall on every phase
    // of a 64-cycle loop, which a fixed stride of 64 never could.
    Profiler p;
    p.configure(true);
    constexpr uint64_t kCycles = 65536;
    std::set<uint64_t> residues;
    uint64_t sampled = 0;
    for (uint64_t c = 0; c < kCycles; c++) {
        if (p.sampleCycle()) {
            sampled++;
            residues.insert(c % 64);
        }
    }
    EXPECT_EQ(p.cycles(), kCycles);
    EXPECT_EQ(p.sampledCycles(), sampled);
    EXPECT_NEAR(static_cast<double>(sampled), kCycles / 64.0,
                0.05 * kCycles / 64.0);
    EXPECT_EQ(residues.size(), 64u);

    // Deterministic: a fresh profile samples the same cycles.
    Profiler q;
    q.configure(true);
    for (uint64_t c = 0; c < kCycles; c++)
        q.sampleCycle();
    EXPECT_EQ(q.sampledCycles(), sampled);
}

TEST(ProfilerTree, ChildrenNeverExceedParent)
{
    // One profiled job through the runner: machine_tick sits inside
    // run_loop, which sits inside job, and every node's children add
    // up to at most the node.
    SweepJob job;
    job.workload = "Sort";
    job.cfg = MachineConfig::make(MachineKind::ISRF4);
    job.cfg.profileEnabled = true;
    job.opts.repeats = 1;
    SweepRunner runner(1);
    auto out = runner.run({job});
    ASSERT_EQ(out.size(), 1u);
    const Profiler &p = out[0].result.profile;
    ASSERT_TRUE(p.enabled());
    EXPECT_EQ(p.cycles(), out[0].result.cycles);
    EXPECT_GT(p.sampledCycles(), 0u);
    EXPECT_EQ(p.calls(Profiler::Job), 1u);
    EXPECT_EQ(p.calls(Profiler::ReportSerialize), 1u);
    EXPECT_GT(p.calls(Profiler::RunLoop), 0u);
    expectTreeAddsUp(p);
    EXPECT_LE(p.totalNs(Profiler::MachineTick),
              p.totalNs(Profiler::RunLoop));
    EXPECT_LE(p.totalNs(Profiler::RunLoop), p.totalNs(Profiler::Job));
    EXPECT_GT(p.totalNs(Profiler::ClusterTick), 0);
}

// ----------------------------------------------------------------------
// Exports
// ----------------------------------------------------------------------

TEST(ProfilerExport, ReportAndChromeTraceAreValidJson)
{
    Profiler p;
    p.configure(true);
    for (int i = 0; i < 600; i++) {
        if (!p.sampleCycle())
            continue;
        Profiler::TickTimes t;
        for (int m = 0; m < Profiler::kTickMarks; m++)
            t[m] = Profiler::now();
        p.recordTick(t);
    }
    p.record(Profiler::RunLoop, 0, 1000000);
    p.record(Profiler::ReportSerialize, 0, 5000);
    JsonWriter w;
    p.reportJson(w);
    std::string rep = w.str();
    EXPECT_TRUE(jsonValid(rep)) << rep;
    EXPECT_EQ(rep.find("\"stride\""), std::string::npos);
    EXPECT_NE(rep.find("\"cycles\":600"), std::string::npos) << rep;
    EXPECT_NE(rep.find("\"machine_tick\""), std::string::npos);
    EXPECT_NE(rep.find("\"parent\":\"machine_tick\""), std::string::npos);
    EXPECT_NE(rep.find("\"report_serialize\""), std::string::npos);
    EXPECT_NE(rep.find("\"self_ns\""), std::string::npos);
    EXPECT_EQ(rep.find("\"job\":{"), std::string::npos)
        << "no job node outside the runner";

    std::string trace = p.chromeTraceJson();
    EXPECT_TRUE(jsonValid(trace)) << trace;
    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);

}

// ----------------------------------------------------------------------
// Zero observable effect on simulation results
// ----------------------------------------------------------------------

WorkloadResult
runProfiled(bool profiled)
{
    MachineConfig cfg = MachineConfig::make(MachineKind::ISRF4);
    cfg.profileEnabled = profiled;
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

TEST(ProfilerInvariance, ResultCarriesItsOwnProfile)
{
    // A run's host profile travels in its result; nothing is folded
    // into process-wide state, so runs never see each other's counts.
    WorkloadResult first = runProfiled(true);
    EXPECT_TRUE(first.profile.enabled())
        << "a profiled result must carry its profile";
    uint64_t runCalls = first.profile.calls(Profiler::RunLoop);
    uint64_t sampled = first.profile.sampledCycles();
    EXPECT_GT(runCalls, 0u);
    EXPECT_EQ(first.profile.cycles(), first.cycles);

    WorkloadResult second = runProfiled(true);
    EXPECT_EQ(second.profile.calls(Profiler::RunLoop), runCalls)
        << "a second run must not accumulate onto the first";
    EXPECT_EQ(second.profile.sampledCycles(), sampled);
    EXPECT_EQ(first.profile.calls(Profiler::RunLoop), runCalls);

    WorkloadResult off = runProfiled(false);
    EXPECT_FALSE(off.profile.enabled());
    EXPECT_EQ(off.profile.cycles(), 0u)
        << "an unprofiled result must carry no profile";
    EXPECT_EQ(off.trace, nullptr) << "nor a trace when untraced";
}

// ----------------------------------------------------------------------
// perf_diff
// ----------------------------------------------------------------------

std::string
record(double wallSeconds, double cyclesPerSecond,
       double sortSeconds = 0.5, bool sortReplayed = false,
       const char *schema = "isrf-perf-record-v1", uint64_t hostJobs = 1)
{
    JsonWriter w;
    w.beginObject();
    w.field("schema", std::string(schema));
    w.field("bench", std::string("sweep"));
    w.key("host").beginObject();
    w.field("cpus", uint64_t{4});
    w.field("jobs", hostJobs);
    w.endObject();
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

TEST(PerfDiff, ConcurrentJobsCompareTotalsOnly)
{
    // At --jobs 4 one job's wall time moves with its neighbours'
    // scheduling: +41% on one job with flat totals is not a regression.
    const char *schema = "isrf-perf-record-v1";
    auto res = perfDiff(record(10.0, 1e6, 0.5, false, schema, 4),
                        record(10.1, 1e6, 0.705, false, schema, 4));
    ASSERT_TRUE(res.ok()) << res.error;
    EXPECT_FALSE(res.regression()) << res.summary();
    EXPECT_TRUE(res.jobsSkipped);
    for (const auto &d : res.deltas)
        EXPECT_EQ(d.metric.rfind("totals.", 0), 0u) << d.metric;
    EXPECT_NE(res.summary().find("per-job wall_seconds not compared"),
              std::string::npos);

    // One serial side is not enough: both must have had the host.
    res = perfDiff(record(10.0, 1e6, 0.5),
                   record(10.1, 1e6, 0.705, false, schema, 4));
    EXPECT_TRUE(res.jobsSkipped);
    EXPECT_FALSE(res.regression()) << res.summary();

    // The same job delta between two serial records is a regression.
    res = perfDiff(record(10.0, 1e6, 0.5), record(10.1, 1e6, 0.705));
    EXPECT_FALSE(res.jobsSkipped);
    EXPECT_TRUE(res.regression()) << res.summary();

    // Totals are still compared: a concurrent 2x slowdown is flagged.
    res = perfDiff(record(10.0, 1e6, 0.5, false, schema, 4),
                   record(20.0, 0.5e6, 1.0, false, schema, 4));
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
