/**
 * @file
 * Host-side self-profiler (sim/profiler.h) tests.
 *
 * The profiler's cardinal rule is zero observable effect: a profiled
 * run's resultJson() must be byte-identical to an unprofiled run's. Its second
 * rule is that its phase tree adds up: no node's children sum past
 * the node.
 */
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/machine.h"
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
    // The Chrome trace is the profile's one export: one "X" event per
    // phase that ran, whose args carry the phase's parent, calls and
    // self time.
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
    std::string trace = p.chromeTraceJson();
    EXPECT_TRUE(jsonValid(trace)) << trace;
    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_EQ(trace.find("\"stride\""), std::string::npos);
    // Only machine_tick has run_loop as its parent; it runs every cycle.
    EXPECT_NE(trace.find("\"name\":\"machine_tick\""), std::string::npos);
    EXPECT_NE(trace.find("\"args\":{\"parent\":\"run_loop\",\"calls\":600,"
                         "\"self_ns\":"),
              std::string::npos)
        << trace;
    EXPECT_NE(trace.find("\"parent\":\"machine_tick\""), std::string::npos);
    EXPECT_NE(trace.find("\"name\":\"report_serialize\""),
              std::string::npos);
    EXPECT_EQ(trace.find("\"name\":\"job\""), std::string::npos)
        << "no job event outside the runner";
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

} // namespace
} // namespace isrf
