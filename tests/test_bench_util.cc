/**
 * @file
 * The bench binaries' shared job path (bench/bench_util.h): a BenchRun
 * returns outcomes in submission order whatever --jobs says,
 * finishBench() folds them into --json and --trace files that do not
 * depend on --jobs, and the shared parser rejects the flags only
 * bench_sweep honours.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "bench_util.h"

namespace isrf {
namespace bench {
namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(f),
                       std::istreambuf_iterator<char>());
}

/** Three short jobs, deliberately not in workload or machine order. */
std::vector<SweepJob>
shortJobs(const BenchArgs &args)
{
    WorkloadOptions opts;
    opts.repeats = 1;
    std::vector<SweepJob> jobs;
    for (const auto &[name, kind] :
         std::vector<std::pair<std::string, MachineKind>>{
             {"Sort", MachineKind::ISRF4},
             {"Histogram", MachineKind::Base},
             {"Sort", MachineKind::Base},
         })
        jobs.push_back({.workload = name,
                        .cfg = benchConfig(kind, args),
                        .opts = opts});
    return jobs;
}

/** args writing --json and a machine-channel --trace under `tag`. */
BenchArgs
outputArgs(const std::string &tag, unsigned jobs)
{
    BenchArgs args;
    args.jobs = jobs;
    args.jsonPath = ::testing::TempDir() + "isrf_bench_" + tag + ".json";
    args.tracePath =
        ::testing::TempDir() + "isrf_bench_" + tag + ".trace.json";
    args.traceChannels = "machine";
    return args;
}

TEST(BenchRun, OutcomesComeBackInSubmissionOrder)
{
    BenchArgs args;
    args.jobs = 4;
    const std::vector<SweepJob> jobs = shortJobs(args);
    const BenchRun run(args, jobs);
    ASSERT_EQ(run.outcomes().size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); i++) {
        EXPECT_EQ(run.outcomes()[i].workload, jobs[i].workload);
        EXPECT_EQ(run.outcomes()[i].kind, jobs[i].cfg.kind);
        EXPECT_EQ(run.outcomes()[i].status, RunStatus::Done);
    }
    EXPECT_EQ(&run.result("Sort", MachineKind::Base),
              &run.outcomes()[2].result);
}

TEST(BenchRun, JsonAndTraceDoNotDependOnJobs)
{
    const BenchArgs serial = outputArgs("j1", 1);
    const BenchArgs wide = outputArgs("j4", 4);
    const BenchRun a(serial, shortJobs(serial));
    const BenchRun b(wide, shortJobs(wide));
    finishBench(serial, a);
    finishBench(wide, b);

    const std::string json = readFile(serial.jsonPath);
    EXPECT_NE(json.find("\"Histogram/Base\""), std::string::npos);
    EXPECT_EQ(json, readFile(wide.jsonPath));
    const std::string trace = readFile(serial.tracePath);
    EXPECT_NE(trace.find("\"ph\":\"B\""), std::string::npos);
    EXPECT_EQ(trace, readFile(wide.tracePath));
    for (const BenchArgs &args : {serial, wide}) {
        std::remove(args.jsonPath.c_str());
        std::remove(args.tracePath.c_str());
    }
}

TEST(BenchRun, TraceFoldsRunsInSubmissionOrder)
{
    const BenchArgs args = outputArgs("fold", 4);
    const BenchRun run(args, shortJobs(args));
    finishBench(args, run);

    // The exported file is every run's trace, appended in job order;
    // the reverse order gives a different file, so order is visible.
    auto fold = [&](bool reversed) {
        const auto &out = run.outcomes();
        Tracer t;
        t.setCapacity(benchConfig(MachineKind::Base, args).traceCapacity);
        for (size_t i = 0; i < out.size(); i++) {
            const SweepOutcome &o = out[reversed ? out.size() - 1 - i : i];
            EXPECT_TRUE(o.result.trace);
            t.mergeFrom(*o.result.trace);
        }
        return t.chromeJson();
    };
    const std::string file = readFile(args.tracePath);
    EXPECT_EQ(file, fold(false));
    EXPECT_NE(file, fold(true));
    std::remove(args.jsonPath.c_str());
    std::remove(args.tracePath.c_str());
}

TEST(BenchRun, JsonResultsNoneWritesAnEmptyReport)
{
    BenchArgs args;
    args.jsonPath = ::testing::TempDir() + "isrf_bench_none.json";
    const BenchRun run(args, shortJobs(args));
    finishBench(args, run, JsonResults::None);
    EXPECT_EQ(readFile(args.jsonPath), "{\"results\":{}}");
    std::remove(args.jsonPath.c_str());
}

TEST(BenchArgsDeathTest, SharedParserRejectsSweepOnlyFlags)
{
    for (const char *flag :
         {"--journal", "--resume", "--timeout-s", "--retries",
          "--dataset"}) {
        std::string prog = "bench", f = flag, v = "x";
        char *argv[] = {prog.data(), f.data(), v.data(), nullptr};
        EXPECT_EXIT(parseBenchArgs(3, argv),
                    ::testing::ExitedWithCode(2),
                    "unknown option '" + f + "'")
            << flag;
    }
}

} // namespace
} // namespace bench
} // namespace isrf
