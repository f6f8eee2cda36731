/**
 * @file
 * Tests for the parallel sweep driver and the global-state hazards it
 * depends on being fixed:
 *
 *  - thread-count invariance: a sweep's results serialize
 *    bit-identically whether run on 1 thread or N
 *  - per-machine isolation: two Machines in one process with different
 *    fault/trace configurations don't leak state into each other
 *  - no environment channel: the process environment never reaches a
 *    machine; make(), runWorkload(name, kind) and SweepRunner::matrix
 *    build the same config whatever ISRF_* variables are set
 */
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/machine.h"
#include "driver/sweep_runner.h"
#include "util/json.h"
#include "util/jsonl.h"
#include "util/parse.h"
#include "workloads/external.h"
#include "workloads/workload.h"

namespace isrf {
namespace {

/** setenv/unsetenv with automatic restore. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        hadOld_ = old != nullptr;
        if (hadOld_)
            old_ = old;
        if (value)
            setenv(name, value, 1);
        else
            unsetenv(name);
    }
    ~ScopedEnv()
    {
        if (hadOld_)
            setenv(name_.c_str(), old_.c_str(), 1);
        else
            unsetenv(name_.c_str());
    }

  private:
    std::string name_;
    std::string old_;
    bool hadOld_ = false;
};

std::string
sweepJson(const std::vector<SweepOutcome> &outcomes)
{
    std::string all;
    for (const auto &o : outcomes) {
        all += o.workload;
        all += '/';
        all += machineKindName(o.kind);
        all += '=';
        all += resultJson(o.result);
        all += '\n';
    }
    return all;
}

TEST(SweepRunner, ResultsInvariantUnderThreadCount)
{
    WorkloadOptions opts;
    opts.repeats = 1;
    auto jobs = SweepRunner::matrix(
        {"Sort", "Filter"}, {MachineKind::Base, MachineKind::ISRF4},
        opts);
    ASSERT_EQ(jobs.size(), 4u);

    SweepRunner serial(1);
    auto a = serial.run(jobs);
    SweepRunner pool(4);
    auto b = pool.run(jobs);

    ASSERT_EQ(a.size(), b.size());
    // Submission order is preserved regardless of completion order.
    for (size_t i = 0; i < a.size(); i++) {
        EXPECT_EQ(a[i].workload, jobs[i].workload);
        EXPECT_EQ(b[i].workload, jobs[i].workload);
        EXPECT_EQ(a[i].kind, jobs[i].cfg.kind);
    }
    // The serialized results are byte-identical: simulation outcomes
    // depend only on (workload, config, options), never on threading.
    EXPECT_EQ(sweepJson(a), sweepJson(b));
    for (const auto &o : a)
        EXPECT_TRUE(o.result.correct) << o.workload;
}

TEST(SweepRunner, TimingAccountsForEveryJob)
{
    WorkloadOptions opts;
    opts.repeats = 1;
    auto jobs = SweepRunner::matrix({"Sort"}, {MachineKind::Base},
                                    opts);
    SweepRunner runner(2);
    size_t started = 0, finished = 0;
    auto out = runner.run(jobs,
        [&](const SweepJob &, bool fin, size_t, size_t total) {
            EXPECT_EQ(total, 1u);
            (fin ? finished : started)++;
        });
    EXPECT_EQ(started, 1u);
    EXPECT_EQ(finished, 1u);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_GT(out[0].wallSeconds, 0.0);
    // One job: pool clamps to one worker; wall >= the job itself.
    EXPECT_EQ(runner.timing().threads, 1u);
    EXPECT_GE(runner.timing().wallSeconds,
              runner.timing().sumJobSeconds * 0.5);
}

/** One trace event with its channel and name resolved to strings. */
std::string
eventText(const Tracer &t, const TraceEvent &e)
{
    return std::to_string(e.ts) + "," + t.channelName(e.channel) + "," +
        std::to_string(static_cast<int>(e.type)) + "," + e.name + "," +
        std::to_string(e.arg);
}

TEST(SweepRunner, TracesAndProfilesInvariantUnderThreadCount)
{
    // Each job's trace and profile come back in its own result, so the
    // thread count cannot change them (only wall time).
    WorkloadOptions opts;
    opts.repeats = 1;
    std::vector<SweepJob> jobs;
    for (MachineKind kind : {MachineKind::Base, MachineKind::ISRF1,
                             MachineKind::ISRF4, MachineKind::Cache}) {
        SweepJob j;
        j.workload = "Sort";
        j.cfg = MachineConfig::make(kind);
        j.cfg.traceSpec = "all";
        j.cfg.traceCapacity = 1 << 12;
        j.cfg.profileEnabled = true;
        j.opts = opts;
        jobs.push_back(std::move(j));
    }

    SweepRunner serial(1);
    auto a = serial.run(jobs);
    SweepRunner pool(4);
    auto b = pool.run(jobs);

    ASSERT_EQ(a.size(), jobs.size());
    ASSERT_EQ(b.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); i++) {
        const WorkloadResult &ra = a[i].result, &rb = b[i].result;
        ASSERT_NE(ra.trace, nullptr) << i;
        ASSERT_NE(rb.trace, nullptr) << i;
        auto ea = ra.trace->events(), eb = rb.trace->events();
        EXPECT_GT(ea.size(), 0u) << i;
        ASSERT_EQ(ea.size(), eb.size()) << i;
        for (size_t k = 0; k < ea.size(); k++)
            ASSERT_EQ(eventText(*ra.trace, ea[k]),
                      eventText(*rb.trace, eb[k]))
                << "job " << i << " event " << k;

        // Each job's profile is its own, whichever worker ran it:
        // the same sampled cycles, and exactly one serialization.
        EXPECT_GT(ra.profile.calls(Profiler::RunLoop), 0u) << i;
        EXPECT_GT(ra.profile.sampledCycles(), 0u) << i;
        EXPECT_EQ(ra.profile.sampledCycles(), rb.profile.sampledCycles())
            << i;
        EXPECT_EQ(rb.profile.calls(Profiler::ReportSerialize), 1u) << i;
        EXPECT_EQ(rb.profile.calls(Profiler::Job), 1u) << i;
        for (int p = 0; p < Profiler::kPhaseCount; p++) {
            auto ph = static_cast<Profiler::Phase>(p);
            EXPECT_EQ(ra.profile.calls(ph), rb.profile.calls(ph))
                << "job " << i << " phase " << Profiler::phaseName(ph);
        }
    }
}

TEST(MachineIsolation, FaultAndTraceConfigsDoNotLeak)
{
    // Machine A: faults + tracing. Machine B: neither. Both live in
    // the same process at the same time — the bug class this PR fixes
    // is A's env-derived state bleeding into B.
    MachineConfig cfgA = MachineConfig::make(MachineKind::ISRF4);
    cfgA.faults =
        FaultConfig::parse("seed=7;srf_bit:start=50,period=31,count=4");
    cfgA.traceSpec = "all";
    MachineConfig cfgB = MachineConfig::make(MachineKind::ISRF4);

    Machine a, b;
    a.init(cfgA);
    b.init(cfgB);

    EXPECT_NE(a.faultInjector(), nullptr);
    EXPECT_EQ(b.faultInjector(), nullptr)
        << "B must not inherit A's fault config";
    EXPECT_TRUE(a.tracer().on());
    EXPECT_FALSE(b.tracer().on())
        << "B must not inherit A's trace config";

    // Drive both; only A's private tracer accumulates events.
    runWorkload("Sort", cfgA, WorkloadOptions{.repeats = 1});
    Machine m1, m2;
    m1.init(cfgA);
    m2.init(cfgB);
    EXPECT_TRUE(m1.tracer().on());
    EXPECT_EQ(m2.tracer().size(), 0u);
}

TEST(MachineIsolation, ConcurrentTracedMachinesStayPrivate)
{
    // Two fully traced runs in parallel: each machine records into its
    // own ring, so event counts are reproducible, not interleaved.
    WorkloadOptions opts;
    opts.repeats = 1;
    MachineConfig cfg = MachineConfig::make(MachineKind::ISRF1);
    cfg.traceSpec = "all";
    cfg.traceCapacity = 1 << 12;

    std::vector<SweepJob> jobs(2);
    jobs[0] = {"Sort", cfg, opts, {}};
    jobs[1] = {"Sort", cfg, opts, {}};
    SweepRunner runner(2);
    auto out = runner.run(jobs);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(resultJson(out[0].result), resultJson(out[1].result))
        << "identical traced jobs must produce identical results";
}

TEST(EnvSnapshot, MakeNeverReadsEnvironment)
{
    ScopedEnv faults("ISRF_FAULTS", "seed=1;srf_bit");
    ScopedEnv trace("ISRF_TRACE", "srf,dram");
    ScopedEnv profile("ISRF_PROFILE", "on");

    MachineConfig cfg = MachineConfig::make(MachineKind::ISRF4);
    EXPECT_FALSE(cfg.faults.enabled);
    EXPECT_TRUE(cfg.traceSpec.empty());

    // A Machine built from an env-free config ignores the environment.
    Machine m;
    m.init(cfg);
    EXPECT_EQ(m.faultInjector(), nullptr);
    EXPECT_FALSE(m.tracer().on());

    // Nor do the kind-only conveniences: a run comes back untraced,
    // unprofiled and fault-free.
    WorkloadResult r = runWorkload("Sort", MachineKind::Base);
    EXPECT_TRUE(r.correct);
    EXPECT_EQ(r.trace, nullptr);
    EXPECT_FALSE(r.profile.enabled());
    EXPECT_EQ(r.extra.count("faults_injected"), 0u);

    // Every matrix job runs on exactly make(kind).
    auto jobs = SweepRunner::matrix({"Sort", "Filter"},
        {MachineKind::Base, MachineKind::ISRF1, MachineKind::ISRF4,
         MachineKind::Cache}, {});
    ASSERT_EQ(jobs.size(), 8u);
    for (const SweepJob &j : jobs) {
        SweepJob plain = j;
        plain.cfg = MachineConfig::make(j.cfg.kind);
        EXPECT_EQ(SweepRunner::canonicalJobText(j),
                  SweepRunner::canonicalJobText(plain));
        EXPECT_FALSE(j.cfg.faults.enabled);
        EXPECT_EQ(j.cfg.traceSpec, plain.cfg.traceSpec);
        EXPECT_EQ(j.cfg.traceCapacity, plain.cfg.traceCapacity);
        EXPECT_EQ(j.cfg.profileEnabled, plain.cfg.profileEnabled);
    }
}

// ----------------------------------------------------------------------
// Sweep resilience (DESIGN.md §Sweep resilience)
// ----------------------------------------------------------------------

/** Temp journal path removed on scope exit. */
class TempJournal
{
  public:
    explicit TempJournal(const char *tag)
    {
        path_ = ::testing::TempDir() + "isrf_sweep_" + tag + "_" +
            std::to_string(::getpid()) + ".jsonl";
        std::remove(path_.c_str());
    }
    ~TempJournal() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** Runner that never terminates on its own: only a token stops it. */
WorkloadResult
hangRunner(const MachineConfig &cfg, const WorkloadOptions &opts)
{
    WorkloadResult res;
    res.workload = "Hang";
    res.kind = cfg.kind;
    Machine m;
    m.init(cfg);
    m.setCancel(opts.cancel);
    RunResult r = m.runUntil([] { return false; }, 1ull << 40);
    res.status = r.status;
    res.cycles = r.cycles;
    return res;
}

SweepJob
hangJob()
{
    SweepJob j;
    j.workload = "Hang";
    j.cfg = MachineConfig::make(MachineKind::Base);
    // The job never touches memory; a small DRAM keeps Machine::init
    // far inside TimeoutUnhangsAJob's 0.2 s deadline, so the run
    // reaches the loop before the deadline expires.
    j.cfg.dram.capacityWords = 1 << 16;
    j.runner = hangRunner;
    return j;
}

TEST(SweepResilience, TimeoutUnhangsAJob)
{
    SweepPolicy policy;
    policy.timeoutSeconds = 0.2;
    SweepRunner runner(1);
    auto out = runner.run({hangJob()}, policy);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].status, RunStatus::TimedOut);
    EXPECT_EQ(out[0].attempts, 1u);
    EXPECT_GT(out[0].result.cycles, 0u);
    EXPECT_LT(out[0].wallSeconds, 30.0)
        << "the deadline must actually bound the attempt";
}

TEST(SweepResilience, SweepCancelStopsJobsAndNeverHangsThePool)
{
    // A pre-cancelled sweep token: every job observes it at its first
    // poll point and returns Cancelled without simulating anything.
    CancelToken cancel;
    cancel.cancel();
    SweepPolicy policy;
    policy.cancel = &cancel;
    SweepRunner runner(2);
    auto out = runner.run({hangJob(), hangJob()}, policy);
    ASSERT_EQ(out.size(), 2u);
    for (const auto &o : out) {
        EXPECT_EQ(o.status, RunStatus::Cancelled);
        EXPECT_EQ(o.result.cycles, 0u)
            << "a pre-cancelled run must stop before the first step";
    }
}

TEST(SweepResilience, ThrowingJobBecomesFailedAndPoolKeepsDraining)
{
    WorkloadOptions opts;
    opts.repeats = 1;
    std::vector<SweepJob> jobs;
    SweepJob bad;
    bad.workload = "Thrower";
    bad.cfg = MachineConfig::make(MachineKind::Base);
    bad.runner = [](const MachineConfig &,
                    const WorkloadOptions &) -> WorkloadResult {
        throw std::runtime_error("synthetic workload failure");
    };
    jobs.push_back(bad);
    // Real workloads queued after the thrower must still complete.
    auto rest = SweepRunner::matrix(
        {"Sort"}, {MachineKind::Base, MachineKind::ISRF4}, opts);
    jobs.insert(jobs.end(), rest.begin(), rest.end());

    SweepRunner runner(2);
    auto out = runner.run(jobs, SweepPolicy());
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].status, RunStatus::Failed);
    EXPECT_EQ(out[0].result.status, RunStatus::Failed);
    EXPECT_EQ(out[0].result.error, "synthetic workload failure");
    EXPECT_EQ(out[0].attempts, 1u)
        << "exceptions are deterministic: no retry";
    for (size_t i = 1; i < out.size(); i++) {
        EXPECT_EQ(out[i].status, RunStatus::Done) << i;
        EXPECT_TRUE(out[i].result.correct) << i;
    }
}

TEST(SweepResilience, RetriesStalledJobsWithBoundedAttempts)
{
    // Times out twice, then succeeds on the third attempt; retries
    // must be journaled per attempt and the final outcome must report
    // attempts used.
    auto flaky = std::make_shared<std::atomic<uint32_t>>(0);
    SweepJob job;
    job.workload = "Flaky";
    job.cfg = MachineConfig::make(MachineKind::Base);
    job.runner = [flaky](const MachineConfig &cfg,
                         const WorkloadOptions &) {
        WorkloadResult r;
        r.workload = "Flaky";
        r.kind = cfg.kind;
        r.status = ++*flaky < 3 ? RunStatus::TimedOut : RunStatus::Done;
        r.correct = r.status == RunStatus::Done;
        return r;
    };

    TempJournal journal("retry");
    SweepPolicy policy;
    policy.retries = 3;
    policy.backoffBaseSeconds = 0.001;
    policy.backoffCapSeconds = 0.01;
    policy.journalPath = journal.path();
    SweepRunner runner(1);
    auto out = runner.run({job}, policy);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].status, RunStatus::Done);
    EXPECT_EQ(out[0].attempts, 3u);
    EXPECT_EQ(flaky->load(), 3u);

    // Journal: one header + one record per attempt.
    JsonlReadResult rec = readJsonl(journal.path());
    ASSERT_TRUE(rec.ok()) << rec.error;
    ASSERT_EQ(rec.records.size(), 4u);

    // Retries exhausted: final status is the last failure.
    auto exhausted = std::make_shared<std::atomic<uint32_t>>(0);
    SweepJob hopeless = job;
    hopeless.runner = [exhausted](const MachineConfig &cfg,
                                  const WorkloadOptions &) {
        WorkloadResult r;
        r.workload = "Flaky";
        r.kind = cfg.kind;
        r.status = RunStatus::TimedOut;
        ++*exhausted;
        return r;
    };
    SweepPolicy two;
    two.retries = 1;
    two.backoffBaseSeconds = 0.001;
    auto out2 = runner.run({hopeless}, two);
    EXPECT_EQ(out2[0].status, RunStatus::TimedOut);
    EXPECT_EQ(out2[0].attempts, 2u);
    EXPECT_EQ(exhausted->load(), 2u);

    // A stall is deterministic (the watchdog counts simulated cycles),
    // so it is final: one attempt, whatever the retry budget.
    auto stalls = std::make_shared<std::atomic<uint32_t>>(0);
    SweepJob stalled = job;
    stalled.runner = [stalls](const MachineConfig &cfg,
                              const WorkloadOptions &) {
        WorkloadResult r;
        r.workload = "Flaky";
        r.kind = cfg.kind;
        r.status = RunStatus::Stalled;
        ++*stalls;
        return r;
    };
    SweepPolicy three;
    three.retries = 3;
    three.backoffBaseSeconds = 0.001;
    auto out3 = runner.run({stalled}, three);
    EXPECT_EQ(out3[0].status, RunStatus::Stalled);
    EXPECT_EQ(out3[0].attempts, 1u);
    EXPECT_EQ(stalls->load(), 1u);
}

TEST(SweepResilience, ResumeReplaysJournaledJobsWithoutReExecution)
{
    WorkloadOptions opts;
    opts.repeats = 1;
    auto jobs = SweepRunner::matrix(
        {"Sort", "Filter"}, {MachineKind::Base, MachineKind::ISRF1},
        opts);

    TempJournal journal("resume");
    SweepPolicy policy;
    policy.journalPath = journal.path();
    SweepRunner runner(2);
    auto first = runner.run(jobs, policy);
    ASSERT_EQ(first.size(), 4u);
    for (const auto &o : first) {
        EXPECT_EQ(o.status, RunStatus::Done);
        EXPECT_FALSE(o.fromJournal);
    }

    policy.resume = true;
    auto second = runner.run(jobs, policy);
    ASSERT_EQ(second.size(), 4u);
    EXPECT_EQ(runner.timing().replayed, 4u);
    EXPECT_EQ(runner.timing().sumJobSeconds, 0.0)
        << "replayed jobs must not be re-simulated";
    for (size_t i = 0; i < 4; i++) {
        EXPECT_TRUE(second[i].fromJournal) << i;
        EXPECT_EQ(second[i].resultText, first[i].resultText)
            << "replayed result bytes must be identical";
        // The decoded result drives the sweep tables.
        EXPECT_EQ(second[i].result.cycles, first[i].result.cycles);
        EXPECT_EQ(second[i].result.correct, first[i].result.correct);
        EXPECT_EQ(second[i].result.dramWords, first[i].result.dramWords);
    }
}

TEST(SweepResilience, PartialJournalRunsOnlyTheMissingJobs)
{
    WorkloadOptions opts;
    opts.repeats = 1;
    auto jobs = SweepRunner::matrix(
        {"Sort"}, {MachineKind::Base, MachineKind::ISRF4}, opts);

    // Journal only the first job, with the true sweep fingerprint.
    TempJournal journal("partial");
    SweepPolicy policy;
    policy.journalPath = journal.path();
    SweepRunner runner(1);
    auto full = runner.run(jobs, policy);

    // Rewrite the journal holding header + first job's record only —
    // as if the sweep was killed after one completion.
    JsonlReadResult rec = readJsonl(journal.path());
    ASSERT_TRUE(rec.ok());
    ASSERT_GE(rec.records.size(), 3u);
    {
        JsonlWriter w;
        ASSERT_TRUE(w.open(journal.path(), false));
        ASSERT_TRUE(w.append(rec.records[0]));
        ASSERT_TRUE(w.append(rec.records[1]));
    }

    policy.resume = true;
    auto out = runner.run(jobs, policy);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_TRUE(out[0].fromJournal);
    EXPECT_FALSE(out[1].fromJournal);
    EXPECT_EQ(runner.timing().replayed, 1u);
    for (size_t i = 0; i < 2; i++) {
        EXPECT_EQ(out[i].status, RunStatus::Done) << i;
        EXPECT_EQ(out[i].resultText, full[i].resultText)
            << "resumed sweep must serialize byte-identically";
    }

    // After the resumed run the journal holds all jobs again: a third
    // run replays everything.
    runner.run(jobs, policy);
    EXPECT_EQ(runner.timing().replayed, 2u);
}

TEST(SweepResilience, TornFinalRecordIsTrimmedBeforeResumeAppends)
{
    WorkloadOptions opts;
    opts.repeats = 1;
    auto jobs = SweepRunner::matrix(
        {"Sort"}, {MachineKind::Base, MachineKind::ISRF4}, opts);

    TempJournal journal("torn");
    SweepPolicy policy;
    policy.journalPath = journal.path();
    SweepRunner runner(1);
    auto full = runner.run(jobs, policy);

    // Header + first job's record, then half of the second job's
    // record with no newline: a sweep SIGKILLed mid-append.
    JsonlReadResult rec = readJsonl(journal.path());
    ASSERT_TRUE(rec.ok()) << rec.error;
    ASSERT_EQ(rec.records.size(), 3u);
    {
        JsonlWriter w;
        ASSERT_TRUE(w.open(journal.path(), false));
        ASSERT_TRUE(w.append(rec.records[0]));
        ASSERT_TRUE(w.append(rec.records[1]));
    }
    const std::string torn =
        rec.records[2].substr(0, rec.records[2].size() / 2);
    {
        std::FILE *f = std::fopen(journal.path().c_str(), "ab");
        ASSERT_NE(f, nullptr);
        EXPECT_EQ(std::fwrite(torn.data(), 1, torn.size(), f),
                  torn.size());
        std::fclose(f);
    }

    policy.resume = true;
    auto out = runner.run(jobs, policy);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_TRUE(out[0].fromJournal);
    EXPECT_FALSE(out[1].fromJournal);
    for (size_t i = 0; i < 2; i++)
        EXPECT_EQ(out[i].resultText, full[i].resultText)
            << "resumed sweep must serialize byte-identically";
    EXPECT_EQ(runner.timing().tornRecordsDropped, 1u);
    EXPECT_EQ(runner.timing().tornBytesDropped, torn.size());

    // The re-run job's record starts on a fresh line: had the torn
    // bytes stayed, it would have glued onto them and corrupted the
    // journal for every later reader.
    JsonlReadResult after = readJsonl(journal.path());
    ASSERT_TRUE(after.ok()) << after.error;
    EXPECT_FALSE(after.tornFinalLine);
    EXPECT_EQ(after.droppedLines(), 0u);
    EXPECT_EQ(after.records.size(), 3u);
}

TEST(SweepResilienceDeathTest, StaleJournalIsRejectedNotMerged)
{
    WorkloadOptions opts;
    opts.repeats = 1;
    auto jobs =
        SweepRunner::matrix({"Sort"}, {MachineKind::Base}, opts);

    TempJournal journal("stale");
    SweepPolicy policy;
    policy.journalPath = journal.path();
    SweepRunner runner(1);
    runner.run(jobs, policy);

    // Drift the matrix: an options change is a different experiment.
    auto drifted = jobs;
    drifted[0].opts.seed ^= 1;
    policy.resume = true;
    EXPECT_EXIT(runner.run(drifted, policy),
                ::testing::ExitedWithCode(1), "stale");
}

// ----------------------------------------------------------------------
// External-dataset fingerprints (input-aware job identity)
// ----------------------------------------------------------------------

/**
 * Write a small valid .mtx whose diagonal value is `diag`, register it
 * as an external workload, and return the registered name. Re-writing
 * the same path with a different `diag` models a user editing their
 * input between sweeps.
 */
std::string
makeDatasetWorkload(const std::string &path, const char *diag)
{
    std::string text =
        "%%MatrixMarket matrix coordinate real general\n"
        "8 8 8\n";
    for (int i = 1; i <= 8; i++)
        text += std::to_string(i) + " " + std::to_string(i) + " " +
            diag + "\n";
    EXPECT_TRUE(writeTextFile(path, text));
    std::string name;
    std::vector<std::string> errs;
    EXPECT_TRUE(registerExternalDataset(path, &name, &errs))
        << (errs.empty() ? "" : errs[0]);
    return name;
}

TEST(DatasetFingerprint, TracksFileContentNotJustName)
{
    TempJournal file("ds_fp");  // reused as a temp .mtx path
    std::string name = makeDatasetWorkload(file.path(), "4.0");

    WorkloadOptions opts;
    opts.repeats = 1;
    auto jobs = SweepRunner::matrix({name}, {MachineKind::Base}, opts);
    const std::string canonical = SweepRunner::canonicalJobText(jobs[0]);
    EXPECT_NE(canonical.find("dataset.path"), std::string::npos);
    EXPECT_NE(canonical.find("dataset.bytes"), std::string::npos);
    EXPECT_NE(canonical.find("dataset.fnv1a"), std::string::npos);
    const uint64_t before = SweepRunner::fingerprint(jobs[0]);

    // Same workload name, same size, different bytes: the fingerprint
    // must move with the content hash.
    makeDatasetWorkload(file.path(), "5.0");
    const uint64_t after = SweepRunner::fingerprint(jobs[0]);
    EXPECT_NE(before, after);

    // Built-in workloads carry no dataset keys (their golden
    // fingerprints are pinned elsewhere in this suite).
    auto builtin =
        SweepRunner::matrix({"Sort"}, {MachineKind::Base}, opts);
    EXPECT_EQ(SweepRunner::canonicalJobText(builtin[0])
                  .find("dataset."),
              std::string::npos);
}

TEST(DatasetFingerprint, UnchangedDatasetResumesCleanly)
{
    TempJournal file("ds_ok");
    std::string name = makeDatasetWorkload(file.path(), "4.0");
    TempJournal journal("ds_ok_journal");

    WorkloadOptions opts;
    opts.repeats = 1;
    auto jobs = SweepRunner::matrix({name}, {MachineKind::Base}, opts);
    SweepPolicy policy;
    policy.journalPath = journal.path();
    SweepRunner runner(1);
    auto first = runner.run(jobs, policy);
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(first[0].status, RunStatus::Done);
    EXPECT_TRUE(first[0].result.correct);

    policy.resume = true;
    auto again = runner.run(jobs, policy);
    ASSERT_EQ(again.size(), 1u);
    EXPECT_TRUE(again[0].fromJournal);
    EXPECT_EQ(again[0].resultText, first[0].resultText);
}

TEST(SweepResilienceDeathTest, EditedDatasetMakesJournalStale)
{
    TempJournal file("ds_edit");
    std::string name = makeDatasetWorkload(file.path(), "4.0");
    TempJournal journal("ds_edit_journal");

    WorkloadOptions opts;
    opts.repeats = 1;
    auto jobs = SweepRunner::matrix({name}, {MachineKind::Base}, opts);
    SweepPolicy policy;
    policy.journalPath = journal.path();
    SweepRunner runner(1);
    runner.run(jobs, policy);

    // The user edits the matrix mid-experiment: resuming must reject
    // the journal as stale (mentioning datasets), not splice results
    // computed from the old bytes into the new experiment.
    makeDatasetWorkload(file.path(), "6.5");
    policy.resume = true;
    EXPECT_EXIT(runner.run(jobs, policy),
                ::testing::ExitedWithCode(1), "stale.*datasets");
}

TEST(SweepResilience, FingerprintSeparatesExperiments)
{
    WorkloadOptions opts;
    auto base =
        SweepRunner::matrix({"Sort"}, {MachineKind::Base}, opts)[0];
    EXPECT_EQ(SweepRunner::fingerprint(base),
              SweepRunner::fingerprint(base))
        << "fingerprints must be deterministic";

    SweepJob other = base;
    other.workload = "Filter";
    EXPECT_NE(SweepRunner::fingerprint(base),
              SweepRunner::fingerprint(other));

    other = base;
    other.cfg.seed++;
    EXPECT_NE(SweepRunner::fingerprint(base),
              SweepRunner::fingerprint(other));

    other = base;
    other.opts.repeats++;
    EXPECT_NE(SweepRunner::fingerprint(base),
              SweepRunner::fingerprint(other));

    other = base;
    other.cfg.faults.enabled = true;
    EXPECT_NE(SweepRunner::fingerprint(base),
              SweepRunner::fingerprint(other));

    // A custom runner cannot be attested by name: it must not collide
    // with the registry job of the same (workload, cfg, opts).
    other = base;
    other.runner = hangRunner;
    EXPECT_NE(SweepRunner::fingerprint(base),
              SweepRunner::fingerprint(other));

    // Observability-only knobs do NOT change the fingerprint: a
    // journal resumes traced or not, profiled or not.
    other = base;
    other.cfg.traceSpec = "all";
    other.cfg.traceCapacity = 4096;
    other.cfg.profileEnabled = true;
    EXPECT_EQ(SweepRunner::fingerprint(base),
              SweepRunner::fingerprint(other));
}

TEST(SweepResilience, CanonicalTextExcludesObservabilityKnobs)
{
    WorkloadOptions opts;
    auto job =
        SweepRunner::matrix({"Sort"}, {MachineKind::Base}, opts)[0];
    std::string text = SweepRunner::canonicalJobText(job);

    // The centralized exclusion list and the canonical text must
    // agree: no excluded knob may appear as a key.
    for (const std::string &knob : SweepRunner::observabilityKnobs()) {
        EXPECT_EQ(text.find(knob + "="), std::string::npos)
            << "excluded knob '" << knob
            << "' leaked into canonical text: " << text;
    }
    // The deleted interval sampler's key stays, pinned to 0, so job
    // fingerprints and existing journals are unchanged.
    EXPECT_NE(text.find("statSampleInterval=0;"), std::string::npos)
        << text;
}

TEST(SweepResilience, FingerprintsMatchGoldenSeedValues)
{
    // Golden fingerprints captured from the pre-profiler tree. If one
    // of these changes, every existing journal for that config is
    // invalidated — that is a breaking change and needs a deliberate
    // kJournalVersion bump, not a silent drift.
    struct Golden
    {
        MachineKind kind;
        uint64_t fp;
    };
    const Golden golden[] = {
        {MachineKind::Base, 0x46265b8e200cff92ull},
        {MachineKind::ISRF1, 0xecc57f3c2ac84cfbull},
        {MachineKind::ISRF4, 0x26d59cdb63d8a403ull},
        {MachineKind::Cache, 0x2ce009909ade9cecull},
    };
    WorkloadOptions opts;
    for (const auto &g : golden) {
        SweepJob job;
        job.workload = "FFT 2D";
        job.cfg = MachineConfig::make(g.kind);
        job.opts = opts;
        EXPECT_EQ(SweepRunner::fingerprint(job), g.fp)
            << machineKindName(g.kind) << " text:\n"
            << SweepRunner::canonicalJobText(job);
    }
}

TEST(SweepResilience, LoadJournalDiagnosesBadFiles)
{
    // Missing file.
    auto load =
        SweepRunner::loadJournal(::testing::TempDir() + "no.jsonl");
    EXPECT_FALSE(load.ok);

    // Valid JSONL but not a journal (no header).
    TempJournal journal("badhead");
    {
        JsonlWriter w;
        ASSERT_TRUE(w.open(journal.path(), false));
        ASSERT_TRUE(w.append("{\"not\":\"a header\"}"));
    }
    load = SweepRunner::loadJournal(journal.path());
    EXPECT_FALSE(load.ok);
    EXPECT_NE(load.error.find("header"), std::string::npos)
        << load.error;
}

TEST(SweepResilience, ReplayPolicyReRunsWallClockDependentStatuses)
{
    EXPECT_TRUE(SweepRunner::replayable(RunStatus::Done));
    EXPECT_TRUE(SweepRunner::replayable(RunStatus::Stalled));
    EXPECT_TRUE(SweepRunner::replayable(RunStatus::Failed));
    EXPECT_FALSE(SweepRunner::replayable(RunStatus::TimedOut));
    EXPECT_FALSE(SweepRunner::replayable(RunStatus::Cancelled));
}

TEST(EnvSnapshot, ParseU64RejectsGarbage)
{
    uint64_t v = 0;
    EXPECT_TRUE(parseU64("0", v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseU64("18446744073709551615", v));
    EXPECT_EQ(v, UINT64_MAX);
    EXPECT_FALSE(parseU64("", v));
    EXPECT_FALSE(parseU64("  12", v));
    EXPECT_FALSE(parseU64("12x", v));
    EXPECT_FALSE(parseU64("-3", v));
    EXPECT_FALSE(parseU64("0x10", v));
    EXPECT_FALSE(parseU64("18446744073709551616", v));
}

} // namespace
} // namespace isrf
