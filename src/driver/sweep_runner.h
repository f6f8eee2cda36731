/**
 * @file
 * Parallel experiment driver.
 *
 * The paper's evaluation is a (workload x machine-configuration)
 * matrix of fully independent simulations — classic embarrassingly
 * parallel throughput-simulation work. SweepRunner executes such a
 * matrix on a fixed-size thread pool, one isolated simulation context
 * per job, and returns results in deterministic submission order
 * regardless of completion order.
 *
 * Soundness rests on the de-globalized simulation core: every Machine
 * owns its Tracer, Profiler and StatSampler, and reads only the
 * MachineConfig its job carries — never the process environment. A
 * job therefore touches no mutable process-global state; its trace
 * and profile come back inside its WorkloadResult, and the runner's
 * own phases record into a Profiler the runner owns.
 *
 * Determinism guarantee: each job's WorkloadResult depends only on
 * (workload, config, options), all captured at submission time, so a
 * sweep run with N threads is bit-identical to the same sweep run
 * serially — only wall time changes.
 */
#ifndef ISRF_DRIVER_SWEEP_RUNNER_H
#define ISRF_DRIVER_SWEEP_RUNNER_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/config.h"
#include "sim/profiler.h"
#include "sim/run_status.h"
#include "workloads/workload.h"

namespace isrf {

/** One independent simulation to run: a fully resolved context. */
struct SweepJob
{
    std::string workload;  ///< name in workloadRegistry()
    MachineConfig cfg;     ///< the machine this job runs on
    WorkloadOptions opts;
    /**
     * Optional runner override (tests, synthetic jobs); when set it is
     * invoked instead of the registry lookup. Custom-runner jobs are
     * fingerprinted as such: the journal cannot attest arbitrary code,
     * so their records never silently replace a registry workload's.
     */
    WorkloadRunner runner;
};

/** One finished job, in submission order. */
struct SweepOutcome
{
    std::string workload;
    MachineKind kind = MachineKind::Base;
    WorkloadResult result;
    double wallSeconds = 0.0;  ///< this job's wall-clock time
    /**
     * Final job status: result.status for executed jobs (Done /
     * Stalled / TimedOut / Cancelled), or Failed when the workload
     * threw (message in result.error).
     */
    RunStatus status = RunStatus::Done;
    /** Attempts consumed (1 + retries actually used). */
    uint32_t attempts = 1;
    /** True when replayed from the journal instead of re-simulated. */
    bool fromJournal = false;
    /**
     * Canonical resultJson(result) bytes. For replayed jobs these are
     * the journaled bytes, so a resumed sweep's JSON export is
     * byte-identical to an uninterrupted run's.
     */
    std::string resultText;
};

/** Aggregate timing for a whole sweep. */
struct SweepTiming
{
    unsigned threads = 1;
    double wallSeconds = 0.0;     ///< sweep start to last completion
    double sumJobSeconds = 0.0;   ///< sum of executed job wall times
    size_t replayed = 0;          ///< jobs served from the journal
    /**
     * Journal-recovery loss accounting for --resume (0 on a clean
     * resume): torn final records dropped (0 or 1 — the fsync'd
     * journal can tear at most its last line), bytes discarded with
     * them, and blank lines skipped by the tolerant reader. Surfaced
     * in bench_sweep's summary and --timing-json so operators can
     * tell a clean resume from a lossy one.
     */
    size_t tornRecordsDropped = 0;
    size_t tornBytesDropped = 0;
    size_t journalLinesSkipped = 0;
    /**
     * Checkpoint accounting (0 unless SweepPolicy::checkpointDir is
     * set): snapshot files written, jobs resumed mid-flight from a
     * checkpoint, and total simulated cycles actually executed by this
     * process (excluding cycles skipped by restores). The CI
     * resilience check asserts a resumed sweep executes strictly fewer
     * cycles than its uninterrupted baseline.
     */
    uint64_t checkpointSaves = 0;
    uint64_t checkpointRestores = 0;
    uint64_t simCyclesExecuted = 0;
    /** Aggregate parallel speedup: sum of job times / sweep wall. */
    double speedup() const
    {
        return wallSeconds > 0.0 ? sumJobSeconds / wallSeconds : 1.0;
    }
};

/**
 * Resilience policy for one sweep (see DESIGN.md §Sweep resilience).
 * The default-constructed policy reproduces the plain run() behavior:
 * no deadline, no retries, no journal.
 */
struct SweepPolicy
{
    /** Per-attempt wall-clock deadline in seconds (0 = none). */
    double timeoutSeconds = 0.0;
    /** Extra attempts after a TimedOut attempt. */
    uint32_t retries = 0;
    /** First retry backoff (doubles per retry, +-50% jitter). */
    double backoffBaseSeconds = 0.1;
    /** Backoff ceiling. */
    double backoffCapSeconds = 5.0;
    /** Journal path ("" = no journal). */
    std::string journalPath;
    /**
     * Replay journaled outcomes instead of re-simulating. Requires the
     * journal's sweep fingerprint to match the submitted matrix; a
     * mismatch (code/config drift) is a fatal stale-journal error,
     * never a silent merge. A missing journal file is treated as a
     * fresh start.
     */
    bool resume = false;
    /** External whole-sweep cancellation (nullptr = none). */
    const CancelToken *cancel = nullptr;
    /**
     * Mid-job checkpoint directory ("" = checkpointing off). Each job
     * writes <dir>/job-<fingerprint>.ckpt every checkpointEveryCycles
     * simulated cycles (util/snapshot.h); on the next run of the same
     * matrix an in-flight job resumes from its newest valid
     * checkpoint. The file is removed once the job reaches a
     * replayable (journalable) outcome, and kept for TimedOut /
     * Cancelled attempts so the retry or the next sweep resumes
     * mid-flight. Excluded from job fingerprints: checkpointing
     * observes a run without changing its results.
     */
    std::string checkpointDir;
    /** Checkpoint cadence in simulated cycles (0 = only on request). */
    uint64_t checkpointEveryCycles = 0;
};

/** One journaled attempt record, decoded. */
struct SweepJournalRecord
{
    uint64_t job = 0;          ///< job fingerprint
    std::string workload;
    std::string machine;
    uint32_t attempt = 1;
    RunStatus status = RunStatus::Done;
    double wallSeconds = 0.0;
    std::string resultText;    ///< raw resultJson bytes
    std::string error;
};

/** Decoded journal: header + last record per job fingerprint. */
struct SweepJournalLoad
{
    bool ok = false;
    std::string error;             ///< why !ok (I/O, corrupt, header)
    uint64_t sweepFingerprint = 0; ///< from the header line
    size_t jobCount = 0;           ///< from the header line
    bool tornFinalLine = false;    ///< a torn final record was dropped
    size_t tornBytes = 0;          ///< bytes dropped with the torn line
    size_t blankLines = 0;         ///< blank lines the reader skipped
    /** Latest record per job fingerprint (attempt order = file order). */
    std::map<uint64_t, SweepJournalRecord> latest;
    /** Attempts journaled so far per job fingerprint. */
    std::map<uint64_t, uint32_t> attempts;
};

/** Fixed-size thread pool running SweepJobs (see file comment). */
class SweepRunner
{
  public:
    /**
     * Called (under an internal mutex) as each job starts and
     * finishes; `done` counts finished jobs so far.
     */
    using ProgressFn = std::function<void(const SweepJob &job,
                                          bool finished, size_t done,
                                          size_t total)>;

    /** @param threads worker count; 0 = hardware concurrency. */
    explicit SweepRunner(unsigned threads = 0);

    unsigned threads() const { return threads_; }

    /**
     * Run all jobs and return their outcomes in submission order.
     * With one thread (or one job) everything runs inline on the
     * calling thread. Results are bit-identical either way.
     */
    std::vector<SweepOutcome> run(const std::vector<SweepJob> &jobs,
                                  ProgressFn progress = nullptr);

    /**
     * Run all jobs under a resilience policy: per-attempt wall-clock
     * deadlines, bounded retry-with-backoff for TimedOut attempts,
     * per-attempt journaling, and journal replay on resume (DESIGN.md
     * §Sweep resilience). A stale journal — one whose sweep
     * fingerprint does not match the submitted matrix — is a fatal()
     * user error, never silently merged.
     */
    std::vector<SweepOutcome> run(const std::vector<SweepJob> &jobs,
                                  const SweepPolicy &policy,
                                  ProgressFn progress = nullptr);

    /**
     * Deterministic fingerprint of one job: FNV-1a over
     * canonicalJobText() — a canonical dump of every
     * simulation-affecting field of (workload, config, options).
     * Observability-only knobs (see observabilityKnobs()) are
     * deliberately excluded so a journal resumes cleanly with tracing,
     * sampling or profiling toggled.
     */
    static uint64_t fingerprint(const SweepJob &job);

    /**
     * The canonical text fingerprint() hashes. Exposed so tests can
     * assert the exact exclusion policy (journal compatibility) rather
     * than just hash equality.
     */
    static std::string canonicalJobText(const SweepJob &job);

    /**
     * Names of the MachineConfig knobs excluded from fingerprints
     * because they cannot affect simulation results — the single
     * authoritative exclusion list (documented at canonicalJob() in
     * sweep_runner.cc, which enforces it).
     */
    static const std::vector<std::string> &observabilityKnobs();

    /** Fingerprint of a whole ordered matrix (hash of job hashes). */
    static uint64_t sweepFingerprint(const std::vector<SweepJob> &jobs);

    /**
     * Decode a journal file: header line + per-attempt records. !ok
     * covers unreadable files, corrupt interior lines, and malformed
     * headers; a torn final record is dropped and flagged, not an
     * error. Exposed for tests and tooling — run() applies the same
     * logic on --resume.
     */
    static SweepJournalLoad loadJournal(const std::string &path);

    /**
     * True when a journaled final status may be replayed instead of
     * re-simulated: Done / Stalled / Failed are deterministic
     * functions of the fingerprinted inputs; TimedOut / Cancelled
     * depend on wall-clock conditions and are always re-run.
     */
    static bool replayable(RunStatus s);

    /** Timing of the most recent run(). */
    const SweepTiming &timing() const { return timing_; }

    /**
     * Host-time profile of the most recent run()'s own phases (result
     * serialization, journal appends). Enabled when any job's config
     * profiles; the jobs' machine profiles are in their results.
     */
    const Profiler &profiler() const { return profiler_; }

    /**
     * Build the full benchmarks x machine-kinds job matrix in figure
     * order, each job on the plain Table 2 config make(kind).
     */
    static std::vector<SweepJob>
    matrix(const std::vector<std::string> &workloads,
           const std::vector<MachineKind> &kinds,
           const WorkloadOptions &opts);

  private:
    unsigned threads_ = 1;
    SweepTiming timing_;
    Profiler profiler_;
};

} // namespace isrf

#endif // ISRF_DRIVER_SWEEP_RUNNER_H
