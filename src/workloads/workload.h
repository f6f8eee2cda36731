/**
 * @file
 * Common interface for the paper's benchmarks (§5.2).
 *
 * Each workload builds a stream program for a given machine
 * configuration (Base / ISRF1 / ISRF4 / Cache), runs it on a fresh
 * Machine, validates the functional output against an independent
 * reference implementation, and reports timing/traffic statistics.
 */
#ifndef ISRF_WORKLOADS_WORKLOAD_H
#define ISRF_WORKLOADS_WORKLOAD_H

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/machine.h"
#include "core/stream_program.h"

namespace isrf {

/** Result of one benchmark run on one machine configuration. */
struct WorkloadResult
{
    std::string workload;
    MachineKind kind = MachineKind::Base;
    uint64_t cycles = 0;
    TimeBreakdown breakdown;
    /** Off-chip DRAM words moved (Figure 11 metric). */
    uint64_t dramWords = 0;
    /** Cluster-side sequential SRF words accessed. */
    uint64_t srfSeqWords = 0;
    /** Indexed SRF words accessed (in-lane + cross-lane). */
    uint64_t srfIdxWords = 0;
    /** Words served by the vector cache (Cache machine only). */
    uint64_t cacheWords = 0;
    /** Per-kernel sustained SRF bandwidth records (Figure 13). */
    std::map<std::string, KernelBwRecord> kernelBw;
    /** Functional output matched the reference implementation. */
    bool correct = false;
    /**
     * How the simulation ended: Done for a completed run; Stalled
     * (watchdog), TimedOut (deadline) or Cancelled when the drive loop
     * stopped early (validation is skipped, correct=false); Failed
     * when the workload threw (set by the sweep driver, with the
     * exception message in `error`) or its harvested breakdown broke
     * the Figure 12 invariant (see checkBreakdownInvariant).
     */
    RunStatus status = RunStatus::Done;
    /** Human-readable failure detail (Failed outcomes); else empty. */
    std::string error;
    /** Workload-specific extras (strip sizes, schedule lengths, ...). */
    std::map<std::string, double> extra;
    /**
     * This run's trace events (null unless its machine recorded any)
     * and host-time profile (null unless profiling was on). They are
     * observability only: resultJson() never serialises them, and
     * copies of a result share them.
     */
    std::shared_ptr<const Tracer> trace;
    std::shared_ptr<const Profiler> profile;
    /**
     * DRAM pages (Dram::kPageWords words each) the run touched: its
     * storage footprint. Host-side like trace and profile: resultJson()
     * never serialises it, so a journal-replayed result reads 0.
     */
    uint64_t dramPagesTouched = 0;
};

/** Options shared by all workload runners. */
struct WorkloadOptions
{
    /**
     * Number of times the benchmark's steady-state body repeats,
     * reproducing §5.3's "executed multiple times in software
     * pipelined loops" assumption.
     */
    uint32_t repeats = 2;
    uint64_t seed = 12345;
    /** Override the machine's address/data separation (0 = default). */
    uint32_t separationOverride = 0;
    /**
     * Cooperative cancellation / wall-clock deadline observed by the
     * run (Machine::setCancel); nullptr = never cancelled. Not part of
     * the simulation outcome for completed runs: a Done result is
     * identical with or without a (untripped) token.
     */
    const CancelToken *cancel = nullptr;
    /**
     * Mid-job checkpoint/restore context (util/snapshot.h); nullptr =
     * checkpointing off. Attached to the machine before run() so
     * StreamProgram::run resumes from the newest valid checkpoint and
     * saves on the configured cycle cadence. Like `cancel`, not part of
     * the simulation outcome: a completed run's result is identical
     * with or without a context.
     */
    CheckpointContext *checkpoint = nullptr;
};

/** Signature of a workload runner. */
using WorkloadRunner =
    std::function<WorkloadResult(const MachineConfig &,
                                 const WorkloadOptions &)>;

/** Name -> runner registry used by the benchmark harnesses. */
const std::map<std::string, WorkloadRunner> &workloadRegistry();

/**
 * Register an additional workload (external datasets, test doubles).
 * Call before the first bench/sweep run; later registrations replace
 * earlier ones with the same name. Not thread-safe against concurrent
 * registry readers — register during startup, before spawning workers.
 */
void registerWorkload(const std::string &name, WorkloadRunner runner);

/**
 * All registered workload names, alphabetized — the diagnostic shown
 * when an unknown name reaches a bench driver.
 */
std::vector<std::string> workloadNames();

/** "a, b, c" rendering of workloadNames() for error messages. */
std::string workloadNamesJoined();

/**
 * Convenience: run a registered workload on the Table 2 machine
 * MachineConfig::make(kind), with no faults, tracing or profiling.
 */
WorkloadResult runWorkload(const std::string &name, MachineKind kind,
                           const WorkloadOptions &opts = {});

/**
 * Run a registered workload on an explicit machine config — the entry
 * point the parallel SweepRunner uses; concurrently running jobs share
 * no mutable process state.
 */
WorkloadResult runWorkload(const std::string &name,
                           const MachineConfig &cfg,
                           const WorkloadOptions &opts);

/**
 * Fill a WorkloadResult's common fields from a finished machine,
 * including copies of its trace and host profile, then check the
 * breakdown invariant (checkBreakdownInvariant).
 */
void harvestResult(WorkloadResult &res, Machine &m, uint64_t cycles);

/**
 * The Figure 12 invariant: every lane-cycle of the run is charged to
 * exactly one bucket, so loop_body + srf_stall + mem_stall + overhead
 * == lanes x res.cycles. On violation marks `res` Failed with the
 * sums in `error` (so validation is skipped) and returns false.
 */
bool checkBreakdownInvariant(WorkloadResult &res, uint32_t lanes);

class JsonWriter;

/** Append a WorkloadResult as a JSON object to an open writer. */
void resultJson(JsonWriter &w, const WorkloadResult &res);

/** A WorkloadResult as a standalone JSON object string. */
std::string resultJson(const WorkloadResult &res);

} // namespace isrf

#endif // ISRF_WORKLOADS_WORKLOAD_H
