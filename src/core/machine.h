/**
 * @file
 * The stream processor: assembles SRF, clusters, networks and the
 * memory system, owns the clock and orchestrates their per-cycle
 * protocol, manages kernel invocations, and classifies every
 * lane-cycle into the Figure 12 execution-time categories.
 */
#ifndef ISRF_CORE_MACHINE_H
#define ISRF_CORE_MACHINE_H

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.h"
#include "core/breakdown.h"
#include "core/config.h"
#include "core/stream.h"
#include "fault/fault_injector.h"
#include "fault/watchdog.h"
#include "mem/memory_system.h"
#include "sim/profiler.h"
#include "sim/run_status.h"
#include "sim/trace.h"
#include "util/random.h"

namespace isrf {

/** Sustained SRF bandwidth accounting for one kernel (Figure 13). */
struct KernelBwRecord
{
    uint64_t laneCycles = 0;
    uint64_t seqWords = 0;
    uint64_t inLaneWords = 0;
    uint64_t crossWords = 0;
    uint64_t invocations = 0;

    double
    seqPerLaneCycle() const
    {
        return laneCycles ? static_cast<double>(seqWords) /
            static_cast<double>(laneCycles) : 0.0;
    }
    double
    inLanePerLaneCycle() const
    {
        return laneCycles ? static_cast<double>(inLaneWords) /
            static_cast<double>(laneCycles) : 0.0;
    }
    double
    crossPerLaneCycle() const
    {
        return laneCycles ? static_cast<double>(crossWords) /
            static_cast<double>(laneCycles) : 0.0;
    }
};

/**
 * A complete simulated stream processor (one Table 2 configuration).
 * It owns the one synchronous clock: step() advances every component
 * one cycle in a fixed order, and every run loop (runUntil(),
 * StreamProgram::run) asks stopStatus() between steps whether to stop.
 */
class Machine
{
  public:
    Machine() = default;
    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    void init(const MachineConfig &cfg);

    const MachineConfig &config() const { return cfg_; }
    Srf &srf() { return srf_; }
    MemorySystem &mem() { return mem_; }
    Crossbar &dataNet() { return dataNet_; }
    SrfAllocator &allocator() { return alloc_; }
    ModuloScheduler &scheduler() { return scheduler_; }
    Cycle now() const { return now_; }
    uint32_t lanes() const { return cfg_.srf.lanes; }

    /**
     * This machine's private event tracer. Every component of this
     * machine records here, so concurrent machines in one process stay
     * fully isolated. Configured from cfg.traceSpec / cfg.traceCapacity
     * at init; copied into the WorkloadResult at harvest.
     */
    Tracer &tracer() { return tracer_; }
    const Tracer &tracer() const { return tracer_; }

    /**
     * This machine's private host-time profiler (same isolation rule
     * as the tracer). Configured from cfg.profileEnabled at init;
     * copied into the WorkloadResult at harvest.
     */
    Profiler &profiler() { return profiler_; }
    const Profiler &profiler() const { return profiler_; }

    /**
     * Schedule a kernel with this machine's separation settings
     * (cross-lane separation if the kernel has a cross-lane stream).
     * Memoized per graph (KernelGraph::uid()) until the next init().
     */
    KernelSchedule scheduleKernel(const KernelGraph &graph);

    /**
     * Launch a kernel invocation across all lanes. The machine rewinds
     * all bound slots, binds every cluster, flushes output slots after
     * the last lane finishes, and clears the active state once flushes
     * and indexed writes have drained. One kernel runs at a time.
     */
    void launchKernel(std::shared_ptr<KernelInvocation> inv);

    bool kernelActive() const { return active_ != nullptr; }

    /**
     * Advance n cycles. Each cycle ticks the machine (tick()), then
     * the watchdog when configured — so it sees the cycle's finished
     * state — and then advances the clock.
     */
    void step(uint64_t n = 1);

    /**
     * Step until pred() holds or stopStatus() says stop; never
     * panics. pred() is tested first, so a finished run is always
     * Done. @return the status and the cycles this call stepped.
     */
    RunResult runUntil(const std::function<bool()> &pred,
                       uint64_t limit = 1ull << 30);

    /**
     * The stop rule every run loop calls between steps, after its own
     * completion test. `executed` is the cycles the loop has stepped
     * so far, `limit` its cycle cap. In order:
     *  1. watchdog tripped → Stalled;
     *  2. cancel token cancelled → Cancelled, or its deadline expired
     *     → TimedOut (the wall clock is read at most once per
     *     kDeadlineCheckCycles);
     *  3. executed >= limit → dumps this machine's trace tail, tagged
     *     with the config name (a deadlocked model's last grants and
     *     stalls are the diagnosis), then Limit.
     * @return Done to keep stepping, else why the loop must stop.
     */
    RunStatus stopStatus(uint64_t executed, uint64_t limit);

    /**
     * Attach (or detach, with nullptr) a cooperative cancellation
     * token, observed by stopStatus() — so only between steps, at a
     * consistent machine state.
     */
    void
    setCancel(const CancelToken *token)
    {
        cancel_ = token;
        nextDeadlineCheck_ = 0;
    }

    /**
     * Cycles between wall-clock deadline checks in stopStatus():
     * often enough for second-scale sweep deadlines, rare enough that
     * the hot loop never pays a clock read per cycle. It changes only
     * *when* an expired deadline is noticed, never the results of a
     * run that completes.
     */
    static constexpr Cycle kDeadlineCheckCycles = 1024;

    /**
     * How the most recent drive loop over this machine ended (set by
     * runUntil() and StreamProgram::run). Done before any run.
     */
    RunStatus lastRunStatus() const { return lastRunStatus_; }
    void noteRunStatus(RunStatus s) { lastRunStatus_ = s; }

    const TimeBreakdown &breakdown() const { return breakdown_; }
    const std::map<std::string, KernelBwRecord> &kernelBw() const
    {
        return kernelBw_;
    }

    /** Zero breakdown/bandwidth/DRAM statistics (not machine state). */
    void resetStats();

    // --- fault model (src/fault/, DESIGN.md §Fault model) ---

    /** True when a fault schedule is active (cfg.faults). */
    bool faultsEnabled() const { return faultsEnabled_; }

    /** Injector; non-null only when faults are enabled. */
    FaultInjector *faultInjector() { return injector_.get(); }
    const FaultInjector *faultInjector() const { return injector_.get(); }

    /** Watchdog; non-null only when cfg.faults.watchdogInterval > 0. */
    Watchdog *watchdog() { return watchdog_.get(); }
    const Watchdog *watchdog() const { return watchdog_.get(); }
    bool watchdogTriggered() const
    {
        return watchdog_ && watchdog_->triggered();
    }

    /** Repair all pending correctable faults. @return words repaired. */
    uint64_t scrubFaults();

    // ------------------------------------------------------------------
    // Snapshot (util/snapshot.h, DESIGN.md §17)
    // ------------------------------------------------------------------

    /**
     * Attach a checkpoint context (null = checkpointing off). The run
     * loop (StreamProgram::run) saves/restores through it.
     */
    void setCheckpoint(CheckpointContext *ctx) { checkpoint_ = ctx; }
    CheckpointContext *checkpoint() const { return checkpoint_; }

    /**
     * FNV-1a over every config field that shapes snapshot section
     * layout (kind, SRF geometry, memory/cache/DRAM sizing, seed,
     * fault/watchdog wiring). Stored in the snapshot header and checked
     * by loadSnapshot() before any component state is touched.
     */
    uint64_t geometryHash() const;

    /**
     * Serialize the complete machine state (all components + clock)
     * into `snap`. Must be called at a cycle boundary (between
     * steps). The caller stamps the job fingerprint.
     */
    void saveSnapshot(Snapshot &snap);

    /**
     * Restore a verified snapshot into this machine, which must have
     * been init()ed with the same config that produced it.
     * `activeInv` is the deterministically rebuilt invocation of the
     * kernel that was mid-flight at save time (null when none was).
     * On failure returns false with *err set and the machine must be
     * considered poisoned: re-init() and restart from zero.
     */
    bool loadSnapshot(const Snapshot &snap,
                      std::shared_ptr<KernelInvocation> activeInv,
                      std::string *err);

  private:
    /** One machine cycle: networks, SRF, memory, clusters, accounting. */
    void tick(Cycle now);
    /** tick()'s body; Timed reads the clock at each Profiler::TickMark. */
    template <bool Timed> void tickPhases(Cycle now);
    /** `lanesTicked`: some lane ticked this cycle (none slept all). */
    void finishKernelIfDone(Cycle now, bool lanesTicked);
    void initFaults();

    /** One row of the snapshot section table (DESIGN.md §17). */
    struct SnapshotSection
    {
        uint32_t tag;
        const char *name;  ///< in load diagnostics
        /** The section's field list; null when its component is not
         *  configured. */
        std::function<void(SnapshotIo &)> io;
        /** Present in a snapshot iff its component is configured. */
        bool optional;
    };
    /** Every machine section, in file order. */
    std::vector<SnapshotSection> snapshotSections();
    /** The MACH section: RNG, active-kernel bookkeeping, breakdown. */
    void snapshotMachineSection(SnapshotIo &io);

    MachineConfig cfg_;
    Tracer tracer_;
    Profiler profiler_;
    Cycle now_ = 0;
    const CancelToken *cancel_ = nullptr;
    /** Next cycle at which stopStatus reads the wall clock. */
    Cycle nextDeadlineCheck_ = 0;
    Crossbar dataNet_;
    Srf srf_;
    MemorySystem mem_;
    std::vector<Cluster> clusters_;
    /**
     * Lane sleep (DESIGN.md §19): the earliest Cluster::wake(), and
     * how many lanes sleep as Loop. Before lanesWake_ no lane ticks
     * and a cycle has sleepLoop_ loop lane-cycles, the rest overhead.
     * Derived, never saved: init, launchKernel, the kernel's unbind
     * and a snapshot load reset lanesWake_ to 0.
     */
    Cycle lanesWake_ = 0;
    uint64_t sleepLoop_ = 0;
    SrfAllocator alloc_;
    ModuloScheduler scheduler_;
    /** scheduleKernel()'s results by KernelGraph::uid(); init() clears. */
    std::unordered_map<uint64_t, KernelSchedule> schedules_;
    Rng rng_;

    std::unique_ptr<FaultInjector> injector_;
    std::unique_ptr<Watchdog> watchdog_;
    bool faultsEnabled_ = false;
    RunStatus lastRunStatus_ = RunStatus::Done;

    std::shared_ptr<KernelInvocation> active_;
    std::vector<SlotId> activeOutputs_;
    std::vector<SlotId> activeIdxWriteSlots_;
    bool flushing_ = false;
    Cycle kernelStart_ = 0;
    uint64_t bwSeq0_ = 0, bwIn0_ = 0, bwCross0_ = 0;
    uint16_t traceCh_ = 0;
    const char *activeKernelName_ = nullptr;  ///< interned, for spans

    TimeBreakdown breakdown_;
    std::map<std::string, KernelBwRecord> kernelBw_;
    CheckpointContext *checkpoint_ = nullptr;
};

} // namespace isrf

#endif // ISRF_CORE_MACHINE_H
