/**
 * @file
 * Host-side self-profiler: where does the simulator's *wall-clock*
 * time go?
 *
 * The tracer and sampler (sim/trace.h, sim/stat_sampler.h) observe
 * *simulated* time; this profiler attributes *host* time to a fixed
 * set of phases (component ticks, SRF port arbitration, the memory
 * system, journal fsyncs, report serialization) so the ROADMAP's
 * "as fast as the hardware allows" work can be profile-driven instead
 * of guessed.
 *
 * Design constraints, in order:
 *  1. Zero observable effect on simulation results. The profiler only
 *     reads the wall clock — it never touches machine state, so a
 *     profiled run's resultJson() is byte-identical to an unprofiled
 *     one (asserted in tests and CI).
 *  2. Low overhead. Disabled: one predictable branch per scope.
 *     Enabled: hot per-cycle phases count every entry but read the
 *     clock only once per `stride` entries (per phase); the report
 *     extrapolates (ns * calls / timed). Coarse phases (journal,
 *     report serialization, whole runs) are always timed.
 *  3. Isolation. Each Machine owns a Profiler (like its Tracer), so
 *     parallel sweep workers never contend. A finished run's profile
 *     travels in its WorkloadResult; a bench binary folds those into
 *     its own aggregate via lock-free mergeFrom (all accumulators are
 *     relaxed atomics). There is no process-global profiler.
 *
 * Enabling: MachineConfig::profileEnabled / profileStride, which a
 * bench binary's --profile <file> flag turns on (default stride).
 *
 * Exports: a "profile" section in machineReportJson (profiled machines
 * only), a Chrome-trace/speedscope-compatible dump (--profile <file>),
 * and the aggregate "profile" object in bench_sweep's BENCH_*.json
 * perf records.
 */
#ifndef ISRF_SIM_PROFILER_H
#define ISRF_SIM_PROFILER_H

#include <atomic>
#include <cstdint>
#include <string>

namespace isrf {

class JsonWriter;

class Profiler
{
  public:
    /**
     * Host-time attribution buckets. A fixed enum (not a string map)
     * keeps the hot path to array indexing; extend it when a new
     * subsystem becomes worth attributing.
     */
    enum Phase : uint8_t {
        MachineTick,  ///< Machine::tick, whole cycle (sampled)
        ClusterTick,  ///< all lanes' cluster ticks (sampled)
        SrfCycle,     ///< SRF endCycle: port arbitration (sampled)
        MemTick,      ///< memory system tick (sampled)
        Journal,      ///< sweep journal append + fsync (always timed)
        Report,       ///< report/result JSON serialization (always timed)
        Run,          ///< whole StreamProgram::run drive loops (timed)
        kPhaseCount,
    };

    static const char *phaseName(Phase p);

    /** True for hot per-cycle phases that are stride-sampled. */
    static bool phaseSampled(Phase p);

    /** Default hot-phase sampling stride (1 of every N entries). */
    static constexpr uint64_t kDefaultStride = 64;

    Profiler() = default;
    Profiler(const Profiler &) = delete;
    Profiler &operator=(const Profiler &) = delete;

    /** Enable/disable and set the hot-phase stride (min 1). */
    void configure(bool enabled, uint64_t stride = kDefaultStride);

    bool enabled() const { return enabled_; }
    uint64_t stride() const { return stride_; }

    /** Zero every accumulator (enablement and stride survive). */
    void reset();

    /**
     * Fold another profiler's accumulators into this one. Safe against
     * concurrent mergeFrom/Scope recording on the destination (relaxed
     * atomics); `other` must be quiescent, which holds at harvest time
     * when its owning machine has finished running.
     */
    void mergeFrom(const Profiler &other);

    /** Snapshot of one phase's accumulators. */
    struct PhaseStats
    {
        uint64_t calls = 0;  ///< top-level scope entries
        uint64_t timed = 0;  ///< entries that read the clock
        uint64_t ns = 0;     ///< wall nanoseconds over the timed entries
        /** Extrapolated total ns: ns * calls / timed (0 when untimed). */
        double
        estNs() const
        {
            return timed ? static_cast<double>(ns) *
                    static_cast<double>(calls) /
                    static_cast<double>(timed)
                         : 0.0;
        }
    };

    PhaseStats phase(Phase p) const;

    /** Sum of estNs() over all phases except the MachineTick/Run
     *  umbrellas (which contain the others). */
    double leafEstNs() const;

    /** True when any phase recorded at least one call. */
    bool hasData() const;

    /** Emit {"stride":...,"phases":{...}} in value position. */
    void reportJson(JsonWriter &w) const;

    /** reportJson() as a standalone string. */
    std::string reportJson() const;

    /**
     * The aggregate as Chrome trace-event JSON (one "X" complete event
     * per phase, laid end to end, dur = extrapolated time). Loads in
     * chrome://tracing, Perfetto, and speedscope; the per-phase call
     * counts ride in "args".
     */
    std::string chromeTraceJson() const;

    /** Write chromeTraceJson() to a file. @return false on I/O error. */
    bool writeChromeTrace(const std::string &path) const;

    /**
     * RAII scoped timer. Construction/destruction is a single branch
     * when the profiler is disabled. Reentrant scopes on the same
     * (profiler, phase) are no-ops past the outermost one — recursion
     * neither double-counts time nor inflates the call count (the
     * outer scope's measurement already contains the inner's).
     */
    class Scope
    {
      public:
        Scope(Profiler &p, Phase ph)
        {
            if (!p.enabled_)
                return;
            p_ = &p;
            ph_ = ph;
            p.enter(*this, ph);
        }

        ~Scope()
        {
            if (p_)
                p_->leave(*this, ph_);
        }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        friend class Profiler;
        Profiler *p_ = nullptr;
        Phase ph_ = MachineTick;
        int64_t t0_ = 0;
        bool outer_ = false;   ///< outermost scope for this phase
        bool timing_ = false;  ///< this entry reads the clock
    };

  private:
    friend class Scope;

    struct Acc
    {
        std::atomic<uint64_t> calls{0};
        std::atomic<uint64_t> timed{0};
        std::atomic<uint64_t> ns{0};
        /**
         * Live scope nesting for the reentrancy guard. On a profiler
         * shared by threads (the SweepRunner's) a concurrent
         * same-phase scope on another thread is treated like a
         * reentrant one (not timed, not counted).
         */
        std::atomic<uint32_t> depth{0};
    };

    void enter(Scope &s, Phase ph);
    void leave(Scope &s, Phase ph);

    bool enabled_ = false;
    uint64_t stride_ = kDefaultStride;
    Acc acc_[kPhaseCount];
};

} // namespace isrf

#endif // ISRF_SIM_PROFILER_H
