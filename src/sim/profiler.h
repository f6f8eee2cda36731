/**
 * @file
 * Host-side self-profiler: where does the simulator's *wall-clock*
 * time go? (The tracer observes *simulated* time.)
 *
 * One phase tree, fixed at compile time:
 *
 *   job ─┬─ run_loop ── machine_tick ─┬─ mem_tick
 *        │                            ├─ cluster_tick
 *        │                            └─ srf_port_arb
 *        ├─ report_serialize
 *        └─ journal
 *
 * Every node reports its total and its self time (total minus its
 * children's), and no node's children sum past it. job.self is set-up
 * (input generation, checkpoint restore, scoreboard build), harvest
 * and validation; run_loop.self is the scoreboard, the stop checks and
 * checkpoint saves. A run outside the sweep runner has no job node.
 *
 * Machine::tick makes one sampling decision per cycle, sampleCycle();
 * on an unsampled cycle no other profiler code runs. A sampled tick
 * reads the clock at each TickMark and hands the reads over in one
 * recordTick() call, so the children are disjoint sub-intervals of
 * the tick. Gaps between samples are uniform in [1, 127] (mean 64)
 * from the profiler's own seeded PRNG: deterministic, and unable to
 * alias with a kernel's initiation interval as a fixed stride can.
 *
 * The whole is measured, the split is sampled. Reading the clock
 * slows the tick it reads (each read drains the pipeline, and the
 * timed code runs cold), so cycles x mean sampled tick overshoots the
 * run loop around it. The next cycle's decision therefore also reads
 * the clock, ending the sampled tick's run-loop iteration, and the
 * tick subtree is scaled by one factor: run_loop / sampled iterations.
 * A tick is part of its iteration, so machine_tick <= run_loop holds
 * by construction. Ticks outside any run loop are counted, not timed.
 * The cost of one clock read, measured by configure(), is subtracted
 * from every interval.
 *
 * One writer per profile: each Machine owns one, and the sweep runner
 * adds a job's own phases to its result's copy on the worker that ran
 * the job. Plain counters; folding profiles is a sum.
 */
#ifndef ISRF_SIM_PROFILER_H
#define ISRF_SIM_PROFILER_H

#include <array>
#include <cstdint>
#include <string>

#include "util/random.h"

namespace isrf {

class Profiler
{
  public:
    /** Host-time phases, in tree pre-order (see parent()). */
    enum Phase : uint8_t {
        Job,             ///< one sweep job attempt, journal included
        RunLoop,         ///< StreamProgram::run / Machine::runUntil
        MachineTick,     ///< Machine::tick (sampled cycles)
        MemTick,         ///< memory system tick (sampled cycles)
        ClusterTick,     ///< all lanes' cluster ticks (sampled cycles)
        SrfPortArb,      ///< SRF endCycle: port arbitration (sampled)
        ReportSerialize, ///< the job's result JSON
        Journal,         ///< sweep journal append + fsync
        kPhaseCount,
        kRoot = kPhaseCount,
    };

    /** The phase's parent in the tree (kRoot for job). */
    static constexpr Phase
    parent(Phase p)
    {
        constexpr Phase kParent[kPhaseCount] = {
            kRoot, Job, RunLoop, MachineTick, MachineTick, MachineTick,
            Job, Job,
        };
        return kParent[p];
    }

    static const char *phaseName(Phase p);

    /** Clock reads of a sampled Machine::tick, in order. */
    enum TickMark : uint8_t {
        TickBegin,
        MemBegin,
        ClusterBegin,  ///< = mem end
        SrfBegin,      ///< = cluster end
        SrfEnd,
        TickEnd,
        kTickMarks,
    };
    using TickTimes = std::array<int64_t, kTickMarks>;

    /** The profiler's clock: steady-clock nanoseconds. */
    static int64_t now();

    /**
     * Enable or disable, zero every counter, restart the sample gaps
     * and (when enabled) measure the cost of one clock read.
     */
    void configure(bool enabled);

    bool enabled() const { return enabled_; }

    /** Machine::tick's one question per cycle: time this tick? */
    bool
    sampleCycle()
    {
        if (!enabled_)
            return false;
        cycles_++;
        if (open_)
            close(now());
        if (--untilSample_ != 0)
            return false;
        untilSample_ = 1 + gaps_.below(127);
        sampled_++;
        return true;
    }

    /** A sampled tick's clock reads. */
    void recordTick(const TickTimes &t);

    /** One interval [t0, t1] of a phase outside the tick subtree. */
    void record(Phase p, int64_t t0, int64_t t1);

    /** Add another profile's counters to this one's. */
    void mergeFrom(const Profiler &other);

    /** Cycles ticked, and how many of them were timed. */
    uint64_t cycles() const { return cycles_; }
    uint64_t sampledCycles() const { return sampled_; }

    /** Entries of a phase (every cycle for the tick subtree). */
    uint64_t calls(Phase p) const;

    /** Nanoseconds in the phase (the tick subtree scaled up). */
    int64_t totalNs(Phase p) const;

    /** totalNs(p) minus its children's totals. */
    int64_t selfNs(Phase p) const;

    /**
     * The tree as Chrome trace-event JSON: one "X" event per phase,
     * children laid end to end from their parent's start, roots end to
     * end from 0. Loads in chrome://tracing, Perfetto and speedscope.
     */
    std::string chromeTraceJson() const;

    /** RAII timer for one interval of a phase outside the tick. */
    class Timer
    {
      public:
        Timer(Profiler &p, Phase ph)
            : p_(p.enabled_ ? &p : nullptr), ph_(ph),
              t0_(p_ ? now() : 0)
        {}

        ~Timer()
        {
            if (p_)
                p_->record(ph_, t0_, now());
        }

        Timer(const Timer &) = delete;
        Timer &operator=(const Timer &) = delete;

      private:
        Profiler *p_;
        Phase ph_;
        int64_t t0_;
    };

  private:
    static constexpr bool
    inTick(Phase p)
    {
        return p >= MachineTick && p <= SrfPortArb;
    }

    /** [t0, t1] less the cost of one clock read. */
    int64_t span(int64_t t0, int64_t t1) const;

    /** Commit the open sample; its run-loop iteration ended at t. */
    void close(int64_t t);

    bool enabled_ = false;
    int64_t timerNs_ = 0;       ///< cost of one clock read
    Rng gaps_;                  ///< sample gaps; never the machine's
    uint64_t untilSample_ = 0;  ///< cycles to the next sampled one
    uint64_t cycles_ = 0;
    uint64_t sampled_ = 0;
    /** The sample whose iteration has not ended yet. */
    bool open_ = false;
    int64_t openEnd_ = 0;       ///< its TickEnd read
    std::array<int64_t, kPhaseCount> openNs_{};
    /** Closed samples' iterations, less their ticks. */
    int64_t restNs_ = 0;
    /** Per phase: entries, and ns (closed samples only in the tick). */
    std::array<uint64_t, kPhaseCount> calls_{};
    std::array<int64_t, kPhaseCount> ns_{};
};

} // namespace isrf

#endif // ISRF_SIM_PROFILER_H
