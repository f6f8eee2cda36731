/**
 * @file
 * Interval statistics sampler: ticked by Machine::step after every
 * other component, it snapshots registered statistics every N cycles
 * and keeps per-interval deltas, turning the simulator's flat
 * end-of-run counters into utilization / bandwidth time-series (SRF
 * port grants, bank conflicts, DRAM words and row hits, memory queue
 * depth, cluster busy fraction, ...).
 *
 * Three kinds of sources can be registered:
 *  - StatGroup*: every counter in the group is delta-sampled as
 *    "<group>.<name>";
 *  - counter functions: any monotonically increasing uint64_t readout
 *    (e.g. Dram::wordsTransferred), delta-sampled;
 *  - gauges: instantaneous double readouts (e.g. queue depth), sampled
 *    as-is at each interval boundary.
 *
 * When tracing is enabled the sampler also emits Counter trace events
 * on its "stats" channel, so Perfetto renders the series alongside the
 * event timeline.
 */
#ifndef ISRF_SIM_STAT_SAMPLER_H
#define ISRF_SIM_STAT_SAMPLER_H

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/types.h"
#include "util/stats.h"

namespace isrf {

/** One sampling interval's worth of stat deltas and gauge readouts. */
struct StatInterval
{
    Cycle start = 0;  ///< first cycle of the interval
    Cycle end = 0;    ///< cycle the sample was taken (exclusive)
    /** "group.stat" -> increase over this interval. */
    std::map<std::string, uint64_t> deltas;
    /** gauge name -> instantaneous value at `end`. */
    std::map<std::string, double> gauges;
};

class Tracer;

/** Periodically snapshots registered stats (see file comment). */
class StatSampler
{
  public:
    explicit StatSampler(uint64_t intervalCycles = 0);

    /**
     * Tracer to emit Counter events into (the owning machine's).
     * Unset, the sampler emits no trace events.
     */
    void setTracer(Tracer *tracer) { tracer_ = tracer; }

    /** Sampling period in cycles; 0 disables sampling. */
    void setInterval(uint64_t cycles) { interval_ = cycles; }
    uint64_t interval() const { return interval_; }
    bool enabled() const { return interval_ > 0; }

    /** Register a stat group; all its counters get delta-sampled. */
    void addGroup(StatGroup *group);

    /** Register a monotonically increasing counter readout. */
    void addCounterFn(const std::string &name,
                      std::function<uint64_t()> fn);

    /** Register an instantaneous gauge readout. */
    void addGauge(const std::string &name, std::function<double()> fn);

    /** Samples when (now+1) hits an interval boundary. */
    void tick(Cycle now);

    /** Force a sample at `now` (e.g. end of run, partial interval). */
    void sampleNow(Cycle now);

    const std::vector<StatInterval> &intervals() const
    {
        return intervals_;
    }

    /** Drop collected intervals and re-baseline the snapshots. */
    void reset();

    /**
     * Render intervals as CSV: one row per (interval, stat), columns
     * "start,end,stat,delta_or_value,kind".
     */
    std::string csv() const;

    /** Write csv() to a file. @return false on I/O error. */
    bool writeCsv(const std::string &path) const;

    /** Interval cursor, last-snapshot baseline and collected intervals
     *  (util/snapshot.h). Registered sources are init() wiring. */
    void snapshot(SnapshotIo &io);

  private:
    void rebaseline();

    uint64_t interval_ = 0;
    Cycle intervalStart_ = 0;
    std::vector<StatGroup *> groups_;
    std::vector<std::pair<std::string, std::function<uint64_t()>>>
        counterFns_;
    std::vector<std::pair<std::string, std::function<double()>>> gauges_;
    /** "group.stat"/counter-fn name -> last snapshot value. */
    std::map<std::string, uint64_t> lastSnapshot_;
    std::vector<StatInterval> intervals_;
    Tracer *tracer_ = nullptr;
    uint16_t traceCh_ = 0;
    bool traceChInit_ = false;
};

} // namespace isrf

#endif // ISRF_SIM_STAT_SAMPLER_H
