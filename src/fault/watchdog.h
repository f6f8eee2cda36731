/**
 * @file
 * Machine-level progress watchdog.
 *
 * Generalizes the run loops' cycle-cap deadlock guard into a progress
 * monitor that Machine::step ticks every cycle: every `interval`
 * cycles it samples a
 * monotonically increasing retired-work metric; after `stallIntervals`
 * consecutive intervals without progress it trips, records a
 * structured diagnostic (JSON) plus the trace tail, and lets the run
 * exit through a distinct status (RunStatus::Stalled) instead of an
 * abort.
 */
#ifndef ISRF_FAULT_WATCHDOG_H
#define ISRF_FAULT_WATCHDOG_H

#include <functional>
#include <string>

#include "sim/types.h"
#include "util/snapshot.h"

namespace isrf {

class Tracer;

/** Monitors a retired-work metric for progress, once per cycle. */
class Watchdog
{
  public:
    /** Returns the machine's monotonically increasing progress count. */
    using ProgressFn = std::function<uint64_t()>;

    /**
     * `tracer`/`label` select whose trace tail the trip diagnostic
     * dumps and how it is tagged (the owning machine's tracer and
     * config name); defaulted, the trip dumps no trace.
     */
    void init(uint64_t intervalCycles, uint32_t stallIntervals,
              ProgressFn progress, Tracer *tracer = nullptr,
              std::string label = "");

    void tick(Cycle now);

    /** True once the stall threshold has been reached. */
    bool triggered() const { return triggered_; }
    Cycle triggeredCycle() const { return triggeredCycle_; }

    /** Structured diagnostic of the (last) trip as a JSON object. */
    std::string reportJson() const;

    /** Re-arm after a trip (diagnostics are kept until the next one). */
    void rearm();

    /** Check schedule + stall progress state (util/snapshot.h). */
    void snapshot(SnapshotIo &io);

  private:
    uint64_t interval_ = 0;
    uint32_t stallIntervals_ = 4;
    ProgressFn progress_;
    Tracer *tracer_ = nullptr;
    std::string label_;

    static constexpr Cycle kUnarmed = ~Cycle(0);
    /**
     * Absolute cycle of the next progress check; kUnarmed until armed
     * (lazily, on the first tick, so a watchdog created mid-run
     * still gets full intervals).
     */
    Cycle nextCheck_ = kUnarmed;
    uint64_t lastProgress_ = 0;
    uint32_t stalled_ = 0;
    bool triggered_ = false;
    Cycle triggeredCycle_ = 0;
};

} // namespace isrf

#endif // ISRF_FAULT_WATCHDOG_H
