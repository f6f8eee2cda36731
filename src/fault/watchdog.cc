#include "fault/watchdog.h"

#include "sim/engine.h"
#include "sim/trace.h"
#include "util/json.h"
#include "util/log.h"

namespace isrf {

void
Watchdog::init(uint64_t intervalCycles, uint32_t stallIntervals,
               ProgressFn progress, Tracer *tracer, std::string label)
{
    if (intervalCycles == 0)
        panic("Watchdog::init: zero interval");
    if (stallIntervals == 0)
        panic("Watchdog::init: zero stall threshold");
    interval_ = intervalCycles;
    stallIntervals_ = stallIntervals;
    progress_ = std::move(progress);
    tracer_ = tracer;
    label_ = std::move(label);
    nextCheck_ = kUnarmed;
    lastProgress_ = progress_ ? progress_() : 0;
    stalled_ = 0;
    triggered_ = false;
    triggeredCycle_ = 0;
}

void
Watchdog::tick(Cycle now)
{
    if (triggered_ || interval_ == 0)
        return;
    // Lazy arming: the first ticked cycle counts as one elapsed cycle,
    // so the check lands interval_ ticks after registration (identical
    // to the old per-tick counter under dense ticking).
    if (nextCheck_ == kUnarmed)
        nextCheck_ = now + interval_ - 1;
    if (now < nextCheck_)
        return;
    nextCheck_ = now + interval_;
    uint64_t cur = progress_ ? progress_() : 0;
    if (cur != lastProgress_) {
        lastProgress_ = cur;
        stalled_ = 0;
        return;
    }
    if (++stalled_ < stallIntervals_)
        return;
    triggered_ = true;
    triggeredCycle_ = now;
    // Same diagnosis aid as the runUntil deadlock path: the last
    // grants/stalls in the trace buffer say who stopped making progress.
    if (tracer_)
        tracer_->dumpTail(stderr, Engine::kDeadlockDumpEvents,
                          label_.c_str());
    ISRF_WARN("watchdog: no progress for %llu cycles (%u x %llu-cycle "
              "intervals) at cycle %llu; stopping run",
              static_cast<unsigned long long>(
                  static_cast<uint64_t>(stalled_) * interval_),
              stalled_, static_cast<unsigned long long>(interval_),
              static_cast<unsigned long long>(now));
}

std::string
Watchdog::reportJson() const
{
    JsonWriter w;
    w.beginObject();
    w.field("triggered", triggered_);
    w.field("triggered_cycle", static_cast<uint64_t>(triggeredCycle_));
    w.field("interval_cycles", interval_);
    w.field("stall_intervals", static_cast<uint64_t>(stallIntervals_));
    w.field("last_progress", lastProgress_);
    w.endObject();
    return w.str();
}

void
Watchdog::rearm()
{
    triggered_ = false;
    stalled_ = 0;
    nextCheck_ = kUnarmed;
    if (progress_)
        lastProgress_ = progress_();
}

void
Watchdog::saveState(SnapshotWriter &w) const
{
    w.u64(nextCheck_);
    w.u64(lastProgress_);
    w.u32(stalled_);
    w.b(triggered_);
    w.u64(triggeredCycle_);
}

bool
Watchdog::loadState(SnapshotReader &r)
{
    return r.u64(nextCheck_) && r.u64(lastProgress_) &&
        r.u32(stalled_) && r.b(triggered_) && r.u64(triggeredCycle_);
}

} // namespace isrf
