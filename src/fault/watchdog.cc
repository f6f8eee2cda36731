#include "fault/watchdog.h"

#include "sim/trace.h"
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
}

void
Watchdog::tick(Cycle now)
{
    if (triggered_ || interval_ == 0)
        return;
    // Lazy arming: the first ticked cycle counts as one elapsed cycle,
    // so the check lands interval_ ticks after the first one.
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
    // Same diagnosis aid as the cycle-cap deadlock path: the last
    // grants/stalls in the trace buffer say who stopped making progress.
    if (tracer_)
        tracer_->dumpTail(stderr, Tracer::kTailEvents,
                          label_.c_str());
    ISRF_WARN("watchdog: no progress for %llu cycles (%u x %llu-cycle "
              "intervals) at cycle %llu; stopping run",
              static_cast<unsigned long long>(
                  static_cast<uint64_t>(stalled_) * interval_),
              stalled_, static_cast<unsigned long long>(interval_),
              static_cast<unsigned long long>(now));
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
Watchdog::snapshot(SnapshotIo &io)
{
    io.u64(nextCheck_);
    io.u64(lastProgress_);
    io.u32(stalled_);
    io.b(triggered_);
}

} // namespace isrf
