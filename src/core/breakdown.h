/**
 * @file
 * Execution-time breakdown accounting matching Figure 12's categories:
 * kernel loop body, memory stall, SRF stall, and kernel overheads.
 * Units are lane-cycles (machine cycles x lanes) so per-lane states
 * aggregate into a stacked total.
 */
#ifndef ISRF_CORE_BREAKDOWN_H
#define ISRF_CORE_BREAKDOWN_H

#include <cstdint>

namespace isrf {

/** Stacked execution-time components (lane-cycles). */
struct TimeBreakdown
{
    uint64_t loopBody = 0;
    uint64_t memStall = 0;
    uint64_t srfStall = 0;
    uint64_t overhead = 0;

    uint64_t
    total() const
    {
        return loopBody + memStall + srfStall + overhead;
    }

    TimeBreakdown &
    operator+=(const TimeBreakdown &o)
    {
        loopBody += o.loopBody;
        memStall += o.memStall;
        srfStall += o.srfStall;
        overhead += o.overhead;
        return *this;
    }

    void
    reset()
    {
        loopBody = memStall = srfStall = overhead = 0;
    }

    /** Component as a fraction of the given reference total. */
    double frac(uint64_t component, uint64_t ref) const
    {
        return ref ? static_cast<double>(component) /
            static_cast<double>(ref) : 0.0;
    }
};

} // namespace isrf

#endif // ISRF_CORE_BREAKDOWN_H
