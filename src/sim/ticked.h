/**
 * @file
 * Core simulation types: cycle counts and the Ticked component interface.
 *
 * The simulator is a synchronous, fixed-order tick engine: every
 * component's tick() is invoked once per cycle in registration order.
 * Components that need a post-pass (e.g. to commit values written by
 * later components in the same cycle) implement postTick().
 */
#ifndef ISRF_SIM_TICKED_H
#define ISRF_SIM_TICKED_H

#include <cstdint>
#include <string>

namespace isrf {

/** Simulation time in machine cycles. */
using Cycle = uint64_t;

/** A 32-bit machine word: the unit of SRF and DRAM storage (Table 3). */
using Word = uint32_t;

/** Interface for components advanced by the tick engine. */
class Ticked
{
  public:
    virtual ~Ticked() = default;

    /** Advance one cycle. Called once per cycle in registration order. */
    virtual void tick(Cycle now) = 0;

    /**
     * Optional second phase, after all components ticked. A component
     * that overrides postTick() must also override hasPostTick() to
     * return true — the engine only invokes postTick() on components
     * that declared it, so the per-cycle post-pass costs nothing when
     * (as is typical) no component uses it.
     */
    virtual void postTick(Cycle now) { (void)now; }

    /** Declare that postTick() is overridden (see above). */
    virtual bool hasPostTick() const { return false; }

    /** Component name for stats and tracing. */
    virtual std::string tickedName() const = 0;
};

} // namespace isrf

#endif // ISRF_SIM_TICKED_H
