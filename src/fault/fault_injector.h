/**
 * @file
 * Deterministic schedule-driven fault injector.
 *
 * Owned by the Machine and invoked once per cycle from Machine::tick()
 * (after Srf::beginCycle and the crossbar's newCycle, so injected
 * crossbar stalls survive into this cycle's arbitration). Each schedule
 * entry fires at fixed cycles; targets (lane, address, bit positions)
 * come from a PRNG seeded by the fault config, so runs are reproducible
 * with no wall-clock dependence.
 */
#ifndef ISRF_FAULT_FAULT_INJECTOR_H
#define ISRF_FAULT_FAULT_INJECTOR_H

#include <vector>

#include "fault/fault_config.h"
#include "sim/types.h"
#include "util/random.h"
#include "util/stats.h"

namespace isrf {

class Tracer;

class Srf;
class MemorySystem;
class Crossbar;

/** Fires the configured fault schedule into the machine's components. */
class FaultInjector
{
  public:
    void init(const FaultConfig &cfg, uint64_t machineSeed, Srf *srf,
              MemorySystem *mem, Crossbar *xbar,
              Tracer *tracer = nullptr);

    /** Fire every schedule entry due at `now`. */
    void inject(Cycle now);

    /** True once every schedule entry has fired its full count. */
    bool exhausted() const;

    /** Total firings across all entries so far. */
    uint64_t totalInjected() const { return totalInjected_; }

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }
    const FaultConfig &config() const { return cfg_; }

    /** RNG + per-entry fire schedule + stats (util/snapshot.h).
     *  The schedule itself is init() config and must match. */
    void snapshot(SnapshotIo &io);

  private:
    struct EntryState
    {
        FaultScheduleEntry entry;
        Cycle next = 0;
        uint64_t remaining = 0;
    };

    void fire(const FaultScheduleEntry &e, Cycle now);
    Word randomMask(uint32_t bits);

    FaultConfig cfg_;
    Rng rng_;
    Srf *srf_ = nullptr;
    MemorySystem *mem_ = nullptr;
    Crossbar *xbar_ = nullptr;
    std::vector<EntryState> sched_;
    uint64_t totalInjected_ = 0;
    StatGroup stats_{"fault"};
    Tracer *trc_ = nullptr;  ///< owning machine's; null = untraced
    uint16_t traceCh_ = 0;
};

} // namespace isrf

#endif // ISRF_FAULT_FAULT_INJECTOR_H
