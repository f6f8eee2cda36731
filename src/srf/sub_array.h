/**
 * @file
 * One SRAM sub-array of an SRF bank (§4.1/4.2).
 *
 * Sub-arrays are single-ported: each can perform one access per cycle —
 * either its share of a wide sequential row access, or one single-word
 * indexed access through the added 8:1 column multiplexer. The model
 * tracks per-cycle occupancy and access-energy statistics.
 */
#ifndef ISRF_SRF_SUB_ARRAY_H
#define ISRF_SRF_SUB_ARRAY_H

#include "sim/types.h"
#include "util/snapshot.h"
#include "util/stats.h"

namespace isrf {

/** Per-cycle access token + statistics for one SRAM sub-array. */
class SubArray
{
  public:
    SubArray() = default;

    /** Start a new cycle: the port becomes free again. */
    void newCycle() { busy_ = false; }

    /** True if the port is still free this cycle. */
    bool available() const { return !busy_; }

    /**
     * Claim the port for a single-word indexed access.
     * @return false if already busy this cycle (conflict).
     */
    bool
    claimIndexed()
    {
        if (busy_) {
            conflicts_++;
            return false;
        }
        busy_ = true;
        indexedAccesses_++;
        return true;
    }

    /** Claim the port for a wide sequential row access. */
    bool
    claimSequential()
    {
        if (busy_) {
            conflicts_++;
            return false;
        }
        busy_ = true;
        sequentialAccesses_++;
        return true;
    }

    uint64_t indexedAccesses() const { return indexedAccesses_; }
    uint64_t sequentialAccesses() const { return sequentialAccesses_; }
    uint64_t conflicts() const { return conflicts_; }

    void
    resetStats()
    {
        indexedAccesses_ = 0;
        sequentialAccesses_ = 0;
        conflicts_ = 0;
    }

    /** Counters only; the port token is per-cycle state and restores
     *  free (snapshots are taken at cycle boundaries). */
    void
    snapshot(SnapshotIo &io)
    {
        io.u64(indexedAccesses_);
        io.u64(sequentialAccesses_);
        io.u64(conflicts_);
        if (io.loading())
            busy_ = false;
    }

  private:
    bool busy_ = false;
    uint64_t indexedAccesses_ = 0;
    uint64_t sequentialAccesses_ = 0;
    uint64_t conflicts_ = 0;
};

} // namespace isrf

#endif // ISRF_SRF_SUB_ARRAY_H
