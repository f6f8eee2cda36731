/**
 * @file
 * One SRAM sub-array of an SRF bank (§4.1/4.2).
 *
 * Sub-arrays are single-ported: each can perform one access per cycle —
 * either its share of a wide sequential row access, or one single-word
 * indexed access through the added 8:1 column multiplexer. The model
 * tracks per-cycle occupancy and counts port conflicts.
 */
#ifndef ISRF_SRF_SUB_ARRAY_H
#define ISRF_SRF_SUB_ARRAY_H

#include "sim/types.h"
#include "util/snapshot.h"

namespace isrf {

/** Per-cycle access token + conflict count for one SRAM sub-array. */
class SubArray
{
  public:
    SubArray() = default;

    /** Start a new cycle: the port becomes free again. */
    void newCycle() { busy_ = false; }

    /** True if the port is still free this cycle. */
    bool available() const { return !busy_; }

    /**
     * Claim the port for one access, either a single-word indexed
     * access or this sub-array's share of a wide sequential row.
     * @return false if already busy this cycle (conflict).
     */
    bool
    claim()
    {
        if (busy_) {
            conflicts_++;
            return false;
        }
        busy_ = true;
        return true;
    }

    uint64_t conflicts() const { return conflicts_; }

    /** The conflict count; the port token is per-cycle state and
     *  restores free (snapshots are taken at cycle boundaries). */
    void
    snapshot(SnapshotIo &io)
    {
        io.u64(conflicts_);
        if (io.loading())
            busy_ = false;
    }

  private:
    bool busy_ = false;
    uint64_t conflicts_ = 0;
};

} // namespace isrf

#endif // ISRF_SRF_SUB_ARRAY_H
