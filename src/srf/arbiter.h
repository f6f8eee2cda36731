/**
 * @file
 * Round-robin arbiter used for global SRF port arbitration (§4.4).
 *
 * Claimants register a stable id; each cycle the arbiter picks one of
 * the currently claiming ids, rotating priority so every claimant makes
 * progress. The paper found complex stall-aware arbiters buy <10%
 * (§5.4), so round-robin is both faithful and sufficient.
 *
 * Claims are a fixed-width bitmask (bit i set = id i claims), so one
 * arbitration is a rotate plus count-trailing-zeros — no per-cycle
 * heap traffic and no O(n) scan.
 */
#ifndef ISRF_SRF_ARBITER_H
#define ISRF_SRF_ARBITER_H

#include <cstdint>

#include "util/log.h"
#include "util/snapshot.h"

namespace isrf {

/** Simple rotating-priority arbiter over integer claimant ids. */
class RoundRobinArbiter
{
  public:
    /** Bitmask claims limit one arbiter to 64 claimants. */
    static constexpr uint32_t kMaxClaimants = 64;

    explicit RoundRobinArbiter(uint32_t numClaimants = 0)
        : n_(numClaimants)
    {
        checkWidth();
    }

    void
    resize(uint32_t numClaimants)
    {
        n_ = numClaimants;
        checkWidth();
    }
    uint32_t size() const { return n_; }

    /**
     * Choose among claiming ids (bit i of `claims` set means id i
     * claims). Bits at or beyond size() must be clear.
     * @return granted id, or -1 if nobody claims. Advances priority
     * one past the grantee; an idle cycle freezes it.
     */
    int
    arbitrate(uint64_t claims)
    {
        if (claims == 0)
            return -1;
        if (n_ < kMaxClaimants && (claims >> n_) != 0)
            panic("RoundRobinArbiter: claim bit beyond %u claimants",
                  n_);
        // Rotate priority: the first claiming id at or after next_,
        // wrapping to the lowest claiming id when none remain above.
        uint64_t hi = claims >> next_;
        uint32_t id = hi
            ? next_ + static_cast<uint32_t>(__builtin_ctzll(hi))
            : static_cast<uint32_t>(__builtin_ctzll(claims));
        next_ = (id + 1) % n_;
        return static_cast<int>(id);
    }

    /** The rotation; the claimant count is construction state. */
    void
    snapshot(SnapshotIo &io)
    {
        io.u32(next_);
        io.require(n_ == 0 || next_ < n_);
    }

  private:
    void
    checkWidth()
    {
        if (n_ > kMaxClaimants)
            panic("RoundRobinArbiter: %u claimants exceed the %u-bit "
                  "claim mask", n_, kMaxClaimants);
    }

    uint32_t n_;
    uint32_t next_ = 0;
};

} // namespace isrf

#endif // ISRF_SRF_ARBITER_H
