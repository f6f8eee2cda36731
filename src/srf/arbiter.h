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
 * heap traffic and no O(n) scan. A legacy vector-of-bytes overload
 * remains for callers that build claims incrementally; a claims vector
 * whose size disagrees with the claimant count is a caller bug and
 * panics instead of being silently misreported as an idle cycle.
 */
#ifndef ISRF_SRF_ARBITER_H
#define ISRF_SRF_ARBITER_H

#include <cstdint>
#include <vector>

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
        if (claims == 0) {
            idleCycles_++;
            return -1;
        }
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
        grants_++;
        return static_cast<int>(id);
    }

    /**
     * Legacy claims protocol (claims[i] != 0 means id i claims). A size
     * mismatch used to return -1 — converting a caller bug into a bogus
     * "nobody claims" idle cycle — and now panics.
     */
    int
    arbitrate(const std::vector<uint8_t> &claims)
    {
        if (claims.size() != n_)
            panic("RoundRobinArbiter: %zu claim entries for %u "
                  "claimants", claims.size(), n_);
        uint64_t mask = 0;
        for (uint32_t i = 0; i < n_; i++)
            if (claims[i])
                mask |= uint64_t{1} << i;
        return arbitrate(mask);
    }

    uint64_t grants() const { return grants_; }
    uint64_t idleCycles() const { return idleCycles_; }

    /** Priority pointer (next id to be favored); test/report access. */
    uint32_t priority() const { return next_; }

    /**
     * Credit n claimless arbitration cycles (the SRF's quiescent fast
     * path). Matches n arbitrate() calls with zero claims: idleCycles_
     * grows, the priority pointer does not move.
     */
    void skipIdle(uint64_t n) { idleCycles_ += n; }

    /** Rotation + counters; the claimant count is construction state. */
    void
    saveState(SnapshotWriter &w) const
    {
        w.u32(next_);
        w.u64(grants_);
        w.u64(idleCycles_);
    }

    bool
    loadState(SnapshotReader &r)
    {
        if (!r.u32(next_) || !r.u64(grants_) || !r.u64(idleCycles_))
            return false;
        if (n_ != 0 && next_ >= n_) {
            r.markFailed();
            return false;
        }
        return true;
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
    uint64_t grants_ = 0;
    uint64_t idleCycles_ = 0;
};

} // namespace isrf

#endif // ISRF_SRF_ARBITER_H
