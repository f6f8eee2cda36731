/**
 * @file
 * Inter-cluster interconnect models (§4.5 and §7).
 *
 * The paper's implementation uses fully connected crossbars for both
 * the inter-cluster data network and the dedicated SRF address
 * network; §7 lists evaluating *sparse* interconnects for these
 * networks as future work. Both are modeled here:
 *
 *  - Crossbar: no internal blocking; only source injection ports and
 *    destination ejection ports are limited.
 *  - Ring: a bidirectional ring of unidirectional links; a transfer
 *    claims every link on its minimal path, so throughput is bounded
 *    by link (bisection) capacity and latency grows with hop count.
 *
 * Priority is positional: callers offer transfers in decreasing
 * priority order within a cycle (explicit inter-cluster communications
 * before cross-lane SRF data, per §4.5).
 */
#ifndef ISRF_NET_CROSSBAR_H
#define ISRF_NET_CROSSBAR_H

#include <cstdint>
#include <vector>

#include "util/snapshot.h"

namespace isrf {

/** Interconnect topology (§7 future work: sparse interconnects). */
enum class NetTopology : uint8_t {
    Crossbar,  ///< fully connected (the paper's implementation)
    Ring,      ///< bidirectional ring (sparse alternative)
};

/** Per-cycle port- and link-limited network arbitration. */
class Crossbar
{
  public:
    Crossbar() = default;

    /**
     * @param ports Number of endpoints on each side.
     * @param srcLimit Max transfers injected per source per cycle.
     * @param dstLimit Max transfers ejected per destination per cycle.
     * @param topology Crossbar (default) or Ring.
     */
    void init(uint32_t ports, uint32_t srcLimit, uint32_t dstLimit,
              NetTopology topology = NetTopology::Crossbar);

    /** Begin a new cycle: all port/link budgets reset. */
    void newCycle();

    /** True if a src→dst transfer could be granted right now. */
    bool canTransfer(uint32_t src, uint32_t dst) const;

    /**
     * Claim a src→dst transfer slot this cycle (for rings, claims every
     * link on the minimal path).
     * @return false if a port or link is exhausted (caller retries).
     */
    bool tryTransfer(uint32_t src, uint32_t dst);

    /**
     * Consume a source injection slot without a specific destination
     * (used to model statically scheduled communication occupancy).
     */
    bool claimSource(uint32_t src);

    /**
     * Extra delivery latency of a src→dst transfer relative to the
     * crossbar (0 for crossbars; hops-1 for rings).
     */
    uint32_t extraLatency(uint32_t src, uint32_t dst) const;

    /** Minimal hop distance between two endpoints. */
    uint32_t hopDistance(uint32_t src, uint32_t dst) const;

    NetTopology topology() const { return topology_; }
    uint32_t ports() const { return ports_; }
    uint64_t transfers() const { return transfers_; }
    uint64_t rejects() const { return rejects_; }

    /** Counters only: per-cycle budgets restore fresh (snapshots are
     *  taken at cycle boundaries, before the next newCycle()). */
    void
    snapshot(SnapshotIo &io)
    {
        io.u64(transfers_);
        io.u64(rejects_);
        if (!io.loading())
            return;
        for (auto &u : srcUsed_)
            u = 0;
        for (auto &u : dstUsed_)
            u = 0;
        for (auto &u : linkUsed_)
            u = 0;
        dirty_ = false;
    }

  private:
    /** Ring links on the minimal src→dst path (link i = i -> i+1 cw,
     *  ports_+i = i+1 -> i ccw). */
    void pathLinks(uint32_t src, uint32_t dst,
                   std::vector<uint32_t> &out) const;

    uint32_t ports_ = 0;
    uint32_t srcLimit_ = 1;
    uint32_t dstLimit_ = 1;
    NetTopology topology_ = NetTopology::Crossbar;
    std::vector<uint32_t> srcUsed_;
    std::vector<uint32_t> dstUsed_;
    std::vector<uint8_t> linkUsed_;  ///< ring only: 2*ports_ links
    /** Any budget consumed since the last newCycle() reset. */
    bool dirty_ = false;
    uint64_t transfers_ = 0;
    uint64_t rejects_ = 0;
};

} // namespace isrf

#endif // ISRF_NET_CROSSBAR_H
