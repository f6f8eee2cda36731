/**
 * @file
 * The dedicated SRF address (index) network for cross-lane indexed
 * access (§4.5, Figure 8(c)).
 *
 * Clusters inject (stream, index) requests toward the SRF bank that
 * owns the addressed word; each bank accepts at most `netPortsPerBank`
 * requests per cycle. The network itself is a fully connected crossbar,
 * so it is modeled as port-limited arbitration plus a fixed traversal
 * latency accounted by the SRF pipeline.
 */
#ifndef ISRF_NET_INDEX_NETWORK_H
#define ISRF_NET_INDEX_NETWORK_H

#include "net/crossbar.h"

namespace isrf {

/**
 * Thin wrapper around Crossbar: one injection per cluster per cycle
 * (Table 3: peak cross-lane indexed bandwidth 1 word/cycle/cluster) and
 * a configurable number of ejection ports per SRF bank (Figure 18).
 */
class IndexNetwork
{
  public:
    void
    init(uint32_t lanes, uint32_t portsPerBank,
         NetTopology topology = NetTopology::Crossbar)
    {
        xbar_.init(lanes, 1, portsPerBank, topology);
    }

    /** Extra traversal cycles vs a crossbar (ring hops). */
    uint32_t
    extraLatency(uint32_t src, uint32_t dstBank) const
    {
        return xbar_.extraLatency(src, dstBank);
    }

    void newCycle() { xbar_.newCycle(); }

    /** Try to route an index from cluster `src` to bank `dstBank`. */
    bool
    route(uint32_t src, uint32_t dstBank)
    {
        return xbar_.tryTransfer(src, dstBank);
    }

    bool
    canRoute(uint32_t src, uint32_t dstBank) const
    {
        return xbar_.canTransfer(src, dstBank);
    }

    uint64_t routed() const { return xbar_.transfers(); }
    uint64_t rejected() const { return xbar_.rejects(); }

    void snapshot(SnapshotIo &io) { xbar_.snapshot(io); }

  private:
    Crossbar xbar_;
};

} // namespace isrf

#endif // ISRF_NET_INDEX_NETWORK_H
