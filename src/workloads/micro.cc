#include "workloads/micro.h"

#include <algorithm>
#include <vector>

#include "net/crossbar.h"
#include "srf/srf.h"
#include "util/random.h"

namespace isrf {

double
inLaneRandomThroughput(const InLaneMicroParams &p)
{
    SrfGeometry geom;
    geom.subArrays = p.subArrays;
    geom.addrFifoSize = p.fifoSize;
    Srf srf;
    srf.init(geom, SrfMode::Indexed4, nullptr);

    // Graceful-degradation study: run with some sub-arrays offline so
    // their indexed traffic remaps onto the survivors.
    uint32_t offline = std::min(p.offlineSubArrays, p.subArrays - 1);
    for (uint32_t l = 0; l < geom.lanes; l++)
        for (uint32_t s = 0; s < offline; s++)
            srf.setSubArrayOffline(l, s, true);

    // One PerLane table region per stream, spread over the bank.
    std::vector<SlotId> slots;
    uint32_t regionWords = geom.laneWords / (p.streams + 1);
    regionWords = regionWords / geom.seqWidth * geom.seqWidth;
    for (uint32_t s = 0; s < p.streams; s++) {
        SlotConfig cfg;
        cfg.dir = StreamDir::In;
        cfg.indexed = true;
        cfg.layout = StreamLayout::PerLane;
        cfg.base = s * regionWords;
        cfg.lengthWords = regionWords;
        slots.push_back(srf.openSlot(cfg));
    }

    Rng rng(p.seed);
    uint64_t startWords = 0;
    Cycle now = 0;
    Word tmp[4];
    for (uint32_t c = 0; c < p.cycles; c++) {
        srf.beginCycle(now);
        for (uint32_t l = 0; l < geom.lanes; l++) {
            // Consume any returned data (the micro-kernel never blocks
            // on values, only on issue capacity).
            for (SlotId id : slots) {
                while (srf.idxDataReady(l, id, now))
                    srf.idxDataPop(l, id, tmp);
            }
            // VLIW bundle: issue all streams' reads or none.
            bool canAll = true;
            for (SlotId id : slots) {
                if (!srf.idxCanIssue(l, id)) {
                    canAll = false;
                    break;
                }
            }
            if (canAll) {
                for (SlotId id : slots) {
                    srf.idxIssueRead(l, id, static_cast<uint32_t>(
                        rng.below(regionWords)), now);
                }
            }
        }
        srf.endCycle(now);
        now++;
        if (c == p.cycles / 4)  // skip warm-up
            startWords = srf.idxInLaneWords();
    }
    uint64_t measured = srf.idxInLaneWords() - startWords;
    double measCycles = static_cast<double>(p.cycles) * 3.0 / 4.0;
    return static_cast<double>(measured) / measCycles / geom.lanes;
}

double
crossLaneRandomThroughput(const CrossLaneMicroParams &p)
{
    SrfGeometry geom;
    geom.netPortsPerBank = p.netPortsPerBank;
    geom.netTopology = p.topology;
    Crossbar net;
    net.init(geom.lanes, 1, 1, p.topology);
    Srf srf;
    srf.init(geom, SrfMode::Indexed4, &net);

    // The cross-lane random-read target: a large striped region.
    SlotConfig xcfg;
    xcfg.dir = StreamDir::In;
    xcfg.indexed = true;
    xcfg.crossLane = true;
    xcfg.layout = StreamLayout::Striped;
    xcfg.base = 0;
    uint32_t crossWords = geom.laneWords / 2 * geom.lanes;
    xcfg.lengthWords = crossWords;
    SlotId xslot = srf.openSlot(xcfg);

    // Sequential streams resident in the other half of the SRF.
    std::vector<SlotId> seqSlots;
    uint32_t seqRegion = geom.laneWords / 2 / (p.seqStreams + 1);
    seqRegion = seqRegion / geom.seqWidth * geom.seqWidth;
    for (uint32_t s = 0; s < p.seqStreams; s++) {
        SlotConfig cfg;
        cfg.dir = StreamDir::In;
        cfg.layout = StreamLayout::Striped;
        cfg.base = geom.laneWords / 2 + s * seqRegion;
        cfg.lengthWords = seqRegion * geom.lanes;
        seqSlots.push_back(srf.openSlot(cfg));
    }

    Rng rng(p.seed);
    uint64_t startWords = 0;
    Cycle now = 0;
    Word tmp[4];
    for (uint32_t c = 0; c < p.cycles; c++) {
        net.newCycle();
        srf.beginCycle(now);
        // Unrelated statically scheduled inter-cluster traffic.
        for (uint32_t l = 0; l < geom.lanes; l++) {
            if (rng.chance(p.commOccupancy))
                net.claimSource(l);
        }
        for (uint32_t l = 0; l < geom.lanes; l++) {
            while (srf.idxDataReady(l, xslot, now))
                srf.idxDataPop(l, xslot, tmp);
            if (srf.idxCanIssue(l, xslot)) {
                srf.idxIssueRead(l, xslot, static_cast<uint32_t>(
                    rng.below(crossWords)), now);
            }
            // 3 sequential stream accesses per cycle: keep the
            // sequential side demanding the SRF port.
            for (SlotId id : seqSlots) {
                if (srf.seqCanRead(l, id))
                    srf.seqRead(l, id);
            }
        }
        // Restart exhausted sequential streams (slot-wide; lanes run
        // nearly in lockstep).
        for (SlotId id : seqSlots) {
            if (srf.seqWordsRemaining(0, id) == 0)
                srf.rewindSlot(id);
        }
        srf.endCycle(now);
        now++;
        if (c == p.cycles / 4)
            startWords = srf.idxCrossWords();
    }
    uint64_t measured = srf.idxCrossWords() - startWords;
    double measCycles = static_cast<double>(p.cycles) * 3.0 / 4.0;
    return static_cast<double>(measured) / measCycles / geom.lanes;
}

} // namespace isrf
