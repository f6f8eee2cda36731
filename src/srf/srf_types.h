/**
 * @file
 * Shared types and geometry/configuration for the stream register file.
 */
#ifndef ISRF_SRF_SRF_TYPES_H
#define ISRF_SRF_SRF_TYPES_H

#include <cstdint>

#include "net/crossbar.h"
#include "sim/types.h"

namespace isrf {

/** Global SRF-port arbitration policy (§5.4). */
enum class ArbPolicy : uint8_t {
    /** Simple rotating priority (the paper's choice). */
    RoundRobin,
    /**
     * Stall-aware: indexed accesses win the port outright whenever an
     * address FIFO is close to full. The paper found such "complex
     * arbiters that prioritize streams likely to cause stalls" buy
     * less than 10% (§5.4); bench_ablation_arbitration checks that.
     */
    IndexedPriority,
};

/** Addressing/bandwidth mode of an SRF variant (Table 2). */
enum class SrfMode : uint8_t {
    SequentialOnly,  ///< Base / Cache configurations
    Indexed1,        ///< ISRF1: 1 indexed word/cycle/lane, no sub-banking
    Indexed4,        ///< ISRF4: up to s indexed words/cycle/lane
};

/** Geometry and timing of the SRF (defaults = Table 3). */
struct SrfGeometry
{
    uint32_t lanes = 8;            ///< N
    uint32_t laneWords = 4096;     ///< 16 KB per lane (128 KB total)
    uint32_t seqWidth = 4;         ///< m: words per lane per seq access
    uint32_t subArrays = 4;        ///< s: sub-arrays per bank
    uint32_t streamBufWords = 8;   ///< stream buffer capacity (Table 3)
    uint32_t addrFifoSize = 8;     ///< address FIFO capacity (Table 3)
    uint32_t seqLatency = 3;       ///< sequential access latency
    uint32_t inLaneLatency = 4;    ///< in-lane indexed access latency
    uint32_t crossLaneLatency = 6; ///< cross-lane indexed access latency
    uint32_t netPortsPerBank = 1;  ///< cross-lane SRF ports per bank (§5.4)
    uint32_t maxStreamSlots = 24;  ///< simultaneously open stream slots
    uint32_t remoteQueueDepth = 4; ///< per-bank cross-lane request queue
    /** Topology of the index + data networks (§7: sparse option). */
    NetTopology netTopology = NetTopology::Crossbar;
    /** SRF-port arbitration policy (§5.4). */
    ArbPolicy arbPolicy = ArbPolicy::RoundRobin;

    uint32_t totalWords() const { return lanes * laneWords; }
    uint32_t totalBytes() const { return totalWords() * 4; }
    /** Words moved by one sequential SRF access (N x m). */
    uint32_t seqAccessWords() const { return lanes * seqWidth; }

    /** Sub-array holding a word address within a bank. */
    uint32_t
    subArrayOf(uint32_t laneAddr) const
    {
        return (laneAddr / seqWidth) % subArrays;
    }

    /** Max independent indexed word accesses per bank per cycle. */
    uint32_t
    indexedPerBank(SrfMode mode) const
    {
        switch (mode) {
          case SrfMode::SequentialOnly: return 0;
          case SrfMode::Indexed1: return 1;
          case SrfMode::Indexed4: return subArrays;
        }
        return 0;
    }
};

/** How a stream's data is laid out across SRF banks. */
enum class StreamLayout : uint8_t {
    /**
     * Striped: consecutive m-word blocks rotate across lanes; element e
     * lives in lane (e / m) mod N. Standard layout for sequential
     * streams and for cross-lane indexed streams.
     */
    Striped,
    /** Each lane holds an independent private copy/partition. */
    PerLane,
};

/** Direction of a stream binding. */
enum class StreamDir : uint8_t { In, Out };

/** Identifies one open stream slot in the SRF. */
using SlotId = int32_t;
constexpr SlotId kNoSlot = -1;

} // namespace isrf

#endif // ISRF_SRF_SRF_TYPES_H
