/**
 * @file
 * The stream register file: storage, stream slots, stream buffers,
 * address FIFOs, two-stage arbitration, and the cross-lane access
 * pipeline (§4 of the paper, all variants of Table 2).
 *
 * The Srf is the meeting point of three clients:
 *  - compute clusters: word-granular reads/writes of sequential stream
 *    buffers, and indexed issue/data-pop pairs;
 *  - the memory system: block DMA between DRAM and SRF storage, which
 *    competes for the single SRF port via memClaim();
 *  - the stream-program runtime: opens/closes stream slots and flushes
 *    output buffers at kernel end.
 *
 * Timing protocol per machine cycle (orchestrated by Machine):
 *  1. beginCycle()  — free bank/sub-array ports, clear per-cycle grants
 *  2. clients issue work (clusters read/write buffers + push indices;
 *     the memory system registers port claims)
 *  3. endCycle(now) — global arbitration; either one sequential stream
 *     (or DMA) uses the wide port, or all indexed FIFOs access their
 *     banks; cross-lane routing and data returns are progressed.
 */
#ifndef ISRF_SRF_SRF_H
#define ISRF_SRF_SRF_H

#include <deque>
#include <functional>
#include <vector>

#include "net/crossbar.h"
#include "net/index_network.h"
#include "srf/address_fifo.h"
#include "srf/arbiter.h"
#include "srf/srf_bank.h"
#include "srf/srf_types.h"
#include "srf/stream_buffer.h"
#include "util/stats.h"

namespace isrf {

class Tracer;

/** Parameters of one stream slot opened in the SRF. */
struct SlotConfig
{
    StreamDir dir = StreamDir::In;
    bool indexed = false;
    bool crossLane = false;
    StreamLayout layout = StreamLayout::Striped;
    /** Base word address within every lane's bank. */
    uint32_t base = 0;
    /**
     * Stream length in words: total across lanes for Striped layout,
     * per-lane for PerLane layout (overridden by perLaneLen if set).
     */
    uint32_t lengthWords = 0;
    /** Optional per-lane lengths (PerLane layout only). */
    std::vector<uint32_t> perLaneLen;
    /** Words per record for indexed accesses (1..4). */
    uint32_t recordWords = 1;
    /**
     * Read-write indexed binding (paper §7 future work): the kernel may
     * both read and write records of this in-lane stream; reads and
     * writes share the address FIFO and retire in issue order.
     */
    bool readWrite = false;
};

/**
 * Stream register file model with optional indexed access.
 *
 * @sa DESIGN.md §2 system inventory items 2-4.
 */
class Srf
{
  public:
    Srf() = default;

    /**
     * Configure geometry and variant. dataNet is the shared
     * inter-cluster network used for cross-lane data returns (owned by
     * the machine; may be null when cross-lane indexing is unused).
     */
    void init(const SrfGeometry &geom, SrfMode mode, Crossbar *dataNet,
              Tracer *tracer = nullptr);

    const SrfGeometry &geometry() const { return geom_; }
    SrfMode mode() const { return mode_; }

    // ------------------------------------------------------------------
    // Slot management (stream-program runtime)
    // ------------------------------------------------------------------

    /** Open a stream slot; returns its id. Fails if none free. */
    SlotId openSlot(const SlotConfig &cfg);

    /** Close a slot, discarding buffer state (data stays in storage). */
    void closeSlot(SlotId slot);

    /** Reset a slot's cursors/buffers for a fresh pass over its data. */
    void rewindSlot(SlotId slot);

    /**
     * Re-target a slot for a new kernel binding: direction and
     * addressing mode are per-binding properties of the stream buffers,
     * not of the storage region. Implies rewindSlot().
     */
    void configureSlotBinding(SlotId slot, StreamDir dir, bool indexed,
                              bool crossLane, bool readWrite = false);

    /** Begin flushing an output slot (drain partial buffers). */
    void flushSlot(SlotId slot);

    /** True once an output slot's buffers have fully drained. */
    bool flushComplete(SlotId slot) const;

    const SlotConfig &slotConfig(SlotId slot) const;

    /** Total words written to an output slot so far (storage side). */
    uint64_t wordsWritten(SlotId slot) const;

    // ------------------------------------------------------------------
    // Cluster-side sequential access
    // ------------------------------------------------------------------

    /** True if lane can pop a word from a sequential input stream. */
    bool seqCanRead(uint32_t lane, SlotId slot) const;
    Word seqRead(uint32_t lane, SlotId slot);
    /** True if lane's output buffer can accept a word. */
    bool seqCanWrite(uint32_t lane, SlotId slot) const;
    void seqWrite(uint32_t lane, SlotId slot, Word w);

    /** Words this lane has not yet consumed (buffered + in storage). */
    uint64_t seqWordsRemaining(uint32_t lane, SlotId slot) const;

    /** Words currently buffered for this lane (sequential slot). */
    uint32_t seqBuffered(uint32_t lane, SlotId slot) const;

    /** Free buffer space for this lane (sequential output slot). */
    uint32_t seqSpace(uint32_t lane, SlotId slot) const;

    /** Indexed requests that can be issued before backpressure. */
    uint32_t idxIssueSpace(uint32_t lane, SlotId slot) const;

    /** True when a refill for this lane is blocked on the SRF port (the
     *  buffer is empty but storage words remain). */
    bool seqStarved(uint32_t lane, SlotId slot) const;

    // ------------------------------------------------------------------
    // Cluster-side indexed access (§4.4)
    // ------------------------------------------------------------------

    /** True if an indexed request can be issued (FIFO not full). */
    bool idxCanIssue(uint32_t lane, SlotId slot) const;

    /** Issue an indexed record read; false if the FIFO is full. */
    bool idxIssueRead(uint32_t lane, SlotId slot, uint32_t recordIndex);

    /** Issue an in-lane indexed record write; false if FIFO full. */
    bool idxIssueWrite(uint32_t lane, SlotId slot, uint32_t recordIndex,
                       const Word *data);

    /** True if the oldest outstanding read's data is consumable now. */
    bool idxDataReady(uint32_t lane, SlotId slot, Cycle now) const;

    /** Pop the oldest read's record into out[]; returns word count. */
    uint32_t idxDataPop(uint32_t lane, SlotId slot, Word *out);

    /** Outstanding indexed requests (addresses + undelivered data). */
    size_t idxOutstanding(uint32_t lane, SlotId slot) const;

    /** True if all indexed writes of this slot have retired. */
    bool idxWritesDrained(SlotId slot) const;

    // ------------------------------------------------------------------
    // Memory-system DMA port
    // ------------------------------------------------------------------

    /**
     * Claim the SRF port for a DMA block transfer this cycle. The
     * callback runs during endCycle() if the claim wins arbitration and
     * must perform the actual word movement via readWord/writeWord.
     * Claims are single-cycle: re-claim every cycle until done.
     */
    void memClaim(SlotId slot, std::function<void()> onGrant);

    // ------------------------------------------------------------------
    // Functional storage access (DMA, program setup, validation)
    // ------------------------------------------------------------------

    Word readWord(uint32_t lane, uint32_t laneAddr) const;
    void writeWord(uint32_t lane, uint32_t laneAddr, Word w);

    /** Map a striped stream's element word to (lane, laneAddr). */
    std::pair<uint32_t, uint32_t> stripedLocation(uint32_t base,
                                                  uint64_t wordIndex) const;

    /**
     * Map a slot-relative stream word index to (lane, laneAddr),
     * honoring the slot's layout. For PerLane layout, stream words are
     * lane 0's region followed by lane 1's, etc. (dumpSlot order).
     */
    std::pair<uint32_t, uint32_t> slotWordLocation(SlotId slot,
                                                   uint64_t wordIndex) const;

    /** Total words a slot holds (sum of lane shares). */
    uint64_t slotTotalWords(SlotId slot) const;

    /** Functional whole-stream read (validation/DMA helpers). */
    std::vector<Word> dumpSlot(SlotId slot) const;
    /** Functional whole-stream write into a slot's storage region. */
    void fillSlot(SlotId slot, const std::vector<Word> &data);

    // ------------------------------------------------------------------
    // Cycle protocol
    // ------------------------------------------------------------------

    void beginCycle(Cycle now);
    void endCycle(Cycle now);

    // ------------------------------------------------------------------
    // Statistics
    // ------------------------------------------------------------------

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    /** Cluster-side words popped/pushed on sequential buffers. */
    uint64_t seqWordsAccessed() const { return seqWords_; }
    uint64_t idxInLaneWords() const { return idxInLaneWords_; }
    uint64_t idxCrossWords() const { return idxCrossWords_; }
    uint64_t subArrayConflicts() const;

    /** Deepest per-bank cross-lane request queue right now (gauge). */
    uint32_t maxRemoteQueueDepth() const;

    // ------------------------------------------------------------------
    // Fault model (src/fault/, DESIGN.md §Fault model)
    // ------------------------------------------------------------------

    /** Flip storage bits in one bank, recorded for SECDED decode. */
    void injectBitFlips(uint32_t lane, uint32_t laneAddr, Word mask,
                        bool transient);

    /** Per-bank uncorrectable threshold for degradation (0 = off). */
    void setDegradeThreshold(uint32_t threshold);

    /** Manually force a sub-array offline/online in every relevant
     *  bank (bench/test control; lane-local). */
    void setSubArrayOffline(uint32_t lane, uint32_t sub, bool offline);

    /** Offline sub-arrays summed over all banks. */
    uint32_t offlineSubArrays() const;

    /** Background-scrub all banks. @return words repaired. */
    uint64_t scrubFaults();

    uint64_t eccCorrected() const;
    uint64_t eccUncorrectable() const;
    uint64_t faultsInjected() const;

    /** Publish the fault counters into this group's stats. */
    void syncFaultStats();

    // ------------------------------------------------------------------
    // Snapshot (util/snapshot.h, DESIGN.md §17)
    // ------------------------------------------------------------------

    /**
     * Serialize all architectural state: slots with their buffers and
     * FIFOs, bank storage and remote queues, return queues,
     * arbitration rotation and statistics. The event-driven masks and
     * occupancy counters are derived state and are recomputed after a
     * load; memClaims_ is intra-cycle state (cleared every
     * beginCycle()) and is likewise not persisted.
     */
    void snapshot(SnapshotIo &io);

  private:
    struct LaneSlotState
    {
        SeqBuffer seq;
        AddressFifo fifo;
        IdxDataBuffer idata;
        uint32_t readRow = 0;
        uint32_t writeRow = 0;
        uint64_t srfWordsRead = 0;    ///< storage words moved to buffer
        uint64_t srfWordsWritten = 0; ///< storage words drained from buffer
        uint64_t clusterReads = 0;
        uint64_t nextSeqNo = 0;
        uint64_t pendingWrites = 0;   ///< indexed writes not yet retired
    };

    struct Slot
    {
        bool open = false;
        bool flushing = false;
        SlotConfig cfg;
        std::vector<LaneSlotState> lanes;
    };

    struct ReturnEntry
    {
        Word data;
        uint32_t sourceLane;
        SlotId slot;
        uint64_t seqNo;
        uint32_t wordOffset;
        Cycle earliest;
        Cycle issueCycle;
    };

    struct MemClaim
    {
        SlotId slot;
        std::function<void()> onGrant;
    };

    /** Words available to lane in storage for sequential streaming. */
    uint64_t laneStreamWords(const Slot &s, uint32_t lane) const;
    /** Lane-bank word address of a lane's sequential row word. */
    uint32_t laneRowAddr(const Slot &s, uint32_t row) const;
    /** Resolve an indexed word access to (lane, laneAddr). */
    std::pair<uint32_t, uint32_t> idxLocation(const Slot &s, uint32_t lane,
                                              uint32_t wordIndex) const;

    bool slotWantsSeqPort(SlotId id) const;
    void serviceSeqSlot(SlotId id);
    void serviceIndexed(Cycle now);
    void routeCrossLane(Cycle now);
    void progressReturns(Cycle now);

    /** Does this one lane make `s` claim the sequential port? */
    bool laneWantsSeqPort(const Slot &s, uint32_t lane) const;

    /** Recompute slot id's bit of seqClaimMask_ from buffer state. */
    void recomputeSeqClaim(SlotId id);

    /** Recompute the open-indexed-slot masks (slot open/close/rebind). */
    void recomputeIdxOpenMasks();

    /** Remove a slot's address-FIFO entries from the pending counters
     *  (rewind/close; must run before the FIFOs are cleared and before
     *  the slot's crossLane flag changes). */
    void uncountSlotFifos(const Slot &s);

    /** Cached stats-counter lookup (map nodes are address-stable). */
    Counter &
    lazyCounter(Counter *&c, const char *name)
    {
        if (!c)
            c = &stats_.counter(name);
        return *c;
    }

    const Slot &slotRef(SlotId slot) const;
    Slot &slotRef(SlotId slot);

    SrfGeometry geom_;
    SrfMode mode_ = SrfMode::SequentialOnly;
    Crossbar *dataNet_ = nullptr;
    IndexNetwork indexNet_;
    std::vector<SrfBank> banks_;
    std::vector<Slot> slots_;
    std::vector<MemClaim> memClaims_;
    std::vector<std::deque<ReturnEntry>> returnQueues_;
    RoundRobinArbiter globalArb_;
    std::vector<uint32_t> laneIdxRr_;  ///< per-lane local RR pointer
    uint32_t crossRouteRr_ = 0;
    Cycle curCycle_ = 0;

    // Event-driven arbitration state (DESIGN.md §15): claims are
    // tracked at enqueue/dequeue time so endCycle() never scans
    // quiescent slots. seqClaimMask_ bit i mirrors slotWantsSeqPort(i)
    // exactly; the occupancy counters mirror the address FIFOs /
    // remote queues / return queues of open slots.
    uint64_t seqClaimMask_ = 0;
    uint64_t inLaneIdxOpenMask_ = 0;  ///< open && indexed && !crossLane
    uint64_t crossIdxOpenMask_ = 0;   ///< open && indexed && crossLane
    uint64_t inLaneFifoEntries_ = 0;
    uint64_t crossFifoEntries_ = 0;
    uint64_t remoteEntries_ = 0;
    uint64_t returnEntries_ = 0;

    // Lazily cached hot-path counters (see lazyCounter): caching keeps
    // stats registration — and therefore report contents — identical
    // to on-demand stats_.counter() lookups.
    Counter *portIdleC_ = nullptr;
    Counter *seqGrantC_ = nullptr;
    Counter *idxGrantC_ = nullptr;
    Counter *dmaGrantC_ = nullptr;
    Counter *crossRoutedC_ = nullptr;
    Counter *idxReadsC_ = nullptr;
    Counter *idxWritesC_ = nullptr;

    StatGroup stats_{"srf"};
    uint64_t seqWords_ = 0;
    uint64_t idxInLaneWords_ = 0;
    uint64_t idxCrossWords_ = 0;
    Tracer *trc_ = nullptr;  ///< owning machine's; null = untraced
    uint16_t traceCh_ = 0;
    /** Per-idx-cycle sub-array conflict-degree distribution. */
    Histogram *conflictHist_ = nullptr;
};

} // namespace isrf

#endif // ISRF_SRF_SRF_H
