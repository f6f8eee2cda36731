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

#include <vector>

#include "net/crossbar.h"
#include "srf/address_fifo.h"
#include "srf/arbiter.h"
#include "srf/srf_bank.h"
#include "srf/srf_types.h"
#include "srf/stream_buffer.h"
#include "util/ring.h"
#include "util/snapshot.h"

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
 * The memory side of the SRF port: a DMA engine whose claim, once
 * granted, moves one block of words (Srf::memClaim).
 */
class SrfPortClient
{
  public:
    /** This cycle's claim won the port: move the block now. */
    virtual void onPortGrant() = 0;

  protected:
    ~SrfPortClient() = default;
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

    // ------------------------------------------------------------------
    // Cluster-side indexed access (§4.4)
    // ------------------------------------------------------------------

    /** True if an indexed request can be issued (FIFO not full). */
    bool idxCanIssue(uint32_t lane, SlotId slot) const;

    /** Issue an indexed record read at cycle `now`; false if the
     *  FIFO is full. */
    bool idxIssueRead(uint32_t lane, SlotId slot, uint32_t recordIndex,
                      Cycle now);

    /** Issue an in-lane indexed record write at cycle `now`; false if
     *  the FIFO is full. */
    bool idxIssueWrite(uint32_t lane, SlotId slot, uint32_t recordIndex,
                       const Word *data, Cycle now);

    /** True if the oldest outstanding read's data is consumable now. */
    bool idxDataReady(uint32_t lane, SlotId slot, Cycle now) const;

    /** Pop the oldest read's record into out[]; returns word count. */
    uint32_t idxDataPop(uint32_t lane, SlotId slot, Word *out);

    /** idxDataReady() then idxDataPop() in one call: the word count
     *  popped, or 0 if the oldest record is not consumable now. */
    uint32_t idxDataTryPop(uint32_t lane, SlotId slot, Cycle now, Word *out);

    /** Outstanding indexed requests (addresses + undelivered data). */
    size_t idxOutstanding(uint32_t lane, SlotId slot) const;

    /** True if all indexed writes of this slot have retired. */
    bool idxWritesDrained(SlotId slot) const;

    /** Indexed work the SRF still holds; all zero once every issued
     *  indexed access has completed and been consumed. */
    struct IdxInFlight
    {
        uint64_t inLaneFifoLanes = 0;  ///< bit l: in-lane FIFO entries
        uint64_t crossFifoLanes = 0;   ///< bit l: cross-lane FIFO entries
        uint64_t remoteBanks = 0;      ///< bit l: queued remote requests
        uint64_t returnBanks = 0;      ///< bit l: queued return entries
        uint64_t undeliveredRecords = 0;  ///< over open slots and lanes
        uint64_t unretiredWrites = 0;     ///< over open slots and lanes

        bool
        any() const
        {
            return inLaneFifoLanes || crossFifoLanes || remoteBanks ||
                returnBanks || undeliveredRecords || unretiredWrites;
        }
    };
    IdxInFlight idxInFlight() const;

    // ------------------------------------------------------------------
    // Memory-system DMA port
    // ------------------------------------------------------------------

    /**
     * Claim the SRF port for a DMA block transfer this cycle. If the
     * claim wins arbitration, endCycle() calls client->onPortGrant(),
     * which moves the words via readWord/writeWord. Claims are
     * single-cycle: re-claim every cycle until done.
     */
    void memClaim(SlotId slot, SrfPortClient *client);

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

    /** `now` is unused: every per-cycle reset is cycle-independent. */
    void beginCycle(Cycle now);
    void endCycle(Cycle now);

    // ------------------------------------------------------------------
    // Statistics
    // ------------------------------------------------------------------

    /** Cluster-side words popped/pushed on sequential buffers. */
    uint64_t seqWordsAccessed() const { return seqWords_; }
    uint64_t idxInLaneWords() const { return idxInLaneWords_; }
    uint64_t idxCrossWords() const { return idxCrossWords_; }
    uint64_t subArrayConflicts() const;

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

    // ------------------------------------------------------------------
    // Snapshot (util/snapshot.h, DESIGN.md §17)
    // ------------------------------------------------------------------

    /**
     * Serialize all architectural state: slots with their buffers and
     * FIFOs, bank storage and remote queues, return queues,
     * arbitration rotation and word counters. The event-driven work
     * masks are derived state and are recomputed after a load;
     * memClaims_ and the dirty-bank mask are intra-cycle state
     * (cleared every beginCycle()) and are likewise not persisted.
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
        SrfPortClient *client;
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

    /** Size a slot's per-lane buffers and FIFOs from the geometry and
     *  the slot's record size (open, and snapshot load). */
    void configureLanes(Slot &s);

    /** Slot id's FIFO at `lane` went from empty to non-empty. */
    void markFifo(SlotId id, bool crossLane, uint32_t lane);
    /** Slot id's FIFO at `lane` went empty. */
    void unmarkFifo(SlotId id, bool crossLane, uint32_t lane);
    /** Drop slot id from every lane's FIFO masks (rewind/close). */
    void unmarkSlotFifos(SlotId id);

    const Slot &slotRef(SlotId slot) const;
    Slot &slotRef(SlotId slot);

    SrfGeometry geom_;
    SrfMode mode_ = SrfMode::SequentialOnly;
    Crossbar *dataNet_ = nullptr;
    /**
     * The dedicated SRF address (index) network for cross-lane indexed
     * access (§4.5, Figure 8(c)): one injection per cluster per cycle
     * (Table 3: 1 word/cycle/cluster) and netPortsPerBank ejection
     * ports per bank (Figure 18); traversal latency is accounted by
     * the SRF pipeline.
     */
    Crossbar indexNet_;
    std::vector<SrfBank> banks_;
    std::vector<Slot> slots_;
    std::vector<MemClaim> memClaims_;
    /** [bank] data words waiting for the data network; no geometric
     *  bound, so they grow (Ring::pushGrow). */
    std::vector<Ring<ReturnEntry>> returnQueues_;
    RoundRobinArbiter globalArb_;
    /**
     * In-lane rotation pointer. Every indexed grant turns it once for
     * all lanes, so one value serves them all (the `SRF ` section
     * still writes it once per lane).
     */
    uint32_t idxRr_ = 0;
    uint32_t crossRouteRr_ = 0;

    // Event-driven arbitration state (DESIGN.md §15): claims and work
    // are tracked at enqueue/dequeue time so endCycle() never scans
    // quiescent slots or lanes. seqClaimMask_ bit i mirrors
    // slotWantsSeqPort(i) exactly; the lane masks mirror the address
    // FIFOs, remote queues and return queues of open slots.
    uint64_t seqClaimMask_ = 0;
    /** [lane] bit s: open in-lane indexed slot s has FIFO entries. */
    std::vector<uint64_t> laneFifoMask_;
    /** [lane] bit s: open cross-lane slot s has FIFO entries. */
    std::vector<uint64_t> laneCrossFifoMask_;
    uint64_t fifoLanes_ = 0;       ///< bit l: laneFifoMask_[l] != 0
    uint64_t crossFifoLanes_ = 0;  ///< bit l: laneCrossFifoMask_[l] != 0
    uint64_t remoteBanks_ = 0;     ///< bit l: bank l has remote requests
    uint64_t returnBanks_ = 0;     ///< bit l: returnQueues_[l] non-empty
    /** Bit l: bank l's sub-array ports were claimed this cycle. */
    uint64_t dirtyBanks_ = 0;

    uint64_t seqWords_ = 0;
    uint64_t idxInLaneWords_ = 0;
    uint64_t idxCrossWords_ = 0;
    Tracer *trc_ = nullptr;  ///< owning machine's; null = untraced
    uint16_t traceCh_ = 0;
};

} // namespace isrf

#endif // ISRF_SRF_SRF_H
