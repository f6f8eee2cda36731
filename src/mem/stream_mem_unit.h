/**
 * @file
 * Stream memory operations and the unit that executes them.
 *
 * A single stream instruction loads or stores an entire stream (§2),
 * moving data between DRAM (optionally through the vector cache) and a
 * region of the SRF. Indexed loads (gathers) and stores (scatters) use
 * per-record memory indices. Each StreamMemUnit executes one operation
 * at a time; the MemorySystem owns several units so stream loads can
 * overlap stores, as the Imagine memory system allows.
 */
#ifndef ISRF_MEM_STREAM_MEM_UNIT_H
#define ISRF_MEM_STREAM_MEM_UNIT_H

#include <deque>
#include <vector>

#include "fault/fault_config.h"
#include "mem/cache.h"
#include "mem/dram.h"
#include "srf/srf.h"

namespace isrf {

class Tracer;

/** Kind of stream memory operation. */
enum class MemOpKind : uint8_t { Load, Store, Gather, Scatter };

/** One stream memory instruction. */
struct MemOp
{
    MemOpKind kind = MemOpKind::Load;
    /** DRAM word base address of the stream (or of the indexed table). */
    uint64_t memBase = 0;
    /** SRF slot whose region is the on-chip side of the transfer. */
    SlotId srfSlot = kNoSlot;
    /** Words to move for Load/Store (defaults to the slot's size). */
    uint64_t lengthWords = 0;
    /** Record indices for Gather/Scatter (memBase + idx*recordWords). */
    std::vector<uint32_t> indices;
    uint32_t recordWords = 1;
    /** Route through the vector cache (Cache configuration only). */
    bool cached = false;
    /** SRF-side start offset within the slot, in words. */
    uint64_t dstOffsetWords = 0;
};

/** One MemOp's fields (util/snapshot.h). */
void snapshotMemOp(SnapshotIo &io, MemOp &op);

/** Shared per-cycle bandwidth state owned by the MemorySystem. */
struct MemBandwidth
{
    double cacheTokens = 0;  ///< cache words available this cycle
};

/**
 * Executes one MemOp: a small state machine with a staging buffer
 * between the DRAM side (token-bucket limited) and the SRF side
 * (block transfers through the SRF port via memClaim()).
 */
class StreamMemUnit
{
  public:
    void init(Dram *dram, Cache *cache, Srf *srf, uint32_t stagingWords,
              Tracer *tracer = nullptr);

    /** Begin executing an op (unit must be idle). */
    void start(const MemOp &op, Cycle now);

    bool busy() const { return busy_; }
    const MemOp &currentOp() const { return op_; }

    /** Progress one cycle; bw carries shared cache bandwidth. */
    void tick(Cycle now, MemBandwidth &bw);

    /** Words moved on the DRAM side so far (progress/debug). */
    uint64_t dramWordsDone() const { return dramCursor_; }

    // --- fault model (src/fault/, DESIGN.md §Fault model) ---

    /** Retry/timeout policy for detected-uncorrectable reads. */
    void setFaultConfig(const FaultConfig &fc) { faults_ = fc; }

    /**
     * Drop the most recently fetched in-flight load word (it will be
     * re-fetched, paying DRAM bandwidth again). @return false if the
     * unit has nothing droppable this cycle.
     */
    bool injectDrop();

    /** Stall this unit for `cycles` starting now. */
    void injectDelay(uint32_t cycles);

    uint64_t retries() const { return retries_; }
    uint64_t poisonedWords() const { return poisonedWords_; }
    uint64_t droppedWords() const { return droppedWords_; }
    uint64_t delayedCycles() const { return delayedCycles_; }
    /** True if the current/last op completed with poisoned words. */
    bool opPoisoned() const { return opPoisoned_; }

    /** In-flight op + cursors + staging + retry state (snapshot). */
    void snapshot(SnapshotIo &io);

  private:
    /** Total words this op moves. */
    uint64_t totalWords() const;
    /** DRAM word address of stream word i. */
    uint64_t memAddrOf(uint64_t i) const;
    /** Per-word DRAM token cost of this op's access pattern. */
    double dramCost() const { return dramCostFactor_; }
    /**
     * Pay the timing cost of touching one DRAM word (through the cache
     * when op.cached). @return false if bandwidth is exhausted.
     */
    bool payWordCost(uint64_t memAddr, bool isWrite, MemBandwidth &bw);

    void tickLoadSide(MemBandwidth &bw);
    void tickStoreSide(MemBandwidth &bw);

    /**
     * ECC-decode one load word with bounded-backoff retries.
     * @return false if the word must be retried later (backoff armed).
     * On success or retry exhaustion *out holds the data (or poison).
     */
    bool readWithRetry(uint64_t addr, Word *out);

    Dram *dram_ = nullptr;
    Cache *cache_ = nullptr;
    Srf *srf_ = nullptr;
    uint32_t stagingCap_ = 64;

    bool busy_ = false;
    MemOp op_;
    double dramCostFactor_ = 1.0;
    Cycle startCycle_ = 0;
    Cycle curCycle_ = 0;  ///< latest tick() cycle (trace timestamps)
    Tracer *trc_ = nullptr;  ///< owning machine's; null = untraced
    uint16_t cacheTraceCh_ = 0;
    uint64_t dramCursor_ = 0;  ///< stream words done on the DRAM side
    uint64_t srfCursor_ = 0;   ///< stream words done on the SRF side
    std::deque<Word> staging_;

    FaultConfig faults_;       ///< retry policy (enabled=false: no-op)
    uint32_t retriesThisWord_ = 0;
    Cycle retryNotBefore_ = 0; ///< exponential-backoff gate
    Cycle stallUntil_ = 0;     ///< injected delay gate
    bool opPoisoned_ = false;
    uint64_t retries_ = 0;
    uint64_t poisonedWords_ = 0;
    uint64_t droppedWords_ = 0;
    uint64_t delayedCycles_ = 0;
    uint16_t faultTraceCh_ = 0;
};

} // namespace isrf

#endif // ISRF_MEM_STREAM_MEM_UNIT_H
