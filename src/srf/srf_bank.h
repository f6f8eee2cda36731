/**
 * @file
 * One SRF bank: the per-lane slice of SRF storage with its sub-arrays
 * and (for cross-lane indexing) a small remote-request queue fed by the
 * SRF address network (§4.5, Figure 8(c)).
 */
#ifndef ISRF_SRF_SRF_BANK_H
#define ISRF_SRF_SRF_BANK_H

#include <deque>
#include <vector>

#include "fault/ecc.h"
#include "srf/srf_types.h"
#include "srf/sub_array.h"

namespace isrf {

/** A cross-lane indexed request queued at a target bank. */
struct RemoteRequest
{
    uint32_t sourceLane;
    SlotId slot;
    uint32_t laneAddr;     ///< word address within this bank
    uint64_t seqNo;        ///< issue order at the source lane
    uint32_t wordOffset;   ///< which word of the record this is
    Cycle issueCycle;      ///< cluster issue time (min-latency anchor)
    Cycle arrival;         ///< when the index reaches this bank
    bool isWrite;
    Word writeData;
};

/**
 * Storage + per-cycle port model for one SRF bank.
 *
 * Word addresses are bank-local (0 .. laneWords-1). All timing grants
 * are decided by the Srf coordinator; the bank enforces sub-array
 * single-porting and tracks statistics.
 */
class SrfBank
{
  public:
    SrfBank() = default;

    void init(const SrfGeometry &geom, uint32_t laneId);

    uint32_t laneId() const { return laneId_; }

    /** Begin-of-cycle: free all sub-array ports. Skipped internally
     *  when no claim touched them since the last reset. */
    void newCycle();

    /** Raw storage access (functional; used by DMA and debugging). */
    Word read(uint32_t addr) const;
    void write(uint32_t addr, Word w);
    Word *data() { return words_.data(); }
    uint32_t wordCount() const
    {
        return static_cast<uint32_t>(words_.size());
    }

    /**
     * Claim a sequential m-word row access starting at addr (must be
     * m-aligned). Claims the owning sub-array's port.
     * @return false on sub-array conflict.
     */
    bool claimSequentialRow(uint32_t addr);

    /**
     * Claim a single-word indexed access at addr.
     * @return false if the word's sub-array port is busy this cycle.
     */
    bool claimIndexedWord(uint32_t addr);

    /** Remote (cross-lane) request queue. */
    bool remoteQueueFull() const
    {
        return remoteQueue_.size() >= remoteDepth_;
    }
    void pushRemote(const RemoteRequest &r) { remoteQueue_.push_back(r); }
    bool hasRemote() const { return !remoteQueue_.empty(); }
    RemoteRequest &remoteHead() { return remoteQueue_.front(); }
    void popRemote() { remoteQueue_.pop_front(); }
    size_t remoteQueueSize() const { return remoteQueue_.size(); }

    const std::vector<SubArray> &subArrays() const { return subArrays_; }

    uint64_t sequentialAccesses() const;
    uint64_t indexedAccesses() const;
    uint64_t subArrayConflicts() const;

    // --- fault model (see src/fault/, DESIGN.md §Fault model) ---

    /** Flip bits at addr and record them for the SECDED decoder. */
    void injectBitFlips(uint32_t addr, Word mask, bool transient);

    /**
     * Uncorrectable-error count before a sub-array is taken offline
     * (0 = degradation off). At least one sub-array stays online.
     */
    void setDegradeThreshold(uint32_t threshold)
    {
        degradeThreshold_ = threshold;
    }

    /** Manually take a sub-array offline/online (bench/test control). */
    void setSubArrayOffline(uint32_t sub, bool offline);
    bool subArrayOffline(uint32_t sub) const { return offline_[sub] != 0; }
    uint32_t offlineSubArrays() const;

    /** Background-scrub all pending faults. @return words repaired. */
    uint64_t scrubEcc();

    const EccDomain &ecc() const { return ecc_; }

    /** Storage, remote queue, ECC, degradation and sub-array counters
     *  (util/snapshot.h). Geometry is init() state and must match. */
    void snapshot(SnapshotIo &io);

  private:
    /**
     * Physical sub-array serving addr: the geometric owner, or — once
     * that sub-array is offline — the next surviving one, which then
     * absorbs the extra port pressure (graceful degradation).
     */
    uint32_t portFor(uint32_t addr) const;

    SrfGeometry geom_;
    uint32_t laneId_ = 0;
    uint32_t remoteDepth_ = 4;
    /** Any sub-array port possibly claimed since the last newCycle(). */
    bool portsDirty_ = false;
    /** mutable: read() scrubs corrected words back in place. */
    mutable std::vector<Word> words_;
    std::vector<SubArray> subArrays_;
    std::deque<RemoteRequest> remoteQueue_;

    mutable EccDomain ecc_;
    uint32_t degradeThreshold_ = 0;
    mutable std::vector<uint8_t> offline_;
    mutable std::vector<uint32_t> subUncorrectable_;
    mutable uint32_t onlineCount_ = 0;
};

} // namespace isrf

#endif // ISRF_SRF_SRF_BANK_H
