/**
 * @file
 * Off-chip DRAM model: functional word storage plus a bandwidth/latency
 * timing model.
 *
 * Table 3 gives the machine a peak DRAM bandwidth of 9.14 GB/s at a
 * 1 GHz core clock, i.e. ~2.285 32-bit words per cycle. The model is a
 * token bucket at that rate; sequential stream accesses move words at
 * unit cost while random (gather/scatter) words pay a configurable
 * activation-overhead factor, reflecting reduced row locality even
 * after the memory system's access reordering.
 */
#ifndef ISRF_MEM_DRAM_H
#define ISRF_MEM_DRAM_H

#include <cstdint>
#include <vector>

#include "fault/ecc.h"
#include "sim/types.h"
#include "util/stats.h"

namespace isrf {

class Tracer;

/** DRAM timing/capacity parameters. */
struct DramConfig
{
    uint64_t capacityWords = 16ull << 20;  ///< 64 MB
    double wordsPerCycle = 9.14e9 / 4.0 / 1e9;  ///< 2.285 w/cyc (Table 3)
    double randomCostFactor = 1.6;  ///< token cost of a random word
    /** Cost of random words within a row-buffer-sized footprint. */
    double smallFootprintCostFactor = 1.25;
    uint32_t accessLatency = 40;    ///< cycles before first data word
    double burstTokens = 16.0;      ///< token bucket depth

    /**
     * Mechanistic open-page row-buffer model (optional alternative to
     * the token-cost heuristics): per-bank open rows, hit/miss costs.
     */
    bool rowBufferModel = false;
    uint32_t rowWords = 512;   ///< 2 KB rows
    uint32_t banks = 4;
    double rowHitCost = 1.0;   ///< tokens per word hitting the open row
    double rowMissCost = 2.5;  ///< first word of a newly opened row
};

/** Functional + timing DRAM. */
class Dram
{
  public:
    /** Empty until init(): a default-constructed Dram allocates no
     *  storage, so a Machine pays for its DRAM once, in init(). */
    Dram() = default;
    explicit Dram(const DramConfig &cfg);

    void init(const DramConfig &cfg, Tracer *tracer = nullptr);

    // --- functional storage ---
    Word read(uint64_t wordAddr) const;
    void write(uint64_t wordAddr, Word w);
    void fill(uint64_t wordAddr, const std::vector<Word> &data);
    std::vector<Word> dump(uint64_t wordAddr, uint64_t n) const;
    uint64_t capacityWords() const { return cfg_.capacityWords; }

    // --- fault model (src/fault/, DESIGN.md §Fault model) ---

    /**
     * ECC-decoded read: corrects single-bit faults like read(), but
     * also reports the decode status so the memory system can retry
     * detected-uncorrectable words.
     */
    Word readChecked(uint64_t wordAddr, EccStatus *status);

    /** Flip bits at wordAddr, recorded for the SECDED decoder. */
    void injectBitFlips(uint64_t wordAddr, Word mask, bool transient);

    /** Background-scrub all pending faults. @return words repaired. */
    uint64_t scrubEcc();

    const EccDomain &ecc() const { return ecc_; }

    // --- timing ---
    /** Accrue this cycle's bandwidth tokens. */
    void tick();

    /**
     * Try to move up to `want` words this cycle.
     * @param sequential true for streaming access patterns.
     * @return number of words granted (tokens consumed).
     */
    uint32_t requestWords(uint32_t want, bool sequential);

    /** As requestWords but with an explicit per-word token cost. */
    uint32_t requestWordsCost(uint32_t want, double costFactor);

    /**
     * All-or-nothing token grab for `words` words (e.g. a full cache
     * line fill). @return true if tokens were available and consumed.
     */
    bool tryConsumeExact(uint32_t words, bool sequential);

    /** As tryConsumeExact but with an explicit per-word token cost. */
    bool tryConsumeExactCost(uint32_t words, double costFactor);

    /**
     * Row-buffer-model access of one word at `addr` (requires
     * rowBufferModel). Charges the hit or miss cost depending on the
     * bank's open row, which it updates. All-or-nothing on tokens.
     */
    bool tryAccessWord(uint64_t addr);

    uint64_t rowHits() const { return rowHits_; }
    uint64_t rowMisses() const { return rowMisses_; }

    uint32_t accessLatency() const { return cfg_.accessLatency; }
    const DramConfig &config() const { return cfg_; }

    /** Total words that crossed the DRAM pins (the Figure 11 metric). */
    uint64_t wordsTransferred() const { return wordsTransferred_; }
    uint64_t seqWords() const { return seqWords_; }
    uint64_t randomWords() const { return randomWords_; }
    void
    resetStats()
    {
        wordsTransferred_ = 0;
        seqWords_ = 0;
        randomWords_ = 0;
    }

    /**
     * Snapshot (util/snapshot.h): functional storage is run-length
     * encoded ((count, value) runs — checkpoints stay small while most
     * of DRAM is untouched zeros), plus ECC, row-buffer state, the
     * token bucket and counters. Capacity is init() state, must match.
     */
    void snapshot(SnapshotIo &io);

  private:
    DramConfig cfg_;
    /** mutable: read() scrubs corrected words back in place. */
    mutable std::vector<Word> mem_;
    mutable EccDomain ecc_;
    std::vector<int64_t> openRow_;
    double tokens_ = 0;
    Cycle now_ = 0;  ///< cycles ticked (trace timestamps)
    Tracer *trc_ = nullptr;  ///< owning machine's; null = untraced
    uint16_t traceCh_ = 0;
    uint64_t rowHits_ = 0;
    uint64_t rowMisses_ = 0;
    uint64_t wordsTransferred_ = 0;
    uint64_t seqWords_ = 0;
    uint64_t randomWords_ = 0;
};

} // namespace isrf

#endif // ISRF_MEM_DRAM_H
