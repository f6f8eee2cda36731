/**
 * @file
 * Off-chip DRAM model: functional word storage plus a bandwidth/latency
 * timing model.
 *
 * Storage is zero on demand (DESIGN.md §17): one anonymous mapping of
 * the full capacity, never initialised word by word, so the kernel
 * supplies zero pages on first touch. A bitmap of kPageWords-word
 * pages records every page a write path has hit; an untouched page
 * is all zeros, so set-up, resident memory and checkpoints cost what
 * a job touches, not the 64 MB capacity.
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

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
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

/** Deleter of Dram's storage: munmap()s a mapping of `bytes` bytes. */
struct DramUnmap
{
    size_t bytes = 0;
    void operator()(Word *p) const;
};

/** Functional + timing DRAM. */
class Dram
{
  public:
    /** Empty until init(): a default-constructed Dram maps no
     *  storage, so a Machine pays for its DRAM once, in init(). */
    Dram() = default;
    explicit Dram(const DramConfig &cfg);

    /** Release any old storage and map a fresh, all-zero one. */
    void init(const DramConfig &cfg, Tracer *tracer = nullptr);

    // --- functional storage ---
    Word read(uint64_t wordAddr) const;
    void write(uint64_t wordAddr, Word w);
    void fill(uint64_t wordAddr, const std::vector<Word> &data);
    std::vector<Word> dump(uint64_t wordAddr, uint64_t n) const;
    uint64_t capacityWords() const { return cfg_.capacityWords; }

    // --- touched-page map ---

    /** Words per page of the touched-page map (16 KB). */
    static constexpr unsigned kPageShift = 12;
    static constexpr uint64_t kPageWords = 1ull << kPageShift;

    /** Pages covering the capacity (the last one may be partial). */
    uint64_t pages() const { return (words_ + kPageWords - 1) >> kPageShift; }

    /**
     * True once write(), fill(), injectBitFlips() or an ECC write-back
     * hit the page since init() (a snapshot load restores the map it
     * saved). A page never touched holds only zeros.
     */
    bool
    pageTouched(uint64_t page) const
    {
        return (touched_[page >> 6] >> (page & 63)) & 1;
    }

    /** Number of touched pages. */
    uint64_t touchedPages() const;

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
     * Row-buffer-model access of one word at `addr` in cycle `now`
     * (requires rowBufferModel). Charges the hit or miss cost
     * depending on the bank's open row, which it updates.
     * All-or-nothing on tokens.
     */
    bool tryAccessWord(uint64_t addr, Cycle now);

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
     * Snapshot (util/snapshot.h): the touched pages, each as its index
     * and its raw words in ascending page order, then ECC, row-buffer
     * state, the token bucket and counters. A load zeroes the pages
     * touched before it and restores the saved touched-page map
     * exactly, a touched all-zero page included.
     * Capacity is init() state and must match.
     */
    void snapshot(SnapshotIo &io);

  private:
    void
    markTouched(uint64_t wordAddr) const
    {
        uint64_t page = wordAddr >> kPageShift;
        touched_[page >> 6] |= 1ull << (page & 63);
    }
    void markRange(uint64_t wordAddr, uint64_t n);
    /** Words of `page` (fewer than kPageWords for a partial last page). */
    uint64_t
    pageWords(uint64_t page) const
    {
        return std::min(kPageWords, words_ - (page << kPageShift));
    }

    DramConfig cfg_;
    /**
     * Zero-on-demand storage of words_ words (null until init()). The
     * pointer is const-shallow: read() scrubs corrected words back.
     */
    std::unique_ptr<Word[], DramUnmap> mem_;
    uint64_t words_ = 0;
    /** One bit per kPageWords-word page; mutable for read()'s scrub. */
    mutable std::vector<uint64_t> touched_;
    mutable EccDomain ecc_;
    std::vector<int64_t> openRow_;
    double tokens_ = 0;
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
