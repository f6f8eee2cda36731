/**
 * @file
 * Banked set-associative vector cache (the `Cache` configuration of
 * Table 2/3): 128 KB, 4-way, 4 banks, 2-word lines, LRU, write-back
 * write-allocate, 16 GB/s peak (4 words/cycle aggregate).
 *
 * The cache sits between the sequential SRF and DRAM, as in the vector
 * machines of [20][21][22]. It is a *timing filter*: data correctness
 * is carried by the functional DRAM storage (single writer at a time),
 * so the model keeps tags, dirty bits and LRU state only.
 */
#ifndef ISRF_MEM_CACHE_H
#define ISRF_MEM_CACHE_H

#include <cstdint>
#include <vector>

#include "sim/types.h"
#include "util/snapshot.h"

namespace isrf {

/** Vector-cache geometry (defaults = Table 3 Cache column). */
struct CacheConfig
{
    uint32_t capacityWords = 32768;  ///< 128 KB
    uint32_t lineWords = 2;          ///< short lines per [22][23]
    uint32_t ways = 4;
    uint32_t banks = 4;
    double wordsPerCycle = 4.0;      ///< 16 GB/s aggregate
};

/** Result of a timing access to the cache. */
struct CacheAccessResult
{
    bool hit = false;
    bool writeback = false;  ///< a dirty victim must go to DRAM
    uint64_t evictedLineAddr = 0;
};

/** Tag-only banked set-associative LRU cache model. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg = {});

    void init(const CacheConfig &cfg);

    /**
     * Access one line (timing). On a miss the line is allocated
     * (write-allocate for stores too) and the LRU victim selected.
     *
     * @param lineAddr line-granular address (wordAddr / lineWords).
     * @param isWrite marks the line dirty.
     */
    CacheAccessResult access(uint64_t lineAddr, bool isWrite);

    /** Probe without modifying state. */
    bool probe(uint64_t lineAddr) const;

    /** Invalidate everything (program boundaries in tests). */
    void flush();

    /** Bank a line maps to (bandwidth accounting). */
    uint32_t bankOf(uint64_t lineAddr) const
    {
        return static_cast<uint32_t>(lineAddr % cfg_.banks);
    }

    const CacheConfig &config() const { return cfg_; }
    uint32_t numSets() const { return sets_; }

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    uint64_t writebacks() const { return writebacks_; }
    void
    resetStats()
    {
        hits_ = 0;
        misses_ = 0;
        writebacks_ = 0;
    }

    /** Valid lines + LRU stamp + hit/miss counters (util/snapshot.h).
     *  Geometry is init() state and must match. */
    void snapshot(SnapshotIo &io);

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        uint64_t tag = 0;
        uint64_t lru = 0;  ///< last-use stamp
    };

    CacheConfig cfg_;
    uint32_t sets_ = 0;
    std::vector<Line> lines_;  ///< sets_ x ways, row-major
    uint64_t stamp_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t writebacks_ = 0;
};

} // namespace isrf

#endif // ISRF_MEM_CACHE_H
