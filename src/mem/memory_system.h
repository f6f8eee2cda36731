/**
 * @file
 * Memory system front-end: accepts stream memory operations, runs them
 * on a small number of StreamMemUnits, and owns shared DRAM/cache
 * bandwidth accounting.
 */
#ifndef ISRF_MEM_MEMORY_SYSTEM_H
#define ISRF_MEM_MEMORY_SYSTEM_H

#include <deque>
#include <vector>

#include "mem/stream_mem_unit.h"

namespace isrf {

class Tracer;

/** Memory-system configuration. */
struct MemSystemConfig
{
    uint32_t units = 2;          ///< concurrent stream memory ops
    uint32_t stagingWords = 64;  ///< per-unit staging buffer
    bool cacheEnabled = false;   ///< Cache machine configuration
};

/** Handle to a submitted stream memory operation. */
using MemOpId = int64_t;

/**
 * The machine's memory system: queue + units + DRAM (+ vector cache).
 */
class MemorySystem
{
  public:
    void init(const MemSystemConfig &cfg, const DramConfig &dramCfg,
              const CacheConfig &cacheCfg, Srf *srf,
              Tracer *tracer = nullptr);

    /** Submit an op; runs when a unit frees up (FIFO). */
    MemOpId submit(MemOp op);

    /** True once the op has fully completed. O(units). */
    bool done(MemOpId id) const;

    /** True when no op is queued or executing. */
    bool idle() const;

    /** Number of ops queued or executing. */
    size_t inFlight() const;

    void tick(Cycle now);

    Dram &dram() { return dram_; }
    const Dram &dram() const { return dram_; }
    Cache &cache() { return cache_; }
    const Cache &cache() const { return cache_; }
    bool cacheEnabled() const { return cfg_.cacheEnabled; }

    StatGroup &stats() { return stats_; }

    // --- fault model (src/fault/, DESIGN.md §Fault model) ---

    /** Apply the retry/timeout policy to every stream memory unit. */
    void setFaultConfig(const FaultConfig &fc);

    /** Drop one in-flight load word (first unit that has one). */
    bool injectDrop();

    /** Stall every busy unit for `cycles`. */
    void injectDelay(uint32_t cycles);

    uint64_t retries() const;
    uint64_t poisonedWords() const;
    uint64_t droppedWords() const;

    /** Publish fault/ECC counters into this group's stats. */
    void syncFaultStats();

    /** Queue, units, DRAM, cache and stats (util/snapshot.h). */
    void snapshot(SnapshotIo &io);

  private:
    struct Pending
    {
        MemOpId id;
        MemOp op;
    };

    MemSystemConfig cfg_;
    Srf *srf_ = nullptr;
    Dram dram_;
    Cache cache_;
    std::vector<StreamMemUnit> units_;
    std::vector<MemOpId> unitOpId_;
    std::deque<Pending> queue_;
    MemOpId nextId_ = 1;
    StatGroup stats_{"mem"};
    Tracer *trc_ = nullptr;  ///< owning machine's; null = untraced
    uint16_t traceCh_ = 0;
    /** Distribution of in-flight ops while the system is busy. */
    Histogram *queueDepthHist_ = nullptr;
};

} // namespace isrf

#endif // ISRF_MEM_MEMORY_SYSTEM_H
