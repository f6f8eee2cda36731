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

    /**
     * Dispatches plus unit finishes so far. done() of an op can flip
     * only when this moves, so a poller may skip its rescan while it
     * stands still. Derived, never saved: it restarts at 0 on init()
     * and stays put on a snapshot load.
     */
    uint64_t events() const { return events_; }

    void tick(Cycle now);

    Dram &dram() { return dram_; }
    const Dram &dram() const { return dram_; }
    Cache &cache() { return cache_; }
    const Cache &cache() const { return cache_; }
    bool cacheEnabled() const { return cfg_.cacheEnabled; }

    // --- fault model (src/fault/, DESIGN.md §Fault model) ---

    /** Apply the retry/timeout policy to every stream memory unit. */
    void setFaultConfig(const FaultConfig &fc);

    /** Drop one in-flight load word at cycle `now` (first unit that
     *  has one). */
    bool injectDrop(Cycle now);

    /** Stall every busy unit for `cycles` cycles starting at `now`. */
    void injectDelay(uint32_t cycles, Cycle now);

    uint64_t retries() const;
    uint64_t poisonedWords() const;

    /** Queue, units, DRAM and cache (util/snapshot.h). */
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
    uint64_t events_ = 0;
    Tracer *trc_ = nullptr;  ///< owning machine's; null = untraced
    uint16_t traceCh_ = 0;
};

} // namespace isrf

#endif // ISRF_MEM_MEMORY_SYSTEM_H
