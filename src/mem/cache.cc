#include "mem/cache.h"

#include "util/log.h"

namespace isrf {

Cache::Cache(const CacheConfig &cfg)
{
    init(cfg);
}

void
Cache::init(const CacheConfig &cfg)
{
    cfg_ = cfg;
    if (cfg.lineWords == 0 || cfg.ways == 0 || cfg.banks == 0)
        fatal("Cache: invalid geometry");
    uint32_t linesTotal = cfg.capacityWords / cfg.lineWords;
    if (linesTotal % cfg.ways != 0)
        fatal("Cache: capacity not divisible by ways");
    sets_ = linesTotal / cfg.ways;
    lines_.assign(static_cast<size_t>(sets_) * cfg.ways, Line());
    stamp_ = 0;
    resetStats();
}

CacheAccessResult
Cache::access(uint64_t lineAddr, bool isWrite)
{
    CacheAccessResult res;
    uint32_t set = static_cast<uint32_t>(lineAddr % sets_);
    uint64_t tag = lineAddr / sets_;
    Line *base = &lines_[static_cast<size_t>(set) * cfg_.ways];

    stamp_++;
    for (uint32_t w = 0; w < cfg_.ways; w++) {
        Line &ln = base[w];
        if (ln.valid && ln.tag == tag) {
            ln.lru = stamp_;
            ln.dirty = ln.dirty || isWrite;
            hits_++;
            res.hit = true;
            return res;
        }
    }

    // Miss: allocate, evicting the LRU way.
    misses_++;
    uint32_t victim = 0;
    for (uint32_t w = 1; w < cfg_.ways; w++) {
        if (!base[w].valid) {
            victim = w;
            break;
        }
        if (!base[victim].valid)
            break;
        if (base[w].lru < base[victim].lru)
            victim = w;
    }
    Line &ln = base[victim];
    if (ln.valid && ln.dirty) {
        writebacks_++;
        res.writeback = true;
        res.evictedLineAddr = ln.tag * sets_ + set;
    }
    ln.valid = true;
    ln.dirty = isWrite;
    ln.tag = tag;
    ln.lru = stamp_;
    return res;
}

bool
Cache::probe(uint64_t lineAddr) const
{
    uint32_t set = static_cast<uint32_t>(lineAddr % sets_);
    uint64_t tag = lineAddr / sets_;
    const Line *base = &lines_[static_cast<size_t>(set) * cfg_.ways];
    for (uint32_t w = 0; w < cfg_.ways; w++)
        if (base[w].valid && base[w].tag == tag)
            return true;
    return false;
}

void
Cache::flush()
{
    for (auto &ln : lines_)
        ln = Line();
}

void
Cache::snapshot(SnapshotIo &io)
{
    // Valid lines only, each as its index and then its fields.
    io.expect(lines_.size(), 0);
    uint64_t valid = 0;
    for (const Line &ln : lines_)
        valid += ln.valid ? 1 : 0;
    io.len(valid, 18);
    io.require(valid <= lines_.size());
    if (io.loading())
        for (auto &ln : lines_)
            ln = Line();
    uint64_t idx = 0;
    for (uint64_t i = 0; i < valid && io.ok(); i++, idx++) {
        while (io.saving() && !lines_[idx].valid)
            idx++;
        io.u64(idx);
        if (!io.require(idx < lines_.size()))
            break;
        Line &ln = lines_[static_cast<size_t>(idx)];
        ln.valid = true;
        io.b(ln.dirty);
        io.u64(ln.tag);
        io.u64(ln.lru);
    }
    io.u64(stamp_);
    io.u64(hits_);
    io.u64(misses_);
    io.u64(writebacks_);
}

} // namespace isrf
