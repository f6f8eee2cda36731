#include "mem/memory_system.h"

#include "sim/trace.h"
#include "util/log.h"

namespace isrf {

namespace {

const char *
memOpName(MemOpKind kind)
{
    switch (kind) {
      case MemOpKind::Load: return "load";
      case MemOpKind::Store: return "store";
      case MemOpKind::Gather: return "gather";
      case MemOpKind::Scatter: return "scatter";
    }
    return "?";
}

} // namespace

void
MemorySystem::init(const MemSystemConfig &cfg, const DramConfig &dramCfg,
                   const CacheConfig &cacheCfg, Srf *srf,
                   Tracer *tracer)
{
    cfg_ = cfg;
    srf_ = srf;
    trc_ = tracer;
    dram_.init(dramCfg, trc_);
    cache_.init(cacheCfg);
    units_.assign(cfg.units, StreamMemUnit());
    unitOpId_.assign(cfg.units, 0);
    for (auto &u : units_) {
        u.init(&dram_, cfg.cacheEnabled ? &cache_ : nullptr, srf,
               cfg.stagingWords, trc_);
    }
    queue_.clear();
    nextId_ = 1;
    events_ = 0;
    traceCh_ = trc_ ? trc_->channel("mem") : 0;
}

MemOpId
MemorySystem::submit(MemOp op)
{
    if (op.srfSlot == kNoSlot)
        panic("MemorySystem::submit: op without SRF slot");
    if (!cfg_.cacheEnabled)
        op.cached = false;
    MemOpId id = nextId_++;
    queue_.push_back({id, std::move(op)});
    return id;
}

bool
MemorySystem::done(MemOpId id) const
{
    if (id <= 0 || id >= nextId_)
        return false;
    for (size_t u = 0; u < units_.size(); u++)
        if (units_[u].busy() && unitOpId_[u] == id)
            return false;
    // Ids are assigned in increasing order and dispatched FIFO, so the
    // queue holds exactly the ids from its front one up.
    return queue_.empty() || id < queue_.front().id;
}

bool
MemorySystem::idle() const
{
    if (!queue_.empty())
        return false;
    for (const auto &u : units_)
        if (u.busy())
            return false;
    return true;
}

size_t
MemorySystem::inFlight() const
{
    size_t n = queue_.size();
    for (const auto &u : units_)
        if (u.busy())
            n++;
    return n;
}

void
MemorySystem::tick(Cycle now)
{
    dram_.tick();
    MemBandwidth bw;
    bw.cacheTokens = cfg_.cacheEnabled ? cache_.config().wordsPerCycle : 0;

    // Dispatch queued ops to free units.
    for (size_t u = 0; u < units_.size() && !queue_.empty(); u++) {
        if (units_[u].busy())
            continue;
        units_[u].start(queue_.front().op, now);
        unitOpId_[u] = queue_.front().id;
        events_++;
        if (trc_ && trc_->on()) {
            trc_->instant(traceCh_,
                memOpName(queue_.front().op.kind), now,
                static_cast<uint64_t>(queue_.front().id));
        }
        queue_.pop_front();
    }

    for (size_t u = 0; u < units_.size(); u++) {
        if (!units_[u].busy())
            continue;
        units_[u].tick(now, bw);
        if (units_[u].busy())
            continue;
        events_++;
        if (trc_ && trc_->on())
            trc_->instant(traceCh_, "op_done", now,
                static_cast<uint64_t>(unitOpId_[u]));
    }
}

void
MemorySystem::setFaultConfig(const FaultConfig &fc)
{
    for (auto &u : units_)
        u.setFaultConfig(fc);
}

bool
MemorySystem::injectDrop(Cycle now)
{
    for (auto &u : units_)
        if (u.injectDrop(now))
            return true;
    return false;
}

void
MemorySystem::injectDelay(uint32_t cycles, Cycle now)
{
    for (auto &u : units_)
        if (u.busy())
            u.injectDelay(cycles, now);
}

uint64_t
MemorySystem::retries() const
{
    uint64_t n = 0;
    for (const auto &u : units_)
        n += u.retries();
    return n;
}

uint64_t
MemorySystem::poisonedWords() const
{
    uint64_t n = 0;
    for (const auto &u : units_)
        n += u.poisonedWords();
    return n;
}

void
MemorySystem::snapshot(SnapshotIo &io)
{
    dram_.snapshot(io);
    cache_.snapshot(io);
    io.expect(units_.size(), 1);
    for (StreamMemUnit &u : units_)
        u.snapshot(io);
    io.each(unitOpId_);
    io.seq(queue_, 9, [&](Pending &p) {
        io.i64(p.id);
        snapshotMemOp(io, p.op);
    });
    io.i64(nextId_);
}

} // namespace isrf
