#include "mem/memory_system.h"

#include <algorithm>

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
    lastCompletion_ = kNoEvent;
    stats_.resetAll();
    traceCh_ = trc_ ? trc_->channel("mem") : 0;
    queueDepthHist_ = &stats_.histogram("queue_depth", 0,
        static_cast<double>(cfg.units + 16), cfg.units + 16);
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
    stats_.counter("ops_submitted").inc();
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

    size_t busyBefore = inFlight();
    if (busyBefore > 0)
        queueDepthHist_->sample(static_cast<double>(busyBefore));

    // Dispatch queued ops to free units.
    for (size_t u = 0; u < units_.size() && !queue_.empty(); u++) {
        if (units_[u].busy())
            continue;
        units_[u].start(queue_.front().op, now);
        unitOpId_[u] = queue_.front().id;
        if (trc_ && trc_->on()) {
            trc_->instant(traceCh_,
                memOpName(queue_.front().op.kind), now,
                static_cast<uint64_t>(queue_.front().id));
        }
        queue_.pop_front();
        stats_.counter("ops_started").inc();
    }

    for (size_t u = 0; u < units_.size(); u++) {
        bool wasBusy = units_[u].busy();
        units_[u].tick(now, bw);
        if (wasBusy && !units_[u].busy()) {
            lastCompletion_ = now;
            stats_.counter("ops_completed").inc();
            if (units_[u].opPoisoned())
                stats_.counter("ops_poisoned").inc();
            if (trc_ && trc_->on()) {
                trc_->instant(traceCh_, "op_done", now,
                    static_cast<uint64_t>(unitOpId_[u]));
            }
        }
    }
}

Cycle
MemorySystem::nextEvent(Cycle now) const
{
    // An op just completed: the driver (stream program) may react next
    // cycle by submitting dependents — stay dense.
    if (lastCompletion_ == now)
        return now + 1;
    // A queued op dispatches as soon as a unit frees; with a free unit
    // it dispatches next cycle.
    if (!queue_.empty()) {
        for (const auto &u : units_)
            if (!u.busy())
                return now + 1;
    }
    Cycle wake = kNoEvent;
    for (const auto &u : units_)
        wake = std::min(wake, u.nextEvent(now));
    // Busy units also imply a queue-depth histogram sample every cycle,
    // but that is a bulk-creditable side effect (skipCycles), so it
    // does not force density here.
    return wake;
}

void
MemorySystem::skipCycles(Cycle from, Cycle to)
{
    uint64_t n = to - from;
    dram_.skipCycles(n);
    // Every dense tick with in-flight work samples the depth once; the
    // depth cannot change across quiescent cycles (no dispatch, no
    // completion), so one weighted sample reproduces n dense samples.
    size_t depth = inFlight();
    if (depth > 0)
        queueDepthHist_->sample(static_cast<double>(depth), n);
    for (auto &u : units_)
        u.skipCycles(from, to);
}

void
MemorySystem::setFaultConfig(const FaultConfig &fc)
{
    for (auto &u : units_)
        u.setFaultConfig(fc);
}

bool
MemorySystem::injectDrop()
{
    for (auto &u : units_)
        if (u.injectDrop())
            return true;
    return false;
}

void
MemorySystem::injectDelay(uint32_t cycles)
{
    for (auto &u : units_)
        if (u.busy())
            u.injectDelay(cycles);
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

uint64_t
MemorySystem::droppedWords() const
{
    uint64_t n = 0;
    for (const auto &u : units_)
        n += u.droppedWords();
    return n;
}

void
MemorySystem::syncFaultStats()
{
    stats_.counter("retries").set(retries());
    stats_.counter("poisoned_words").set(poisonedWords());
    stats_.counter("dropped_words").set(droppedWords());
    stats_.counter("ecc_corrected").set(dram_.ecc().corrected());
    stats_.counter("ecc_detected_uncorrectable")
        .set(dram_.ecc().uncorrectable());
    stats_.counter("faults_injected").set(dram_.ecc().faultsInjected());
}

void
MemorySystem::saveState(SnapshotWriter &w) const
{
    dram_.saveState(w);
    cache_.saveState(w);
    w.u64(units_.size());
    for (const StreamMemUnit &u : units_)
        u.saveState(w);
    for (MemOpId id : unitOpId_)
        w.i64(id);
    w.u64(queue_.size());
    for (const Pending &p : queue_) {
        w.i64(p.id);
        saveMemOp(w, p.op);
    }
    w.i64(nextId_);
    w.u64(lastCompletion_);
    stats_.saveState(w);
}

bool
MemorySystem::loadState(SnapshotReader &r)
{
    if (!dram_.loadState(r) || !cache_.loadState(r))
        return false;
    uint64_t nunits = 0;
    if (!r.len(nunits, 1) || nunits != units_.size())
        return false;
    for (StreamMemUnit &u : units_)
        if (!u.loadState(r))
            return false;
    for (MemOpId &id : unitOpId_)
        if (!r.i64(id))
            return false;
    uint64_t nq = 0;
    if (!r.len(nq, 9))
        return false;
    queue_.clear();
    for (uint64_t i = 0; i < nq; i++) {
        Pending p;
        if (!r.i64(p.id) || !loadMemOp(r, p.op))
            return false;
        queue_.push_back(std::move(p));
    }
    return r.i64(nextId_) && r.u64(lastCompletion_) &&
        stats_.loadState(r);
}

} // namespace isrf
