#include "mem/stream_mem_unit.h"

#include <algorithm>

#include "sim/trace.h"
#include "util/log.h"

namespace isrf {

void
StreamMemUnit::init(Dram *dram, Cache *cache, Srf *srf,
                    uint32_t stagingWords, Tracer *tracer)
{
    trc_ = tracer;
    dram_ = dram;
    cache_ = cache;
    srf_ = srf;
    stagingCap_ = stagingWords;
    if (cache_)
        cacheTraceCh_ = trc_ ? trc_->channel("cache") : 0;
    faultTraceCh_ = trc_ ? trc_->channel("fault") : 0;
}

void
StreamMemUnit::start(const MemOp &op, Cycle now)
{
    if (busy_)
        panic("StreamMemUnit::start while busy");
    op_ = op;
    if (op_.lengthWords == 0 && (op_.kind == MemOpKind::Load ||
                                 op_.kind == MemOpKind::Store)) {
        op_.lengthWords = srf_->slotTotalWords(op_.srfSlot);
    }
    busy_ = true;
    startCycle_ = now;
    dramCursor_ = 0;
    srfCursor_ = 0;
    staging_.clear();
    retriesThisWord_ = 0;
    retryNotBefore_ = 0;
    opPoisoned_ = false;

    // Gathers/scatters over a small footprint (e.g. lookup tables) hit
    // open DRAM rows after the memory system's access reordering and
    // run at near-streaming efficiency; large-footprint index patterns
    // pay the full random-access cost.
    dramCostFactor_ = 1.0;
    if (op_.kind == MemOpKind::Gather || op_.kind == MemOpKind::Scatter) {
        uint32_t lo = ~0u, hi = 0;
        for (uint32_t idx : op_.indices) {
            lo = std::min(lo, idx);
            hi = std::max(hi, idx);
        }
        uint64_t footprintWords = op_.indices.empty() ? 0
            : (static_cast<uint64_t>(hi - lo) + 1) * op_.recordWords;
        // 16 KB footprint ~ a handful of DRAM rows.
        dramCostFactor_ = footprintWords <= 4096
            ? dram_->config().smallFootprintCostFactor
            : dram_->config().randomCostFactor;
    }
}

uint64_t
StreamMemUnit::totalWords() const
{
    if (op_.kind == MemOpKind::Gather || op_.kind == MemOpKind::Scatter)
        return static_cast<uint64_t>(op_.indices.size()) * op_.recordWords;
    return op_.lengthWords;
}

uint64_t
StreamMemUnit::memAddrOf(uint64_t i) const
{
    if (op_.kind == MemOpKind::Gather || op_.kind == MemOpKind::Scatter) {
        uint64_t rec = i / op_.recordWords;
        uint64_t off = i % op_.recordWords;
        return op_.memBase +
            static_cast<uint64_t>(op_.indices[rec]) * op_.recordWords + off;
    }
    return op_.memBase + i;
}

bool
StreamMemUnit::payWordCost(uint64_t memAddr, bool isWrite, MemBandwidth &bw)
{
    if (!op_.cached || !cache_) {
        if (dram_->config().rowBufferModel)
            return dram_->tryAccessWord(memAddr);
        return dram_->tryConsumeExactCost(1, dramCostFactor_);
    }

    uint64_t line = memAddr / cache_->config().lineWords;
    if (cache_->probe(line)) {
        if (bw.cacheTokens < 1.0)
            return false;
        bw.cacheTokens -= 1.0;
        cache_->access(line, isWrite);  // hit: updates LRU/dirty
        return true;
    }
    // Write-validate: a sequential store that overwrites the whole line
    // allocates without fetching it from DRAM.
    uint32_t lw = cache_->config().lineWords;
    bool fullLineStore = isWrite && op_.kind == MemOpKind::Store &&
        line * lw >= op_.memBase &&
        (line + 1) * lw <= op_.memBase + op_.lengthWords;
    // Miss: fill the whole line from DRAM (and write back a dirty
    // victim). Needs tokens for fill + potential writeback; conservatively
    // reserve fill first, then account the writeback.
    if (!fullLineStore) {
        if (dram_->config().rowBufferModel) {
            // Fill the line word by word through the row model.
            uint64_t lineBase = line * lw;
            if (!dram_->tryAccessWord(lineBase))
                return false;
            for (uint32_t i = 1; i < lw; i++)
                dram_->tryAccessWord(lineBase + i);
        } else if (!dram_->tryConsumeExactCost(lw, dramCostFactor_)) {
            return false;
        }
    }
    if (fullLineStore && bw.cacheTokens < 1.0)
        return false;
    if (fullLineStore)
        bw.cacheTokens -= 1.0;
    CacheAccessResult r = cache_->access(line, isWrite);
    if (trc_ && trc_->on())
        trc_->instant(cacheTraceCh_, "miss", curCycle_, line);
    if (r.writeback) {
        // Writeback bandwidth: retroactive token consumption; allow the
        // bucket to go negative via a forced grab so timing still pays.
        dram_->requestWords(cache_->config().lineWords, true);
        if (trc_ && trc_->on()) {
            trc_->instant(cacheTraceCh_, "writeback",
                                       curCycle_, line);
        }
    }
    return true;
}

bool
StreamMemUnit::readWithRetry(uint64_t addr, Word *out)
{
    if (!faults_.enabled || !faults_.eccEnabled) {
        *out = dram_->read(addr);
        return true;
    }
    EccStatus st;
    Word w = dram_->readChecked(addr, &st);
    if (st != EccStatus::Uncorrectable) {
        retriesThisWord_ = 0;
        *out = w;
        return true;
    }
    bool timedOut = faults_.opTimeoutCycles &&
        curCycle_ >= startCycle_ + faults_.opTimeoutCycles;
    if (retriesThisWord_ < faults_.retryLimit && !timedOut) {
        // Re-issue the word after a bounded exponential backoff.
        retriesThisWord_++;
        retries_++;
        retryNotBefore_ = curCycle_ +
            (static_cast<Cycle>(faults_.retryBackoffBase)
             << (retriesThisWord_ - 1));
        if (trc_ && trc_->on())
            trc_->instant(faultTraceCh_, "mem_retry",
                                       curCycle_, addr);
        return false;
    }
    // Retries (or the op's retry budget) exhausted: complete the word
    // with a poison marker instead of aborting the run.
    retriesThisWord_ = 0;
    poisonedWords_++;
    opPoisoned_ = true;
    ISRF_WARN("StreamMemUnit: uncorrectable DRAM word at %llu after %u "
              "retries; poisoning",
              static_cast<unsigned long long>(addr), faults_.retryLimit);
    if (trc_ && trc_->on())
        trc_->instant(faultTraceCh_, "mem_poison",
                                   curCycle_, addr);
    *out = kPoisonWord;
    return true;
}

void
StreamMemUnit::tickLoadSide(MemBandwidth &bw)
{
    // DRAM/cache -> staging.
    uint64_t total = totalWords();
    uint32_t moved = 0;
    while (dramCursor_ < total && staging_.size() < stagingCap_ &&
           moved < 16 && curCycle_ >= retryNotBefore_) {
        uint64_t addr = memAddrOf(dramCursor_);
        if (!payWordCost(addr, false, bw))
            break;
        Word w;
        if (!readWithRetry(addr, &w))
            break;
        staging_.push_back(w);
        dramCursor_++;
        moved++;
    }
    // staging -> SRF storage via the SRF port (block transfer).
    uint32_t block = srf_->geometry().seqAccessWords();
    bool lastChunk = dramCursor_ >= total;
    if (staging_.size() >= block || (lastChunk && !staging_.empty())) {
        srf_->memClaim(op_.srfSlot, [this, block]() {
            uint32_t k = static_cast<uint32_t>(
                std::min<size_t>(block, staging_.size()));
            for (uint32_t i = 0; i < k; i++) {
                auto [lane, addr] = srf_->slotWordLocation(
                    op_.srfSlot, op_.dstOffsetWords + srfCursor_);
                srf_->writeWord(lane, addr, staging_.front());
                staging_.pop_front();
                srfCursor_++;
            }
        });
    }
}

void
StreamMemUnit::tickStoreSide(MemBandwidth &bw)
{
    uint64_t total = totalWords();
    // SRF storage -> staging via the SRF port.
    uint32_t block = srf_->geometry().seqAccessWords();
    if (srfCursor_ < total && staging_.size() + block <= stagingCap_) {
        srf_->memClaim(op_.srfSlot, [this, block, total]() {
            uint32_t k = static_cast<uint32_t>(
                std::min<uint64_t>(block, total - srfCursor_));
            for (uint32_t i = 0; i < k; i++) {
                auto [lane, addr] = srf_->slotWordLocation(
                    op_.srfSlot, op_.dstOffsetWords + srfCursor_);
                staging_.push_back(srf_->readWord(lane, addr));
                srfCursor_++;
            }
        });
    }
    // staging -> DRAM/cache.
    uint32_t moved = 0;
    while (!staging_.empty() && moved < 16) {
        uint64_t addr = memAddrOf(dramCursor_);
        if (!payWordCost(addr, true, bw))
            break;
        dram_->write(addr, staging_.front());
        staging_.pop_front();
        dramCursor_++;
        moved++;
    }
}

bool
StreamMemUnit::injectDrop()
{
    // Model a word lost between DRAM and the staging buffer: the most
    // recently fetched load word vanishes and its fetch is re-issued.
    bool loadSide = op_.kind == MemOpKind::Load ||
        op_.kind == MemOpKind::Gather;
    if (!busy_ || !loadSide || staging_.empty())
        return false;
    staging_.pop_back();
    dramCursor_--;
    droppedWords_++;
    if (trc_ && trc_->on())
        trc_->instant(faultTraceCh_, "mem_drop", curCycle_,
                                   dramCursor_);
    return true;
}

void
StreamMemUnit::injectDelay(uint32_t cycles)
{
    Cycle until = curCycle_ + cycles;
    if (until > stallUntil_) {
        delayedCycles_ += until - std::max(curCycle_, stallUntil_);
        stallUntil_ = until;
    }
}

void
StreamMemUnit::tick(Cycle now, MemBandwidth &bw)
{
    curCycle_ = now;
    if (!busy_)
        return;
    // Injected timing fault: the unit sits out these cycles.
    if (now < stallUntil_)
        return;
    // Fixed access latency before the first data word moves.
    if (now < startCycle_ + dram_->accessLatency())
        return;

    if (op_.kind == MemOpKind::Load || op_.kind == MemOpKind::Gather)
        tickLoadSide(bw);
    else
        tickStoreSide(bw);

    uint64_t total = totalWords();
    if (dramCursor_ >= total && srfCursor_ >= total && staging_.empty())
        busy_ = false;
}

void
saveMemOp(SnapshotWriter &w, const MemOp &op)
{
    w.u8(static_cast<uint8_t>(op.kind));
    w.u64(op.memBase);
    w.u32(static_cast<uint32_t>(op.srfSlot));
    w.u64(op.lengthWords);
    w.u64(op.indices.size());
    for (uint32_t idx : op.indices)
        w.u32(idx);
    w.u32(op.recordWords);
    w.b(op.cached);
    w.u64(op.dstOffsetWords);
}

bool
loadMemOp(SnapshotReader &r, MemOp &op)
{
    uint8_t kind = 0;
    uint32_t slotRaw = 0;
    uint64_t nidx = 0;
    if (!r.u8(kind) || !r.u64(op.memBase) || !r.u32(slotRaw) ||
        !r.u64(op.lengthWords) || !r.len(nidx, 4))
        return false;
    op.kind = static_cast<MemOpKind>(kind);
    op.srfSlot = static_cast<SlotId>(slotRaw);
    op.indices.resize(nidx);
    for (uint32_t &idx : op.indices)
        if (!r.u32(idx))
            return false;
    return r.u32(op.recordWords) && r.b(op.cached) &&
        r.u64(op.dstOffsetWords);
}

void
StreamMemUnit::saveState(SnapshotWriter &w) const
{
    w.b(busy_);
    saveMemOp(w, op_);
    w.f64(dramCostFactor_);
    w.u64(startCycle_);
    w.u64(curCycle_);
    w.u64(dramCursor_);
    w.u64(srfCursor_);
    w.u64(staging_.size());
    for (Word x : staging_)
        w.u32(x);
    w.u32(retriesThisWord_);
    w.u64(retryNotBefore_);
    w.u64(stallUntil_);
    w.b(opPoisoned_);
    w.u64(retries_);
    w.u64(poisonedWords_);
    w.u64(droppedWords_);
    w.u64(delayedCycles_);
}

bool
StreamMemUnit::loadState(SnapshotReader &r)
{
    if (!r.b(busy_) || !loadMemOp(r, op_) || !r.f64(dramCostFactor_) ||
        !r.u64(startCycle_) || !r.u64(curCycle_) ||
        !r.u64(dramCursor_) || !r.u64(srfCursor_))
        return false;
    uint64_t nstage = 0;
    if (!r.len(nstage, 4))
        return false;
    staging_.clear();
    for (uint64_t i = 0; i < nstage; i++) {
        Word x = 0;
        if (!r.u32(x))
            return false;
        staging_.push_back(x);
    }
    return r.u32(retriesThisWord_) && r.u64(retryNotBefore_) &&
        r.u64(stallUntil_) && r.b(opPoisoned_) && r.u64(retries_) &&
        r.u64(poisonedWords_) && r.u64(droppedWords_) &&
        r.u64(delayedCycles_);
}

} // namespace isrf
