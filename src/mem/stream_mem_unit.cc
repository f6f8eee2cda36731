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
    wordCost_ = wordCostOf(op_);
}

double
StreamMemUnit::wordCostOf(const MemOp &op) const
{
    if (op.kind != MemOpKind::Gather && op.kind != MemOpKind::Scatter)
        return 1.0;
    // Gathers/scatters over a small footprint (e.g. lookup tables) hit
    // open DRAM rows after the memory system's access reordering and
    // run at near-streaming efficiency; large-footprint index patterns
    // pay the full random-access cost.
    uint32_t lo = ~0u, hi = 0;
    for (uint32_t idx : op.indices) {
        lo = std::min(lo, idx);
        hi = std::max(hi, idx);
    }
    uint64_t footprintWords = op.indices.empty() ? 0
        : (static_cast<uint64_t>(hi - lo) + 1) * op.recordWords;
    // 16 KB footprint ~ a handful of DRAM rows.
    return footprintWords <= 4096
        ? dram_->config().smallFootprintCostFactor
        : dram_->config().randomCostFactor;
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
StreamMemUnit::payWordCost(uint64_t memAddr, bool isWrite, MemBandwidth &bw,
                           Cycle now)
{
    if (!op_.cached || !cache_) {
        if (dram_->config().rowBufferModel)
            return dram_->tryAccessWord(memAddr, now);
        return dram_->tryConsumeExactCost(1, wordCost_);
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
            if (!dram_->tryAccessWord(lineBase, now))
                return false;
            for (uint32_t i = 1; i < lw; i++)
                dram_->tryAccessWord(lineBase + i, now);
        } else if (!dram_->tryConsumeExactCost(lw, wordCost_)) {
            return false;
        }
    }
    if (fullLineStore && bw.cacheTokens < 1.0)
        return false;
    if (fullLineStore)
        bw.cacheTokens -= 1.0;
    CacheAccessResult r = cache_->access(line, isWrite);
    if (trc_ && trc_->on())
        trc_->instant(cacheTraceCh_, "miss", now, line);
    if (r.writeback) {
        // Writeback bandwidth: retroactive token consumption; allow the
        // bucket to go negative via a forced grab so timing still pays.
        dram_->requestWords(cache_->config().lineWords, true);
        if (trc_ && trc_->on())
            trc_->instant(cacheTraceCh_, "writeback", now, line);
    }
    return true;
}

bool
StreamMemUnit::readWithRetry(uint64_t addr, Word *out, Cycle now)
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
        now >= startCycle_ + faults_.opTimeoutCycles;
    if (retriesThisWord_ < faults_.retryLimit && !timedOut) {
        // Re-issue the word after a bounded exponential backoff.
        retriesThisWord_++;
        retries_++;
        retryNotBefore_ = now +
            (static_cast<Cycle>(faults_.retryBackoffBase)
             << (retriesThisWord_ - 1));
        if (trc_ && trc_->on())
            trc_->instant(faultTraceCh_, "mem_retry", now, addr);
        return false;
    }
    // Retries (or the op's retry budget) exhausted: complete the word
    // with a poison marker instead of aborting the run.
    retriesThisWord_ = 0;
    poisonedWords_++;
    ISRF_WARN("StreamMemUnit: uncorrectable DRAM word at %llu after %u "
              "retries; poisoning",
              static_cast<unsigned long long>(addr), faults_.retryLimit);
    if (trc_ && trc_->on())
        trc_->instant(faultTraceCh_, "mem_poison", now, addr);
    *out = kPoisonWord;
    return true;
}

void
StreamMemUnit::tickLoadSide(MemBandwidth &bw, Cycle now)
{
    // DRAM/cache -> staging.
    uint64_t total = totalWords();
    uint32_t moved = 0;
    while (dramCursor_ < total && staging_.size() < stagingCap_ &&
           moved < 16 && now >= retryNotBefore_) {
        uint64_t addr = memAddrOf(dramCursor_);
        if (!payWordCost(addr, false, bw, now))
            break;
        Word w;
        if (!readWithRetry(addr, &w, now))
            break;
        staging_.push_back(w);
        dramCursor_++;
        moved++;
    }
    // staging -> SRF storage via the SRF port (block transfer).
    uint32_t block = srf_->geometry().seqAccessWords();
    bool lastChunk = dramCursor_ >= total;
    if (staging_.size() >= block || (lastChunk && !staging_.empty()))
        srf_->memClaim(op_.srfSlot, this);
}

void
StreamMemUnit::tickStoreSide(MemBandwidth &bw, Cycle now)
{
    uint64_t total = totalWords();
    // SRF storage -> staging via the SRF port.
    uint32_t block = srf_->geometry().seqAccessWords();
    if (srfCursor_ < total && staging_.size() + block <= stagingCap_)
        srf_->memClaim(op_.srfSlot, this);
    // staging -> DRAM/cache.
    uint32_t moved = 0;
    while (!staging_.empty() && moved < 16) {
        uint64_t addr = memAddrOf(dramCursor_);
        if (!payWordCost(addr, true, bw, now))
            break;
        dram_->write(addr, staging_.front());
        staging_.pop_front();
        dramCursor_++;
        moved++;
    }
}

void
StreamMemUnit::onPortGrant()
{
    uint32_t block = srf_->geometry().seqAccessWords();
    bool load = op_.kind == MemOpKind::Load ||
        op_.kind == MemOpKind::Gather;
    uint32_t k = static_cast<uint32_t>(load
        ? std::min<uint64_t>(block, staging_.size())
        : std::min<uint64_t>(block, totalWords() - srfCursor_));
    for (uint32_t i = 0; i < k; i++) {
        auto [lane, addr] = srf_->slotWordLocation(
            op_.srfSlot, op_.dstOffsetWords + srfCursor_);
        if (load) {
            srf_->writeWord(lane, addr, staging_.front());
            staging_.pop_front();
        } else {
            staging_.push_back(srf_->readWord(lane, addr));
        }
        srfCursor_++;
    }
}

bool
StreamMemUnit::injectDrop(Cycle now)
{
    // Model a word lost between DRAM and the staging buffer: the most
    // recently fetched load word vanishes and its fetch is re-issued.
    bool loadSide = op_.kind == MemOpKind::Load ||
        op_.kind == MemOpKind::Gather;
    if (!busy_ || !loadSide || staging_.empty())
        return false;
    staging_.pop_back();
    dramCursor_--;
    if (trc_ && trc_->on())
        trc_->instant(faultTraceCh_, "mem_drop", now, dramCursor_);
    return true;
}

void
StreamMemUnit::injectDelay(uint32_t cycles, Cycle now)
{
    stallUntil_ = std::max(stallUntil_, now + cycles);
}

void
StreamMemUnit::tick(Cycle now, MemBandwidth &bw)
{
    if (!busy_)
        return;
    // Injected timing fault: the unit sits out these cycles.
    if (now < stallUntil_)
        return;
    // Fixed access latency before the first data word moves.
    if (now < startCycle_ + dram_->accessLatency())
        return;

    if (op_.kind == MemOpKind::Load || op_.kind == MemOpKind::Gather)
        tickLoadSide(bw, now);
    else
        tickStoreSide(bw, now);

    uint64_t total = totalWords();
    if (dramCursor_ >= total && srfCursor_ >= total && staging_.empty())
        busy_ = false;
}

void
snapshotMemOp(SnapshotIo &io, MemOp &op)
{
    io.asU8(op.kind);
    io.u64(op.memBase);
    io.asU32(op.srfSlot);
    io.u64(op.lengthWords);
    io.seq(op.indices);
    io.u32(op.recordWords);
    io.b(op.cached);
    io.u64(op.dstOffsetWords);
}

void
StreamMemUnit::snapshot(SnapshotIo &io)
{
    io.b(busy_);
    snapshotMemOp(io, op_);
    if (io.loading())
        wordCost_ = wordCostOf(op_);
    io.u64(startCycle_);
    io.u64(dramCursor_);
    io.u64(srfCursor_);
    io.seq(staging_);
    io.u32(retriesThisWord_);
    io.u64(retryNotBefore_);
    io.u64(stallUntil_);
    io.u64(retries_);
    io.u64(poisonedWords_);
}

} // namespace isrf
