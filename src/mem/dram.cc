#include "mem/dram.h"

#include <algorithm>
#include <cstddef>

#include "sim/trace.h"
#include "util/log.h"

namespace isrf {

Dram::Dram(const DramConfig &cfg)
{
    init(cfg);
}

void
Dram::init(const DramConfig &cfg, Tracer *tracer)
{
    if (cfg.wordsPerCycle <= 0)
        fatal("Dram: non-positive bandwidth");
    cfg_ = cfg;
    mem_.assign(cfg.capacityWords, 0);
    ecc_.clear();
    openRow_.assign(cfg.banks, -1);
    tokens_ = 0;
    now_ = 0;
    rowHits_ = 0;
    rowMisses_ = 0;
    trc_ = tracer;
    traceCh_ = trc_ ? trc_->channel("dram") : 0;
    resetStats();
}

Word
Dram::read(uint64_t wordAddr) const
{
    if (wordAddr >= mem_.size())
        panic("Dram::read: address %llu out of range",
              static_cast<unsigned long long>(wordAddr));
    // Scrub-on-read: single-bit faults are corrected in place
    // (logically const), multi-bit faults stay visible as corrupt data.
    if (!ecc_.empty())
        ecc_.check(wordAddr, &mem_[wordAddr]);
    return mem_[wordAddr];
}

Word
Dram::readChecked(uint64_t wordAddr, EccStatus *status)
{
    if (wordAddr >= mem_.size())
        panic("Dram::readChecked: address %llu out of range",
              static_cast<unsigned long long>(wordAddr));
    if (ecc_.empty()) {
        *status = EccStatus::Clean;
        return mem_[wordAddr];
    }
    // A transient uncorrectable fault repairs the cell but this read
    // still observes the corrupted value — keep the pre-decode word.
    Word observed = mem_[wordAddr];
    *status = ecc_.check(wordAddr, &mem_[wordAddr]);
    return *status == EccStatus::Uncorrectable ? observed
                                               : mem_[wordAddr];
}

void
Dram::write(uint64_t wordAddr, Word w)
{
    if (wordAddr >= mem_.size())
        panic("Dram::write: address %llu out of range",
              static_cast<unsigned long long>(wordAddr));
    if (!ecc_.empty())
        ecc_.onWrite(wordAddr);
    mem_[wordAddr] = w;
}

void
Dram::fill(uint64_t wordAddr, const std::vector<Word> &data)
{
    if (wordAddr + data.size() > mem_.size())
        panic("Dram::fill: range out of bounds");
    ecc_.onWriteRange(wordAddr, data.size());
    std::copy(data.begin(), data.end(), mem_.begin() + wordAddr);
}

std::vector<Word>
Dram::dump(uint64_t wordAddr, uint64_t n) const
{
    if (wordAddr + n > mem_.size())
        panic("Dram::dump: range out of bounds");
    if (!ecc_.empty()) {
        // Route through the decoder so validation sees corrected data.
        std::vector<Word> out;
        out.reserve(n);
        for (uint64_t i = 0; i < n; i++)
            out.push_back(read(wordAddr + i));
        return out;
    }
    return std::vector<Word>(mem_.begin() + wordAddr,
                             mem_.begin() + wordAddr + n);
}

void
Dram::injectBitFlips(uint64_t wordAddr, Word mask, bool transient)
{
    if (wordAddr >= mem_.size())
        panic("Dram::injectBitFlips: address %llu out of range",
              static_cast<unsigned long long>(wordAddr));
    ecc_.inject(wordAddr, mask, transient, &mem_[wordAddr]);
}

uint64_t
Dram::scrubEcc()
{
    if (ecc_.empty())
        return 0;
    return ecc_.scrub([this](uint64_t addr) { return &mem_[addr]; });
}

void
Dram::tick()
{
    now_++;
    tokens_ = std::min(tokens_ + cfg_.wordsPerCycle, cfg_.burstTokens);
}

bool
Dram::tryConsumeExact(uint32_t words, bool sequential)
{
    return tryConsumeExactCost(words,
        sequential ? 1.0 : cfg_.randomCostFactor);
}

bool
Dram::tryConsumeExactCost(uint32_t words, double costFactor)
{
    double cost = costFactor * static_cast<double>(words);
    if (tokens_ < cost)
        return false;
    tokens_ -= cost;
    wordsTransferred_ += words;
    // Near-streaming efficiency (open-row hits) counts as sequential.
    if (costFactor <= 1.3)
        seqWords_ += words;
    else
        randomWords_ += words;
    return true;
}

bool
Dram::tryAccessWord(uint64_t addr)
{
    if (!cfg_.rowBufferModel)
        panic("Dram::tryAccessWord without rowBufferModel");
    auto row = static_cast<int64_t>(addr / cfg_.rowWords);
    uint32_t bank = static_cast<uint32_t>(row % cfg_.banks);
    bool hit = openRow_[bank] == row;
    double cost = hit ? cfg_.rowHitCost : cfg_.rowMissCost;
    if (tokens_ < cost)
        return false;
    tokens_ -= cost;
    openRow_[bank] = row;
    wordsTransferred_++;
    if (hit) {
        rowHits_++;
        seqWords_++;
    } else {
        rowMisses_++;
        randomWords_++;
        if (trc_ && trc_->on())
            trc_->instant(traceCh_, "row_miss", now_, bank);
    }
    return true;
}

uint32_t
Dram::requestWords(uint32_t want, bool sequential)
{
    return requestWordsCost(want,
        sequential ? 1.0 : cfg_.randomCostFactor);
}

uint32_t
Dram::requestWordsCost(uint32_t want, double costFactor)
{
    auto n = static_cast<uint32_t>(tokens_ / costFactor);
    n = std::min(n, want);
    tokens_ -= static_cast<double>(n) * costFactor;
    wordsTransferred_ += n;
    if (costFactor <= 1.3)
        seqWords_ += n;
    else
        randomWords_ += n;
    return n;
}

void
Dram::snapshot(SnapshotIo &io)
{
    io.expect(mem_.size(), 0);
    // Storage as (count, value) runs: most of DRAM is untouched zeros.
    // A save measures the runs; a load refills them, rejecting an empty
    // run or one past the end.
    auto runEnd = [&](size_t i) {
        size_t j = i + 1;
        while (j < mem_.size() && mem_[j] == mem_[i])
            j++;
        return j;
    };
    uint64_t nruns = 0;
    if (io.saving())
        for (size_t i = 0; i < mem_.size(); nruns++)
            i = runEnd(i);
    io.len(nruns, 12);
    uint64_t at = 0;
    for (uint64_t run = 0; run < nruns && io.ok(); run++) {
        uint64_t count = io.saving() ? runEnd(at) - at : 0;
        Word value = io.saving() ? mem_[at] : 0;
        io.u64(count);
        io.u32(value);
        if (io.loading()) {
            if (!io.require(count != 0 && count <= mem_.size() - at))
                break;
            std::fill(mem_.begin() + static_cast<ptrdiff_t>(at),
                      mem_.begin() + static_cast<ptrdiff_t>(at + count),
                      value);
        }
        at += count;
    }
    io.require(at == mem_.size());
    ecc_.snapshot(io);
    io.expect(openRow_.size(), 8);
    io.each(openRow_);
    io.f64(tokens_);
    io.u64(now_);
    io.u64(rowHits_);
    io.u64(rowMisses_);
    io.u64(wordsTransferred_);
    io.u64(seqWords_);
    io.u64(randomWords_);
}

} // namespace isrf
