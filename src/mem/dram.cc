#include "mem/dram.h"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>

#include "sim/trace.h"
#include "util/log.h"

namespace isrf {

void
DramUnmap::operator()(Word *p) const
{
    munmap(p, bytes);
}

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
    // Unmap the old storage before mapping the new: never hold both.
    mem_.reset();
    words_ = cfg.capacityWords;
    if (words_ > SIZE_MAX / sizeof(Word))
        fatal("Dram: capacity of %llu words is not addressable",
              static_cast<unsigned long long>(words_));
    if (words_ != 0) {
        size_t bytes = words_ * sizeof(Word);
        void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
        if (p == MAP_FAILED)
            fatal("Dram: cannot map %llu words",
                  static_cast<unsigned long long>(words_));
        mem_ = std::unique_ptr<Word[], DramUnmap>(static_cast<Word *>(p),
                                                  DramUnmap{bytes});
    }
    touched_.assign((pages() + 63) / 64, 0);
    ecc_.clear();
    openRow_.assign(cfg.banks, -1);
    tokens_ = 0;
    rowHits_ = 0;
    rowMisses_ = 0;
    trc_ = tracer;
    traceCh_ = trc_ ? trc_->channel("dram") : 0;
    resetStats();
}

uint64_t
Dram::touchedPages() const
{
    uint64_t n = 0;
    for (uint64_t bits : touched_)
        n += static_cast<uint64_t>(std::popcount(bits));
    return n;
}

void
Dram::markRange(uint64_t wordAddr, uint64_t n)
{
    if (n == 0)
        return;
    uint64_t last = (wordAddr + n - 1) >> kPageShift;
    for (uint64_t page = wordAddr >> kPageShift; page <= last; page++)
        markTouched(page << kPageShift);
}

Word
Dram::read(uint64_t wordAddr) const
{
    if (wordAddr >= words_)
        panic("Dram::read: address %llu out of range",
              static_cast<unsigned long long>(wordAddr));
    // Scrub-on-read: single-bit faults are corrected in place
    // (logically const), multi-bit faults stay visible as corrupt data.
    if (!ecc_.empty() &&
        ecc_.check(wordAddr, &mem_[wordAddr]) != EccStatus::Clean)
        markTouched(wordAddr);
    return mem_[wordAddr];
}

Word
Dram::readChecked(uint64_t wordAddr, EccStatus *status)
{
    if (wordAddr >= words_)
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
    if (*status != EccStatus::Clean)
        markTouched(wordAddr);
    return *status == EccStatus::Uncorrectable ? observed
                                               : mem_[wordAddr];
}

void
Dram::write(uint64_t wordAddr, Word w)
{
    if (wordAddr >= words_)
        panic("Dram::write: address %llu out of range",
              static_cast<unsigned long long>(wordAddr));
    if (!ecc_.empty())
        ecc_.onWrite(wordAddr);
    markTouched(wordAddr);
    mem_[wordAddr] = w;
}

void
Dram::fill(uint64_t wordAddr, const std::vector<Word> &data)
{
    if (wordAddr + data.size() > words_)
        panic("Dram::fill: range out of bounds");
    ecc_.onWriteRange(wordAddr, data.size());
    markRange(wordAddr, data.size());
    std::copy(data.begin(), data.end(), mem_.get() + wordAddr);
}

std::vector<Word>
Dram::dump(uint64_t wordAddr, uint64_t n) const
{
    if (wordAddr + n > words_)
        panic("Dram::dump: range out of bounds");
    if (!ecc_.empty()) {
        // Route through the decoder so validation sees corrected data.
        std::vector<Word> out;
        out.reserve(n);
        for (uint64_t i = 0; i < n; i++)
            out.push_back(read(wordAddr + i));
        return out;
    }
    return std::vector<Word>(mem_.get() + wordAddr,
                             mem_.get() + wordAddr + n);
}

void
Dram::injectBitFlips(uint64_t wordAddr, Word mask, bool transient)
{
    if (wordAddr >= words_)
        panic("Dram::injectBitFlips: address %llu out of range",
              static_cast<unsigned long long>(wordAddr));
    markTouched(wordAddr);
    ecc_.inject(wordAddr, mask, transient, &mem_[wordAddr]);
}

uint64_t
Dram::scrubEcc()
{
    if (ecc_.empty())
        return 0;
    return ecc_.scrub([this](uint64_t addr) {
        markTouched(addr);
        return &mem_[addr];
    });
}

void
Dram::tick()
{
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
Dram::tryAccessWord(uint64_t addr, Cycle now)
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
            trc_->instant(traceCh_, "row_miss", now, bank);
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
    io.expect(words_, 0);
    // Storage as the touched pages, ascending: u64 n, then n x
    // {u64 page, raw words}. A load first zeroes the pages touched
    // before it and clears the map, then rejects a page index that is
    // out of range or not ascending before copying the page.
    uint64_t npages = touchedPages();
    io.len(npages, 8 + sizeof(Word));
    if (io.loading()) {
        for (uint64_t page = 0; page < pages(); page++)
            if (pageTouched(page))
                std::memset(mem_.get() + (page << kPageShift), 0,
                            pageWords(page) * sizeof(Word));
        std::fill(touched_.begin(), touched_.end(), 0);
    }
    uint64_t next = 0;  // lowest page index the next entry may have
    for (uint64_t i = 0; i < npages && io.ok(); i++) {
        uint64_t page = next;
        while (io.saving() && !pageTouched(page))
            page++;
        io.u64(page);
        if (!io.require(page >= next && page < pages()))
            break;
        io.bytes(mem_.get() + (page << kPageShift),
                 pageWords(page) * sizeof(Word));
        if (io.ok())
            markTouched(page << kPageShift);
        next = page + 1;
    }
    ecc_.snapshot(io);
    io.expect(openRow_.size(), 8);
    io.each(openRow_);
    io.f64(tokens_);
    io.u64(rowHits_);
    io.u64(rowMisses_);
    io.u64(wordsTransferred_);
    io.u64(seqWords_);
    io.u64(randomWords_);
}

} // namespace isrf
