#include "srf/srf_bank.h"

#include "util/log.h"

namespace isrf {

void
SrfBank::init(const SrfGeometry &geom, uint32_t laneId)
{
    geom_ = geom;
    laneId_ = laneId;
    remoteDepth_ = geom.remoteQueueDepth;
    words_.assign(geom.laneWords, 0);
    subArrays_.assign(geom.subArrays, SubArray());
    remoteQueue_.clear();
    portsDirty_ = true;  // fresh sub-arrays: force one clean reset
    ecc_.clear();
    offline_.assign(geom.subArrays, 0);
    subUncorrectable_.assign(geom.subArrays, 0);
    onlineCount_ = geom.subArrays;
}

void
SrfBank::newCycle()
{
    // Sub-array ports only become busy through the claim calls below;
    // with none since the last reset every port is already free.
    if (!portsDirty_)
        return;
    for (auto &sa : subArrays_)
        sa.newCycle();
    portsDirty_ = false;
}

Word
SrfBank::read(uint32_t addr) const
{
    if (addr >= words_.size())
        panic("SrfBank[%u]::read: address %u out of range (%zu words)",
              laneId_, addr, words_.size());
    if (ecc_.empty())
        return words_[addr];
    // SECDED decode on every read: single-bit faults are corrected and
    // scrubbed back into storage (logically const); multi-bit faults
    // are detected, counted against the owning sub-array, and the read
    // observes the corrupted word.
    Word observed = words_[addr];
    EccStatus st = ecc_.check(addr, &words_[addr]);
    if (st != EccStatus::Uncorrectable)
        return words_[addr];
    uint32_t sub = geom_.subArrayOf(addr);
    subUncorrectable_[sub]++;
    if (degradeThreshold_ && !offline_[sub] &&
            subUncorrectable_[sub] >= degradeThreshold_ &&
            onlineCount_ > 1) {
        offline_[sub] = 1;
        onlineCount_--;
        ISRF_WARN("SRF bank %u: sub-array %u offline after %u "
                  "uncorrectable errors (%u/%u remain online)",
                  laneId_, sub, subUncorrectable_[sub], onlineCount_,
                  geom_.subArrays);
    }
    return observed;
}

void
SrfBank::write(uint32_t addr, Word w)
{
    if (addr >= words_.size())
        panic("SrfBank[%u]::write: address %u out of range (%zu words)",
              laneId_, addr, words_.size());
    if (!ecc_.empty())
        ecc_.onWrite(addr);
    words_[addr] = w;
}

bool
SrfBank::claimSequentialRow(uint32_t addr)
{
    if (addr % geom_.seqWidth != 0)
        panic("SrfBank[%u]: unaligned sequential row address %u", laneId_,
              addr);
    portsDirty_ = true;
    return subArrays_[portFor(addr)].claimSequential();
}

bool
SrfBank::claimIndexedWord(uint32_t addr)
{
    if (addr >= words_.size())
        panic("SrfBank[%u]: indexed address %u out of range", laneId_, addr);
    portsDirty_ = true;
    return subArrays_[portFor(addr)].claimIndexed();
}

uint32_t
SrfBank::portFor(uint32_t addr) const
{
    uint32_t sub = geom_.subArrayOf(addr);
    if (onlineCount_ == geom_.subArrays || !offline_[sub])
        return sub;
    for (uint32_t k = 1; k < geom_.subArrays; k++) {
        uint32_t cand = (sub + k) % geom_.subArrays;
        if (!offline_[cand])
            return cand;
    }
    return sub;  // unreachable: at least one sub-array stays online
}

void
SrfBank::injectBitFlips(uint32_t addr, Word mask, bool transient)
{
    if (addr >= words_.size())
        panic("SrfBank[%u]::injectBitFlips: address %u out of range",
              laneId_, addr);
    ecc_.inject(addr, mask, transient, &words_[addr]);
}

void
SrfBank::setSubArrayOffline(uint32_t sub, bool offline)
{
    if (sub >= geom_.subArrays)
        panic("SrfBank[%u]: bad sub-array %u", laneId_, sub);
    if (offline && !offline_[sub] && onlineCount_ <= 1)
        panic("SrfBank[%u]: cannot take the last online sub-array "
              "offline", laneId_);
    if (offline != (offline_[sub] != 0)) {
        offline_[sub] = offline ? 1 : 0;
        onlineCount_ += offline ? -1 : 1;
    }
}

uint32_t
SrfBank::offlineSubArrays() const
{
    return geom_.subArrays - onlineCount_;
}

uint64_t
SrfBank::scrubEcc()
{
    if (ecc_.empty())
        return 0;
    return ecc_.scrub([this](uint64_t addr) { return &words_[addr]; });
}

uint64_t
SrfBank::sequentialAccesses() const
{
    uint64_t n = 0;
    for (const auto &sa : subArrays_)
        n += sa.sequentialAccesses();
    return n;
}

uint64_t
SrfBank::indexedAccesses() const
{
    uint64_t n = 0;
    for (const auto &sa : subArrays_)
        n += sa.indexedAccesses();
    return n;
}

uint64_t
SrfBank::subArrayConflicts() const
{
    uint64_t n = 0;
    for (const auto &sa : subArrays_)
        n += sa.conflicts();
    return n;
}

void
SrfBank::snapshot(SnapshotIo &io)
{
    // Storage size is fixed at init().
    io.expect(words_.size(), sizeof(Word));
    io.bytes(words_.data(), words_.size() * sizeof(Word));
    io.seq(remoteQueue_, 38, [&](RemoteRequest &rq) {
        io.u32(rq.sourceLane);
        io.asU32(rq.slot);
        io.u32(rq.laneAddr);
        io.u64(rq.seqNo);
        io.u32(rq.wordOffset);
        io.u64(rq.issueCycle);
        io.u64(rq.arrival);
        io.b(rq.isWrite);
        io.u32(rq.writeData);
    });
    ecc_.snapshot(io);
    io.expect(offline_.size(), 1);
    for (uint8_t &off : offline_)
        io.u8(off);
    io.each(subUncorrectable_);
    io.expect(subArrays_.size(), 24);
    for (SubArray &sa : subArrays_)
        sa.snapshot(io);
    if (!io.loading())
        return;
    onlineCount_ = 0;
    for (uint8_t off : offline_)
        if (!off)
            onlineCount_++;
    portsDirty_ = false;
}

} // namespace isrf
