#include "srf/srf.h"

#include <algorithm>

#include "sim/trace.h"
#include "util/log.h"

namespace isrf {

void
Srf::init(const SrfGeometry &geom, SrfMode mode, Crossbar *dataNet,
          Tracer *tracer)
{
    trc_ = tracer;
    // Backstop only: MachineConfig::validate() reports this collect-all
    // style before any machine is built. Direct init() callers (tests,
    // benches) bypass validate(), and serviceSeqSlot's row buffer is 8
    // words — wider would be silent stack corruption.
    if (geom.seqWidth > 8)
        panic("Srf: seqWidth %u > 8 unsupported (rejected by "
              "MachineConfig::validate)", geom.seqWidth);
    geom_ = geom;
    mode_ = mode;
    dataNet_ = dataNet;
    indexNet_.init(geom.lanes, 1, geom.netPortsPerBank,
                   geom.netTopology);
    banks_.assign(geom.lanes, SrfBank());
    for (uint32_t l = 0; l < geom.lanes; l++)
        banks_[l].init(geom, l);
    slots_.assign(geom.maxStreamSlots, Slot());
    returnQueues_.assign(geom.lanes, {});
    memClaims_.clear();
    // Fresh arbiter (not resize()): a re-init must also reset the
    // priority pointer, or a rebuilt Machine would arbitrate
    // differently from a fresh one.
    globalArb_ = RoundRobinArbiter(geom.maxStreamSlots + 1);
    laneIdxRr_.assign(geom.lanes, 0);
    crossRouteRr_ = 0;
    seqClaimMask_ = 0;
    inLaneIdxOpenMask_ = 0;
    crossIdxOpenMask_ = 0;
    inLaneFifoEntries_ = 0;
    crossFifoEntries_ = 0;
    remoteEntries_ = 0;
    returnEntries_ = 0;
    stats_.resetAll();
    // Cached counter pointers stay valid across resetAll() (map nodes
    // are stable), but re-arming them keeps a freshly constructed Srf
    // and a re-initialized one on the identical lazy-registration path.
    portIdleC_ = nullptr;
    seqGrantC_ = nullptr;
    idxGrantC_ = nullptr;
    dmaGrantC_ = nullptr;
    crossRoutedC_ = nullptr;
    idxReadsC_ = nullptr;
    idxWritesC_ = nullptr;
    seqWords_ = 0;
    idxInLaneWords_ = 0;
    idxCrossWords_ = 0;
    traceCh_ = trc_ ? trc_->channel("srf") : 0;
    // Conflict degree caps at the per-cycle indexed access attempts:
    // lanes x sub-arrays is a generous upper bound for the range.
    conflictHist_ = &stats_.histogram("idx_conflict_degree", 0,
        static_cast<double>(geom.lanes * geom.subArrays),
        geom.lanes * geom.subArrays);
}

// ----------------------------------------------------------------------
// Slot management
// ----------------------------------------------------------------------

SlotId
Srf::openSlot(const SlotConfig &cfg)
{
    if (cfg.indexed && mode_ == SrfMode::SequentialOnly)
        panic("Srf: indexed slot requested on a sequential-only SRF");
    if (cfg.indexed && cfg.crossLane && cfg.dir == StreamDir::Out)
        panic("Srf: cross-lane indexed write streams are unsupported "
              "(paper §4.7)");
    if (cfg.recordWords == 0 || cfg.recordWords > 4)
        panic("Srf: record size %u words unsupported", cfg.recordWords);
    for (SlotId id = 0; id < static_cast<SlotId>(slots_.size()); id++) {
        if (slots_[id].open)
            continue;
        Slot &s = slots_[id];
        s.open = true;
        s.flushing = false;
        s.cfg = cfg;
        s.lanes.assign(geom_.lanes, LaneSlotState());
        for (auto &ls : s.lanes) {
            ls.seq.configure(geom_.streamBufWords);
            ls.fifo.configure(geom_.addrFifoSize, cfg.recordWords);
            ls.idata.configure(geom_.addrFifoSize +
                std::max<uint32_t>(1,
                    geom_.streamBufWords / cfg.recordWords));
        }
        stats_.counter("slots_opened").inc();
        recomputeIdxOpenMasks();
        recomputeSeqClaim(id);
        return id;
    }
    panic("Srf: out of stream slots (%u)", geom_.maxStreamSlots);
}

void
Srf::closeSlot(SlotId slot)
{
    Slot &s = slotRef(slot);
    uncountSlotFifos(s);
    s.open = false;
    s.lanes.clear();
    seqClaimMask_ &= ~(uint64_t{1} << slot);
    recomputeIdxOpenMasks();
}

void
Srf::rewindSlot(SlotId slot)
{
    Slot &s = slotRef(slot);
    uncountSlotFifos(s);
    s.flushing = false;
    for (auto &ls : s.lanes) {
        ls.seq.clear();
        ls.fifo.clear();
        ls.idata.clear();
        ls.readRow = 0;
        ls.writeRow = 0;
        ls.srfWordsRead = 0;
        ls.srfWordsWritten = 0;
        ls.nextSeqNo = 0;
        ls.pendingWrites = 0;
    }
    recomputeSeqClaim(slot);
}

void
Srf::configureSlotBinding(SlotId slot, StreamDir dir, bool indexed,
                          bool crossLane, bool readWrite)
{
    Slot &s = slotRef(slot);
    if (indexed && mode_ == SrfMode::SequentialOnly)
        panic("Srf: indexed binding requested on a sequential-only SRF");
    if (indexed && crossLane && (dir == StreamDir::Out || readWrite))
        panic("Srf: cross-lane indexed write streams are unsupported "
              "(paper §4.7)");
    if (readWrite && !indexed)
        panic("Srf: read-write bindings require an indexed stream");
    // Rewind under the *old* binding first: it un-counts the slot's
    // address-FIFO entries, which are categorized by the current
    // crossLane flag.
    rewindSlot(slot);
    s.cfg.dir = dir;
    s.cfg.indexed = indexed;
    s.cfg.crossLane = crossLane;
    s.cfg.readWrite = readWrite;
    recomputeIdxOpenMasks();
    recomputeSeqClaim(slot);
}

void
Srf::flushSlot(SlotId slot)
{
    slotRef(slot).flushing = true;
    recomputeSeqClaim(slot);
}

bool
Srf::flushComplete(SlotId slot) const
{
    const Slot &s = slotRef(slot);
    for (const auto &ls : s.lanes)
        if (!ls.seq.empty())
            return false;
    return true;
}

const SlotConfig &
Srf::slotConfig(SlotId slot) const
{
    return slotRef(slot).cfg;
}

uint64_t
Srf::wordsWritten(SlotId slot) const
{
    const Slot &s = slotRef(slot);
    uint64_t n = 0;
    for (const auto &ls : s.lanes)
        n += ls.srfWordsWritten;
    return n;
}

const Srf::Slot &
Srf::slotRef(SlotId slot) const
{
    if (slot < 0 || static_cast<size_t>(slot) >= slots_.size() ||
            !slots_[slot].open)
        panic("Srf: bad slot id %d", slot);
    return slots_[slot];
}

Srf::Slot &
Srf::slotRef(SlotId slot)
{
    return const_cast<Slot &>(
        static_cast<const Srf *>(this)->slotRef(slot));
}

// ----------------------------------------------------------------------
// Address mapping
// ----------------------------------------------------------------------

uint64_t
Srf::laneStreamWords(const Slot &s, uint32_t lane) const
{
    const SlotConfig &c = s.cfg;
    if (c.layout == StreamLayout::PerLane) {
        if (!c.perLaneLen.empty())
            return c.perLaneLen[lane];
        return c.lengthWords;
    }
    // Striped: lane owns global m-word blocks b with b % N == lane.
    uint64_t total = c.lengthWords;
    uint64_t m = geom_.seqWidth;
    uint64_t fullBlocks = total / m;
    uint64_t words = (fullBlocks / geom_.lanes) * m;
    uint64_t extraBlocks = fullBlocks % geom_.lanes;
    if (lane < extraBlocks)
        words += m;
    uint64_t tail = total % m;
    if (tail && fullBlocks % geom_.lanes == lane)
        words += tail;
    return words;
}

uint32_t
Srf::laneRowAddr(const Slot &s, uint32_t row) const
{
    return s.cfg.base + row * geom_.seqWidth;
}

std::pair<uint32_t, uint32_t>
Srf::stripedLocation(uint32_t base, uint64_t wordIndex) const
{
    uint64_t block = wordIndex / geom_.seqWidth;
    uint32_t lane = static_cast<uint32_t>(block % geom_.lanes);
    uint32_t row = static_cast<uint32_t>(block / geom_.lanes);
    uint32_t laneAddr = base + row * geom_.seqWidth +
        static_cast<uint32_t>(wordIndex % geom_.seqWidth);
    return {lane, laneAddr};
}

std::pair<uint32_t, uint32_t>
Srf::slotWordLocation(SlotId slot, uint64_t wordIndex) const
{
    const Slot &s = slotRef(slot);
    if (s.cfg.layout == StreamLayout::Striped)
        return stripedLocation(s.cfg.base, wordIndex);
    uint64_t remaining = wordIndex;
    for (uint32_t l = 0; l < geom_.lanes; l++) {
        uint64_t n = laneStreamWords(s, l);
        if (remaining < n)
            return {l, s.cfg.base + static_cast<uint32_t>(remaining)};
        remaining -= n;
    }
    panic("Srf::slotWordLocation: word index %llu beyond slot %d",
          static_cast<unsigned long long>(wordIndex), slot);
}

uint64_t
Srf::slotTotalWords(SlotId slot) const
{
    const Slot &s = slotRef(slot);
    if (s.cfg.layout == StreamLayout::Striped)
        return s.cfg.lengthWords;
    uint64_t n = 0;
    for (uint32_t l = 0; l < geom_.lanes; l++)
        n += laneStreamWords(s, l);
    return n;
}

std::pair<uint32_t, uint32_t>
Srf::idxLocation(const Slot &s, uint32_t lane, uint32_t wordIndex) const
{
    if (s.cfg.crossLane)
        return stripedLocation(s.cfg.base, wordIndex);
    return {lane, s.cfg.base + wordIndex};
}

// ----------------------------------------------------------------------
// Cluster-side sequential access
// ----------------------------------------------------------------------

bool
Srf::seqCanRead(uint32_t lane, SlotId slot) const
{
    return slotRef(slot).lanes[lane].seq.canPop();
}

Word
Srf::seqRead(uint32_t lane, SlotId slot)
{
    Slot &s = slotRef(slot);
    LaneSlotState &ls = s.lanes[lane];
    if (!ls.seq.canPop())
        panic("Srf: seqRead from empty buffer (lane %u slot %d)", lane,
              slot);
    seqWords_++;
    Word w = ls.seq.pop();
    // Claim-mask maintenance: popping grows an input buffer's free
    // space, so this lane's refill claim can only turn ON — other
    // lanes are untouched. An output slot's drain claim can turn off.
    const uint64_t bit = uint64_t{1} << slot;
    if (s.cfg.dir == StreamDir::In) {
        if (!(seqClaimMask_ & bit) && laneWantsSeqPort(s, lane))
            seqClaimMask_ |= bit;
    } else if (seqClaimMask_ & bit) {
        recomputeSeqClaim(slot);
    }
    return w;
}

bool
Srf::seqCanWrite(uint32_t lane, SlotId slot) const
{
    return slotRef(slot).lanes[lane].seq.canPush();
}

void
Srf::seqWrite(uint32_t lane, SlotId slot, Word w)
{
    Slot &s = slotRef(slot);
    LaneSlotState &ls = s.lanes[lane];
    if (!ls.seq.canPush())
        panic("Srf: seqWrite to full buffer (lane %u slot %d)", lane, slot);
    seqWords_++;
    ls.seq.push(w);
    // Pushing fills the buffer: an output slot's drain claim can only
    // turn ON for this lane; an input slot's refill claim can turn off.
    const uint64_t bit = uint64_t{1} << slot;
    if (s.cfg.dir == StreamDir::Out) {
        if (!(seqClaimMask_ & bit) && laneWantsSeqPort(s, lane))
            seqClaimMask_ |= bit;
    } else if (seqClaimMask_ & bit) {
        recomputeSeqClaim(slot);
    }
}

uint64_t
Srf::seqWordsRemaining(uint32_t lane, SlotId slot) const
{
    const Slot &s = slotRef(slot);
    const LaneSlotState &ls = s.lanes[lane];
    uint64_t total = laneStreamWords(s, lane);
    uint64_t inStorage = total > ls.srfWordsRead
        ? total - ls.srfWordsRead : 0;
    return inStorage + ls.seq.size();
}

uint32_t
Srf::seqBuffered(uint32_t lane, SlotId slot) const
{
    return static_cast<uint32_t>(slotRef(slot).lanes[lane].seq.size());
}

uint32_t
Srf::seqSpace(uint32_t lane, SlotId slot) const
{
    return slotRef(slot).lanes[lane].seq.freeSpace();
}

uint32_t
Srf::idxIssueSpace(uint32_t lane, SlotId slot) const
{
    const Slot &s = slotRef(slot);
    const LaneSlotState &ls = s.lanes[lane];
    auto fifoFree = static_cast<uint32_t>(
        geom_.addrFifoSize > ls.fifo.size()
            ? geom_.addrFifoSize - ls.fifo.size() : 0);
    if (s.cfg.dir == StreamDir::Out)
        return fifoFree;
    uint32_t dataCap = geom_.addrFifoSize +
        std::max<uint32_t>(1, geom_.streamBufWords / s.cfg.recordWords);
    uint32_t dataFree = dataCap > ls.idata.size()
        ? dataCap - static_cast<uint32_t>(ls.idata.size()) : 0;
    return std::min(fifoFree, dataFree);
}

bool
Srf::seqStarved(uint32_t lane, SlotId slot) const
{
    const Slot &s = slotRef(slot);
    const LaneSlotState &ls = s.lanes[lane];
    return ls.seq.empty() &&
        ls.srfWordsRead < laneStreamWords(s, lane);
}

// ----------------------------------------------------------------------
// Cluster-side indexed access
// ----------------------------------------------------------------------

bool
Srf::idxCanIssue(uint32_t lane, SlotId slot) const
{
    const Slot &s = slotRef(slot);
    const LaneSlotState &ls = s.lanes[lane];
    if (ls.fifo.full())
        return false;
    if (s.cfg.dir == StreamDir::In && ls.idata.full())
        return false;
    return true;
}

bool
Srf::idxIssueRead(uint32_t lane, SlotId slot, uint32_t recordIndex,
                  Cycle now)
{
    Slot &s = slotRef(slot);
    LaneSlotState &ls = s.lanes[lane];
    if (!s.cfg.indexed || (s.cfg.dir != StreamDir::In && !s.cfg.readWrite))
        panic("Srf: idxIssueRead on non-indexed-input slot %d", slot);
    if (ls.fifo.full() || ls.idata.full())
        return false;
    uint64_t seqNo = ls.nextSeqNo++;
    ls.fifo.push(recordIndex, seqNo, now);
    ls.idata.registerRequest(seqNo, s.cfg.recordWords);
    if (s.cfg.crossLane)
        crossFifoEntries_++;
    else
        inLaneFifoEntries_++;
    lazyCounter(idxReadsC_, "idx_reads_issued").inc();
    return true;
}

bool
Srf::idxIssueWrite(uint32_t lane, SlotId slot, uint32_t recordIndex,
                   const Word *data, Cycle now)
{
    Slot &s = slotRef(slot);
    LaneSlotState &ls = s.lanes[lane];
    if (!s.cfg.indexed ||
            (s.cfg.dir != StreamDir::Out && !s.cfg.readWrite))
        panic("Srf: idxIssueWrite on non-indexed-output slot %d", slot);
    if (s.cfg.crossLane)
        panic("Srf: cross-lane indexed writes unsupported");
    if (ls.fifo.full())
        return false;
    uint64_t seqNo = ls.nextSeqNo++;
    ls.fifo.push(recordIndex, seqNo, now, data, s.cfg.recordWords);
    ls.pendingWrites++;
    inLaneFifoEntries_++;  // cross-lane writes are rejected above
    lazyCounter(idxWritesC_, "idx_writes_issued").inc();
    return true;
}

bool
Srf::idxDataReady(uint32_t lane, SlotId slot, Cycle now) const
{
    return slotRef(slot).lanes[lane].idata.headReady(now);
}

uint32_t
Srf::idxDataPop(uint32_t lane, SlotId slot, Word *out)
{
    return slotRef(slot).lanes[lane].idata.popHead(out);
}

size_t
Srf::idxOutstanding(uint32_t lane, SlotId slot) const
{
    const LaneSlotState &ls = slotRef(slot).lanes[lane];
    return ls.fifo.size() + ls.idata.size() + ls.pendingWrites;
}

bool
Srf::idxWritesDrained(SlotId slot) const
{
    const Slot &s = slotRef(slot);
    for (const auto &ls : s.lanes)
        if (ls.pendingWrites > 0)
            return false;
    return true;
}

// ----------------------------------------------------------------------
// Memory DMA
// ----------------------------------------------------------------------

void
Srf::memClaim(SlotId slot, std::function<void()> onGrant)
{
    memClaims_.push_back({slot, std::move(onGrant)});
}

// ----------------------------------------------------------------------
// Functional storage access
// ----------------------------------------------------------------------

Word
Srf::readWord(uint32_t lane, uint32_t laneAddr) const
{
    return banks_[lane].read(laneAddr);
}

void
Srf::writeWord(uint32_t lane, uint32_t laneAddr, Word w)
{
    banks_[lane].write(laneAddr, w);
}

std::vector<Word>
Srf::dumpSlot(SlotId slot) const
{
    const Slot &s = slotRef(slot);
    std::vector<Word> out;
    if (s.cfg.layout == StreamLayout::Striped) {
        out.reserve(s.cfg.lengthWords);
        for (uint64_t w = 0; w < s.cfg.lengthWords; w++) {
            auto [lane, addr] = stripedLocation(s.cfg.base, w);
            out.push_back(banks_[lane].read(addr));
        }
    } else {
        for (uint32_t l = 0; l < geom_.lanes; l++) {
            uint64_t n = laneStreamWords(s, l);
            for (uint64_t w = 0; w < n; w++) {
                out.push_back(banks_[l].read(
                    s.cfg.base + static_cast<uint32_t>(w)));
            }
        }
    }
    return out;
}

void
Srf::fillSlot(SlotId slot, const std::vector<Word> &data)
{
    const Slot &s = slotRef(slot);
    if (s.cfg.layout == StreamLayout::Striped) {
        for (uint64_t w = 0; w < data.size(); w++) {
            auto [lane, addr] = stripedLocation(s.cfg.base, w);
            banks_[lane].write(addr, data[w]);
        }
    } else {
        size_t pos = 0;
        for (uint32_t l = 0; l < geom_.lanes; l++) {
            uint64_t n = laneStreamWords(s, l);
            for (uint64_t w = 0; w < n && pos < data.size(); w++)
                banks_[l].write(s.cfg.base + static_cast<uint32_t>(w),
                                data[pos++]);
        }
    }
}

// ----------------------------------------------------------------------
// Cycle protocol
// ----------------------------------------------------------------------

void
Srf::beginCycle(Cycle)
{
    for (auto &b : banks_)
        b.newCycle();
    indexNet_.newCycle();
    memClaims_.clear();
}

bool
Srf::laneWantsSeqPort(const Slot &s, uint32_t lane) const
{
    if (!s.open || s.cfg.indexed)
        return false;
    const LaneSlotState &ls = s.lanes[lane];
    if (s.cfg.dir == StreamDir::In) {
        uint64_t remaining = laneStreamWords(s, lane) - ls.srfWordsRead;
        return remaining > 0 && ls.seq.freeSpace() >= geom_.seqWidth;
    }
    return ls.seq.size() >= geom_.seqWidth ||
        (s.flushing && !ls.seq.empty());
}

bool
Srf::slotWantsSeqPort(SlotId id) const
{
    const Slot &s = slots_[id];
    if (!s.open || s.cfg.indexed)
        return false;
    for (uint32_t l = 0; l < geom_.lanes; l++)
        if (laneWantsSeqPort(s, l))
            return true;
    return false;
}

void
Srf::recomputeSeqClaim(SlotId id)
{
    const uint64_t bit = uint64_t{1} << id;
    if (slotWantsSeqPort(id))
        seqClaimMask_ |= bit;
    else
        seqClaimMask_ &= ~bit;
}

void
Srf::recomputeIdxOpenMasks()
{
    inLaneIdxOpenMask_ = 0;
    crossIdxOpenMask_ = 0;
    for (SlotId id = 0; id < static_cast<SlotId>(slots_.size()); id++) {
        const Slot &s = slots_[id];
        if (!s.open || !s.cfg.indexed)
            continue;
        if (s.cfg.crossLane)
            crossIdxOpenMask_ |= uint64_t{1} << id;
        else
            inLaneIdxOpenMask_ |= uint64_t{1} << id;
    }
}

void
Srf::uncountSlotFifos(const Slot &s)
{
    if (!s.cfg.indexed || s.lanes.empty())
        return;
    uint64_t n = 0;
    for (const auto &ls : s.lanes)
        n += ls.fifo.size();
    if (s.cfg.crossLane)
        crossFifoEntries_ -= n;
    else
        inLaneFifoEntries_ -= n;
}

void
Srf::serviceSeqSlot(SlotId id)
{
    Slot &s = slots_[id];
    const uint32_t m = geom_.seqWidth;
    for (uint32_t l = 0; l < geom_.lanes; l++) {
        LaneSlotState &ls = s.lanes[l];
        if (s.cfg.dir == StreamDir::In) {
            uint64_t total = laneStreamWords(s, l);
            uint64_t remaining = total > ls.srfWordsRead
                ? total - ls.srfWordsRead : 0;
            if (remaining == 0 || ls.seq.freeSpace() < m)
                continue;
            uint32_t k = static_cast<uint32_t>(
                std::min<uint64_t>(m, remaining));
            uint32_t rowAddr = laneRowAddr(s, ls.readRow);
            banks_[l].claimSequentialRow(rowAddr);
            Word block[8];
            for (uint32_t i = 0; i < k; i++)
                block[i] = banks_[l].read(rowAddr + i);
            ls.seq.refill(block, k);
            ls.srfWordsRead += k;
            ls.readRow++;
        } else {
            bool want = ls.seq.size() >= m ||
                (s.flushing && !ls.seq.empty());
            if (!want)
                continue;
            uint32_t rowAddr = laneRowAddr(s, ls.writeRow);
            banks_[l].claimSequentialRow(rowAddr);
            Word block[8];
            uint32_t k = ls.seq.drain(block, m);
            for (uint32_t i = 0; i < k; i++)
                banks_[l].write(rowAddr + i, block[i]);
            ls.srfWordsWritten += k;
            ls.writeRow++;
        }
    }
    recomputeSeqClaim(id);
    lazyCounter(seqGrantC_, "seq_grant_cycles").inc();
}

void
Srf::routeCrossLane(Cycle now)
{
    // The dedicated SRF address network (Figure 8(c)) routes one index
    // per source lane per cycle toward the owning bank, bounded by the
    // bank's network ports and remote queue space. The round-robin
    // visits only open cross-lane slots: the mask split at the rotation
    // pointer preserves the exact (crossRouteRr_ + k) % nSlots order of
    // a full-slot scan with the non-cross slots skipped.
    const uint64_t hi =
        crossIdxOpenMask_ & ~((uint64_t{1} << crossRouteRr_) - 1);
    const uint64_t lo = crossIdxOpenMask_ & ~hi;
    for (uint32_t l = 0; l < geom_.lanes; l++) {
        bool laneDone = false;
        for (uint64_t part : {hi, lo}) {
            for (uint64_t m = part; m != 0 && !laneDone; m &= m - 1) {
                SlotId id = static_cast<SlotId>(__builtin_ctzll(m));
                Slot &s = slots_[id];
                LaneSlotState &ls = s.lanes[l];
                if (ls.fifo.empty())
                    continue;
                uint32_t wordIndex = ls.fifo.headWordIndex();
                auto [bank, addr] = idxLocation(s, l, wordIndex);
                if (banks_[bank].remoteQueueFull()) {
                    laneDone = true;  // head blocks: lane stalls
                    break;
                }
                if (!indexNet_.tryTransfer(l, bank)) {
                    laneDone = true;  // no network port left this cycle
                    break;
                }
                RemoteRequest r;
                r.sourceLane = l;
                r.slot = id;
                r.laneAddr = addr;
                r.seqNo = ls.fifo.head().seqNo;
                r.wordOffset = ls.fifo.head().wordsIssued;
                r.issueCycle = ls.fifo.head().issueCycle;
                r.arrival = now + 1 + indexNet_.extraLatency(l, bank);
                r.isWrite = false;
                r.writeData = 0;
                banks_[bank].pushRemote(r);
                remoteEntries_++;
                size_t before = ls.fifo.size();
                ls.fifo.advanceHead();
                if (ls.fifo.size() < before)
                    crossFifoEntries_--;
                lazyCounter(crossRoutedC_, "cross_indices_routed").inc();
                laneDone = true;  // one injection per lane per cycle
            }
            if (laneDone)
                break;
        }
    }
    crossRouteRr_ = (crossRouteRr_ + 1) %
        static_cast<uint32_t>(slots_.size());
    (void)now;
}

void
Srf::serviceIndexed(Cycle now)
{
    lazyCounter(idxGrantC_, "idx_grant_cycles").inc();
    const uint64_t conflicts0 = subArrayConflicts();
    const uint32_t budgetMax = geom_.indexedPerBank(mode_);
    const uint32_t nSlots = static_cast<uint32_t>(slots_.size());
    for (uint32_t l = 0; l < geom_.lanes; l++) {
        uint32_t budget = budgetMax;
        // Remote (cross-lane) requests first: bounded additionally by
        // the bank's return-network ports so the return queue stays
        // small.
        uint32_t remoteBudget =
            std::min(budget, geom_.netPortsPerBank);
        while (remoteBudget > 0 && banks_[l].hasRemote() && budget > 0) {
            RemoteRequest &r = banks_[l].remoteHead();
            if (r.arrival > now)
                break;  // index still in flight (ring hops)
            if (!banks_[l].claimIndexedWord(r.laneAddr))
                break;  // sub-array conflict: head blocks
            ReturnEntry ret;
            ret.data = banks_[l].read(r.laneAddr);
            ret.sourceLane = r.sourceLane;
            ret.slot = r.slot;
            ret.seqNo = r.seqNo;
            ret.wordOffset = r.wordOffset;
            ret.earliest = now + 1;
            ret.issueCycle = r.issueCycle;
            returnQueues_[l].push_back(ret);
            returnEntries_++;
            banks_[l].popRemote();
            remoteEntries_--;
            idxCrossWords_++;
            budget--;
            remoteBudget--;
        }
        // In-lane FIFO heads, rotating priority across the open
        // in-lane indexed slots; the mask split at this lane's rotation
        // pointer preserves the exact (laneIdxRr_ + k) % nSlots visit
        // order of a full-slot scan with the non-indexed slots skipped.
        const uint64_t hi = inLaneIdxOpenMask_ &
            ~((uint64_t{1} << laneIdxRr_[l]) - 1);
        const uint64_t lo = inLaneIdxOpenMask_ & ~hi;
        for (uint64_t part : {hi, lo}) {
            for (uint64_t m = part; m != 0 && budget > 0; m &= m - 1) {
                SlotId id = static_cast<SlotId>(__builtin_ctzll(m));
                Slot &s = slots_[id];
                LaneSlotState &ls = s.lanes[l];
                if (ls.fifo.empty())
                    continue;
                // Addresses become eligible the cycle after they enter
                // the FIFO (the FIFO is a pipeline stage, Figure 9).
                if (ls.fifo.head().issueCycle >= now)
                    continue;
                uint32_t wordIndex = ls.fifo.headWordIndex();
                auto [lane, addr] = idxLocation(s, l, wordIndex);
                if (!banks_[lane].claimIndexedWord(addr))
                    continue;  // conflict: this FIFO's head stalls
                if (!ls.fifo.head().isWrite) {
                    Word w = banks_[lane].read(addr);
                    Cycle ready = std::max(now + 2,
                        ls.fifo.head().issueCycle + geom_.inLaneLatency);
                    ls.idata.deliver(ls.fifo.head().seqNo,
                                     ls.fifo.head().wordsIssued, w,
                                     ready);
                } else {
                    banks_[lane].write(addr,
                        ls.fifo.head()
                            .writeData[ls.fifo.head().wordsIssued]);
                    if (ls.fifo.head().wordsIssued + 1 >=
                            s.cfg.recordWords)
                        ls.pendingWrites--;
                }
                size_t before = ls.fifo.size();
                ls.fifo.advanceHead();
                if (ls.fifo.size() < before)
                    inLaneFifoEntries_--;
                idxInLaneWords_++;
                budget--;
            }
            if (budget == 0)
                break;
        }
        laneIdxRr_[l] = (laneIdxRr_[l] + 1) % nSlots;
    }
    // Distribution of how many sub-array conflicts each indexed-access
    // cycle suffered (the Figure 15/17 throughput-loss mechanism).
    uint64_t degree = subArrayConflicts() - conflicts0;
    conflictHist_->sample(static_cast<double>(degree));
    if (trc_ && trc_->on() && degree > 0)
        trc_->instant(traceCh_, "idx_conflicts", now, degree);
}

void
Srf::progressReturns(Cycle now)
{
    // Returning cross-lane data rides the inter-cluster network with
    // lower priority than explicit communications (§4.5): clusters claim
    // their comm slots before endCycle() runs, so remaining capacity
    // serves these returns.
    if (!dataNet_)
        return;
    for (uint32_t b = 0; b < geom_.lanes; b++) {
        auto &q = returnQueues_[b];
        while (!q.empty()) {
            ReturnEntry &r = q.front();
            if (r.earliest > now)
                break;
            if (!dataNet_->tryTransfer(b, r.sourceLane))
                break;
            Slot &s = slots_[r.slot];
            if (s.open) {
                Cycle ready = std::max(
                    now + 2 + dataNet_->extraLatency(b, r.sourceLane),
                    r.issueCycle + geom_.crossLaneLatency);
                s.lanes[r.sourceLane].idata.deliver(
                    r.seqNo, r.wordOffset, r.data, ready);
            }
            q.pop_front();
            returnEntries_--;
        }
    }
}

void
Srf::endCycle(Cycle now)
{
    // Global two-stage arbitration (§4.4): stage one picks a single
    // sequential stream (or DMA transfer) or the indexed-access bundle;
    // stage two (per-lane) happens inside serviceIndexed(). Claims are
    // maintained at enqueue/dequeue time (DESIGN.md §15), so a fully
    // quiescent cycle costs an idle arbitration, an idle-counter bump
    // and the cross-route rotation — no slot scans.
    const uint32_t nSlots = geom_.maxStreamSlots;
    const bool idxWork = inLaneFifoEntries_ > 0 || remoteEntries_ > 0;
    uint64_t claims = seqClaimMask_;
    for (const auto &mc : memClaims_) {
        if (mc.slot >= 0 && mc.slot < static_cast<SlotId>(nSlots))
            claims |= uint64_t{1} << mc.slot;
    }
    if (mode_ != SrfMode::SequentialOnly && idxWork)
        claims |= uint64_t{1} << nSlots;

    // Stall-aware arbitration (SS5.4 ablation): indexed accesses take
    // the port outright when an address FIFO is close to overflowing.
    // The urgency scan covers cross-lane slots too, matching the claim
    // they raise through routed remote requests.
    bool idxUrgent = false;
    if (geom_.arbPolicy == ArbPolicy::IndexedPriority && idxWork) {
        uint32_t threshold = geom_.addrFifoSize -
            std::max(1u, geom_.addrFifoSize / 4);
        uint64_t open = inLaneIdxOpenMask_ | crossIdxOpenMask_;
        for (uint64_t m = open; m != 0 && !idxUrgent; m &= m - 1) {
            const Slot &s =
                slots_[static_cast<size_t>(__builtin_ctzll(m))];
            for (const auto &ls : s.lanes) {
                if (ls.fifo.size() >= threshold) {
                    idxUrgent = true;
                    break;
                }
            }
        }
    }

    int granted = idxUrgent ? static_cast<int>(nSlots)
                            : globalArb_.arbitrate(claims);
    if (granted == static_cast<int>(nSlots)) {
        if (trc_ && trc_->on())
            trc_->instant(traceCh_, "idx_grant", now,
                          idxUrgent ? 1 : 0);
        serviceIndexed(now);
    } else if (granted >= 0) {
        bool dmaServed = false;
        for (auto &mc : memClaims_) {
            if (mc.slot == granted) {
                mc.onGrant();
                dmaServed = true;
                lazyCounter(dmaGrantC_, "dma_grant_cycles").inc();
                break;
            }
        }
        if (trc_ && trc_->on())
            trc_->instant(traceCh_,
                dmaServed ? "dma_grant" : "seq_grant", now,
                static_cast<uint64_t>(granted));
        if (!dmaServed)
            serviceSeqSlot(granted);
    } else {
        lazyCounter(portIdleC_, "port_idle_cycles").inc();
    }

    // routeCrossLane rotates its round-robin pointer every cycle even
    // with nothing to route; only pay the full routing pass when a
    // cross-lane address FIFO actually holds entries.
    if (crossFifoEntries_ > 0)
        routeCrossLane(now);
    else
        crossRouteRr_ = (crossRouteRr_ + 1) %
            static_cast<uint32_t>(slots_.size());
    if (returnEntries_ > 0)
        progressReturns(now);
}

uint64_t
Srf::subArrayConflicts() const
{
    uint64_t n = 0;
    for (const auto &b : banks_)
        n += b.subArrayConflicts();
    return n;
}

uint32_t
Srf::maxRemoteQueueDepth() const
{
    size_t n = 0;
    for (const auto &b : banks_)
        n = std::max(n, b.remoteQueueSize());
    return static_cast<uint32_t>(n);
}

// ----------------------------------------------------------------------
// Fault model
// ----------------------------------------------------------------------

void
Srf::injectBitFlips(uint32_t lane, uint32_t laneAddr, Word mask,
                    bool transient)
{
    if (lane >= banks_.size())
        panic("Srf::injectBitFlips: bad lane %u", lane);
    banks_[lane].injectBitFlips(laneAddr, mask, transient);
}

void
Srf::setDegradeThreshold(uint32_t threshold)
{
    for (auto &b : banks_)
        b.setDegradeThreshold(threshold);
}

void
Srf::setSubArrayOffline(uint32_t lane, uint32_t sub, bool offline)
{
    if (lane >= banks_.size())
        panic("Srf::setSubArrayOffline: bad lane %u", lane);
    banks_[lane].setSubArrayOffline(sub, offline);
}

uint32_t
Srf::offlineSubArrays() const
{
    uint32_t n = 0;
    for (const auto &b : banks_)
        n += b.offlineSubArrays();
    return n;
}

uint64_t
Srf::scrubFaults()
{
    uint64_t repaired = 0;
    for (auto &b : banks_)
        repaired += b.scrubEcc();
    return repaired;
}

uint64_t
Srf::eccCorrected() const
{
    uint64_t n = 0;
    for (const auto &b : banks_)
        n += b.ecc().corrected();
    return n;
}

uint64_t
Srf::eccUncorrectable() const
{
    uint64_t n = 0;
    for (const auto &b : banks_)
        n += b.ecc().uncorrectable();
    return n;
}

uint64_t
Srf::faultsInjected() const
{
    uint64_t n = 0;
    for (const auto &b : banks_)
        n += b.ecc().faultsInjected();
    return n;
}

void
Srf::syncFaultStats()
{
    stats_.counter("ecc_corrected").set(eccCorrected());
    stats_.counter("ecc_detected_uncorrectable").set(eccUncorrectable());
    stats_.counter("faults_injected").set(faultsInjected());
    stats_.counter("degraded_subarrays").set(offlineSubArrays());
}

void
Srf::snapshot(SnapshotIo &io)
{
    io.u32(crossRouteRr_);
    io.expect(laneIdxRr_.size(), 4);
    io.each(laneIdxRr_);
    globalArb_.snapshot(io);
    io.u64(seqWords_);
    io.u64(idxInLaneWords_);
    io.u64(idxCrossWords_);

    io.expect(slots_.size(), 2);
    for (Slot &s : slots_) {
        io.b(s.open);
        io.b(s.flushing);
        io.asU8(s.cfg.dir);
        io.b(s.cfg.indexed);
        io.b(s.cfg.crossLane);
        io.asU8(s.cfg.layout);
        io.u32(s.cfg.base);
        io.u32(s.cfg.lengthWords);
        io.seq(s.cfg.perLaneLen);
        io.u32(s.cfg.recordWords);
        io.b(s.cfg.readWrite);
        uint64_t nlanes = s.lanes.size();
        io.len(nlanes, 1);
        if (io.loading() &&
                io.require(nlanes == 0 || nlanes == geom_.lanes))
            s.lanes.assign(static_cast<size_t>(nlanes), LaneSlotState());
        for (LaneSlotState &ls : s.lanes) {
            ls.seq.snapshot(io);
            ls.fifo.snapshot(io);
            ls.idata.snapshot(io);
            io.u32(ls.readRow);
            io.u32(ls.writeRow);
            io.u64(ls.srfWordsRead);
            io.u64(ls.srfWordsWritten);
            io.u64(ls.nextSeqNo);
            io.u64(ls.pendingWrites);
        }
    }

    io.expect(returnQueues_.size(), 8);
    for (auto &q : returnQueues_) {
        io.seq(q, 38, [&](ReturnEntry &e) {
            io.u32(e.data);
            io.u32(e.sourceLane);
            io.asU32(e.slot);
            io.u64(e.seqNo);
            io.u32(e.wordOffset);
            io.u64(e.earliest);
            io.u64(e.issueCycle);
        });
    }

    io.expect(banks_.size(), 1);
    for (SrfBank &b : banks_)
        b.snapshot(io);
    stats_.snapshot(io);
    if (!io.loading() || !io.ok())
        return;

    // Derived state: intra-cycle claims are dead at a cycle boundary;
    // the event-driven masks and occupancy counters mirror the queues
    // just restored (DESIGN.md §15) and are rebuilt from them.
    memClaims_.clear();
    seqClaimMask_ = 0;
    for (SlotId id = 0; id < static_cast<SlotId>(slots_.size()); id++)
        recomputeSeqClaim(id);
    recomputeIdxOpenMasks();
    inLaneFifoEntries_ = 0;
    crossFifoEntries_ = 0;
    for (const Slot &s : slots_) {
        if (!s.open || !s.cfg.indexed)
            continue;
        uint64_t entries = 0;
        for (const LaneSlotState &ls : s.lanes)
            entries += ls.fifo.size();
        if (s.cfg.crossLane)
            crossFifoEntries_ += entries;
        else
            inLaneFifoEntries_ += entries;
    }
    remoteEntries_ = 0;
    for (const SrfBank &b : banks_)
        remoteEntries_ += b.remoteQueueSize();
    returnEntries_ = 0;
    for (const auto &q : returnQueues_)
        returnEntries_ += q.size();
}

} // namespace isrf
