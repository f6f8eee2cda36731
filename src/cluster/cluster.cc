#include "cluster/cluster.h"

#include <algorithm>

#include "sim/trace.h"
#include "util/log.h"

namespace isrf {

void
KernelInvocation::finalize()
{
    if (!graph)
        panic("KernelInvocation: no graph");
    size_t nSlots = graph->streamSlots().size();
    if (slots.size() != nSlots)
        panic("KernelInvocation(%s): %zu slot bindings for %zu slots",
              graph->name().c_str(), slots.size(), nSlots);
    seqReadsPerIter.assign(nSlots, 0);
    seqWritesPerIter.assign(nSlots, 0);
    idxReadsPerIter.assign(nSlots, 0);
    idxWritesPerIter.assign(nSlots, 0);
    idxReadOffsets.assign(nSlots, {});
    commSendsPerIter = 0;
    for (NodeId id = 0; id < graph->nodeCount(); id++) {
        const Node &n = graph->node(id);
        switch (n.op) {
          case Opcode::SeqRead:
            seqReadsPerIter[n.streamSlot]++;
            break;
          case Opcode::SeqWrite:
            seqWritesPerIter[n.streamSlot]++;
            break;
          case Opcode::IdxRead:
            idxReadsPerIter[n.streamSlot]++;
            idxReadOffsets[n.streamSlot].push_back(
                sched.opCycle.empty() ? sched.separation
                                      : sched.opCycle[id]);
            break;
          case Opcode::IdxWrite:
            idxWritesPerIter[n.streamSlot]++;
            break;
          case Opcode::CommSend:
            commSendsPerIter++;
            break;
          default:
            break;
        }
    }
    for (auto &offsets : idxReadOffsets)
        std::sort(offsets.begin(), offsets.end());
    if (laneTraces.empty())
        panic("KernelInvocation(%s): no lane traces",
              graph->name().c_str());
    for (auto &t : laneTraces) {
        t.seqWrites.resize(nSlots);
        t.idxReads.resize(nSlots);
        t.idxWrites.resize(nSlots);
    }
}

void
Cluster::init(uint32_t lane, Srf *srf, Crossbar *dataNet,
              Tracer *tracer)
{
    trc_ = tracer;
    lane_ = lane;
    srf_ = srf;
    dataNet_ = dataNet;
    traceCh_ = trc_ ? trc_->channel("cluster") : 0;
}

void
Cluster::bind(const KernelInvocation *inv, Cycle now)
{
    if (inv_)
        panic("Cluster[%u]: bind while bound", lane_);
    inv_ = inv;
    bindCycle_ = now;
    itersIssued_ = 0;
    nextIssue_ = now + inv->startOverhead;
    lastIssue_ = now;
    pendingCommSends_ = 0;
    size_t nSlots = inv->graph->streamSlots().size();
    dataNeeds_.assign(nSlots, {});
    seqWriteCur_.assign(nSlots, 0);
    idxReadCur_.assign(nSlots, 0);
    idxWriteCur_.assign(nSlots, 0);
    pendingOut_.assign(nSlots, {});
    pendingIn_.assign(nSlots, 0);
    pendingIdxR_.assign(nSlots, {});
    pendingIdxW_.assign(nSlots, {});
    doneReported_ = false;
    if (trc_ && trc_->on())
        trc_->instant(traceCh_, "bind", now, lane_);
}

void
Cluster::unbind()
{
    inv_ = nullptr;
}

bool
Cluster::done(Cycle now) const
{
    if (!inv_)
        return true;
    uint64_t total = inv_->laneTraces[lane_].iterations;
    if (itersIssued_ < total)
        return false;
    for (const auto &q : dataNeeds_)
        if (!q.empty())
            return false;
    for (const auto &q : pendingOut_)
        if (!q.empty())
            return false;
    for (const auto &q : pendingIdxR_)
        if (!q.empty())
            return false;
    for (const auto &q : pendingIdxW_)
        if (!q.empty())
            return false;
    if (pendingCommSends_ > 0)
        return false;
    if (total > 0 && now < lastIssue_ + inv_->sched.length)
        return false;
    return true;
}

bool
Cluster::consumeDueData(Cycle now)
{
    size_t nSlots = dataNeeds_.size();
    for (size_t s = 0; s < nSlots; s++) {
        auto &q = dataNeeds_[s];
        while (!q.empty() && q.front() <= now) {
            SlotId slot = inv_->slots[s];
            if (!srf_->idxDataReady(lane_, slot, now))
                return false;
            Word tmp[4];
            srf_->idxDataPop(lane_, slot, tmp);
            q.pop_front();
        }
    }
    return true;
}

bool
Cluster::drainPending(Cycle now)
{
    bool allEmpty = true;
    size_t nSlots = inv_->slots.size();
    for (size_t s = 0; s < nSlots; s++) {
        SlotId slot = inv_->slots[s];
        // Sequential reads: consume buffered words; if the stream has
        // run dry in storage, the remaining reads are a short tail and
        // are dropped (final partial iteration).
        while (pendingIn_[s] > 0 && srf_->seqCanRead(lane_, slot)) {
            srf_->seqRead(lane_, slot);
            pendingIn_[s]--;
        }
        if (pendingIn_[s] > 0 &&
                srf_->seqWordsRemaining(lane_, slot) == 0) {
            pendingIn_[s] = 0;
        }
        // Sequential writes.
        while (!pendingOut_[s].empty() && srf_->seqCanWrite(lane_, slot)) {
            srf_->seqWrite(lane_, slot, pendingOut_[s].front());
            pendingOut_[s].pop_front();
        }
        // Indexed reads: push addresses into the FIFO as space frees;
        // the data-need clock starts at the FIFO issue.
        while (!pendingIdxR_[s].empty() &&
               srf_->idxCanIssue(lane_, slot)) {
            uint32_t rec = pendingIdxR_[s].front();
            if (!srf_->idxIssueRead(lane_, slot, rec))
                break;
            pendingIdxR_[s].pop_front();
            uint32_t k = static_cast<uint32_t>(dataNeeds_[s].size());
            uint32_t off = inv_->idxReadOffsets[s].empty()
                ? inv_->sched.separation
                : inv_->idxReadOffsets[s][k %
                      inv_->idxReadOffsets[s].size()];
            dataNeeds_[s].push_back(now + off);
        }
        // Indexed writes.
        while (!pendingIdxW_[s].empty() &&
               srf_->idxCanIssue(lane_, slot)) {
            const IdxWriteTraceEntry &e = pendingIdxW_[s].front();
            if (!srf_->idxIssueWrite(lane_, slot, e.recordIndex, e.data))
                break;
            pendingIdxW_[s].pop_front();
        }
        if (pendingIn_[s] > 0 || !pendingOut_[s].empty() ||
                !pendingIdxR_[s].empty() || !pendingIdxW_[s].empty()) {
            allEmpty = false;
        }
    }
    return allEmpty;
}

bool
Cluster::resourcesReady(Cycle now) const
{
    // All of the previous iteration's stream work must have drained:
    // a VLIW schedule cannot roll to the next iteration while its
    // buffer accesses are still backed up.
    (void)now;
    size_t nSlots = inv_->slots.size();
    for (size_t s = 0; s < nSlots; s++) {
        if (pendingIn_[s] > 0 || !pendingOut_[s].empty() ||
                !pendingIdxR_[s].empty() || !pendingIdxW_[s].empty()) {
            return false;
        }
    }
    return true;
}

void
Cluster::issueIteration(Cycle now)
{
    const LaneTrace &tr = inv_->laneTraces[lane_];
    size_t nSlots = inv_->slots.size();
    for (size_t s = 0; s < nSlots; s++) {
        pendingIn_[s] += inv_->seqReadsPerIter[s];
        for (uint32_t w = 0; w < inv_->seqWritesPerIter[s]; w++) {
            if (seqWriteCur_[s] < tr.seqWrites[s].size())
                pendingOut_[s].push_back(
                    tr.seqWrites[s][seqWriteCur_[s]++]);
        }
        for (uint32_t r = 0; r < inv_->idxReadsPerIter[s]; r++) {
            if (idxReadCur_[s] >= tr.idxReads[s].size())
                break;
            pendingIdxR_[s].push_back(tr.idxReads[s][idxReadCur_[s]++]);
        }
        for (uint32_t w = 0; w < inv_->idxWritesPerIter[s]; w++) {
            if (idxWriteCur_[s] >= tr.idxWrites[s].size())
                break;
            pendingIdxW_[s].push_back(
                tr.idxWrites[s][idxWriteCur_[s]++]);
        }
    }
    pendingCommSends_ += inv_->commSendsPerIter;
    itersIssued_++;
    lastIssue_ = now;
    nextIssue_ = now + inv_->sched.ii;
    drainPending(now);
}

void
Cluster::snapshot(SnapshotIo &io)
{
    bool bound = inv_ != nullptr;
    io.b(bound);
    // The machine restoreBind()s us to the rebuilt invocation (or to
    // nullptr) before a load; a mismatch means the program state and
    // machine state disagree — reject, don't guess.
    io.require(bound == (inv_ != nullptr));
    io.u64(bindCycle_);
    io.u64(itersIssued_);
    io.u64(nextIssue_);
    io.u64(lastIssue_);
    io.u32(pendingCommSends_);
    uint64_t nslots = dataNeeds_.size();
    io.len(nslots, 1);
    if (!io.require(!inv_ || nslots == inv_->slots.size()))
        return;
    if (io.loading()) {
        dataNeeds_.assign(nslots, {});
        seqWriteCur_.assign(nslots, 0);
        idxReadCur_.assign(nslots, 0);
        idxWriteCur_.assign(nslots, 0);
        pendingOut_.assign(nslots, {});
        pendingIn_.assign(nslots, 0);
        pendingIdxR_.assign(nslots, {});
        pendingIdxW_.assign(nslots, {});
    }
    for (auto &q : dataNeeds_)
        io.seq(q);
    io.each(seqWriteCur_);
    io.each(idxReadCur_);
    io.each(idxWriteCur_);
    for (auto &q : pendingOut_)
        io.seq(q);
    io.each(pendingIn_);
    for (auto &q : pendingIdxR_)
        io.seq(q);
    for (auto &q : pendingIdxW_) {
        io.seq(q, 20, [&](IdxWriteTraceEntry &e) {
            io.u32(e.recordIndex);
            io.each(e.data);
        });
    }
    io.u64(cycles_.loopBody);
    io.u64(cycles_.overhead);
    io.u64(cycles_.srfStall);
    io.u64(cycles_.idle);
    io.asU8(lastCat_);
    io.b(doneReported_);
}

void
Cluster::tick(Cycle now)
{
    if (!inv_) {
        cycles_.idle++;
        lastCat_ = CycleCat::Idle;
        return;
    }
    // Kernel dispatch overhead (microcode load, stream descriptor setup).
    if (now < bindCycle_ + inv_->startOverhead) {
        cycles_.overhead++;
        lastCat_ = CycleCat::Overhead;
        return;
    }
    // Drain pending statically scheduled communications.
    if (pendingCommSends_ > 0 && dataNet_) {
        if (dataNet_->claimSource(lane_))
            pendingCommSends_--;
    }
    drainPending(now);
    if (!consumeDueData(now)) {
        cycles_.srfStall++;
        lastCat_ = CycleCat::SrfStall;
        return;
    }
    uint64_t total = inv_->laneTraces[lane_].iterations;
    if (itersIssued_ >= total) {
        if (!doneReported_) {
            doneReported_ = true;
            if (trc_ && trc_->on())
                trc_->instant(traceCh_, "lane_done", now,
                                           lane_);
        }
        // Pipe drain / waiting for other lanes: kernel overhead
        // (software-pipeline drain + load imbalance).
        cycles_.overhead++;
        lastCat_ = CycleCat::Overhead;
        return;
    }
    bool steady = itersIssued_ + 1 >= inv_->sched.stages() &&
        total >= inv_->sched.stages();
    if (now < nextIssue_) {
        if (steady) {
            cycles_.loopBody++;
            lastCat_ = CycleCat::Loop;
        } else {
            cycles_.overhead++;
            lastCat_ = CycleCat::Overhead;
        }
        return;
    }
    if (!resourcesReady(now)) {
        cycles_.srfStall++;
        lastCat_ = CycleCat::SrfStall;
        return;
    }
    issueIteration(now);
    if (steady) {
        cycles_.loopBody++;
        lastCat_ = CycleCat::Loop;
    } else {
        cycles_.overhead++;
        lastCat_ = CycleCat::Overhead;
    }
}

} // namespace isrf
