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
    if (nSlots > kMaxStreamSlots)
        panic("KernelInvocation(%s): %zu stream slots; a lane tracks at "
              "most %zu in its work masks",
              graph->name().c_str(), nSlots, kMaxStreamSlots);
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
    nSlots_ = inv->slots.size();
    if (work_.size() < nSlots_)
        work_.resize(nSlots_);
    for (size_t s = 0; s < nSlots_; s++) {
        SlotWork &w = work_[s];
        w.dataNeeds.clear();
        w.seqWriteCur = w.idxReadCur = w.idxWriteCur = 0;
        w.pendingOut.reset(inv->seqWritesPerIter[s]);
        w.pendingIn = 0;
        w.pendingIdxR.reset(inv->idxReadsPerIter[s]);
        w.pendingIdxW.reset(inv->idxWritesPerIter[s]);
    }
    pendingMask_ = needMask_ = 0;
    earliestDue_ = kNever;
    wake_ = 0;
    doneReported_ = false;
    if (trc_ && trc_->on())
        trc_->instant(traceCh_, "bind", now, lane_);
}

void
Cluster::unbind()
{
    inv_ = nullptr;
    wake_ = 0;
}

bool
Cluster::done(Cycle now) const
{
    if (!inv_)
        return true;
    uint64_t total = inv_->laneTraces[lane_].iterations;
    if (itersIssued_ < total)
        return false;
    if (needMask_)
        return false;
    // Not pendingMask_ == 0: queued sequential reads (pendingIn) do
    // not hold a lane that has issued every iteration; the other three
    // queues do.
    for (uint64_t m = pendingMask_; m; m &= m - 1) {
        const SlotWork &w = work_[__builtin_ctzll(m)];
        if (!w.pendingOut.empty() || !w.pendingIdxR.empty() ||
                !w.pendingIdxW.empty())
            return false;
    }
    if (pendingCommSends_ > 0)
        return false;
    if (total > 0 && now < lastIssue_ + inv_->sched.length)
        return false;
    return true;
}

void
Cluster::refreshEarliestDue()
{
    // Each slot consumes its needs in FIFO order and the queues are not
    // sorted (a read's offset depends on the queue depth at its issue),
    // so only the fronts can come due next.
    earliestDue_ = kNever;
    for (uint64_t m = needMask_; m; m &= m - 1)
        earliestDue_ = std::min(earliestDue_,
                                work_[__builtin_ctzll(m)].dataNeeds.front());
}

bool
Cluster::consumeDueData(Cycle now)
{
    if (now < earliestDue_)
        return true;
    bool ready = true;
    for (uint64_t m = needMask_; m && ready; m &= m - 1) {
        unsigned s = __builtin_ctzll(m);
        Ring<Cycle> &q = work_[s].dataNeeds;
        SlotId slot = inv_->slots[s];
        while (!q.empty() && q.front() <= now) {
            Word tmp[4];
            if (!srf_->idxDataTryPop(lane_, slot, now, tmp)) {
                ready = false;
                break;
            }
            q.pop();
        }
        if (q.empty())
            needMask_ &= ~(uint64_t{1} << s);
    }
    refreshEarliestDue();
    return ready;
}

void
Cluster::drainPending(Cycle now)
{
    for (uint64_t m = pendingMask_; m; m &= m - 1) {
        unsigned s = __builtin_ctzll(m);
        SlotWork &w = work_[s];
        SlotId slot = inv_->slots[s];
        // Sequential reads: consume buffered words; if the stream has
        // run dry in storage, the remaining reads are a short tail and
        // are dropped (final partial iteration).
        while (w.pendingIn > 0 && srf_->seqCanRead(lane_, slot)) {
            srf_->seqRead(lane_, slot);
            w.pendingIn--;
        }
        if (w.pendingIn > 0 && srf_->seqWordsRemaining(lane_, slot) == 0)
            w.pendingIn = 0;
        // Sequential writes.
        while (!w.pendingOut.empty() && srf_->seqCanWrite(lane_, slot)) {
            srf_->seqWrite(lane_, slot, w.pendingOut.front());
            w.pendingOut.pop();
        }
        // Indexed reads: push addresses into the FIFO as space frees
        // (idxIssueRead refuses while the FIFO or data buffer is full);
        // the data-need clock starts at the FIFO issue.
        while (!w.pendingIdxR.empty()) {
            if (!srf_->idxIssueRead(lane_, slot, w.pendingIdxR.front(),
                                    now))
                break;
            w.pendingIdxR.pop();
            const std::vector<uint32_t> &offs = inv_->idxReadOffsets[s];
            Cycle due = now + (offs.empty()
                ? inv_->sched.separation
                : offs[w.dataNeeds.size() % offs.size()]);
            if (w.dataNeeds.empty()) {
                needMask_ |= uint64_t{1} << s;
                earliestDue_ = std::min(earliestDue_, due);
            }
            w.dataNeeds.pushGrow(due);
        }
        // Indexed writes. idxCanIssue also checks the data buffer on a
        // read-write slot bound as input, which idxIssueWrite does not.
        while (!w.pendingIdxW.empty() && srf_->idxCanIssue(lane_, slot)) {
            const IdxWriteTraceEntry &e = w.pendingIdxW.front();
            if (!srf_->idxIssueWrite(lane_, slot, e.recordIndex, e.data,
                                     now))
                break;
            w.pendingIdxW.pop();
        }
        if (!w.pending())
            pendingMask_ &= ~(uint64_t{1} << s);
    }
}

void
Cluster::issueIteration(Cycle now)
{
    const LaneTrace &tr = inv_->laneTraces[lane_];
    for (size_t s = 0; s < nSlots_; s++) {
        SlotWork &w = work_[s];
        w.pendingIn += inv_->seqReadsPerIter[s];
        for (uint32_t i = 0; i < inv_->seqWritesPerIter[s]; i++) {
            if (w.seqWriteCur < tr.seqWrites[s].size())
                w.pendingOut.push(tr.seqWrites[s][w.seqWriteCur++]);
        }
        for (uint32_t r = 0; r < inv_->idxReadsPerIter[s]; r++) {
            if (w.idxReadCur >= tr.idxReads[s].size())
                break;
            w.pendingIdxR.push(tr.idxReads[s][w.idxReadCur++]);
        }
        for (uint32_t i = 0; i < inv_->idxWritesPerIter[s]; i++) {
            if (w.idxWriteCur >= tr.idxWrites[s].size())
                break;
            w.pendingIdxW.push(tr.idxWrites[s][w.idxWriteCur++]);
        }
        if (w.pending())
            pendingMask_ |= uint64_t{1} << s;
    }
    pendingCommSends_ += inv_->commSendsPerIter;
    itersIssued_++;
    lastIssue_ = now;
    nextIssue_ = now + inv_->sched.ii;
    drainPending(now);
}

void
Cluster::deriveMasks()
{
    pendingMask_ = needMask_ = 0;
    for (size_t s = 0; s < nSlots_; s++) {
        if (work_[s].pending())
            pendingMask_ |= uint64_t{1} << s;
        if (!work_[s].dataNeeds.empty())
            needMask_ |= uint64_t{1} << s;
    }
    refreshEarliestDue();
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
    uint64_t nslots = nSlots_;
    io.len(nslots, 1);
    if (!io.require(inv_ ? nslots == inv_->slots.size()
                         : nslots <= KernelInvocation::kMaxStreamSlots))
        return;
    if (io.loading()) {
        // Ring capacities come from the invocation; an unbound lane's
        // queues were empty when it unbound (done()).
        nSlots_ = nslots;
        if (work_.size() < nSlots_)
            work_.resize(nSlots_);
        for (size_t s = 0; s < nSlots_; s++) {
            SlotWork &w = work_[s];
            w.pendingOut.reset(inv_ ? inv_->seqWritesPerIter[s] : 0);
            w.pendingIdxR.reset(inv_ ? inv_->idxReadsPerIter[s] : 0);
            w.pendingIdxW.reset(inv_ ? inv_->idxWritesPerIter[s] : 0);
        }
    }
    for (size_t s = 0; s < nSlots_; s++)
        io.seq(work_[s].dataNeeds);
    for (size_t s = 0; s < nSlots_; s++)
        io.u64(work_[s].seqWriteCur);
    for (size_t s = 0; s < nSlots_; s++)
        io.u64(work_[s].idxReadCur);
    for (size_t s = 0; s < nSlots_; s++)
        io.u64(work_[s].idxWriteCur);
    for (size_t s = 0; s < nSlots_; s++)
        io.seq(work_[s].pendingOut, work_[s].pendingOut.capacity());
    for (size_t s = 0; s < nSlots_; s++)
        io.u32(work_[s].pendingIn);
    for (size_t s = 0; s < nSlots_; s++)
        io.seq(work_[s].pendingIdxR, work_[s].pendingIdxR.capacity());
    for (size_t s = 0; s < nSlots_; s++) {
        io.seq(work_[s].pendingIdxW, 20, [&](IdxWriteTraceEntry &e) {
            io.u32(e.recordIndex);
            io.each(e.data);
        }, work_[s].pendingIdxW.capacity());
    }
    io.b(doneReported_);
    if (io.loading()) {
        deriveMasks();
        wake_ = 0;
    }
}

CycleCat
Cluster::tick(Cycle now)
{
    CycleCat cat = advance(now);
    planSleep(now);
    return cat;
}

CycleCat
Cluster::issuingCat() const
{
    uint64_t total = inv_->laneTraces[lane_].iterations;
    bool steady = itersIssued_ + 1 >= inv_->sched.stages() &&
        total >= inv_->sched.stages();
    return steady ? CycleCat::Loop : CycleCat::Overhead;
}

void
Cluster::planSleep(Cycle now)
{
    // Each case is a state in which advance() touches nothing (no SRF
    // or network call, no trace event) and returns the same category
    // on every cycle before the wake: the start overhead, an II wait
    // with no queued work (drainPending and consumeDueData are no-ops
    // before earliestDue_), and a drained lane whose done() can flip
    // only at lastIssue_ + sched.length. Waking early is always safe.
    wake_ = now + 1;
    if (!inv_) {
        wake_ = kNever;
        sleepCat_ = CycleCat::Idle;
        return;
    }
    if (now + 1 < bindCycle_ + inv_->startOverhead) {
        wake_ = bindCycle_ + inv_->startOverhead;
        sleepCat_ = CycleCat::Overhead;
        return;
    }
    if (pendingMask_ != 0 || pendingCommSends_ > 0)
        return;
    uint64_t total = inv_->laneTraces[lane_].iterations;
    Cycle wake;
    if (itersIssued_ < total) {
        wake = std::min(nextIssue_, earliestDue_);
        sleepCat_ = issuingCat();
    } else {
        // The first drained tick emits lane_done.
        if (!doneReported_)
            return;
        wake = earliestDue_;
        Cycle drained = lastIssue_ + inv_->sched.length;
        if (total > 0 && drained > now)
            wake = std::min(wake, drained);
        sleepCat_ = CycleCat::Overhead;
    }
    wake_ = std::max(wake, now + 1);
}

CycleCat
Cluster::advance(Cycle now)
{
    if (!inv_)
        return CycleCat::Idle;
    // Kernel dispatch overhead (microcode load, stream descriptor setup).
    if (now < bindCycle_ + inv_->startOverhead)
        return CycleCat::Overhead;
    // Drain pending statically scheduled communications.
    if (pendingCommSends_ > 0 && dataNet_) {
        if (dataNet_->claimSource(lane_))
            pendingCommSends_--;
    }
    drainPending(now);
    if (!consumeDueData(now))
        return CycleCat::SrfStall;
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
        return CycleCat::Overhead;
    }
    const CycleCat issuing = issuingCat();
    if (now < nextIssue_)
        return issuing;
    if (!resourcesReady())
        return CycleCat::SrfStall;
    issueIteration(now);
    return issuing;
}

} // namespace isrf
