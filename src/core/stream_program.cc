#include "core/stream_program.h"

#include <algorithm>

#include "util/hash.h"
#include "util/log.h"

namespace isrf {

StreamProgram::StreamProgram(Machine &m) : machine_(m)
{
    uint32_t n = m.config().srf.maxStreamSlots;
    lastWriter_.assign(n, -1);
    readersSinceWrite_.assign(n, {});
}

StreamProgram::~StreamProgram()
{
    for (SlotId id : openedSlots_)
        machine_.srf().closeSlot(id);
}

SlotId
StreamProgram::addStream(const std::string &name, uint64_t totalWords,
                         StreamLayout layout, StreamDir dir, bool indexed,
                         bool crossLane, uint32_t recordWords,
                         std::vector<uint32_t> perLaneLen, bool readWrite)
{
    uint32_t base = machine_.allocator().alloc(totalWords, layout);
    if (base == SrfAllocator::kAllocFail)
        fatal("StreamProgram: SRF allocation failed for stream '%s' "
              "(%llu words, %llu free per lane)", name.c_str(),
              static_cast<unsigned long long>(totalWords),
              static_cast<unsigned long long>(
                  machine_.allocator().freeWords()));
    SlotConfig cfg;
    cfg.dir = dir;
    // Binding properties are retargeted per kernel launch; what is
    // declared here only matters for direct Srf-level use.
    cfg.indexed = (indexed || readWrite) && machine_.config().srfMode !=
        SrfMode::SequentialOnly;
    cfg.crossLane = crossLane && cfg.indexed && !readWrite;
    cfg.readWrite = readWrite && cfg.indexed;
    cfg.layout = layout;
    cfg.base = base;
    cfg.lengthWords = static_cast<uint32_t>(totalWords);
    cfg.perLaneLen = std::move(perLaneLen);
    cfg.recordWords = recordWords;
    SlotId id = machine_.srf().openSlot(cfg);
    openedSlots_.push_back(id);
    return id;
}

SlotId
StreamProgram::addStreamAlias(const std::string &name, SlotId orig)
{
    (void)name;
    SlotConfig cfg = machine_.srf().slotConfig(orig);
    SlotId id = machine_.srf().openSlot(cfg);
    openedSlots_.push_back(id);
    return id;
}

SlotId
StreamProgram::addStreamAlias(const std::string &name, SlotId orig,
                              bool crossLane)
{
    (void)name;
    SlotConfig cfg = machine_.srf().slotConfig(orig);
    cfg.crossLane = crossLane && cfg.indexed;
    SlotId id = machine_.srf().openSlot(cfg);
    openedSlots_.push_back(id);
    return id;
}

void
StreamProgram::fillStream(SlotId slot, const std::vector<Word> &data)
{
    machine_.srf().fillSlot(slot, data);
}

std::vector<Word>
StreamProgram::dumpStream(SlotId slot) const
{
    return machine_.srf().dumpSlot(slot);
}

ProgOpId
StreamProgram::addMemOp(MemOp op, std::vector<SlotId> reads,
                        std::vector<SlotId> writes)
{
    Op o;
    o.kind = Op::Kind::Mem;
    o.mem = std::move(op);
    o.readsSlots = std::move(reads);
    o.writesSlots = std::move(writes);
    inferDeps(o);
    ops_.push_back(std::move(o));
    return static_cast<ProgOpId>(ops_.size() - 1);
}

ProgOpId
StreamProgram::load(SlotId dst, uint64_t memBase, bool cached,
                    uint64_t lengthWords)
{
    MemOp op;
    op.kind = MemOpKind::Load;
    op.memBase = memBase;
    op.srfSlot = dst;
    op.lengthWords = lengthWords;
    op.cached = cached;
    return addMemOp(std::move(op), {}, {dst});
}

ProgOpId
StreamProgram::store(SlotId src, uint64_t memBase, bool cached,
                     uint64_t lengthWords)
{
    MemOp op;
    op.kind = MemOpKind::Store;
    op.memBase = memBase;
    op.srfSlot = src;
    op.lengthWords = lengthWords;
    op.cached = cached;
    return addMemOp(std::move(op), {src}, {});
}

ProgOpId
StreamProgram::gather(SlotId dst, uint64_t memBase,
                      std::vector<uint32_t> indices, uint32_t recordWords,
                      bool cached, uint64_t dstOffsetWords)
{
    MemOp op;
    op.kind = MemOpKind::Gather;
    op.memBase = memBase;
    op.srfSlot = dst;
    op.indices = std::move(indices);
    op.recordWords = recordWords;
    op.cached = cached;
    op.dstOffsetWords = dstOffsetWords;
    return addMemOp(std::move(op), {}, {dst});
}

ProgOpId
StreamProgram::scatter(SlotId src, uint64_t memBase,
                       std::vector<uint32_t> indices, uint32_t recordWords,
                       bool cached)
{
    MemOp op;
    op.kind = MemOpKind::Scatter;
    op.memBase = memBase;
    op.srfSlot = src;
    op.indices = std::move(indices);
    op.recordWords = recordWords;
    op.cached = cached;
    return addMemOp(std::move(op), {src}, {});
}

ProgOpId
StreamProgram::kernel(std::shared_ptr<KernelInvocation> inv)
{
    if (!inv || !inv->graph)
        panic("StreamProgram::kernel: empty invocation");
    Op o;
    o.kind = Op::Kind::Kernel;
    o.inv = std::move(inv);
    const auto &slots = o.inv->graph->streamSlots();
    for (size_t s = 0; s < slots.size(); s++) {
        if (slots[s].isOutput)
            o.writesSlots.push_back(o.inv->slots[s]);
        else
            o.readsSlots.push_back(o.inv->slots[s]);
    }
    inferDeps(o);
    ops_.push_back(std::move(o));
    return static_cast<ProgOpId>(ops_.size() - 1);
}

void
StreamProgram::dependsOn(ProgOpId after, ProgOpId before)
{
    if (after < 0 || before < 0 ||
            static_cast<size_t>(after) >= ops_.size() ||
            static_cast<size_t>(before) >= ops_.size())
        panic("StreamProgram::dependsOn: bad op ids %d, %d", after, before);
    // A self or forward edge would deadlock (or reorder) the program;
    // the scoreboard and the snapshot checks rely on backward edges.
    if (before >= after)
        panic("StreamProgram::dependsOn: op %d cannot wait for op %d "
              "(edges must point backwards)", after, before);
    ops_[after].deps.push_back(before);
}

void
StreamProgram::inferDeps(Op &op)
{
    auto id = static_cast<ProgOpId>(ops_.size());
    auto addDep = [&](ProgOpId d) {
        if (d >= 0 && std::find(op.deps.begin(), op.deps.end(), d) ==
                op.deps.end()) {
            op.deps.push_back(d);
        }
    };
    for (SlotId r : op.readsSlots)
        addDep(lastWriter_[r]);  // RAW
    for (SlotId w : op.writesSlots) {
        addDep(lastWriter_[w]);  // WAW
        for (ProgOpId r : readersSinceWrite_[w])
            addDep(r);           // WAR
    }
    for (SlotId w : op.writesSlots) {
        lastWriter_[w] = id;
        readersSinceWrite_[w].clear();
    }
    for (SlotId r : op.readsSlots)
        readersSinceWrite_[r].push_back(id);
}

size_t
StreamProgram::firstIncomplete() const
{
    size_t i = 0;
    while (i < ops_.size() && ops_[i].completed)
        i++;
    return i;
}

void
StreamProgram::buildScoreboard()
{
    // Explicit dependsOn() edges may arrive after inferDeps, and a
    // restore rewrites the flags, so the scoreboard is derived from
    // the graph and the flags here rather than kept up to date while
    // the program is being built.
    const size_t n = ops_.size();
    pending_.assign(n, 0);
    dependents_.assign(n, {});
    readyMem_.clear();
    readyKernels_ = {};
    inFlight_.clear();
    memEventsSeen_.reset();
    completedOps_ = 0;
    for (size_t i = 0; i < n; i++) {
        const Op &op = ops_[i];
        auto id = static_cast<ProgOpId>(i);
        if (op.completed) {
            completedOps_++;
            continue;
        }
        for (ProgOpId d : op.deps) {
            if (!ops_[d].completed) {
                pending_[i]++;
                dependents_[d].push_back(id);
            }
        }
        if (!op.issued) {
            if (pending_[i] == 0)
                makeReady(id);
        } else if (op.kind == Op::Kind::Mem) {
            inFlight_.push_back(id);
        }
    }
}

void
StreamProgram::makeReady(ProgOpId id)
{
    if (ops_[id].kind == Op::Kind::Mem)
        readyMem_.push_back(id);
    else
        readyKernels_.push(id);
}

void
StreamProgram::retire(ProgOpId id)
{
    ops_[id].completed = true;
    completedOps_++;
    for (ProgOpId d : dependents_[id])
        if (--pending_[d] == 0)
            makeReady(d);
}

void
StreamProgram::tryIssue()
{
    // Issue-order contract: the same calls, in the same order, as one
    // index-ordered pass over every unissued op whose deps are done —
    // every ready mem op is submitted, and the lowest ready kernel is
    // launched at its index position when no kernel is active. A
    // kernel blocked by the active one never holds back mem ops.
    const bool kernelFree = !machine_.kernelActive() && activeKernelOp_ < 0;
    if (readyMem_.empty() && (readyKernels_.empty() || !kernelFree))
        return;
    std::sort(readyMem_.begin(), readyMem_.end());
    ProgOpId kernelOp = -1;
    if (!readyKernels_.empty() && kernelFree)
        kernelOp = readyKernels_.top();
    size_t m = 0;
    auto submitUpTo = [&](ProgOpId limit) {
        for (; m < readyMem_.size() && readyMem_[m] < limit; m++) {
            Op &op = ops_[readyMem_[m]];
            op.memId = machine_.mem().submit(op.mem);
            op.issued = true;
            inFlight_.push_back(readyMem_[m]);
        }
    };
    if (kernelOp >= 0) {
        submitUpTo(kernelOp);
        readyKernels_.pop();
        machine_.launchKernel(ops_[kernelOp].inv);
        activeKernelOp_ = kernelOp;
        ops_[kernelOp].issued = true;
    }
    submitUpTo(static_cast<ProgOpId>(ops_.size()));
    readyMem_.clear();
}

void
StreamProgram::updateCompletion()
{
    // A mem op's done() flips only on a memory event (DESIGN.md §18);
    // buildScoreboard() forces the first scan of each run.
    const uint64_t events = machine_.mem().events();
    if (memEventsSeen_ != events) {
        memEventsSeen_ = events;
        for (size_t j = 0; j < inFlight_.size();) {
            ProgOpId id = inFlight_[j];
            if (machine_.mem().done(ops_[id].memId)) {
                inFlight_[j] = inFlight_.back();
                inFlight_.pop_back();
                retire(id);
            } else {
                j++;
            }
        }
    }
    if (activeKernelOp_ >= 0 && !machine_.kernelActive()) {
        ProgOpId id = activeKernelOp_;
        activeKernelOp_ = -1;
        retire(id);
    }
}

uint64_t
StreamProgram::structureHash() const
{
    std::string canon;
    canon.reserve(ops_.size() * 48);
    canon += strprintf("ops=%zu slots=%zu|", ops_.size(),
                       openedSlots_.size());
    for (const Op &op : ops_) {
        if (op.kind == Op::Kind::Mem) {
            canon += strprintf(
                "m%u@%llu:s%d:l%llu:i%zu:r%u:c%u:o%llu",
                static_cast<unsigned>(op.mem.kind),
                static_cast<unsigned long long>(op.mem.memBase),
                op.mem.srfSlot,
                static_cast<unsigned long long>(op.mem.lengthWords),
                op.mem.indices.size(), op.mem.recordWords,
                op.mem.cached ? 1u : 0u,
                static_cast<unsigned long long>(op.mem.dstOffsetWords));
        } else {
            canon += strprintf("k%s:n%zu", op.inv->graph->name().c_str(),
                               op.inv->slots.size());
            for (SlotId s : op.inv->slots)
                canon += strprintf(",%d", s);
        }
        canon += '[';
        for (ProgOpId d : op.deps)
            canon += strprintf("%d,", d);
        canon += "];";
    }
    return fnv1a(canon);
}

void
StreamProgram::snapshot(SnapshotIo &io)
{
    const uint64_t mine = structureHash();
    uint64_t hash = mine;
    io.u64(hash);
    if (!io.require(hash == mine))
        return;
    // The PROG format's scan-window start: the first incomplete op.
    uint64_t scan = firstIncomplete();
    int64_t activeOp = activeKernelOp_;
    io.u64(scan);
    io.i64(activeOp);
    io.expect(ops_.size(), 10);
    const auto nops = static_cast<int64_t>(ops_.size());
    if (!io.require(scan <= ops_.size() && activeOp < nops))
        return;
    struct Flags
    {
        bool issued = false;
        bool completed = false;
        MemOpId memId = 0;
    };
    std::vector<Flags> flags(ops_.size());
    for (size_t i = 0; i < ops_.size(); i++) {
        Flags &f = flags[i];
        if (io.saving())
            f = {ops_[i].issued, ops_[i].completed, ops_[i].memId};
        io.b(f.issued);
        io.b(f.completed);
        io.i64(f.memId);
    }
    if (!io.loading() || !io.ok())
        return;
    // The scoreboard is rebuilt from these flags, so they must describe
    // a state the driver could have reached (see the contract in the
    // header) before any of them is committed.
    for (size_t i = 0; i < ops_.size(); i++) {
        const Flags &f = flags[i];
        bool consistent = f.issued || !f.completed;
        if (f.issued)
            for (ProgOpId d : ops_[i].deps)
                consistent = consistent && flags[d].completed;
        if (ops_[i].kind == Op::Kind::Kernel && f.issued && !f.completed)
            consistent = consistent && static_cast<int64_t>(i) == activeOp;
        if (i < scan)
            consistent = consistent && f.completed;
        if (!io.require(consistent))
            return;
    }
    if (activeOp >= 0) {
        const auto k = static_cast<size_t>(activeOp);
        if (!io.require(ops_[k].kind == Op::Kind::Kernel &&
                        flags[k].issued && !flags[k].completed))
            return;
    }
    for (size_t i = 0; i < ops_.size(); i++) {
        ops_[i].issued = flags[i].issued;
        ops_[i].completed = flags[i].completed;
        ops_[i].memId = flags[i].memId;
    }
    activeKernelOp_ = static_cast<ProgOpId>(activeOp);
}

void
StreamProgram::maybeRestore(CheckpointContext &ckpt)
{
    Snapshot snap;
    std::string err;
    switch (loadSnapshotFile(ckpt.path(), ckpt.fingerprint(), snap,
                             err)) {
      case SnapshotLoad::Missing:
        return;
      case SnapshotLoad::Corrupt:
        quarantineSnapshotFile(ckpt.path(), err);
        ckpt.noteQuarantined();
        return;
      case SnapshotLoad::Stale:
        // A valid checkpoint from a different job: never ours to
        // apply or to destroy.
        ISRF_WARN("checkpoint %s ignored: %s", ckpt.path().c_str(),
                  err.c_str());
        return;
      case SnapshotLoad::Ok:
        break;
    }
    const std::string *prog = snap.findSection(kSnapProgram);
    if (!prog) {
        quarantineSnapshotFile(ckpt.path(),
                               "missing program section");
        ckpt.noteQuarantined();
        return;
    }
    SnapshotReader pr(*prog);
    SnapshotIo pio(pr);
    // snapshot() checks the structural hash before touching any state,
    // so a checkpoint from another phase of a multi-program workload
    // is skipped cleanly here (the right program will pick it up).
    snapshot(pio);
    if (!pr.atEnd()) {
        ISRF_WARN("checkpoint %s: not for this stream program; "
                  "starting from zero", ckpt.path().c_str());
        return;
    }
    std::shared_ptr<KernelInvocation> activeInv;
    if (activeKernelOp_ >= 0)
        activeInv = ops_[static_cast<size_t>(activeKernelOp_)].inv;
    if (!machine_.loadSnapshot(snap, std::move(activeInv), &err)) {
        // Unreachable for on-disk corruption (every checksum, the
        // geometry hash and the program hash verified above, before
        // any machine mutation). Reaching it means the checkpoint's
        // program and machine sections disagree (run() saves only
        // where they agree), or a section layout changed without a
        // format-version bump. The machine is part-restored; stopping
        // is the only path that cannot produce a wrong result.
        quarantineSnapshotFile(ckpt.path(), err);
        panic("StreamProgram: verified checkpoint failed to apply "
              "(%s): its program and machine sections disagree, or "
              "its section layout differs from this build's",
              err.c_str());
    }
    ckpt.noteRestored(machine_.now());
    ISRF_WARN("resumed from checkpoint %s at cycle %llu",
              ckpt.path().c_str(),
              static_cast<unsigned long long>(machine_.now()));
}

void
StreamProgram::saveCheckpoint(CheckpointContext &ckpt)
{
    Snapshot snap;
    machine_.saveSnapshot(snap);
    snap.fingerprint = ckpt.fingerprint();
    SnapshotWriter pw;
    SnapshotIo pio(pw);
    snapshot(pio);
    snap.addSection(kSnapProgram, pw);
    std::string err;
    if (snap.writeAtomic(ckpt.path(), err)) {
        ckpt.noteSaved(machine_.now());
    } else {
        // A failed save never blocks the run; the job just loses this
        // restart point.
        ISRF_WARN("checkpoint save to %s failed: %s",
                  ckpt.path().c_str(), err.c_str());
        ckpt.noteSaveFailed(machine_.now());
    }
}

uint64_t
StreamProgram::run(uint64_t maxCycles)
{
    const Cycle start = machine_.now();
    status_ = RunStatus::Done;
    // Mid-job checkpointing (DESIGN.md §17): resume from the newest
    // valid checkpoint before the first step — `start` stays at the
    // pre-restore clock, so the returned cycle count (and every
    // downstream report) is identical to an uninterrupted run.
    CheckpointContext *ckpt = machine_.checkpoint();
    if (ckpt)
        maybeRestore(*ckpt);
    buildScoreboard();
    // run_loop times the cycle loop; restore and build are job set-up.
    Profiler::Timer prof(machine_.profiler(), Profiler::RunLoop);
    const Cycle execStart = machine_.now();
    uint64_t cycles = execStart - start;
    while (true) {
        updateCompletion();
        // Save here, not right after step(): only once updateCompletion()
        // has retired what the last step finished do the program cursor
        // and the machine agree (a kernel the machine has just unbound
        // is no longer active in the cursor either).
        if (ckpt && ckpt->saveDue(machine_.now())) {
            saveCheckpoint(*ckpt);
            if (ckpt->stopAfterSave && ckpt->saves() > 0) {
                status_ = RunStatus::Cancelled;
                break;
            }
        }
        if (allDone() && machine_.mem().idle() && !machine_.kernelActive())
            break;
        // Watchdog, cancel and deadline stops are graceful: the caller
        // reads lastStatus() (and Machine::watchdogTriggered() for the
        // diagnostic). Hitting the cycle cap is a model deadlock.
        status_ = machine_.stopStatus(cycles, maxCycles);
        if (status_ == RunStatus::Limit)
            panic("StreamProgram::run: exceeded %llu cycles (deadlock?)",
                  static_cast<unsigned long long>(maxCycles));
        if (status_ != RunStatus::Done)
            break;
        tryIssue();
        machine_.step();
        cycles = machine_.now() - start;
    }
    if (ckpt)
        ckpt->addExecuted(machine_.now() - execStart);
    machine_.noteRunStatus(status_);
    return cycles;
}

} // namespace isrf
