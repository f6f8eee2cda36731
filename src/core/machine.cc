#include "core/machine.h"

#include "util/hash.h"
#include "util/log.h"

namespace isrf {

void
Machine::init(const MachineConfig &cfg)
{
    cfg.validate();
    cfg_ = cfg;
    // A re-initialized machine restarts its clock with its watchdog
    // and sampler, which latch absolute cycle numbers.
    now_ = 0;
    nextDeadlineCheck_ = 0;
    active_.reset();
    activeOutputs_.clear();
    activeIdxWriteSlots_.clear();
    flushing_ = false;
    kernelStart_ = 0;
    activeKernelName_ = nullptr;
    bwSeq0_ = bwIn0_ = bwCross0_ = 0;
    lastRunStatus_ = RunStatus::Done;
    // The machine's private tracer: nothing here reads the
    // environment — env overrides belong in MachineConfig::fromEnv().
    if (!cfg_.traceSpec.empty()) {
        tracer_.setCapacity(cfg_.traceCapacity);
        tracer_.enableChannels(cfg_.traceSpec);
    } else {
        tracer_.disable();
        tracer_.clear();
    }
    profiler_.configure(cfg_.profileEnabled, cfg_.profileStride);
    profiler_.reset();
    dataNet_.init(cfg.srf.lanes, 1, 1, cfg.srf.netTopology);
    srf_.init(cfg.srf, cfg.srfMode, &dataNet_, &tracer_);
    mem_.init(cfg.mem, cfg.dram, cfg.cache, &srf_, &tracer_);
    clusters_.assign(cfg.srf.lanes, Cluster());
    for (uint32_t l = 0; l < cfg.srf.lanes; l++)
        clusters_[l].init(l, &srf_, &dataNet_, &tracer_);
    alloc_.init(cfg.srf);
    scheduler_ = ModuloScheduler(cfg.cluster, cfg.seed);
    rng_.reseed(cfg.seed * 7919 + 13);
    traceCh_ = tracer_.channel("machine");
    initFaults();
    initSampler();
    breakdown_.reset();
    kernelBw_.clear();
}

void
Machine::initFaults()
{
    const FaultConfig &fc = cfg_.faults;
    faultsEnabled_ = fc.enabled;
    injector_.reset();
    watchdog_.reset();
    if (fc.enabled) {
        srf_.setDegradeThreshold(fc.degradeThreshold);
        mem_.setFaultConfig(fc);
        injector_ = std::make_unique<FaultInjector>();
        injector_->init(fc, cfg_.seed, &srf_, &mem_, &dataNet_,
                        &tracer_);
    }
    if (fc.watchdogInterval > 0) {
        watchdog_ = std::make_unique<Watchdog>();
        // Progress = any retired work: SRF words moved, DRAM words
        // transferred, or cluster loop-body cycles executed.
        watchdog_->init(fc.watchdogInterval, fc.watchdogStallIntervals,
            [this]() {
                return srf_.seqWordsAccessed() + srf_.idxInLaneWords() +
                    srf_.idxCrossWords() + mem_.dram().wordsTransferred() +
                    breakdown_.loopBody;
            },
            &tracer_, cfg_.name());
    }
}

uint64_t
Machine::scrubFaults()
{
    return srf_.scrubFaults() + mem_.dram().scrubEcc();
}

void
Machine::syncFaultStats()
{
    srf_.syncFaultStats();
    mem_.syncFaultStats();
}

void
Machine::initSampler()
{
    uint64_t interval = cfg_.statSampleInterval;
    if (interval == 0) {
        sampler_.reset();
        return;
    }
    sampler_ = std::make_unique<StatSampler>(interval);
    sampler_->setTracer(&tracer_);
    sampler_->addGroup(&srf_.stats());
    sampler_->addGroup(&mem_.stats());
    if (injector_)
        sampler_->addGroup(&injector_->stats());
    sampler_->addCounterFn("dram.words",
        [this]() { return mem_.dram().wordsTransferred(); });
    sampler_->addCounterFn("dram.row_hits",
        [this]() { return mem_.dram().rowHits(); });
    sampler_->addCounterFn("dram.row_misses",
        [this]() { return mem_.dram().rowMisses(); });
    sampler_->addCounterFn("cache.hits",
        [this]() { return mem_.cache().hits(); });
    sampler_->addCounterFn("cache.misses",
        [this]() { return mem_.cache().misses(); });
    sampler_->addGauge("mem.in_flight",
        [this]() { return static_cast<double>(mem_.inFlight()); });
    sampler_->addGauge("srf.remote_queue_depth",
        [this]() {
            return static_cast<double>(srf_.maxRemoteQueueDepth());
        });
    sampler_->addGauge("cluster.busy_frac", [this]() {
        uint32_t busy = 0;
        for (const auto &c : clusters_)
            if (c.lastCat() != CycleCat::Idle)
                busy++;
        return clusters_.empty() ? 0.0
            : static_cast<double>(busy) /
              static_cast<double>(clusters_.size());
    });
}

KernelSchedule
Machine::scheduleKernel(const KernelGraph &graph)
{
    bool crossLane = false;
    for (const auto &slot : graph.streamSlots())
        if (slot.kind == StreamKind::IdxCross)
            crossLane = true;
    uint32_t sep = crossLane ? cfg_.crossLaneSeparation
                             : cfg_.inLaneSeparation;
    return scheduler_.schedule(graph, sep);
}

void
Machine::launchKernel(std::shared_ptr<KernelInvocation> inv)
{
    if (active_)
        panic("Machine: kernel %s launched while %s active",
              inv->graph->name().c_str(), active_->graph->name().c_str());
    if (inv->laneTraces.size() != clusters_.size())
        panic("Machine: invocation has %zu lane traces for %zu lanes",
              inv->laneTraces.size(), clusters_.size());
    active_ = std::move(inv);
    active_->startOverhead = cfg_.kernelStartOverhead;
    flushing_ = false;
    kernelStart_ = now_;

    activeOutputs_.clear();
    activeIdxWriteSlots_.clear();
    const auto &slots = active_->graph->streamSlots();
    for (size_t s = 0; s < slots.size(); s++) {
        SlotId id = active_->slots[s];
        bool rw = slots[s].kind == StreamKind::IdxInLaneRw;
        StreamDir dir = slots[s].isOutput && !rw ? StreamDir::Out
                                                 : StreamDir::In;
        bool indexed = slots[s].kind == StreamKind::IdxInLane ||
            slots[s].kind == StreamKind::IdxCross || rw;
        bool cross = slots[s].kind == StreamKind::IdxCross;
        srf_.configureSlotBinding(id, dir, indexed, cross, rw);
        if (slots[s].isOutput) {
            if (slots[s].kind == StreamKind::SeqOut)
                activeOutputs_.push_back(id);
            else
                activeIdxWriteSlots_.push_back(id);
        }
    }
    for (auto &c : clusters_)
        c.bind(active_.get(), now_);

    if (tracer_.on()) {
        activeKernelName_ = tracer_.intern(active_->graph->name());
        tracer_.begin(traceCh_, activeKernelName_, now_);
    }

    bwSeq0_ = srf_.seqWordsAccessed();
    bwIn0_ = srf_.idxInLaneWords();
    bwCross0_ = srf_.idxCrossWords();
}

void
Machine::finishKernelIfDone(Cycle now)
{
    if (!active_)
        return;
    if (!flushing_) {
        for (auto &c : clusters_)
            if (!c.done(now))
                return;
        for (SlotId id : activeOutputs_)
            srf_.flushSlot(id);
        flushing_ = true;
    }
    for (SlotId id : activeOutputs_)
        if (!srf_.flushComplete(id))
            return;
    for (SlotId id : activeIdxWriteSlots_)
        if (!srf_.idxWritesDrained(id))
            return;

    // Record Figure 13 bandwidth numbers for this kernel.
    KernelBwRecord &rec = kernelBw_[active_->graph->name()];
    uint64_t dur = now >= kernelStart_ ? now - kernelStart_ + 1 : 1;
    rec.laneCycles += dur * lanes();
    rec.seqWords += srf_.seqWordsAccessed() - bwSeq0_;
    rec.inLaneWords += srf_.idxInLaneWords() - bwIn0_;
    rec.crossWords += srf_.idxCrossWords() - bwCross0_;
    rec.invocations++;

    for (auto &c : clusters_)
        c.unbind();
    if (activeKernelName_) {
        if (tracer_.on())
            tracer_.end(traceCh_, activeKernelName_, now);
        activeKernelName_ = nullptr;
    }
    active_.reset();
    flushing_ = false;
}

void
Machine::tick(Cycle now)
{
    Profiler::Scope prof(profiler_, Profiler::MachineTick);
    dataNet_.newCycle();
    srf_.beginCycle(now);

    // Fire scheduled faults after newCycle so injected crossbar stalls
    // survive into this cycle's arbitration.
    if (injector_)
        injector_->inject(now);

    // Statically scheduled inter-cluster traffic occupancy (Figure 18).
    if (cfg_.commOccupancy > 0) {
        for (uint32_t l = 0; l < lanes(); l++)
            if (rng_.chance(cfg_.commOccupancy))
                dataNet_.claimSource(l);
    }

    {
        Profiler::Scope memProf(profiler_, Profiler::MemTick);
        mem_.tick(now);
    }
    {
        Profiler::Scope clProf(profiler_, Profiler::ClusterTick);
        for (auto &c : clusters_)
            c.tick(now);
    }
    {
        Profiler::Scope srfProf(profiler_, Profiler::SrfCycle);
        srf_.endCycle(now);
    }

    // Figure 12 accounting.
    if (active_) {
        for (auto &c : clusters_) {
            switch (c.lastCat()) {
              case CycleCat::Loop: breakdown_.loopBody++; break;
              case CycleCat::SrfStall: breakdown_.srfStall++; break;
              case CycleCat::Overhead:
              case CycleCat::Idle: breakdown_.overhead++; break;
            }
        }
    } else if (mem_.inFlight() > 0) {
        breakdown_.memStall += lanes();
    } else {
        breakdown_.overhead += lanes();
    }

    finishKernelIfDone(now);
}

void
Machine::step(uint64_t n)
{
    for (uint64_t i = 0; i < n; i++) {
        tick(now_);
        if (watchdog_)
            watchdog_->tick(now_);
        if (sampler_)
            sampler_->tick(now_);
        now_++;
    }
}

RunStatus
Machine::stopStatus(uint64_t executed, uint64_t limit)
{
    RunStatus s = RunStatus::Done;
    if (watchdogTriggered()) {
        s = RunStatus::Stalled;
    } else if (cancel_ && cancel_->cancelRequested()) {
        // A relaxed atomic load: cheap enough for every cycle.
        s = RunStatus::Cancelled;
    } else if (cancel_ && now_ >= nextDeadlineCheck_) {
        nextDeadlineCheck_ = now_ + kDeadlineCheckCycles;
        if (cancel_->deadlineExpired())
            s = RunStatus::TimedOut;
    }
    if (s == RunStatus::Done && executed >= limit) {
        // Use this machine's tracer so a multi-machine process never
        // prints another run's events.
        tracer_.dumpTail(stderr, Tracer::kTailEvents, cfg_.name().c_str());
        s = RunStatus::Limit;
    }
    if (s != RunStatus::Done)
        ISRF_WARN("[%s] run stopped: %s after %llu cycles, at cycle %llu%s",
                  cfg_.name().c_str(), runStatusName(s),
                  static_cast<unsigned long long>(executed),
                  static_cast<unsigned long long>(now_),
                  s == RunStatus::Limit ? " (model deadlock?)" : "");
    return s;
}

RunResult
Machine::runUntil(const std::function<bool()> &pred, uint64_t limit)
{
    const Cycle start = now_;
    RunStatus s = RunStatus::Done;
    while (!pred()) {
        s = stopStatus(now_ - start, limit);
        if (s != RunStatus::Done)
            break;
        step();
    }
    noteRunStatus(s);
    return {s, now_ - start};
}

void
Machine::resetStats()
{
    breakdown_.reset();
    kernelBw_.clear();
    mem_.dram().resetStats();
    mem_.cache().resetStats();
}

uint64_t
Machine::geometryHash() const
{
    const SrfGeometry &g = cfg_.srf;
    std::string canon = strprintf(
        "kind=%u srf=%u,%u,%u,%u,%u,%u,%u,%u,%u,%u,%u,%u,%u,%u "
        "mode=%u dram=%llu,%u,%u,%u cache=%u,%u,%u,%u mem=%u,%u,%u "
        "sep=%u,%u ovh=%u comm=%.17g sample=%llu seed=%llu "
        "faults=%u,%llu,%zu wd=%llu,%u",
        static_cast<unsigned>(cfg_.kind), g.lanes, g.laneWords,
        g.seqWidth, g.subArrays, g.streamBufWords, g.addrFifoSize,
        g.seqLatency, g.inLaneLatency, g.crossLaneLatency,
        g.netPortsPerBank, g.maxStreamSlots, g.remoteQueueDepth,
        static_cast<unsigned>(g.netTopology),
        static_cast<unsigned>(g.arbPolicy),
        static_cast<unsigned>(cfg_.srfMode),
        static_cast<unsigned long long>(cfg_.dram.capacityWords),
        cfg_.dram.banks, cfg_.dram.rowBufferModel ? 1u : 0u,
        cfg_.dram.rowWords, cfg_.cache.capacityWords,
        cfg_.cache.lineWords, cfg_.cache.ways, cfg_.cache.banks,
        cfg_.mem.units, cfg_.mem.stagingWords,
        cfg_.mem.cacheEnabled ? 1u : 0u, cfg_.inLaneSeparation,
        cfg_.crossLaneSeparation, cfg_.kernelStartOverhead,
        cfg_.commOccupancy,
        static_cast<unsigned long long>(cfg_.statSampleInterval),
        static_cast<unsigned long long>(cfg_.seed),
        cfg_.faults.enabled ? 1u : 0u,
        static_cast<unsigned long long>(cfg_.faults.seed),
        cfg_.faults.schedule.size(),
        static_cast<unsigned long long>(cfg_.faults.watchdogInterval),
        cfg_.faults.watchdogStallIntervals);
    return fnv1a(canon);
}

void
Machine::snapshotMachineSection(SnapshotIo &io)
{
    rng_.snapshot(io);
    bool wasActive = active_ != nullptr;
    io.b(wasActive);
    // A load restoreBind()s the rebuilt invocation (or clears it)
    // first; a disagreement means the program state and machine state
    // drifted apart.
    io.require(wasActive == (active_ != nullptr));
    auto slotIds = [&](std::vector<SlotId> &ids) {
        io.seq(ids, 4, [&](SlotId &id) { io.asU32(id); });
    };
    slotIds(activeOutputs_);
    slotIds(activeIdxWriteSlots_);
    io.b(flushing_);
    io.u64(kernelStart_);
    io.u64(bwSeq0_);
    io.u64(bwIn0_);
    io.u64(bwCross0_);
    io.u64(breakdown_.loopBody);
    io.u64(breakdown_.memStall);
    io.u64(breakdown_.srfStall);
    io.u64(breakdown_.overhead);
    io.map(kernelBw_, 48, [&](KernelBwRecord &rec) {
        io.u64(rec.laneCycles);
        io.u64(rec.seqWords);
        io.u64(rec.inLaneWords);
        io.u64(rec.crossWords);
        io.u64(rec.invocations);
    });
    io.asU8(lastRunStatus_);
}

std::vector<Machine::SnapshotSection>
Machine::snapshotSections()
{
    auto of = [](auto *c) -> std::function<void(SnapshotIo &)> {
        if (!c)
            return nullptr;
        return [c](SnapshotIo &io) { c->snapshot(io); };
    };
    return {
        {kSnapMachine, "machine",
         [this](SnapshotIo &io) { snapshotMachineSection(io); }, false},
        {kSnapSrf, "srf", of(&srf_), false},
        {kSnapCrossbar, "crossbar", of(&dataNet_), false},
        {kSnapClusters, "clusters",
         [this](SnapshotIo &io) {
             io.expect(clusters_.size(), 1);
             for (Cluster &c : clusters_)
                 c.snapshot(io);
         },
         false},
        {kSnapMemory, "memory", of(&mem_), false},
        {kSnapWatchdog, "watchdog", of(watchdog_.get()), true},
        {kSnapSampler, "sampler", of(sampler_.get()), true},
        {kSnapFaults, "faults", of(injector_.get()), true},
    };
}

void
Machine::saveSnapshot(Snapshot &snap)
{
    snap.version = kSnapshotFormatVersion;
    snap.cycle = now_;
    snap.geometry = geometryHash();
    snap.sections.clear();
    for (const SnapshotSection &s : snapshotSections()) {
        if (!s.io)
            continue;
        SnapshotWriter w;
        SnapshotIo io(w);
        s.io(io);
        snap.addSection(s.tag, w);
    }
}

bool
Machine::loadSnapshot(const Snapshot &snap,
                      std::shared_ptr<KernelInvocation> activeInv,
                      std::string *err)
{
    auto fail = [&](std::string why) {
        if (err)
            *err = std::move(why);
        return false;
    };
    if (snap.geometry != geometryHash())
        return fail(strprintf("snapshot: geometry hash mismatch "
                              "(%016llx vs %016llx)",
                              static_cast<unsigned long long>(
                                  snap.geometry),
                              static_cast<unsigned long long>(
                                  geometryHash())));
    const std::vector<SnapshotSection> sections = snapshotSections();
    // Optional sections must mirror the config-driven component set.
    for (const SnapshotSection &s : sections)
        if (s.optional &&
                (snap.findSection(s.tag) != nullptr) != (s.io != nullptr))
            return fail("snapshot: optional section set does not match "
                        "the machine's component set");

    // Wire the active kernel before the sections that validate
    // against it (MACH's active flag, each cluster's slot count).
    active_ = std::move(activeInv);
    if (active_)
        active_->startOverhead = cfg_.kernelStartOverhead;
    for (Cluster &c : clusters_)
        c.restoreBind(active_.get());
    activeKernelName_ = active_ && tracer_.on()
        ? tracer_.intern(active_->graph->name()) : nullptr;

    // Each section present, parsed whole, and consumed whole.
    for (const SnapshotSection &s : sections) {
        if (!s.io)
            continue;
        const std::string *payload = snap.findSection(s.tag);
        if (!payload)
            return fail(strprintf("snapshot: missing %s section", s.name));
        SnapshotReader r(*payload);
        SnapshotIo io(r);
        s.io(io);
        if (!r.atEnd())
            return fail(strprintf("snapshot: malformed %s section",
                                  s.name));
    }

    // Every component's absolute-cycle state is from `snap`; move the
    // clock last so the machine resumes exactly at the saved boundary.
    now_ = snap.cycle;
    nextDeadlineCheck_ = 0;
    return true;
}

} // namespace isrf
