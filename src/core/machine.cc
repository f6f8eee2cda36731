#include "core/machine.h"

#include "util/hash.h"
#include "util/log.h"

namespace isrf {

void
Machine::init(const MachineConfig &cfg)
{
    cfg.validate();
    cfg_ = cfg;
    // Re-initialization safety: drop every engine registration first.
    // A second init() used to leave the engine holding dangling
    // pointers to the watchdog/sampler destroyed below (and a stale
    // clock); clear() is the one sanctioned way to rebuild.
    engine_.clear();
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
    engine_.setTracer(&tracer_, cfg_.name());
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
    engine_.add(this);
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
        engine_.add(watchdog_.get());
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
    // Register last so it samples after every component has ticked.
    engine_.add(sampler_.get());
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
    kernelStart_ = engine_.now();

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
        c.bind(active_.get(), engine_.now());

    if (tracer_.on()) {
        activeKernelName_ = tracer_.intern(active_->graph->name());
        tracer_.begin(traceCh_, activeKernelName_, engine_.now());
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
Machine::saveMachineSection(SnapshotWriter &w) const
{
    rng_.saveState(w);
    w.b(active_ != nullptr);
    w.u64(activeOutputs_.size());
    for (SlotId id : activeOutputs_)
        w.u32(static_cast<uint32_t>(id));
    w.u64(activeIdxWriteSlots_.size());
    for (SlotId id : activeIdxWriteSlots_)
        w.u32(static_cast<uint32_t>(id));
    w.b(flushing_);
    w.u64(kernelStart_);
    w.u64(bwSeq0_);
    w.u64(bwIn0_);
    w.u64(bwCross0_);
    w.u64(breakdown_.loopBody);
    w.u64(breakdown_.memStall);
    w.u64(breakdown_.srfStall);
    w.u64(breakdown_.overhead);
    w.u64(kernelBw_.size());
    for (const auto &[name, rec] : kernelBw_) {
        w.str(name);
        w.u64(rec.laneCycles);
        w.u64(rec.seqWords);
        w.u64(rec.inLaneWords);
        w.u64(rec.crossWords);
        w.u64(rec.invocations);
    }
    w.u8(static_cast<uint8_t>(lastRunStatus_));
}

bool
Machine::loadMachineSection(SnapshotReader &r)
{
    if (!rng_.loadState(r))
        return false;
    bool wasActive = false;
    if (!r.b(wasActive))
        return false;
    // The caller restoreBind()s the rebuilt invocation (or clears it)
    // before handing over the reader; a disagreement means the program
    // state and machine state drifted apart.
    if (wasActive != (active_ != nullptr)) {
        r.markFailed();
        return false;
    }
    uint64_t n = 0;
    if (!r.len(n, 4))
        return false;
    activeOutputs_.resize(n);
    for (SlotId &id : activeOutputs_) {
        uint32_t raw = 0;
        if (!r.u32(raw))
            return false;
        id = static_cast<SlotId>(raw);
    }
    if (!r.len(n, 4))
        return false;
    activeIdxWriteSlots_.resize(n);
    for (SlotId &id : activeIdxWriteSlots_) {
        uint32_t raw = 0;
        if (!r.u32(raw))
            return false;
        id = static_cast<SlotId>(raw);
    }
    if (!r.b(flushing_) || !r.u64(kernelStart_) || !r.u64(bwSeq0_) ||
        !r.u64(bwIn0_) || !r.u64(bwCross0_) ||
        !r.u64(breakdown_.loopBody) || !r.u64(breakdown_.memStall) ||
        !r.u64(breakdown_.srfStall) || !r.u64(breakdown_.overhead))
        return false;
    uint64_t nbw = 0;
    if (!r.len(nbw, 48))
        return false;
    kernelBw_.clear();
    for (uint64_t i = 0; i < nbw; i++) {
        std::string name;
        KernelBwRecord rec;
        if (!r.str(name) || !r.u64(rec.laneCycles) ||
            !r.u64(rec.seqWords) || !r.u64(rec.inLaneWords) ||
            !r.u64(rec.crossWords) || !r.u64(rec.invocations))
            return false;
        kernelBw_[name] = rec;
    }
    uint8_t status = 0;
    if (!r.u8(status))
        return false;
    lastRunStatus_ = static_cast<RunStatus>(status);
    return true;
}

void
Machine::saveSnapshot(Snapshot &snap)
{
    snap.version = kSnapshotFormatVersion;
    snap.cycle = engine_.now();
    snap.geometry = geometryHash();
    snap.sections.clear();

    SnapshotWriter mach;
    saveMachineSection(mach);
    snap.addSection(kSnapMachine, mach);

    SnapshotWriter srf;
    srf_.saveState(srf);
    snap.addSection(kSnapSrf, srf);

    SnapshotWriter xbar;
    dataNet_.saveState(xbar);
    snap.addSection(kSnapCrossbar, xbar);

    SnapshotWriter clus;
    clus.u64(clusters_.size());
    for (const Cluster &c : clusters_)
        c.saveState(clus);
    snap.addSection(kSnapClusters, clus);

    SnapshotWriter mem;
    mem_.saveState(mem);
    snap.addSection(kSnapMemory, mem);

    if (watchdog_) {
        SnapshotWriter wdog;
        watchdog_->saveState(wdog);
        snap.addSection(kSnapWatchdog, wdog);
    }
    if (sampler_) {
        SnapshotWriter samp;
        sampler_->saveState(samp);
        snap.addSection(kSnapSampler, samp);
    }
    if (injector_) {
        SnapshotWriter finj;
        injector_->saveState(finj);
        snap.addSection(kSnapFaults, finj);
    }
}

namespace {

/** One section restore: present, parsed whole, and consumed whole. */
template <typename F>
bool
loadSection(const Snapshot &snap, uint32_t tag, const char *what,
            std::string *err, F &&load)
{
    const std::string *payload = snap.findSection(tag);
    if (!payload) {
        if (err)
            *err = strprintf("snapshot: missing %s section", what);
        return false;
    }
    SnapshotReader r(*payload);
    if (!load(r) || !r.atEnd()) {
        if (err)
            *err = strprintf("snapshot: malformed %s section", what);
        return false;
    }
    return true;
}

} // namespace

bool
Machine::loadSnapshot(const Snapshot &snap,
                      std::shared_ptr<KernelInvocation> activeInv,
                      std::string *err)
{
    if (snap.geometry != geometryHash()) {
        if (err)
            *err = strprintf("snapshot: geometry hash mismatch "
                             "(%016llx vs %016llx)",
                             static_cast<unsigned long long>(
                                 snap.geometry),
                             static_cast<unsigned long long>(
                                 geometryHash()));
        return false;
    }
    // Optional sections must mirror the config-driven component set.
    if ((snap.findSection(kSnapWatchdog) != nullptr) !=
            (watchdog_ != nullptr) ||
        (snap.findSection(kSnapSampler) != nullptr) !=
            (sampler_ != nullptr) ||
        (snap.findSection(kSnapFaults) != nullptr) !=
            (injector_ != nullptr)) {
        if (err)
            *err = "snapshot: optional section set does not match "
                   "the machine's component set";
        return false;
    }

    // Wire the active kernel before the sections that validate
    // against it (MACH's active flag, each cluster's slot count).
    active_ = std::move(activeInv);
    if (active_)
        active_->startOverhead = cfg_.kernelStartOverhead;
    for (Cluster &c : clusters_)
        c.restoreBind(active_.get());
    activeKernelName_ = active_ && tracer_.on()
        ? tracer_.intern(active_->graph->name()) : nullptr;

    bool ok =
        loadSection(snap, kSnapMachine, "machine", err,
                    [&](SnapshotReader &r) {
                        return loadMachineSection(r);
                    }) &&
        loadSection(snap, kSnapSrf, "srf", err,
                    [&](SnapshotReader &r) {
                        return srf_.loadState(r);
                    }) &&
        loadSection(snap, kSnapCrossbar, "crossbar", err,
                    [&](SnapshotReader &r) {
                        return dataNet_.loadState(r);
                    }) &&
        loadSection(snap, kSnapClusters, "clusters", err,
                    [&](SnapshotReader &r) {
                        uint64_t n = 0;
                        if (!r.len(n, 1) || n != clusters_.size())
                            return false;
                        for (Cluster &c : clusters_)
                            if (!c.loadState(r))
                                return false;
                        return true;
                    }) &&
        loadSection(snap, kSnapMemory, "memory", err,
                    [&](SnapshotReader &r) {
                        return mem_.loadState(r);
                    });
    if (ok && watchdog_)
        ok = loadSection(snap, kSnapWatchdog, "watchdog", err,
                         [&](SnapshotReader &r) {
                             return watchdog_->loadState(r);
                         });
    if (ok && sampler_)
        ok = loadSection(snap, kSnapSampler, "sampler", err,
                         [&](SnapshotReader &r) {
                             return sampler_->loadState(r);
                         });
    if (ok && injector_)
        ok = loadSection(snap, kSnapFaults, "faults", err,
                         [&](SnapshotReader &r) {
                             return injector_->loadState(r);
                         });
    if (!ok)
        return false;

    // Every component's absolute-cycle state is from `snap`; move the
    // clock last so the machine resumes exactly at the saved boundary.
    engine_.restoreClock(snap.cycle);
    return true;
}

} // namespace isrf
