#include "workloads/workload.h"

#include "util/json.h"
#include "util/log.h"
#include "workloads/fft.h"
#include "workloads/filter.h"
#include "workloads/histogram.h"
#include "workloads/igraph.h"
#include "workloads/rijndael.h"
#include "workloads/sort.h"
#include "workloads/sparse.h"
#include "workloads/stencil.h"

namespace isrf {

namespace {

std::map<std::string, WorkloadRunner> &
mutableRegistry()
{
    static std::map<std::string, WorkloadRunner> reg = [] {
        std::map<std::string, WorkloadRunner> r;
        r["FFT 2D"] = runFft2d;
        r["Rijndael"] = runRijndael;
        r["Sort"] = runSort;
        r["Filter"] = runFilter;
        for (const auto &ds : igDatasets()) {
            std::string name = ds.name;
            r[name] = [name](const MachineConfig &cfg,
                             const WorkloadOptions &opts) {
                return runIgraph(name, cfg, opts);
            };
        }
        for (const auto &name : spmvDatasetNames()) {
            r[name] = [name](const MachineConfig &cfg,
                             const WorkloadOptions &opts) {
                return runSpmv(name, cfg, opts);
            };
        }
        for (const auto &name : stencilShapeNames()) {
            r[name] = [name](const MachineConfig &cfg,
                             const WorkloadOptions &opts) {
                return runStencil(name, cfg, opts);
            };
        }
        r["Histogram"] = runHistogram;
        return r;
    }();
    return reg;
}

} // namespace

const std::map<std::string, WorkloadRunner> &
workloadRegistry()
{
    return mutableRegistry();
}

void
registerWorkload(const std::string &name, WorkloadRunner runner)
{
    mutableRegistry()[name] = std::move(runner);
}

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const auto &kv : workloadRegistry())
        names.push_back(kv.first);  // std::map iterates sorted
    return names;
}

std::string
workloadNamesJoined()
{
    std::string joined;
    for (const auto &n : workloadNames()) {
        if (!joined.empty())
            joined += ", ";
        joined += n;
    }
    return joined;
}

WorkloadResult
runWorkload(const std::string &name, MachineKind kind,
            const WorkloadOptions &opts)
{
    return runWorkload(name, MachineConfig::make(kind), opts);
}

WorkloadResult
runWorkload(const std::string &name, const MachineConfig &cfg,
            const WorkloadOptions &opts)
{
    const auto &reg = workloadRegistry();
    auto it = reg.find(name);
    if (it == reg.end())
        fatal("runWorkload: unknown workload '%s'; registered: %s",
              name.c_str(), workloadNamesJoined().c_str());
    return it->second(cfg, opts);
}

void
harvestResult(WorkloadResult &res, Machine &m, uint64_t cycles)
{
    // The machine's private trace and profile die with it; the result
    // carries copies to whoever folds them (bench --trace/--profile).
    if (m.tracer().size() > 0) {
        auto trace = std::make_shared<Tracer>();
        trace->setCapacity(m.tracer().capacity());
        trace->mergeFrom(m.tracer());
        res.trace = std::move(trace);
    }
    res.profile = m.profiler();
    res.kind = m.config().kind;
    res.cycles = cycles;
    res.breakdown = m.breakdown();
    res.dramWords = m.mem().dram().wordsTransferred();
    res.dramPagesTouched = m.mem().dram().touchedPages();
    res.srfSeqWords = m.srf().seqWordsAccessed();
    res.srfIdxWords = m.srf().idxInLaneWords() + m.srf().idxCrossWords();
    res.cacheWords = m.mem().cache().hits();
    res.kernelBw = m.kernelBw();
    checkBreakdownInvariant(res, m.lanes());
    checkIdxDrainInvariant(res, m.srf());
    if (m.faultsEnabled()) {
        // Background-scrub before harvesting so lingering correctable
        // faults are repaired (and counted) ahead of validation dumps.
        m.scrubFaults();
        uint64_t injected = m.srf().faultsInjected() +
            m.mem().dram().ecc().faultsInjected();
        uint64_t corrected = m.srf().eccCorrected() +
            m.mem().dram().ecc().corrected();
        uint64_t uncorrectable = m.srf().eccUncorrectable() +
            m.mem().dram().ecc().uncorrectable();
        res.extra["faults_injected"] = static_cast<double>(injected);
        res.extra["ecc_corrected"] = static_cast<double>(corrected);
        res.extra["ecc_uncorrectable"] = static_cast<double>(uncorrectable);
        res.extra["retries"] = static_cast<double>(m.mem().retries());
        res.extra["poisoned_words"] =
            static_cast<double>(m.mem().poisonedWords());
        res.extra["degraded_subarrays"] =
            static_cast<double>(m.srf().offlineSubArrays());
    }
}

bool
checkBreakdownInvariant(WorkloadResult &res, uint32_t lanes)
{
    const TimeBreakdown &b = res.breakdown;
    const uint64_t want = static_cast<uint64_t>(lanes) * res.cycles;
    if (b.total() == want)
        return true;
    res.status = RunStatus::Failed;
    res.correct = false;
    res.error = strprintf(
        "breakdown invariant violated: loop_body %llu + srf_stall %llu + "
        "mem_stall %llu + overhead %llu = %llu lane-cycles, expected "
        "%u lanes x %llu cycles = %llu",
        static_cast<unsigned long long>(b.loopBody),
        static_cast<unsigned long long>(b.srfStall),
        static_cast<unsigned long long>(b.memStall),
        static_cast<unsigned long long>(b.overhead),
        static_cast<unsigned long long>(b.total()), lanes,
        static_cast<unsigned long long>(res.cycles),
        static_cast<unsigned long long>(want));
    return false;
}

bool
checkIdxDrainInvariant(WorkloadResult &res, const Srf &srf)
{
    if (res.status != RunStatus::Done)
        return true;
    const Srf::IdxInFlight f = srf.idxInFlight();
    if (!f.any())
        return true;
    res.status = RunStatus::Failed;
    res.correct = false;
    res.error = strprintf(
        "indexed drain invariant violated at Done: in-lane FIFO lanes "
        "0x%llx, cross-lane FIFO lanes 0x%llx, remote-request banks "
        "0x%llx, return-queue banks 0x%llx, %llu undelivered records, "
        "%llu unretired writes",
        static_cast<unsigned long long>(f.inLaneFifoLanes),
        static_cast<unsigned long long>(f.crossFifoLanes),
        static_cast<unsigned long long>(f.remoteBanks),
        static_cast<unsigned long long>(f.returnBanks),
        static_cast<unsigned long long>(f.undeliveredRecords),
        static_cast<unsigned long long>(f.unretiredWrites));
    return false;
}

void
resultJson(JsonWriter &w, const WorkloadResult &res)
{
    w.beginObject();
    w.field("workload", res.workload);
    w.field("machine", std::string(machineKindName(res.kind)));
    w.field("cycles", res.cycles);
    w.field("correct", res.correct);
    w.field("status", std::string(runStatusName(res.status)));
    w.field("error", res.error);
    w.key("breakdown").beginObject();
    w.field("loop_body", res.breakdown.loopBody);
    w.field("mem_stall", res.breakdown.memStall);
    w.field("srf_stall", res.breakdown.srfStall);
    w.field("overhead", res.breakdown.overhead);
    w.endObject();
    w.field("dram_words", res.dramWords);
    w.field("srf_seq_words", res.srfSeqWords);
    w.field("srf_idx_words", res.srfIdxWords);
    w.field("cache_words", res.cacheWords);
    w.key("kernels").beginArray();
    for (const auto &kv : res.kernelBw) {
        const KernelBwRecord &r = kv.second;
        w.beginObject();
        w.field("name", kv.first);
        w.field("invocations", r.invocations);
        w.field("lane_cycles", r.laneCycles);
        w.field("seq_words_per_lane_cycle", r.seqPerLaneCycle());
        w.field("in_lane_words_per_lane_cycle", r.inLanePerLaneCycle());
        w.field("cross_words_per_lane_cycle", r.crossPerLaneCycle());
        w.endObject();
    }
    w.endArray();
    w.key("extra").beginObject();
    for (const auto &kv : res.extra)
        w.field(kv.first, kv.second);
    w.endObject();
    w.endObject();
}

std::string
resultJson(const WorkloadResult &res)
{
    JsonWriter w;
    resultJson(w, res);
    return w.str();
}

} // namespace isrf
