#include "core/config.h"

#include <string>
#include <vector>

#include "sim/profiler.h"
#include "srf/arbiter.h"
#include "util/env.h"
#include "util/log.h"

namespace isrf {

namespace {

bool
powerOfTwo(uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

const char *
machineKindName(MachineKind kind)
{
    switch (kind) {
      case MachineKind::Base: return "Base";
      case MachineKind::ISRF1: return "ISRF1";
      case MachineKind::ISRF4: return "ISRF4";
      case MachineKind::Cache: return "Cache";
    }
    return "?";
}

MachineConfig
MachineConfig::make(MachineKind kind)
{
    MachineConfig c;
    c.kind = kind;
    switch (kind) {
      case MachineKind::Base:
        c.srfMode = SrfMode::SequentialOnly;
        break;
      case MachineKind::ISRF1:
        c.srfMode = SrfMode::Indexed1;
        break;
      case MachineKind::ISRF4:
        c.srfMode = SrfMode::Indexed4;
        break;
      case MachineKind::Cache:
        c.srfMode = SrfMode::SequentialOnly;
        c.mem.cacheEnabled = true;
        break;
    }
    return c;
}

MachineConfig &
MachineConfig::fromEnv()
{
    std::vector<std::string> errs;
    std::string faultsSpec = envStr("ISRF_FAULTS");
    if (!faultsSpec.empty())
        faults = FaultConfig::parse(faultsSpec);
    statSampleInterval = envU64("ISRF_SAMPLE", statSampleInterval, &errs);
    std::string traceEnv = envStr("ISRF_TRACE");
    if (!traceEnv.empty())
        traceSpec = traceEnv == "0" ? "" : traceEnv;
    std::string engineEnv = envStr("ISRF_ENGINE");
    if (engineEnv == "dense") {
        engineMode = EngineMode::Dense;
    } else if (engineEnv == "skip") {
        engineMode = EngineMode::Skip;
    } else if (!engineEnv.empty()) {
        errs.push_back(strprintf("ISRF_ENGINE='%s' is invalid (expected "
                                 "dense|skip); using %s",
                                 engineEnv.c_str(),
                                 engineModeName(engineMode)));
    }
    Profiler::parseSpec(envStr("ISRF_PROFILE"), profileEnabled,
                        profileStride, &errs);
    traceCapacity = envU64("ISRF_TRACE_CAPACITY", traceCapacity, &errs);
    if (traceCapacity == 0) {
        errs.push_back(strprintf("ISRF_TRACE_CAPACITY=0 is invalid; "
                                 "using default %llu",
                                 static_cast<unsigned long long>(
                                     uint64_t{1} << 16)));
        traceCapacity = 1 << 16;
    }
    warnEnvErrors(errs);
    return *this;
}

void
MachineConfig::validate() const
{
    // Collect every violation before dying so a broken config can be
    // fixed in one pass instead of one fatal() at a time.
    std::vector<std::string> errs;

    if (srf.lanes == 0 || srf.seqWidth == 0 || srf.subArrays == 0)
        errs.push_back("bad SRF geometry: lanes, seqWidth and subArrays "
                       "must all be nonzero");
    if (srf.lanes != 0 && !powerOfTwo(srf.lanes))
        errs.push_back("lanes must be a power of two");
    if (srf.subArrays != 0 && !powerOfTwo(srf.subArrays))
        errs.push_back("subArrays must be a power of two");
    if (srf.seqWidth != 0 && srf.laneWords % srf.seqWidth != 0)
        errs.push_back("laneWords must be a multiple of seqWidth");
    if (srf.seqWidth > 8)
        errs.push_back("seqWidth > 8 unsupported (the sequential row "
                       "buffer is 8 words wide)");
    if (srf.maxStreamSlots + 1 > RoundRobinArbiter::kMaxClaimants)
        errs.push_back("maxStreamSlots must leave the global arbiter "
                       "at most 64 claimants (slots + the indexed "
                       "bundle)");
    if (srf.laneWords == 0)
        errs.push_back("laneWords must be nonzero");
    if (dram.wordsPerCycle <= 0)
        errs.push_back("DRAM bandwidth (wordsPerCycle) must be positive");
    if (dram.accessLatency == 0)
        errs.push_back("DRAM accessLatency must be nonzero");
    if (dram.capacityWords == 0)
        errs.push_back("DRAM capacityWords must be nonzero");
    if (kind == MachineKind::Cache && !mem.cacheEnabled)
        errs.push_back("Cache machine without cache enabled");
    if (kind != MachineKind::Cache && mem.cacheEnabled)
        errs.push_back("cache enabled on non-Cache machine");
    if ((srfMode == SrfMode::SequentialOnly) !=
            (kind == MachineKind::Base || kind == MachineKind::Cache))
        errs.push_back("SRF mode inconsistent with machine kind");
    if (mem.units == 0)
        errs.push_back("mem.units must be nonzero");

    if (errs.empty())
        return;
    std::string msg = "MachineConfig: " +
        std::to_string(errs.size()) + " violation(s):";
    for (const auto &e : errs)
        msg += "\n  - " + e;
    fatal("%s", msg.c_str());
}

} // namespace isrf
