/**
 * @file
 * Machine configurations reproducing Tables 2 and 3 of the paper.
 */
#ifndef ISRF_CORE_CONFIG_H
#define ISRF_CORE_CONFIG_H

#include <string>

#include "fault/fault_config.h"
#include "kernel/scheduler.h"
#include "mem/cache.h"
#include "mem/dram.h"
#include "mem/memory_system.h"
#include "sim/types.h"
#include "srf/srf_types.h"

namespace isrf {

/** The four machine configurations of Table 2. */
enum class MachineKind : uint8_t {
    Base,    ///< sequential SRF + DRAM
    ISRF1,   ///< indexed SRF, 1 word/cycle/lane in-lane + cross-lane
    ISRF4,   ///< indexed SRF, 4 words/cycle/lane in-lane + cross-lane
    Cache,   ///< sequential SRF + on-chip vector cache + DRAM
};

const char *machineKindName(MachineKind kind);

/** Full machine parameterization (defaults = Table 3). */
struct MachineConfig
{
    MachineKind kind = MachineKind::Base;
    SrfGeometry srf;
    SrfMode srfMode = SrfMode::SequentialOnly;
    DramConfig dram;
    CacheConfig cache;
    MemSystemConfig mem;
    ClusterResources cluster;

    /**
     * Fixed scheduling separation between indexed address issue and
     * data read (§5.1: 6 cycles in-lane, 20 cross-lane).
     */
    uint32_t inLaneSeparation = 6;
    uint32_t crossLaneSeparation = 20;

    /** Kernel dispatch overhead in cycles (microcode + descriptors). */
    uint32_t kernelStartOverhead = 64;

    /**
     * Fraction of cycles each cluster's network injection port is held
     * by statically scheduled communication unrelated to cross-lane SRF
     * access (the Figure 18 x-axis knob).
     */
    double commOccupancy = 0.0;

    /**
     * Snapshot machine stats every N cycles into the StatSampler
     * (0 = sampling off). fromEnv() overlays ISRF_SAMPLE here.
     */
    uint64_t statSampleInterval = 0;

    uint64_t seed = 1;

    /**
     * Fault-injection / ECC / degradation model (disabled by default).
     * fromEnv() overlays ISRF_FAULTS here; see FaultConfig::parse for
     * the spec syntax.
     */
    FaultConfig faults;

    /**
     * Channel spec for the machine's own event tracer (sim/trace.h
     * ISRF_TRACE syntax; "" = tracing off). fromEnv() overlays
     * ISRF_TRACE here.
     */
    std::string traceSpec;

    /** Trace ring capacity in events (ISRF_TRACE_CAPACITY). */
    uint64_t traceCapacity = 1 << 16;

    /**
     * Host-side self-profiling (sim/profiler.h): attribute the
     * simulator's own wall-clock time to phases. Pure observability —
     * a profiled run's results are byte-identical to an unprofiled
     * one. fromEnv() overlays ISRF_PROFILE (0|off|1|on|on:<stride>)
     * here.
     */
    bool profileEnabled = false;

    /** Hot-phase sampling stride: time 1 of every N scope entries. */
    uint64_t profileStride = 64;

    std::string name() const { return machineKindName(kind); }

    /** Factory for each Table 2 row. Never reads the environment. */
    static MachineConfig make(MachineKind kind);
    static MachineConfig base() { return make(MachineKind::Base); }
    static MachineConfig isrf1() { return make(MachineKind::ISRF1); }
    static MachineConfig isrf4() { return make(MachineKind::ISRF4); }
    static MachineConfig cacheCfg() { return make(MachineKind::Cache); }

    /**
     * Overlay the ISRF_* environment overrides (ISRF_FAULTS,
     * ISRF_SAMPLE, ISRF_TRACE, ISRF_TRACE_CAPACITY, ISRF_PROFILE)
     * onto this config and return it. This is the ONE place the
     * environment is consulted: Machine::init reads only the config
     * it is handed, so machines built in the same process can never
     * observe each other's configuration. Malformed numeric values are
     * collected and reported in a single warning, then defaulted (a
     * bad ISRF_FAULTS spec is still a user error and fatal()s, as
     * before).
     */
    MachineConfig &fromEnv();

    /**
     * Check invariants. Collects every violation and reports them all
     * in one fatal() so a bad config is fixable in a single pass.
     */
    void validate() const;
};

} // namespace isrf

#endif // ISRF_CORE_CONFIG_H
