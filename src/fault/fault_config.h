/**
 * @file
 * Configuration for the deterministic fault-injection and resilience
 * layer: what to inject (a seeded, schedule-driven fault plan) and how
 * the machine responds (ECC, retry/backoff, degradation, watchdog).
 *
 * The schedule is wall-clock free: every entry fires at fixed simulated
 * cycles, and target addresses/bits come from the machine's seeded
 * PRNG, so a given (config, seed) pair reproduces bit-identical runs.
 *
 * Spec syntax (the bench `--faults` flag); semicolon-separated global
 * keys and schedule entries:
 *
 *   seed=7;retry=4;backoff=4;srf_bit:start=100,period=50,count=200
 *
 * Global keys:
 *   seed=N        injector PRNG seed (default: machine seed)
 *   ecc=0|1       SECDED modeling on/off (default 1)
 *   retry=N       max re-reads of an uncorrectable DRAM word
 *   backoff=N     base retry backoff in cycles (doubles per retry)
 *   timeout=N     per-op retry budget in cycles (0 = unlimited)
 *   threshold=N   uncorrectable errors before a sub-array goes offline
 *                 (0 = degradation off)
 *   watchdog=N    progress-check interval in cycles (0 = watchdog off)
 *   stall_intervals=N  zero-progress intervals before triggering
 *
 * Schedule entries are `kind:key=val,...` with kinds srf_bit, dram_bit,
 * mem_drop, mem_delay, xbar_stall and keys:
 *   start=N     first firing cycle (default 0)
 *   period=N    cycles between firings (default 1)
 *   count=N     number of firings (default 1)
 *   bits=N      bits flipped per firing (srf_bit/dram_bit; default 1)
 *   delay=N     stall cycles per firing (mem_delay; default 8)
 *   max=N       restrict target addresses to [0, N) (default: whole
 *               array)
 *   transient   fault clears on first detection (retry succeeds)
 */
#ifndef ISRF_FAULT_FAULT_CONFIG_H
#define ISRF_FAULT_FAULT_CONFIG_H

#include <cstdint>
#include <string>
#include <vector>

namespace isrf {

/** What one schedule entry injects. */
enum class FaultKind : uint8_t {
    SrfBit,     ///< flip bits in a random SRF bank word
    DramBit,    ///< flip bits in a random DRAM word
    MemDrop,    ///< drop an in-flight stream-memory word (re-fetched)
    MemDelay,   ///< stall a stream memory unit for `delayCycles`
    XbarStall,  ///< steal a random lane's crossbar grant this cycle
};

const char *faultKindName(FaultKind kind);

/** One periodic fault source in the injection schedule. */
struct FaultScheduleEntry
{
    FaultKind kind = FaultKind::SrfBit;
    uint64_t start = 0;       ///< first firing cycle
    uint64_t period = 1;      ///< cycles between firings
    uint64_t count = 1;       ///< total firings
    uint32_t bits = 1;        ///< bits flipped per firing
    uint32_t delayCycles = 8; ///< MemDelay stall length
    uint64_t maxAddr = 0;     ///< restrict addresses to [0,maxAddr) (0=all)
    bool transient = false;   ///< clears on first detection
};

/** Fault model + resilience policy (MachineConfig::faults). */
struct FaultConfig
{
    bool enabled = false;
    uint64_t seed = 0;        ///< injector PRNG seed (0 = machine seed)
    bool eccEnabled = true;

    /** Retry policy for detected-uncorrectable DRAM reads. */
    uint32_t retryLimit = 4;
    uint32_t retryBackoffBase = 4;  ///< cycles; doubles per retry
    uint64_t opTimeoutCycles = 0;   ///< per-op retry budget (0 = none)

    /** Uncorrectable errors before a sub-array is taken offline. */
    uint32_t degradeThreshold = 8;

    /** Watchdog progress-check interval (0 = off). */
    uint64_t watchdogInterval = 0;
    uint32_t watchdogStallIntervals = 4;

    std::vector<FaultScheduleEntry> schedule;

    /**
     * Parse a fault spec into `out`, a config with enabled=true.
     * An empty or "0" spec gives a disabled config. A bad spec (unknown
     * key or kind, missing or malformed value, out-of-range parameter)
     * returns false with a message in *err and leaves `out` alone.
     */
    static bool tryParse(const std::string &spec, FaultConfig &out,
                         std::string *err);

    /** tryParse(), with a bad spec a user error (fatal()). */
    static FaultConfig parse(const std::string &spec);
};

} // namespace isrf

#endif // ISRF_FAULT_FAULT_CONFIG_H
