#include "fault/fault_config.h"

#include <cstdlib>

#include "util/log.h"

namespace isrf {

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::SrfBit: return "srf_bit";
      case FaultKind::DramBit: return "dram_bit";
      case FaultKind::MemDrop: return "mem_drop";
      case FaultKind::MemDelay: return "mem_delay";
      case FaultKind::XbarStall: return "xbar_stall";
    }
    return "?";
}

namespace {

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    size_t pos = 0;
    while (pos <= s.size()) {
        size_t end = s.find(sep, pos);
        if (end == std::string::npos)
            end = s.size();
        out.push_back(s.substr(pos, end - pos));
        pos = end + 1;
    }
    return out;
}

uint64_t
parseNum(const std::string &key, const std::string &val)
{
    if (val.empty())
        fatal("fault spec: key '%s' needs a value", key.c_str());
    char *end = nullptr;
    uint64_t n = std::strtoull(val.c_str(), &end, 0);
    if (end == nullptr || *end != '\0')
        fatal("fault spec: bad number '%s' for key '%s'", val.c_str(),
              key.c_str());
    return n;
}

bool
parseKind(const std::string &name, FaultKind *kind)
{
    for (FaultKind k : {FaultKind::SrfBit, FaultKind::DramBit,
                        FaultKind::MemDrop, FaultKind::MemDelay,
                        FaultKind::XbarStall}) {
        if (name == faultKindName(k)) {
            *kind = k;
            return true;
        }
    }
    return false;
}

FaultScheduleEntry
parseEntry(FaultKind kind, const std::string &params)
{
    FaultScheduleEntry e;
    e.kind = kind;
    if (params.empty())
        return e;
    for (const std::string &kv : split(params, ',')) {
        if (kv.empty())
            continue;
        size_t eq = kv.find('=');
        std::string key = kv.substr(0, eq);
        std::string val = eq == std::string::npos ? "" : kv.substr(eq + 1);
        if (key == "start") {
            e.start = parseNum(key, val);
        } else if (key == "period") {
            e.period = parseNum(key, val);
            if (e.period == 0)
                fatal("fault spec: %s period must be nonzero",
                      faultKindName(kind));
        } else if (key == "count") {
            e.count = parseNum(key, val);
        } else if (key == "bits") {
            e.bits = static_cast<uint32_t>(parseNum(key, val));
            if (e.bits == 0 || e.bits > 32)
                fatal("fault spec: bits must be 1..32");
        } else if (key == "delay") {
            e.delayCycles = static_cast<uint32_t>(parseNum(key, val));
        } else if (key == "max") {
            e.maxAddr = parseNum(key, val);
        } else if (key == "transient") {
            e.transient = val.empty() || parseNum(key, val) != 0;
        } else {
            fatal("fault spec: unknown %s key '%s'", faultKindName(kind),
                  key.c_str());
        }
    }
    return e;
}

} // namespace

FaultConfig
FaultConfig::parse(const std::string &spec)
{
    FaultConfig fc;
    if (spec.empty() || spec == "0")
        return fc;
    fc.enabled = true;
    for (const std::string &seg : split(spec, ';')) {
        if (seg.empty())
            continue;
        size_t colon = seg.find(':');
        if (colon != std::string::npos) {
            FaultKind kind;
            std::string name = seg.substr(0, colon);
            if (!parseKind(name, &kind))
                fatal("fault spec: unknown fault kind '%s'", name.c_str());
            fc.schedule.push_back(parseEntry(kind, seg.substr(colon + 1)));
            continue;
        }
        // A bare kind name is an entry with all-default parameters.
        FaultKind bare;
        if (seg.find('=') == std::string::npos && parseKind(seg, &bare)) {
            fc.schedule.push_back(parseEntry(bare, ""));
            continue;
        }
        size_t eq = seg.find('=');
        std::string key = seg.substr(0, eq);
        std::string val = eq == std::string::npos ? "" : seg.substr(eq + 1);
        if (key == "seed") {
            fc.seed = parseNum(key, val);
        } else if (key == "ecc") {
            fc.eccEnabled = parseNum(key, val) != 0;
        } else if (key == "retry") {
            fc.retryLimit = static_cast<uint32_t>(parseNum(key, val));
        } else if (key == "backoff") {
            fc.retryBackoffBase = static_cast<uint32_t>(parseNum(key, val));
        } else if (key == "timeout") {
            fc.opTimeoutCycles = parseNum(key, val);
        } else if (key == "threshold") {
            fc.degradeThreshold = static_cast<uint32_t>(parseNum(key, val));
        } else if (key == "watchdog") {
            fc.watchdogInterval = parseNum(key, val);
        } else if (key == "stall_intervals") {
            fc.watchdogStallIntervals =
                static_cast<uint32_t>(parseNum(key, val));
            if (fc.watchdogStallIntervals == 0)
                fatal("fault spec: stall_intervals must be nonzero");
        } else {
            fatal("fault spec: unknown key '%s'", key.c_str());
        }
    }
    return fc;
}

} // namespace isrf
