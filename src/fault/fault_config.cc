#include "fault/fault_config.h"

#include <cstdlib>
#include <utility>

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

/** Spec parsing state: the first error is kept, later ones dropped. */
struct SpecParser
{
    std::string err;

    void
    fail(const std::string &msg)
    {
        if (err.empty())
            err = "fault spec: " + msg;
    }

    /** A number value; 0 (and an error) when it is missing or bad. */
    uint64_t
    num(const std::string &key, const std::string &val)
    {
        if (val.empty()) {
            fail(strprintf("key '%s' needs a value", key.c_str()));
            return 0;
        }
        char *end = nullptr;
        uint64_t n = std::strtoull(val.c_str(), &end, 0);
        if (end == nullptr || *end != '\0')
            fail(strprintf("bad number '%s' for key '%s'", val.c_str(),
                           key.c_str()));
        return n;
    }

    FaultScheduleEntry
    entry(FaultKind kind, const std::string &params)
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
            std::string val =
                eq == std::string::npos ? "" : kv.substr(eq + 1);
            if (key == "start") {
                e.start = num(key, val);
            } else if (key == "period") {
                e.period = num(key, val);
                if (e.period == 0)
                    fail(strprintf("%s period must be nonzero",
                                   faultKindName(kind)));
            } else if (key == "count") {
                e.count = num(key, val);
            } else if (key == "bits") {
                e.bits = static_cast<uint32_t>(num(key, val));
                if (e.bits == 0 || e.bits > 32)
                    fail("bits must be 1..32");
            } else if (key == "delay") {
                e.delayCycles = static_cast<uint32_t>(num(key, val));
            } else if (key == "max") {
                e.maxAddr = num(key, val);
            } else if (key == "transient") {
                e.transient = val.empty() || num(key, val) != 0;
            } else {
                fail(strprintf("unknown %s key '%s'", faultKindName(kind),
                               key.c_str()));
            }
        }
        return e;
    }
};

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

} // namespace

bool
FaultConfig::tryParse(const std::string &spec, FaultConfig &out,
                      std::string *err)
{
    if (spec.empty() || spec == "0") {
        out = FaultConfig();
        return true;
    }
    FaultConfig fc;
    fc.enabled = true;
    SpecParser p;
    for (const std::string &seg : split(spec, ';')) {
        if (seg.empty())
            continue;
        size_t colon = seg.find(':');
        if (colon != std::string::npos) {
            FaultKind kind;
            std::string name = seg.substr(0, colon);
            if (parseKind(name, &kind))
                fc.schedule.push_back(p.entry(kind, seg.substr(colon + 1)));
            else
                p.fail(strprintf("unknown fault kind '%s'", name.c_str()));
            continue;
        }
        // A bare kind name is an entry with all-default parameters.
        FaultKind bare;
        if (seg.find('=') == std::string::npos && parseKind(seg, &bare)) {
            fc.schedule.push_back(p.entry(bare, ""));
            continue;
        }
        size_t eq = seg.find('=');
        std::string key = seg.substr(0, eq);
        std::string val = eq == std::string::npos ? "" : seg.substr(eq + 1);
        if (key == "seed") {
            fc.seed = p.num(key, val);
        } else if (key == "ecc") {
            fc.eccEnabled = p.num(key, val) != 0;
        } else if (key == "retry") {
            fc.retryLimit = static_cast<uint32_t>(p.num(key, val));
        } else if (key == "backoff") {
            fc.retryBackoffBase = static_cast<uint32_t>(p.num(key, val));
        } else if (key == "timeout") {
            fc.opTimeoutCycles = p.num(key, val);
        } else if (key == "threshold") {
            fc.degradeThreshold = static_cast<uint32_t>(p.num(key, val));
        } else if (key == "watchdog") {
            fc.watchdogInterval = p.num(key, val);
        } else if (key == "stall_intervals") {
            fc.watchdogStallIntervals =
                static_cast<uint32_t>(p.num(key, val));
            if (fc.watchdogStallIntervals == 0)
                p.fail("stall_intervals must be nonzero");
        } else {
            p.fail(strprintf("unknown key '%s'", key.c_str()));
        }
    }
    if (!p.err.empty()) {
        if (err)
            *err = p.err;
        return false;
    }
    out = std::move(fc);
    return true;
}

FaultConfig
FaultConfig::parse(const std::string &spec)
{
    FaultConfig fc;
    std::string err;
    if (!tryParse(spec, fc, &err))
        fatal("%s", err.c_str());
    return fc;
}

} // namespace isrf
