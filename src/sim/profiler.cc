#include "sim/profiler.h"

#include <chrono>

#include "util/json.h"

namespace isrf {

namespace {

int64_t
nowNs()
{
    return std::chrono::steady_clock::now().time_since_epoch().count();
}

} // namespace

const char *
Profiler::phaseName(Phase p)
{
    switch (p) {
      case MachineTick: return "machine_tick";
      case ClusterTick: return "cluster_tick";
      case SrfCycle: return "srf_port_arb";
      case MemTick: return "mem_tick";
      case Journal: return "journal";
      case Report: return "report_serialize";
      case Run: return "run_loop";
      case kPhaseCount: break;
    }
    return "?";
}

bool
Profiler::phaseSampled(Phase p)
{
    switch (p) {
      case MachineTick:
      case ClusterTick:
      case SrfCycle:
      case MemTick:
        return true;
      default:
        return false;
    }
}

void
Profiler::configure(bool enabled, uint64_t stride)
{
    enabled_ = enabled;
    stride_ = stride ? stride : 1;
}

void
Profiler::reset()
{
    for (auto &a : acc_) {
        a.calls.store(0, std::memory_order_relaxed);
        a.timed.store(0, std::memory_order_relaxed);
        a.ns.store(0, std::memory_order_relaxed);
        a.depth.store(0, std::memory_order_relaxed);
    }
}

void
Profiler::mergeFrom(const Profiler &other)
{
    for (int p = 0; p < kPhaseCount; p++) {
        const Acc &src = other.acc_[p];
        Acc &dst = acc_[p];
        dst.calls.fetch_add(src.calls.load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
        dst.timed.fetch_add(src.timed.load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
        dst.ns.fetch_add(src.ns.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    }
}

void
Profiler::enter(Scope &s, Phase ph)
{
    Acc &a = acc_[ph];
    // Reentrancy guard: only the outermost scope of a phase counts or
    // times — an inner scope's cost is already inside the outer span.
    if (a.depth.fetch_add(1, std::memory_order_relaxed) != 0)
        return;
    s.outer_ = true;
    uint64_t call = a.calls.fetch_add(1, std::memory_order_relaxed);
    if (phaseSampled(ph) && call % stride_ != 0)
        return;
    s.timing_ = true;
    s.t0_ = nowNs();
}

void
Profiler::leave(Scope &s, Phase ph)
{
    Acc &a = acc_[ph];
    if (s.timing_) {
        a.ns.fetch_add(static_cast<uint64_t>(nowNs() - s.t0_),
                       std::memory_order_relaxed);
        a.timed.fetch_add(1, std::memory_order_relaxed);
    }
    a.depth.fetch_sub(1, std::memory_order_relaxed);
}

Profiler::PhaseStats
Profiler::phase(Phase p) const
{
    const Acc &a = acc_[p];
    PhaseStats s;
    s.calls = a.calls.load(std::memory_order_relaxed);
    s.timed = a.timed.load(std::memory_order_relaxed);
    s.ns = a.ns.load(std::memory_order_relaxed);
    return s;
}

double
Profiler::leafEstNs() const
{
    double total = 0.0;
    for (int p = 0; p < kPhaseCount; p++) {
        if (p == MachineTick || p == Run)
            continue;  // umbrellas: they contain the leaf phases
        total += phase(static_cast<Phase>(p)).estNs();
    }
    return total;
}

bool
Profiler::hasData() const
{
    for (int p = 0; p < kPhaseCount; p++)
        if (acc_[p].calls.load(std::memory_order_relaxed) > 0)
            return true;
    return false;
}

void
Profiler::reportJson(JsonWriter &w) const
{
    w.beginObject();
    w.field("stride", stride_);
    w.key("phases").beginObject();
    for (int p = 0; p < kPhaseCount; p++) {
        PhaseStats s = phase(static_cast<Phase>(p));
        if (s.calls == 0)
            continue;
        w.key(phaseName(static_cast<Phase>(p))).beginObject();
        w.field("calls", s.calls);
        w.field("timed", s.timed);
        w.field("ns", s.ns);
        w.field("est_ns", s.estNs());
        w.endObject();
    }
    w.endObject();
    w.endObject();
}

std::string
Profiler::reportJson() const
{
    JsonWriter w;
    reportJson(w);
    return w.str();
}

std::string
Profiler::chromeTraceJson() const
{
    // One complete ("X") event per phase, laid end to end on a
    // synthetic timeline: the aggregate has durations, not start
    // times, and every Chrome-trace consumer (chrome://tracing,
    // Perfetto, speedscope) renders this as a per-phase cost bar.
    JsonWriter w;
    w.beginObject();
    w.key("traceEvents").beginArray();
    double tsUs = 0.0;
    for (int p = 0; p < kPhaseCount; p++) {
        PhaseStats s = phase(static_cast<Phase>(p));
        if (s.calls == 0)
            continue;
        double durUs = s.estNs() / 1e3;
        w.beginObject();
        w.field("name",
                std::string(phaseName(static_cast<Phase>(p))));
        w.field("ph", std::string("X"));
        w.field("cat", std::string("host-profile"));
        w.field("ts", tsUs);
        w.field("dur", durUs);
        w.field("pid", uint64_t{0});
        w.field("tid", uint64_t{0});
        w.key("args").beginObject();
        w.field("calls", s.calls);
        w.field("timed", s.timed);
        w.field("measured_ns", s.ns);
        w.endObject();
        w.endObject();
        tsUs += durUs;
    }
    w.endArray();
    w.field("displayTimeUnit", std::string("ms"));
    w.endObject();
    return w.str();
}

bool
Profiler::writeChromeTrace(const std::string &path) const
{
    return writeTextFile(path, chromeTraceJson());
}

} // namespace isrf
