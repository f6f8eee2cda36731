#include "sim/profiler.h"

#include <algorithm>
#include <chrono>

#include "util/json.h"
#include "util/log.h"

namespace isrf {

namespace {

/** Every profile's gap seed: counts do not depend on which worker ran
 *  a job, nor on what ran before it. */
constexpr uint64_t kGapSeed = 0x5eed0f11e5ull;

} // namespace

const char *
Profiler::phaseName(Phase p)
{
    static const char *const kNames[kPhaseCount] = {
        "job", "run_loop", "machine_tick", "mem_tick", "cluster_tick",
        "srf_port_arb", "report_serialize", "journal",
    };
    return p < kPhaseCount ? kNames[p] : "?";
}

int64_t
Profiler::now()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
Profiler::configure(bool enabled)
{
    *this = Profiler();
    enabled_ = enabled;
    gaps_.reseed(kGapSeed);
    untilSample_ = 1 + gaps_.below(127);
    if (!enabled)
        return;
    // The fastest of a few runs of back-to-back reads: a noisy run can
    // only leave timer cost in an interval, never take work out.
    constexpr int kReads = 16;
    timerNs_ = INT64_MAX;
    for (int run = 0; run < 4; run++) {
        int64_t t0 = now();
        for (int i = 1; i < kReads; i++)
            now();
        timerNs_ = std::min(timerNs_, (now() - t0) / kReads);
    }
}

int64_t
Profiler::span(int64_t t0, int64_t t1) const
{
    return std::max<int64_t>(0, t1 - t0 - timerNs_);
}

void
Profiler::recordTick(const TickTimes &t)
{
    openNs_[MemTick] = span(t[MemBegin], t[ClusterBegin]);
    openNs_[ClusterTick] = span(t[ClusterBegin], t[SrfBegin]);
    openNs_[SrfPortArb] = span(t[SrfBegin], t[SrfEnd]);
    openNs_[MachineTick] = span(t[TickBegin], t[MemBegin]) +
        openNs_[MemTick] + openNs_[ClusterTick] + openNs_[SrfPortArb] +
        span(t[SrfEnd], t[TickEnd]);
    openEnd_ = t[TickEnd];
    open_ = true;
}

void
Profiler::close(int64_t t)
{
    for (int p = MachineTick; p <= SrfPortArb; p++)
        ns_[p] += openNs_[p];
    restNs_ += span(openEnd_, t);
    open_ = false;
}

void
Profiler::record(Phase p, int64_t t0, int64_t t1)
{
    if (!enabled_)
        return;
    calls_[p]++;
    ns_[p] += span(t0, t1);
    if (p == RunLoop)
        open_ = false;  // an iteration never spans two run loops
}

void
Profiler::mergeFrom(const Profiler &other)
{
    cycles_ += other.cycles_;
    sampled_ += other.sampled_;
    restNs_ += other.restNs_;
    for (int p = 0; p < kPhaseCount; p++) {
        calls_[p] += other.calls_[p];
        ns_[p] += other.ns_[p];
    }
}

uint64_t
Profiler::calls(Phase p) const
{
    return inTick(p) ? cycles_ : calls_[p];
}

int64_t
Profiler::totalNs(Phase p) const
{
    if (!inTick(p))
        return ns_[p];
    // One factor, run_loop / sampled iterations. Flooring a product by
    // one factor is superadditive: children never sum past the parent.
    using Wide = unsigned __int128;
    const int64_t iterations = ns_[MachineTick] + restNs_;
    if (iterations == 0)
        return 0;
    return static_cast<int64_t>(Wide(ns_[p]) * Wide(ns_[RunLoop]) /
                                Wide(iterations));
}

int64_t
Profiler::selfNs(Phase p) const
{
    int64_t self = totalNs(p);
    for (int c = p + 1; c < kPhaseCount; c++)
        if (parent(static_cast<Phase>(c)) == p)
            self -= totalNs(static_cast<Phase>(c));
    return self;
}

std::string
Profiler::chromeTraceJson() const
{
    // Times are exact nanoseconds printed as microseconds, so a child
    // never ends past its parent by rounding.
    auto us = [](int64_t ns) {
        return strprintf("%lld.%03lld", static_cast<long long>(ns / 1000),
                         static_cast<long long>(ns % 1000));
    };
    // Pre-order: a parent's event comes before its children's, and
    // next[p] is where p's next child starts. A phase whose parent
    // never ran is a root.
    std::array<int64_t, kPhaseCount + 1> next{};
    JsonWriter w;
    w.beginObject();
    w.key("traceEvents").beginArray();
    for (int i = 0; i < kPhaseCount; i++) {
        Phase p = static_cast<Phase>(i);
        if (calls(p) == 0)
            continue;
        Phase up = parent(p) != kRoot && calls(parent(p)) > 0
            ? parent(p) : kRoot;
        next[p] = next[up];
        next[up] += totalNs(p);
        w.beginObject();
        w.field("name", std::string(phaseName(p)));
        w.field("ph", std::string("X"));
        w.field("cat", std::string("host-profile"));
        w.key("ts").raw(us(next[p]));
        w.key("dur").raw(us(totalNs(p)));
        w.field("pid", uint64_t{0});
        w.field("tid", uint64_t{0});
        w.key("args").beginObject();
        if (up != kRoot)
            w.field("parent", std::string(phaseName(up)));
        w.field("calls", calls(p));
        w.field("self_ns", selfNs(p));
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.field("displayTimeUnit", std::string("ms"));
    w.endObject();
    return w.str();
}

} // namespace isrf
