#include "sim/stat_sampler.h"

#include <cstdio>

#include "sim/trace.h"
#include "util/log.h"

namespace isrf {

StatSampler::StatSampler(uint64_t intervalCycles)
    : interval_(intervalCycles)
{
}

void
StatSampler::addGroup(StatGroup *group)
{
    if (!group)
        panic("StatSampler: null stat group");
    groups_.push_back(group);
    for (const auto &kv : group->counters())
        lastSnapshot_[group->name() + "." + kv.first] = kv.second.value();
}

void
StatSampler::addCounterFn(const std::string &name,
                          std::function<uint64_t()> fn)
{
    lastSnapshot_[name] = fn();
    counterFns_.emplace_back(name, std::move(fn));
}

void
StatSampler::addGauge(const std::string &name,
                      std::function<double()> fn)
{
    gauges_.emplace_back(name, std::move(fn));
}

void
StatSampler::tick(Cycle now)
{
    if (interval_ == 0)
        return;
    // Sample at the end of every interval_-cycle window: the sampler
    // ticks last each cycle, so `now` is the cycle just simulated.
    if ((now + 1) % interval_ != 0)
        return;
    sampleNow(now + 1);
}

void
StatSampler::sampleNow(Cycle now)
{
    StatInterval iv;
    iv.start = intervalStart_;
    iv.end = now;

    auto takeDelta = [&](const std::string &name, uint64_t value) {
        uint64_t &last = lastSnapshot_[name];
        iv.deltas[name] = value >= last ? value - last : 0;
        last = value;
    };
    for (StatGroup *g : groups_)
        for (const auto &kv : g->counters())
            takeDelta(g->name() + "." + kv.first, kv.second.value());
    for (const auto &cf : counterFns_)
        takeDelta(cf.first, cf.second());
    for (const auto &gf : gauges_)
        iv.gauges[gf.first] = gf.second();

    if (tracer_ && tracer_->on()) {
        Tracer &t = *tracer_;
        if (!traceChInit_) {
            traceCh_ = t.channel("stats");
            traceChInit_ = true;
        }
        for (const auto &kv : iv.deltas)
            t.counter(traceCh_, t.intern(kv.first), now, kv.second);
        for (const auto &kv : iv.gauges) {
            t.counter(traceCh_, t.intern(kv.first), now,
                      static_cast<uint64_t>(kv.second));
        }
    }

    intervals_.push_back(std::move(iv));
    intervalStart_ = now;
}

void
StatSampler::reset()
{
    intervals_.clear();
    intervalStart_ = 0;
    rebaseline();
}

void
StatSampler::rebaseline()
{
    for (StatGroup *g : groups_)
        for (const auto &kv : g->counters())
            lastSnapshot_[g->name() + "." + kv.first] = kv.second.value();
    for (const auto &cf : counterFns_)
        lastSnapshot_[cf.first] = cf.second();
}

std::string
StatSampler::csv() const
{
    std::string out = "start,end,stat,value,kind\n";
    for (const StatInterval &iv : intervals_) {
        for (const auto &kv : iv.deltas) {
            out += strprintf("%llu,%llu,%s,%llu,delta\n",
                static_cast<unsigned long long>(iv.start),
                static_cast<unsigned long long>(iv.end),
                kv.first.c_str(),
                static_cast<unsigned long long>(kv.second));
        }
        for (const auto &kv : iv.gauges) {
            out += strprintf("%llu,%llu,%s,%g,gauge\n",
                static_cast<unsigned long long>(iv.start),
                static_cast<unsigned long long>(iv.end),
                kv.first.c_str(), kv.second);
        }
    }
    return out;
}

bool
StatSampler::writeCsv(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::string content = csv();
    size_t n = std::fwrite(content.data(), 1, content.size(), f);
    bool ok = n == content.size();
    ok = std::fclose(f) == 0 && ok;
    return ok;
}

void
StatSampler::snapshot(SnapshotIo &io)
{
    io.u64(intervalStart_);
    io.map(lastSnapshot_, 9);
    io.seq(intervals_, 17, [&](StatInterval &iv) {
        io.u64(iv.start);
        io.u64(iv.end);
        io.map(iv.deltas, 9);
        io.map(iv.gauges, 9);
    });
}

} // namespace isrf
