#include "util/stats.h"

#include <set>

#include "util/log.h"

namespace isrf {

Histogram::Histogram(double lo, double hi, size_t buckets)
    : lo_(lo), hi_(hi), buckets_(buckets, 0)
{
    if (hi <= lo || buckets == 0)
        panic("Histogram: invalid range [%f, %f) x %zu", lo, hi, buckets);
}

void
Histogram::sample(double v)
{
    total_++;
    sum_ += v;
    if (v < lo_) {
        underflow_++;
    } else if (v >= hi_) {
        overflow_++;
    } else {
        auto idx = static_cast<size_t>(
            (v - lo_) / (hi_ - lo_) * static_cast<double>(buckets_.size()));
        if (idx >= buckets_.size())
            idx = buckets_.size() - 1;
        buckets_[idx]++;
    }
}

void
Histogram::reset()
{
    for (auto &b : buckets_)
        b = 0;
    underflow_ = overflow_ = total_ = 0;
    sum_ = 0;
}

double
Histogram::bucketLow(size_t i) const
{
    return lo_ + (hi_ - lo_) * static_cast<double>(i) /
        static_cast<double>(buckets_.size());
}

double
Histogram::bucketHigh(size_t i) const
{
    return bucketLow(i + 1);
}

Counter &
StatGroup::counter(const std::string &name)
{
    return counters_[name];
}

Histogram &
StatGroup::histogram(const std::string &name, double lo, double hi,
                     size_t buckets)
{
    auto it = histograms_.find(name);
    if (it == histograms_.end())
        it = histograms_.emplace(name, Histogram(lo, hi, buckets)).first;
    return it->second;
}

uint64_t
StatGroup::counterValue(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.value();
}

bool
StatGroup::hasCounter(const std::string &name) const
{
    return counters_.count(name) != 0;
}

bool
StatGroup::hasHistogram(const std::string &name) const
{
    return histograms_.count(name) != 0;
}

const Histogram *
StatGroup::findHistogram(const std::string &name) const
{
    auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
}

void
StatGroup::resetAll()
{
    for (auto &kv : counters_)
        kv.second.reset();
    for (auto &kv : histograms_)
        kv.second.reset();
}

void
Histogram::snapshot(SnapshotIo &io)
{
    io.each(buckets_);
    io.u64(underflow_);
    io.u64(overflow_);
    io.u64(total_);
    io.f64(sum_);
}

namespace {

/**
 * One name-keyed stat map, restored in place: a save writes each
 * entry's name and then `entry(name)`'s fields; a load lets
 * `entry(name)` create or overwrite the entries the snapshot names and
 * resets the ones it does not, never erasing a map node.
 */
template <typename M, typename F>
void
snapshotInPlace(SnapshotIo &io, M &m, F &&entry)
{
    uint64_t n = m.size();
    if (!io.len(n, 9))
        return;
    if (io.saving()) {
        for (auto &kv : m) {
            std::string name = kv.first;
            io.str(name);
            entry(name);
        }
        return;
    }
    std::set<std::string> seen;
    for (uint64_t i = 0; i < n && io.ok(); i++) {
        std::string name;
        io.str(name);
        if (!io.ok())
            return;
        entry(name);
        seen.insert(name);
    }
    for (auto &kv : m)
        if (!seen.count(kv.first))
            kv.second.reset();
}

} // namespace

void
StatGroup::snapshot(SnapshotIo &io)
{
    // In place, so a component's cached pointer into one of these maps
    // (a lazily fetched Counter or Histogram) survives a restore.
    snapshotInPlace(io, counters_, [&](const std::string &name) {
        Counter &c = counters_[name];
        uint64_t v = c.value();
        io.u64(v);
        c.set(v);
    });
    snapshotInPlace(io, histograms_, [&](const std::string &name) {
        Histogram *h = io.saving() ? &histograms_.at(name) : nullptr;
        double lo = h ? h->lo_ : 0;
        double hi = h ? h->hi_ : 1;
        uint64_t nbuckets = h ? h->buckets_.size() : 0;
        io.f64(lo);
        io.f64(hi);
        io.len(nbuckets, 8);
        if (io.loading()) {
            if (!io.require(nbuckets != 0 && hi > lo))
                return;
            h = &histogram(name, lo, hi, static_cast<size_t>(nbuckets));
            // Geometry drift between save and load builds.
            if (!io.require(h->buckets_.size() == nbuckets))
                return;
        }
        h->snapshot(io);
    });
}

} // namespace isrf
