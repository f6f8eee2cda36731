#include "util/stats.h"

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

Average &
StatGroup::average(const std::string &name)
{
    return averages_[name];
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
    for (auto &kv : averages_)
        kv.second.reset();
    for (auto &kv : histograms_)
        kv.second.reset();
}

void
Histogram::saveState(SnapshotWriter &w) const
{
    for (uint64_t b : buckets_)
        w.u64(b);
    w.u64(underflow_);
    w.u64(overflow_);
    w.u64(total_);
    w.f64(sum_);
}

bool
Histogram::loadState(SnapshotReader &r)
{
    for (uint64_t &b : buckets_)
        if (!r.u64(b))
            return false;
    return r.u64(underflow_) && r.u64(overflow_) && r.u64(total_) &&
           r.f64(sum_);
}

void
StatGroup::saveState(SnapshotWriter &w) const
{
    w.u64(counters_.size());
    for (const auto &kv : counters_) {
        w.str(kv.first);
        w.u64(kv.second.value());
    }
    w.u64(averages_.size());
    for (const auto &kv : averages_) {
        w.str(kv.first);
        kv.second.saveState(w);
    }
    w.u64(histograms_.size());
    for (const auto &kv : histograms_) {
        w.str(kv.first);
        w.f64(kv.second.lo_);
        w.f64(kv.second.hi_);
        w.u64(kv.second.buckets_.size());
        kv.second.saveState(w);
    }
}

bool
StatGroup::loadState(SnapshotReader &r)
{
    // Restore in place: overwrite / create / zero, never erase, so a
    // component's cached pointer into one of these maps (a lazily
    // fetched Counter or Histogram) survives the restore.
    uint64_t n = 0;
    if (!r.len(n, 9))
        return false;
    std::map<std::string, Counter> loadedCounters;
    for (uint64_t i = 0; i < n; i++) {
        std::string name;
        uint64_t v = 0;
        if (!r.str(name) || !r.u64(v))
            return false;
        loadedCounters[name].set(v);
        counters_[name].set(v);
    }
    for (auto &kv : counters_)
        if (!loadedCounters.count(kv.first))
            kv.second.reset();

    if (!r.len(n, 9))
        return false;
    std::map<std::string, bool> seenAverages;
    for (uint64_t i = 0; i < n; i++) {
        std::string name;
        if (!r.str(name) || !averages_[name].loadState(r))
            return false;
        seenAverages[name] = true;
    }
    for (auto &kv : averages_)
        if (!seenAverages.count(kv.first))
            kv.second.reset();

    if (!r.len(n, 9))
        return false;
    std::map<std::string, bool> seenHistograms;
    for (uint64_t i = 0; i < n; i++) {
        std::string name;
        double lo = 0, hi = 1;
        uint64_t nbuckets = 0;
        if (!r.str(name) || !r.f64(lo) || !r.f64(hi) ||
            !r.len(nbuckets, 8))
            return false;
        if (nbuckets == 0 || hi <= lo) {
            r.markFailed();
            return false;
        }
        Histogram &h =
            histogram(name, lo, hi, static_cast<size_t>(nbuckets));
        if (h.buckets_.size() != nbuckets) {
            // Geometry drift between save and load builds.
            r.markFailed();
            return false;
        }
        if (!h.loadState(r))
            return false;
        seenHistograms[name] = true;
    }
    for (auto &kv : histograms_)
        if (!seenHistograms.count(kv.first))
            kv.second.reset();
    return true;
}

std::vector<std::string>
StatGroup::formatRows() const
{
    std::vector<std::string> rows;
    for (const auto &kv : counters_) {
        rows.push_back(strprintf("%s.%s = %llu", name_.c_str(),
            kv.first.c_str(),
            static_cast<unsigned long long>(kv.second.value())));
    }
    for (const auto &kv : averages_) {
        rows.push_back(strprintf("%s.%s = %.4f (n=%llu)", name_.c_str(),
            kv.first.c_str(), kv.second.mean(),
            static_cast<unsigned long long>(kv.second.count())));
    }
    for (const auto &kv : histograms_) {
        const Histogram &h = kv.second;
        std::string buckets;
        for (size_t i = 0; i < h.buckets().size(); i++) {
            if (i)
                buckets += " ";
            buckets += strprintf("%llu",
                static_cast<unsigned long long>(h.buckets()[i]));
        }
        rows.push_back(strprintf(
            "%s.%s = mean=%.3f n=%llu [%s] uf=%llu of=%llu",
            name_.c_str(), kv.first.c_str(), h.mean(),
            static_cast<unsigned long long>(h.totalSamples()),
            buckets.c_str(),
            static_cast<unsigned long long>(h.underflow()),
            static_cast<unsigned long long>(h.overflow())));
    }
    return rows;
}

} // namespace isrf
