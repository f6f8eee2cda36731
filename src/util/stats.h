/**
 * @file
 * Statistics primitives: named scalar counters and histogram-style
 * distributions, grouped per component.
 *
 * Every simulated component owns a StatGroup; the machine aggregates
 * groups into a report at the end of a run. The design is a small,
 * dependency-free cousin of gem5's stats package.
 */
#ifndef ISRF_UTIL_STATS_H
#define ISRF_UTIL_STATS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/snapshot.h"

namespace isrf {

/** A monotonically increasing named counter. */
class Counter
{
  public:
    Counter() = default;

    void inc(uint64_t n = 1) { value_ += n; }
    /** Overwrite with an externally maintained (monotonic) count. */
    void set(uint64_t v) { value_ = v; }
    void reset() { value_ = 0; }
    uint64_t value() const { return value_; }

  private:
    uint64_t value_ = 0;
};

/** Fixed-bucket histogram over [lo, hi) with overflow/underflow bins. */
class Histogram
{
  public:
    Histogram(double lo = 0, double hi = 1, size_t buckets = 10);

    void sample(double v);
    void reset();

    uint64_t totalSamples() const { return total_; }
    uint64_t underflow() const { return underflow_; }
    uint64_t overflow() const { return overflow_; }
    const std::vector<uint64_t> &buckets() const { return buckets_; }
    double bucketLow(size_t i) const;
    double bucketHigh(size_t i) const;
    double mean() const { return total_ ? sum_ / total_ : 0.0; }

    /** Bucket contents only; geometry (lo/hi/count) is construction
     *  state and must already match. */
    void snapshot(SnapshotIo &io);

  private:
    friend class StatGroup;  // serializes geometry alongside contents

    double lo_;
    double hi_;
    std::vector<uint64_t> buckets_;
    uint64_t underflow_ = 0;
    uint64_t overflow_ = 0;
    uint64_t total_ = 0;
    double sum_ = 0;
};

/**
 * A named collection of statistics owned by one component.
 *
 * Stats are registered by name on first access and read back by name.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    /** Get-or-create a named counter. */
    Counter &counter(const std::string &name);
    /**
     * Get-or-create a named histogram. The range/bucket parameters
     * apply on first creation only; later calls return the existing
     * histogram unchanged.
     */
    Histogram &histogram(const std::string &name, double lo = 0,
                         double hi = 1, size_t buckets = 10);

    /** Read a counter value; 0 if never created. */
    uint64_t counterValue(const std::string &name) const;
    /** True if a counter of this name exists. */
    bool hasCounter(const std::string &name) const;
    /** True if a histogram of this name exists. */
    bool hasHistogram(const std::string &name) const;
    /** Look up a histogram; nullptr if never created. */
    const Histogram *findHistogram(const std::string &name) const;

    void resetAll();

    const std::string &name() const { return name_; }

    /**
     * Every named stat. A load restores in place: existing entries are
     * overwritten (map nodes are never erased, so components' cached
     * Counter/Histogram pointers stay valid), snapshot-only entries
     * are created, and entries absent from the snapshot are reset to
     * zero.
     */
    void snapshot(SnapshotIo &io);

  private:
    std::string name_;
    std::map<std::string, Counter> counters_;
    std::map<std::string, Histogram> histograms_;
};

} // namespace isrf

#endif // ISRF_UTIL_STATS_H
