/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * Spans are recorded by the benchmark's own code around calls into the
 * simulator's public functions; nothing inside the library is traced.
 * Each span names its module ("core.machine_init", "srf.seq", ...), the
 * job it belongs to, the span that caused it, and optionally the
 * per-layer metric it feeds: metric value = duration_s * scale / per.
 * The recorder only appends; spans are written out once, at the end.
 */
#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/json.h"

namespace perfbench {

inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

struct Span
{
    int id = 0;
    int parent = -1;       ///< causing span, -1 = root
    std::string name;      ///< module-qualified span name
    std::string job;       ///< job id ("" outside jobs)
    std::string metric;    ///< per-layer metric fed ("" = none)
    double per = 1.0;      ///< work units the duration is divided by
    double scale = 1.0;    ///< seconds -> metric unit (1e3 = ms)
    uint64_t startNs = 0;
    uint64_t endNs = 0;

    double seconds() const { return (endNs - startNs) * 1e-9; }
};

class SpanRecorder
{
  public:
    /** Open a span; returns its id for end()/parenting. */
    int
    begin(const std::string &name, const std::string &job = "",
          int parent = -1)
    {
        Span s;
        s.id = static_cast<int>(spans_.size());
        s.parent = parent;
        s.name = name;
        s.job = job;
        s.startNs = nowNs();
        spans_.push_back(std::move(s));
        return spans_.back().id;
    }

    /** Close a span and attach the metric it feeds (if any). */
    Span &
    end(int id, const std::string &metric = "", double per = 1.0,
        double scale = 1.0)
    {
        Span &s = spans_.at(static_cast<size_t>(id));
        s.endNs = nowNs();
        s.metric = metric;
        s.per = per;
        s.scale = scale;
        return s;
    }

    /** Time fn() as one span; fn returns the work count (per). */
    template <typename Fn>
    void
    measure(const std::string &name, const std::string &metric,
            double scale, Fn &&fn, const std::string &job = "",
            int parent = -1)
    {
        int id = begin(name, job, parent);
        double per = fn();
        end(id, metric, per, scale);
    }

    const std::vector<Span> &spans() const { return spans_; }

    void
    write(isrf::JsonWriter &w) const
    {
        w.beginArray();
        for (const Span &s : spans_) {
            w.beginObject();
            w.key("id").value(s.id);
            w.key("parent").value(s.parent);
            w.key("name").value(s.name);
            w.key("job").value(s.job);
            w.key("metric").value(s.metric);
            w.key("per").value(s.per);
            w.key("scale").value(s.scale);
            w.key("start_ns").value(s.startNs);
            w.key("end_ns").value(s.endNs);
            w.endObject();
        }
        w.endArray();
    }

  private:
    std::vector<Span> spans_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
