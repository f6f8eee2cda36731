/**
 * @file
 * Cycle-accurate event tracer for the simulator.
 *
 * Components register named *channels* ("srf", "mem", "dram", ...) and
 * emit timestamped events into a bounded ring buffer: Begin/End spans,
 * Instant markers, and Counter samples. Tracing is runtime-enabled —
 * through Tracer::enableChannels(), which Machine::init feeds from
 * MachineConfig::traceSpec (the ISRF_TRACE environment variable, via
 * MachineConfig::fromEnv) — and costs a single predictable branch per
 * call site when off, so the instrumentation can live permanently in
 * hot paths. A component handed no tracer (nullptr) is untraced.
 *
 * The buffer exports as Chrome trace-event JSON (loadable in Perfetto
 * or chrome://tracing; one "thread" per channel) and as CSV. The tail
 * of the ring can also be dumped on a deadlock panic so hung runs are
 * diagnosable (see Machine::stopStatus).
 *
 * ISRF_TRACE syntax:
 *   ISRF_TRACE=all           enable every channel
 *   ISRF_TRACE=1             same as "all"
 *   ISRF_TRACE=srf,mem,dram  enable only the listed channels
 *   ISRF_TRACE=0 / unset     tracing off
 *
 * Event names must be string literals (or otherwise outlive the
 * tracer): the ring stores `const char *` to stay allocation-free.
 */
#ifndef ISRF_SIM_TRACE_H
#define ISRF_SIM_TRACE_H

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "sim/types.h"

namespace isrf {

/** Kind of a trace event (maps onto Chrome trace-event phases). */
enum class TraceEventType : uint8_t {
    Begin,    ///< opens a span on its channel ("ph":"B")
    End,      ///< closes the innermost span ("ph":"E")
    Instant,  ///< a point-in-time marker ("ph":"i")
    Counter,  ///< a named value sample ("ph":"C")
};

/** One entry in the trace ring buffer. */
struct TraceEvent
{
    Cycle ts = 0;           ///< cycle the event happened
    uint16_t channel = 0;   ///< channel id from Tracer::channel()
    TraceEventType type = TraceEventType::Instant;
    const char *name = "";  ///< static string; not owned
    uint64_t arg = 0;       ///< payload: counter value, slot id, ...
};

/**
 * Event tracer. Each Machine owns one, so two machines in the same
 * process never observe each other's events; within one machine the
 * simulation is single-threaded, so recording needs no locking.
 *
 * A freshly constructed tracer is disabled, reads no environment, and
 * allocates no ring until a channel is enabled or setCapacity() is
 * called. There is no process-global tracer: a finished run's events
 * travel in its WorkloadResult, and a bench binary's --trace export
 * folds those results (mergeFrom) in submission order.
 *
 * Channel ids are stable for the tracer's lifetime; clear() drops
 * buffered events but keeps channel registrations and enablement.
 */
class Tracer
{
  public:
    Tracer() = default;
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Fast-path check for call sites: any channel enabled? */
    bool on() const { return anyEnabled_; }

    /** Get-or-create a channel id for a component name. */
    uint16_t channel(const std::string &name);

    /** Channel name for an id (empty if unknown). */
    const std::string &channelName(uint16_t id) const;

    size_t channelCount() const { return channels_.size(); }

    /**
     * Enable channels from a spec: "all"/"1" for everything, "0"/"" for
     * nothing, else a comma-separated channel-name list. Names not yet
     * registered are remembered and applied on registration.
     */
    void enableChannels(const std::string &spec);

    /** Disable all channels (events stop being recorded). */
    void disable();

    bool channelEnabled(uint16_t id) const;

    /** Ring capacity in events. Clears the buffer. */
    void setCapacity(size_t events);
    size_t capacity() const { return ring_.size(); }

    /** Default ring capacity, used when none was configured. */
    static constexpr size_t kDefaultCapacity = 1 << 16;

    /**
     * Append another tracer's buffered events to this one, mapping
     * channels by name (registering them here as needed) and
     * re-interning event names so they outlive the source. Events are
     * appended regardless of this tracer's channel enablement — the
     * source already filtered. Thread-safe against concurrent
     * mergeFrom() calls on the same destination (parallel sweep
     * workers may fold into one shared tracer); not against concurrent
     * record()/export on it.
     */
    void mergeFrom(const Tracer &other);

    /** Drop all buffered events (registrations survive). */
    void clear();

    /**
     * Intern a dynamic string for use as an event name: returns a
     * pointer that stays valid for the process lifetime. Use for names
     * built at runtime (e.g. kernel names) — event names are stored as
     * `const char *` and must outlive the tracer.
     */
    const char *intern(const std::string &s);

    // ------------------------------------------------------------------
    // Recording (call sites should guard with tracer.on())
    // ------------------------------------------------------------------

    void record(uint16_t ch, TraceEventType type, const char *name,
                Cycle ts, uint64_t arg = 0);

    void
    begin(uint16_t ch, const char *name, Cycle ts, uint64_t arg = 0)
    {
        record(ch, TraceEventType::Begin, name, ts, arg);
    }
    void
    end(uint16_t ch, const char *name, Cycle ts, uint64_t arg = 0)
    {
        record(ch, TraceEventType::End, name, ts, arg);
    }
    void
    instant(uint16_t ch, const char *name, Cycle ts, uint64_t arg = 0)
    {
        record(ch, TraceEventType::Instant, name, ts, arg);
    }
    void
    counter(uint16_t ch, const char *name, Cycle ts, uint64_t value)
    {
        record(ch, TraceEventType::Counter, name, ts, value);
    }

    // ------------------------------------------------------------------
    // Inspection / export
    // ------------------------------------------------------------------

    /** Events currently buffered (<= capacity). */
    size_t size() const { return count_; }

    /** Total events recorded, including ones the ring overwrote. */
    uint64_t totalRecorded() const { return totalRecorded_; }

    /** Events lost to ring wraparound. */
    uint64_t dropped() const { return totalRecorded_ - count_; }

    /** The most recent n events, oldest first. */
    std::vector<TraceEvent> lastEvents(size_t n) const;

    /** All buffered events, oldest first. */
    std::vector<TraceEvent> events() const { return lastEvents(count_); }

    /** Render the buffer as Chrome trace-event JSON. */
    std::string chromeJson() const;

    /** Render the buffer as "cycle,channel,type,name,arg" CSV. */
    std::string csv() const;

    /** Write chromeJson() to a file. @return false on I/O error. */
    bool writeChromeJson(const std::string &path) const;

    /** Write csv() to a file. @return false on I/O error. */
    bool writeCsv(const std::string &path) const;

    /** Events a stall or deadlock diagnostic dumps (dumpTail). */
    static constexpr size_t kTailEvents = 48;

    /**
     * Dump the last n events to a stream (deadlock diagnostics).
     * `label` tags the dump with the owning machine/config name so a
     * multi-machine process's dumps are attributable.
     */
    void dumpTail(std::FILE *out, size_t n,
                  const char *label = nullptr) const;

  private:
    void refreshEnabledFlag();
    void append(const TraceEvent &e);

    struct Channel
    {
        std::string name;
        bool enabled = false;
    };

    bool anyEnabled_ = false;  ///< any channel enabled (fast-path flag)

    std::vector<Channel> channels_;
    std::vector<std::string> pendingEnables_;  ///< names enabled early
    bool enableAll_ = false;
    std::set<std::string> interned_;  ///< node-stable name storage

    std::vector<TraceEvent> ring_;
    size_t head_ = 0;   ///< next write position
    size_t count_ = 0;  ///< valid events in the ring
    uint64_t totalRecorded_ = 0;
};

/**
 * RAII Begin/End span helper:
 *   { TraceScope s(tracer, ch, "kernel", now); ... s.close(later); }
 * If close() is never called the span ends at the construction cycle.
 */
class TraceScope
{
  public:
    TraceScope(Tracer &t, uint16_t ch, const char *name, Cycle start,
               uint64_t arg = 0)
        : t_(t), ch_(ch), name_(name), last_(start)
    {
        if (t_.on())
            t_.begin(ch_, name_, start, arg);
    }
    void
    close(Cycle end)
    {
        last_ = end;
        closed_ = true;
        if (t_.on())
            t_.end(ch_, name_, end);
    }
    ~TraceScope()
    {
        if (!closed_ && t_.on())
            t_.end(ch_, name_, last_);
    }

  private:
    Tracer &t_;
    uint16_t ch_;
    const char *name_;
    Cycle last_;
    bool closed_ = false;
};

} // namespace isrf

#endif // ISRF_SIM_TRACE_H
