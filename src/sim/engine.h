/**
 * @file
 * Synchronous tick engine driving all machine components.
 */
#ifndef ISRF_SIM_ENGINE_H
#define ISRF_SIM_ENGINE_H

#include <atomic>
#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "sim/ticked.h"

namespace isrf {

class Tracer;

/** How a runUntil() loop ended. */
enum class RunStatus : uint8_t {
    Done,       ///< the predicate was satisfied
    Limit,      ///< the cycle limit was hit (likely a model deadlock)
    Stalled,    ///< a progress watchdog tripped (see fault/watchdog.h)
    TimedOut,   ///< a CancelToken wall-clock deadline expired
    Cancelled,  ///< a CancelToken cancellation request was observed
    Failed,     ///< job-level only: the workload threw (never from Engine)
};

const char *runStatusName(RunStatus status);

/**
 * Inverse of runStatusName(). @return false (out untouched) when
 * `name` is not a known status.
 */
bool runStatusFromName(const std::string &name, RunStatus &out);

/**
 * Cooperative cancellation and wall-clock deadline, shared between a
 * controlling thread and a running simulation.
 *
 * The controller calls requestCancel() and/or arms a deadline; the
 * engine polls the token at cycle-boundary check points and exits its
 * run loop with RunStatus::Cancelled / RunStatus::TimedOut. There is
 * no preemption and no extra thread: a simulation stops only at a
 * consistent machine state, never mid-cycle, and a "hung" job unwinds
 * by returning through the normal call chain.
 *
 * Tokens may be chained: a per-attempt token carrying the deadline can
 * point at a per-sweep parent token, so one external requestCancel()
 * reaches every running job. Cancellation wins over deadline expiry
 * when both hold.
 */
class CancelToken
{
  public:
    CancelToken() = default;
    CancelToken(const CancelToken &) = delete;
    CancelToken &operator=(const CancelToken &) = delete;

    /** Ask every observer of this token (or a child) to stop. */
    void cancel() { cancelled_.store(true, std::memory_order_relaxed); }

    bool
    cancelRequested() const
    {
        if (cancelled_.load(std::memory_order_relaxed))
            return true;
        return parent_ && parent_->cancelRequested();
    }

    /** Arm a wall-clock deadline `seconds` from now (<= 0 disarms). */
    void
    setTimeout(double seconds)
    {
        if (seconds <= 0.0) {
            deadlineNs_.store(0, std::memory_order_relaxed);
            return;
        }
        auto d = std::chrono::steady_clock::now() +
            std::chrono::nanoseconds(
                static_cast<int64_t>(seconds * 1e9));
        deadlineNs_.store(d.time_since_epoch().count(),
                          std::memory_order_relaxed);
    }

    bool
    deadlineExpired() const
    {
        int64_t d = deadlineNs_.load(std::memory_order_relaxed);
        if (d != 0 &&
            std::chrono::steady_clock::now().time_since_epoch().count()
                >= d)
            return true;
        return parent_ && parent_->deadlineExpired();
    }

    /** Observe `parent` too: its cancel/deadline applies here. */
    void chainTo(const CancelToken *parent) { parent_ = parent; }

  private:
    std::atomic<bool> cancelled_{false};
    /** steady_clock deadline in ns since its epoch; 0 = disarmed. */
    std::atomic<int64_t> deadlineNs_{0};
    const CancelToken *parent_ = nullptr;
};

/** Outcome of a runUntil() call. */
struct RunResult
{
    RunStatus status = RunStatus::Done;
    /** Cycles executed by this call. */
    uint64_t cycles = 0;

    bool done() const { return status == RunStatus::Done; }
};

/**
 * Fixed-order synchronous simulation engine.
 *
 * Components are registered once at machine construction; each call to
 * step() advances the machine one cycle by invoking tick() on every
 * component in order, then postTick() on every component in order.
 * runUntil() steps until a predicate is satisfied or a cycle limit is
 * hit (the limit guards against deadlocked models).
 */
class Engine
{
  public:
    Engine() = default;

    /** Register a component. Not owned; must outlive the engine. */
    void add(Ticked *component);

    /**
     * Unregister every component and reset the clock to zero. The one
     * sanctioned way to rebuild a machine on the same engine: clearing
     * both together keeps interval components (watchdog, StatSampler)
     * that latch absolute cycle numbers in sync with the clock.
     */
    void clear();

    /**
     * Tracer to dump diagnostics from (the owning machine's), plus a
     * label (machine/config name) tagging those dumps. Without one
     * (the standalone-engine path), runUntil dumps no trace.
     */
    void
    setTracer(Tracer *tracer, std::string label)
    {
        tracer_ = tracer;
        label_ = std::move(label);
    }
    Tracer *tracer() const { return tracer_; }
    const std::string &label() const { return label_; }

    /**
     * Attach (or detach, with nullptr) a cooperative cancellation
     * token. runUntil() — and any external drive loop that calls
     * pollCancel(), e.g. StreamProgram::run — checks the token at
     * cycle boundaries: the cancelled flag every check, the wall-clock
     * deadline only once per kDeadlineCheckCycles so the hot loop
     * never pays a clock read per cycle. Cancellation is only ever
     * observed between engine steps, at a consistent machine state.
     */
    void
    setCancel(const CancelToken *token)
    {
        cancel_ = token;
        nextDeadlineCheck_ = 0;
    }
    const CancelToken *cancelToken() const { return cancel_; }

    /**
     * Check the cancel token (cheap; safe without one). Returns
     * RunStatus::Cancelled / TimedOut when the run should stop, else
     * RunStatus::Done. Cancellation wins over deadline expiry.
     */
    RunStatus pollCancel();

    /**
     * Cycles between wall-clock deadline checks in pollCancel(): often
     * enough for second-scale sweep deadlines, rare enough that the hot
     * loop never pays a clock read per cycle. It changes only *when* an
     * expired deadline is noticed, never the results of a run that
     * completes.
     */
    static constexpr Cycle kDeadlineCheckCycles = 1024;

    /** Advance one cycle: tick all, postTick all, now()++. */
    void step();

    /** Advance exactly n cycles. */
    void steps(uint64_t n);

    /**
     * Step until done() returns true or `limit` cycles have run.
     *
     * On hitting the limit the engine dumps the last trace-buffer
     * events to stderr (see sim/trace.h) and returns RunStatus::Limit
     * so callers can assert on deadlock behavior; it never panics.
     * With a cancel token attached (setCancel), returns
     * RunStatus::Cancelled / TimedOut as soon as the token trips —
     * checked before each step, so a finished run is never reported
     * cancelled and a stopped run halts at a cycle boundary.
     *
     * @param done Predicate checked after each cycle.
     * @param limit Max cycles to run (deadlock guard).
     * @return Status and the number of cycles executed by this call.
     */
    RunResult runUntil(const std::function<bool()> &done,
                       uint64_t limit = 1ull << 32);

    /** Trace events dumped to stderr when runUntil hits its limit. */
    static constexpr size_t kDeadlockDumpEvents = 48;

    /** Current simulation time in cycles. */
    Cycle now() const { return now_; }

    // resetClock() was removed: it reset now_ without resetting the
    // components, silently desynchronizing anything that latches
    // absolute cycle numbers (watchdog checks, sampler boundaries,
    // fault schedules). Use clear() and re-register instead.

    /**
     * Snapshot restore only (Machine::loadSnapshot): set the clock to
     * the checkpointed cycle. Callers must restore every registered
     * component's absolute-cycle state in the same operation — the
     * exact desynchronization hazard that got resetClock() removed is
     * why this is not a general-purpose setter.
     */
    void
    restoreClock(Cycle now)
    {
        now_ = now;
        nextDeadlineCheck_ = 0;
    }

    size_t componentCount() const { return components_.size(); }

  private:
    std::vector<Ticked *> components_;
    /** Subset of components_ whose hasPostTick() is true. */
    std::vector<Ticked *> postTickers_;
    Cycle now_ = 0;
    Tracer *tracer_ = nullptr;
    std::string label_;
    const CancelToken *cancel_ = nullptr;
    /** Next absolute cycle at which pollCancel reads the wall clock. */
    Cycle nextDeadlineCheck_ = 0;
};

} // namespace isrf

#endif // ISRF_SIM_ENGINE_H
