/**
 * @file
 * How a run loop ended, and the token that asks a running one to stop.
 * The loops are Machine::runUntil and StreamProgram::run; both stop
 * through Machine::stopStatus (core/machine.h).
 */
#ifndef ISRF_SIM_RUN_STATUS_H
#define ISRF_SIM_RUN_STATUS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace isrf {

/** How a run loop ended. */
enum class RunStatus : uint8_t {
    Done,       ///< the predicate was satisfied
    Limit,      ///< the cycle limit was hit (likely a model deadlock)
    Stalled,    ///< a progress watchdog tripped (see fault/watchdog.h)
    TimedOut,   ///< a CancelToken wall-clock deadline expired
    Cancelled,  ///< a CancelToken cancellation request was observed
    Failed,     ///< job-level only: the workload threw (never a loop's)
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
 * The controller calls cancel() and/or arms a deadline; the machine
 * polls the token at cycle-boundary check points and exits its
 * run loop with RunStatus::Cancelled / RunStatus::TimedOut. There is
 * no preemption and no extra thread: a simulation stops only at a
 * consistent machine state, never mid-cycle, and a "hung" job unwinds
 * by returning through the normal call chain.
 *
 * Tokens may be chained: a per-attempt token carrying the deadline can
 * point at a per-sweep parent token, so one external cancel()
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

} // namespace isrf

#endif // ISRF_SIM_RUN_STATUS_H
