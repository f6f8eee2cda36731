#include "sim/engine.h"

#include <algorithm>

#include "sim/trace.h"
#include "util/log.h"

namespace isrf {

void
Engine::add(Ticked *component)
{
    if (!component)
        panic("Engine::add: null component");
    components_.push_back(component);
    // Type-segregated dispatch: the post-pass only visits components
    // that declared a postTick() override, so the common all-default
    // case pays zero virtual calls per cycle for it.
    if (component->hasPostTick())
        postTickers_.push_back(component);
}

void
Engine::clear()
{
    components_.clear();
    postTickers_.clear();
    now_ = 0;
    nextDeadlineCheck_ = 0;
}

RunStatus
Engine::pollCancel()
{
    if (!cancel_)
        return RunStatus::Done;
    // The atomic flag is a relaxed load — cheap enough for every
    // check point. The wall clock is read at most once per
    // kDeadlineCheckCycles simulated cycles; skip-mode jumps may cross
    // several boundaries, which only means the next poll reads the
    // clock once (deadlines stay honored, just never over-sampled).
    if (cancel_->cancelRequested())
        return RunStatus::Cancelled;
    if (now_ >= nextDeadlineCheck_) {
        nextDeadlineCheck_ = now_ + kDeadlineCheckCycles;
        if (cancel_->deadlineExpired())
            return RunStatus::TimedOut;
    }
    return RunStatus::Done;
}

void
Engine::tickOnce()
{
    for (Ticked *c : components_)
        c->tick(now_);
    for (Ticked *c : postTickers_)
        c->postTick(now_);
    now_++;
}

void
Engine::fastForward(Cycle bound)
{
    // now_ - 1 is the cycle every component just ticked at; each
    // reports the earliest future cycle it can act. The minimum is the
    // next cycle worth simulating densely.
    const Cycle last = now_ - 1;
    Cycle wake = kNoEvent;
    for (Ticked *c : components_) {
        Cycle ne = c->nextEvent(last);
        if (ne <= last)
            panic("Engine: component '%s' returned stale nextEvent "
                  "%llu at cycle %llu (time travel)",
                  c->tickedName().c_str(),
                  static_cast<unsigned long long>(ne),
                  static_cast<unsigned long long>(last));
        wake = std::min(wake, ne);
        // now_ is the minimum any component may legally report; once
        // reached, the remaining queries cannot lower it.
        if (wake == now_)
            return;
    }
    if (wake == kNoEvent)
        return;  // nothing self-driven pending: stay dense, don't spin
    if (bound != kNoEvent)
        wake = std::min(wake, bound);
    if (wake <= now_)
        return;
    for (Ticked *c : components_)
        c->skipTo(now_, wake);
    now_ = wake;
}

void
Engine::step()
{
    tickOnce();
    if (mode_ == EngineMode::Skip && !components_.empty())
        fastForward(kNoEvent);
}

void
Engine::steps(uint64_t n)
{
    const Cycle target = now_ + n;
    while (now_ < target) {
        tickOnce();
        if (mode_ == EngineMode::Skip && !components_.empty())
            fastForward(target);
    }
}

RunResult
Engine::runUntil(const std::function<bool()> &done, uint64_t limit)
{
    const Cycle start = now_;
    while (!done()) {
        uint64_t executed = now_ - start;
        // Cooperative cancellation/deadline: checked between steps
        // (after the done() test), so a satisfied predicate always
        // wins and both engine modes stop at a cycle boundary with a
        // consistent machine state.
        RunStatus cs = pollCancel();
        if (cs != RunStatus::Done) {
            ISRF_WARN("Engine::runUntil%s%s%s: %s after %llu cycles "
                      "at cycle %llu",
                      label_.empty() ? "" : " [",
                      label_.c_str(), label_.empty() ? "" : "]",
                      runStatusName(cs),
                      static_cast<unsigned long long>(executed),
                      static_cast<unsigned long long>(now_));
            return {cs, executed};
        }
        if (executed >= limit) {
            // Dump the tail of the event trace first: a deadlocked
            // model's last grants/stalls are the diagnosis. Use the
            // owning machine's tracer so a multi-machine process never
            // prints another run's events.
            const Tracer &t = tracer_ ? *tracer_ : Tracer::instance();
            t.dumpTail(stderr, kDeadlockDumpEvents, label_.c_str());
            ISRF_WARN("Engine::runUntil%s%s%s: cycle limit %llu exceeded "
                      "after %llu cycles, at cycle %llu (model "
                      "deadlock?)",
                      label_.empty() ? "" : " [",
                      label_.c_str(), label_.empty() ? "" : "]",
                      static_cast<unsigned long long>(limit),
                      static_cast<unsigned long long>(executed),
                      static_cast<unsigned long long>(now_));
            return {RunStatus::Limit, executed};
        }
        tickOnce();
        // Clamp jumps to the limit boundary so `executed` and the
        // deadlock diagnostics stay exact in skip mode.
        if (mode_ == EngineMode::Skip && !components_.empty())
            fastForward(start + limit);
    }
    return {RunStatus::Done, now_ - start};
}

const char *
runStatusName(RunStatus status)
{
    switch (status) {
      case RunStatus::Done: return "done";
      case RunStatus::Limit: return "limit";
      case RunStatus::Stalled: return "stalled";
      case RunStatus::TimedOut: return "timed_out";
      case RunStatus::Cancelled: return "cancelled";
      case RunStatus::Failed: return "failed";
    }
    return "?";
}

bool
runStatusFromName(const std::string &name, RunStatus &out)
{
    for (RunStatus s : {RunStatus::Done, RunStatus::Limit,
                        RunStatus::Stalled, RunStatus::TimedOut,
                        RunStatus::Cancelled, RunStatus::Failed}) {
        if (name == runStatusName(s)) {
            out = s;
            return true;
        }
    }
    return false;
}

const char *
engineModeName(EngineMode mode)
{
    switch (mode) {
      case EngineMode::Dense: return "dense";
      case EngineMode::Skip: return "skip";
    }
    return "?";
}

} // namespace isrf
