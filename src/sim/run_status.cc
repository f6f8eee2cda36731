#include "sim/run_status.h"

namespace isrf {

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

} // namespace isrf
