/**
 * @file
 * Machine reports: configuration, execution-time breakdown, SRF/memory
 * statistics, per-kernel bandwidths and an access-energy estimate, as
 * JSON for tools and tests.
 */
#ifndef ISRF_CORE_REPORT_H
#define ISRF_CORE_REPORT_H

#include <string>

#include "area/energy.h"
#include "core/machine.h"

namespace isrf {

/**
 * A post-run report of a machine as a JSON object (RFC 8259):
 *   { "machine": ..., "config": {...}, "cycles": ..., "breakdown": {...},
 *     "run_status": ...?, "srf": {...}, "dram": {...}, "cache": {...}?,
 *     "kernels": [...], "energy": {...}, "fault": {...}?,
 *     "samples": [...]?, "profile": {...}? }
 * "run_status" appears only for abnormal endings, "cache" only on the
 * Cache machine, "fault" only with a fault schedule, "samples" only
 * when the machine's StatSampler recorded intervals, and "profile"
 * only on profiled machines.
 */
std::string machineReportJson(Machine &m);

/** Collect the machine's access counts for the energy model. */
EnergyCounts energyCounts(Machine &m);

} // namespace isrf

#endif // ISRF_CORE_REPORT_H
