/**
 * @file
 * Layer probes for the traced run: small, fixed programs that call one
 * module's public functions, each timed as a span from the benchmark's
 * own code (see spans.h).
 */
#ifndef PERFBENCH_PROBES_H
#define PERFBENCH_PROBES_H

#include <cstdint>
#include <map>
#include <string>

#include "spans.h"

namespace perfbench {

/**
 * Run every layer probe. Time-per-work metrics land in `rec` as spans;
 * exact counts (snapshot bytes, words moved) land in `counts`.
 * `scratchDir` receives the snapshot and journal files the util probes
 * write; it must exist.
 */
void runLayerProbes(SpanRecorder &rec, uint64_t seed,
                    const std::string &scratchDir,
                    std::map<std::string, double> &counts);

} // namespace perfbench

#endif // PERFBENCH_PROBES_H
