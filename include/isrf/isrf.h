/**
 * @file
 * Umbrella header for the indexed-SRF stream processor library.
 *
 * Pulls in the public API layers:
 *  - machine configuration and assembly (core/)
 *  - the KernelC-style kernel builder and scheduler (kernel/)
 *  - stream programs (core/stream_program.h)
 *  - the area/energy models (area/)
 *  - fault injection, ECC, and the watchdog (fault/)
 *  - the paper's benchmarks and microbenchmarks (workloads/)
 *
 * Typical use:
 * @code
 *   #include <isrf/isrf.h>
 *   isrf::Machine m;
 *   m.init(isrf::MachineConfig::isrf4());
 *   isrf::StreamProgram prog(m);
 *   ...
 * @endcode
 *
 * Add both `include/` and `src/` to the include path, or link the
 * `isrf::isrf` CMake target, which exports them.
 */
#ifndef ISRF_ISRF_H
#define ISRF_ISRF_H

#include "area/cacti_lite.h"
#include "area/energy.h"
#include "core/config.h"
#include "core/machine.h"
#include "core/stream.h"
#include "core/stream_program.h"
#include "fault/ecc.h"
#include "fault/fault_config.h"
#include "fault/fault_injector.h"
#include "fault/watchdog.h"
#include "kernel/builder.h"
#include "kernel/scheduler.h"
#include "workloads/fft.h"
#include "workloads/filter.h"
#include "workloads/igraph.h"
#include "workloads/micro.h"
#include "workloads/rijndael.h"
#include "workloads/sort.h"
#include "workloads/trace_util.h"
#include "workloads/workload.h"

#endif // ISRF_ISRF_H
