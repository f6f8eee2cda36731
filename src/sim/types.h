/**
 * @file
 * Core simulation types: cycle counts and machine words.
 *
 * The simulator is one synchronous clock owned by the Machine
 * (core/machine.h): each Machine::step() ticks every component once, in
 * a fixed hand-written order, then advances the clock.
 */
#ifndef ISRF_SIM_TYPES_H
#define ISRF_SIM_TYPES_H

#include <cstdint>

namespace isrf {

/** Simulation time in machine cycles. */
using Cycle = uint64_t;

/** A 32-bit machine word: the unit of SRF and DRAM storage (Table 3). */
using Word = uint32_t;

} // namespace isrf

#endif // ISRF_SIM_TYPES_H
