/**
 * @file
 * Kernel operation set: opcodes, functional-unit classes, latencies, and
 * scalar functional semantics.
 *
 * This is the reproduction's stand-in for the Imagine VLIW microcode
 * operation set targeted by the KernelC compiler [19]. Only properties
 * that affect scheduling (FU class, latency, pipelining) and functional
 * evaluation are modeled.
 */
#ifndef ISRF_KERNEL_OP_H
#define ISRF_KERNEL_OP_H

#include <cstdint>
#include <string>

#include "sim/types.h"

namespace isrf {

/**
 * Functional unit classes available in each compute cluster.
 *
 * Per Table 3 / §5: 4 fully pipelined ALUs supporting integer and
 * floating-point add and multiply, plus a single unpipelined divider.
 * COMM is the cluster's port onto the inter-cluster network; SBUF ports
 * move words between the cluster and its stream buffers; SP is the small
 * scratchpad port (used by the base Filter implementation).
 */
enum class FuClass : uint8_t {
    Alu,     ///< 4 slots/cycle, pipelined
    Div,     ///< 1 slot, unpipelined (occupies for its full latency)
    Comm,    ///< 1 slot/cycle, inter-cluster network send
    Sbuf,    ///< stream-buffer access port
    Sp,      ///< scratchpad access port
    None,    ///< pseudo-ops consuming no issue slot
};

/** Operation codes for kernel dataflow nodes. */
enum class Opcode : uint8_t {
    // Pseudo / constants
    ConstInt,    ///< integer literal
    ConstFloat,  ///< float literal
    LaneId,      ///< id of the executing cluster (0..N-1)
    IterIdx,     ///< current loop iteration index within this lane
    Mov,

    // Integer ALU
    IAdd, ISub, IMul, IAnd, IOr, IXor, IShl, IShr, IMin, IMax,

    // Floating point ALU
    FAdd, FSub, FMul, FNeg, FMin, FMax,

    // Divider
    FDiv, IDiv, IMod,

    // Comparisons / select (ALU)
    CmpLt, CmpLe, CmpEq, CmpNe, Select,

    // Stream-buffer accesses
    SeqRead,   ///< read next word of a sequential input stream
    SeqWrite,  ///< append a word to a sequential output stream

    // Indexed SRF accesses (§4.4): an access is split into an address
    // issue and a data read, scheduled `separation` cycles apart.
    IdxAddr,   ///< push a computed address into an address FIFO
    IdxRead,   ///< consume the word returned for a prior IdxAddr
    IdxWrite,  ///< indexed store: address + data into the write FIFO

    // Inter-cluster communication (statically scheduled, §4.5)
    CommSend,  ///< send a word to another cluster
    CommRecv,  ///< receive a word sent by another cluster

    // Scratchpad (base-configuration Filter kernel state management)
    SpRead,
    SpWrite,

    NumOpcodes,
};

/** Static properties of an opcode. */
struct OpInfo
{
    const char *name;
    FuClass fu;
    /** Producer latency in cycles (result available after this many). */
    uint32_t latency;
    /** False only for the divider (occupies its FU for `latency`). */
    bool pipelined;
    /** Number of value inputs (excluding stream bindings). */
    uint8_t arity;
};

/** Look up static properties of an opcode. */
const OpInfo &opInfo(Opcode op);

/** Printable opcode name. */
inline const char *opName(Opcode op) { return opInfo(op).name; }

/** True for opcodes that access a stream (carry a stream-slot binding). */
bool opTouchesStream(Opcode op);

/** True for indexed-access opcodes (IdxAddr / IdxRead / IdxWrite). */
bool opIsIndexed(Opcode op);

/**
 * Evaluate a pure arithmetic/logic opcode on word operands.
 *
 * Floats are carried in Word via bit_cast. Stream, comm, and scratchpad
 * opcodes are not evaluable here (they need machine state) and panic.
 */
Word evalOp(Opcode op, Word a, Word b, Word c);

/** Bit-cast helpers between float and the 32-bit Word carrier. */
Word floatToWord(float f);
float wordToFloat(Word w);

} // namespace isrf

#endif // ISRF_KERNEL_OP_H
