/**
 * @file
 * Kernel dataflow graph: the scheduling IR for kernel inner loops.
 *
 * A KernelGraph holds one loop body as a set of operation nodes and
 * dependence edges. Edges carry a minimum latency and an iteration
 * distance; loop-carried dependencies (distance > 0) constrain the
 * initiation interval found by the modulo scheduler, reproducing the
 * §5.4 behaviour where kernels whose index computation is on a
 * recurrence (Rijndael, Sort) lose schedule quality as the indexed
 * address/data separation grows.
 */
#ifndef ISRF_KERNEL_GRAPH_H
#define ISRF_KERNEL_GRAPH_H

#include <cstdint>
#include <string>
#include <vector>

#include "kernel/op.h"

namespace isrf {

/** Index of a node within its KernelGraph. */
using NodeId = uint32_t;

constexpr NodeId kInvalidNode = ~0u;

/** Direction + addressing mode of a kernel stream binding (Table 1). */
enum class StreamKind : uint8_t {
    SeqIn,       ///< istream<T>
    SeqOut,      ///< ostream<T>
    IdxInLane,   ///< idxl_istream<T> / idxl_ostream<T> (in-lane)
    IdxCross,    ///< idx_istream<T> (cross-lane read)
    IdxInLaneRw, ///< read-write in-lane indexed stream (paper §7
                 ///< future work: e.g. spilling registers, in-place
                 ///< data structures)
};

/** One stream slot in a kernel's signature. */
struct StreamSlot
{
    std::string name;
    StreamKind kind;
    bool isOutput;   ///< true for SeqOut and indexed writes
};

/** A dependence edge: to must issue >= latency after from (mod II·dist). */
struct Edge
{
    NodeId from;
    NodeId to;
    uint32_t latency;   ///< minimum issue-to-issue delay in cycles
    uint32_t distance;  ///< iteration distance (0 = same iteration)
};

/** One operation node in the loop body. */
struct Node
{
    Opcode op = Opcode::Mov;
    /** Value operands (same-iteration data edges are added for these). */
    NodeId operands[3] = {kInvalidNode, kInvalidNode, kInvalidNode};
    /** Stream slot index for stream-touching ops; -1 otherwise. */
    int streamSlot = -1;
    /** Immediate payload for ConstInt/ConstFloat. */
    Word imm = 0;
    /** For IdxRead: the IdxAddr node whose data this read consumes. */
    NodeId pairedAddr = kInvalidNode;
};

/**
 * The dataflow graph of one kernel inner loop.
 *
 * Construction is done through KernelBuilder; the scheduler consumes
 * nodes() and edges() directly.
 */
class KernelGraph
{
  public:
    explicit KernelGraph(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }

    /**
     * Process-unique id of this graph's contents: construction and
     * every add*() draw a fresh one, and a copy shares its source's.
     * Ids are never reused, so a graph built at the address of a
     * freed one never shares its id (Machine::scheduleKernel's memo).
     */
    uint64_t uid() const { return uid_; }

    /** Add a stream slot; returns its index. */
    int addStreamSlot(StreamSlot slot);

    /** Add a node; same-iteration data edges to operands are implied. */
    NodeId addNode(Node n);

    /** Add an explicit dependence edge (e.g. loop-carried or ordering). */
    void addEdge(NodeId from, NodeId to, uint32_t latency,
                 uint32_t distance = 0);

    size_t nodeCount() const { return nodes_.size(); }
    const Node &node(NodeId id) const { return nodes_[id]; }
    const std::vector<Node> &nodes() const { return nodes_; }
    const std::vector<Edge> &edges() const { return edges_; }
    const std::vector<StreamSlot> &streamSlots() const { return slots_; }

    /** Count of nodes with the given opcode. */
    size_t countOps(Opcode op) const;

    /** Count of nodes in the given FU class. */
    size_t countFu(FuClass fu) const;

    /** Number of floating-point arithmetic ops (for GFLOPs accounting). */
    size_t flopCount() const;

    /**
     * Validate structural invariants (operand ids in range, stream slots
     * bound, IdxRead paired). Panics on violation.
     */
    void validate() const;

    /**
     * Collect all dependence edges including the implied operand edges,
     * with IdxAddr→IdxRead pairs stretched to `separation` cycles.
     *
     * @param separation Address-issue to data-read scheduling distance
     *                   applied to in-lane and cross-lane indexed pairs.
     */
    std::vector<Edge> fullEdges(uint32_t separation) const;

  private:
    static uint64_t nextUid();

    std::string name_;
    std::vector<Node> nodes_;
    std::vector<Edge> edges_;
    std::vector<StreamSlot> slots_;
    uint64_t uid_ = nextUid();
};

} // namespace isrf

#endif // ISRF_KERNEL_GRAPH_H
