#include "kernel/graph.h"

#include <atomic>

#include "util/log.h"

namespace isrf {

uint64_t
KernelGraph::nextUid()
{
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

int
KernelGraph::addStreamSlot(StreamSlot slot)
{
    slots_.push_back(std::move(slot));
    uid_ = nextUid();
    return static_cast<int>(slots_.size() - 1);
}

NodeId
KernelGraph::addNode(Node n)
{
    auto id = static_cast<NodeId>(nodes_.size());
    for (NodeId operand : n.operands) {
        if (operand != kInvalidNode && operand >= id)
            panic("KernelGraph(%s): operand %u of node %u not yet defined",
                  name_.c_str(), operand, id);
    }
    nodes_.push_back(n);
    uid_ = nextUid();
    return id;
}

void
KernelGraph::addEdge(NodeId from, NodeId to, uint32_t latency,
                     uint32_t distance)
{
    if (from >= nodes_.size() || to >= nodes_.size())
        panic("KernelGraph(%s): edge references unknown node", name_.c_str());
    edges_.push_back({from, to, latency, distance});
    uid_ = nextUid();
}

size_t
KernelGraph::countOps(Opcode op) const
{
    size_t n = 0;
    for (const auto &node : nodes_)
        if (node.op == op)
            n++;
    return n;
}

size_t
KernelGraph::countFu(FuClass fu) const
{
    size_t n = 0;
    for (const auto &node : nodes_)
        if (opInfo(node.op).fu == fu)
            n++;
    return n;
}

size_t
KernelGraph::flopCount() const
{
    size_t n = 0;
    for (const auto &node : nodes_) {
        switch (node.op) {
          case Opcode::FAdd:
          case Opcode::FSub:
          case Opcode::FMul:
          case Opcode::FNeg:
          case Opcode::FMin:
          case Opcode::FMax:
          case Opcode::FDiv:
            n++;
            break;
          default:
            break;
        }
    }
    return n;
}

void
KernelGraph::validate() const
{
    for (NodeId id = 0; id < nodes_.size(); id++) {
        const Node &n = nodes_[id];
        const OpInfo &info = opInfo(n.op);
        for (uint8_t i = 0; i < info.arity; i++) {
            if (n.operands[i] == kInvalidNode)
                panic("KernelGraph(%s): node %u (%s) missing operand %u",
                      name_.c_str(), id, opName(n.op), i);
        }
        if (opTouchesStream(n.op)) {
            if (n.streamSlot < 0 ||
                    static_cast<size_t>(n.streamSlot) >= slots_.size()) {
                panic("KernelGraph(%s): node %u (%s) has bad stream slot %d",
                      name_.c_str(), id, opName(n.op), n.streamSlot);
            }
        }
        if (n.op == Opcode::IdxRead) {
            if (n.pairedAddr == kInvalidNode ||
                    n.pairedAddr >= nodes_.size() ||
                    nodes_[n.pairedAddr].op != Opcode::IdxAddr) {
                panic("KernelGraph(%s): IdxRead node %u not paired with an "
                      "IdxAddr", name_.c_str(), id);
            }
        }
    }
    for (const Edge &e : edges_) {
        if (e.from >= nodes_.size() || e.to >= nodes_.size())
            panic("KernelGraph(%s): dangling edge", name_.c_str());
    }
}

std::vector<Edge>
KernelGraph::fullEdges(uint32_t separation) const
{
    std::vector<Edge> all;
    all.reserve(edges_.size() + nodes_.size() * 2);
    // Implied same-iteration operand edges with producer latency.
    for (NodeId id = 0; id < nodes_.size(); id++) {
        const Node &n = nodes_[id];
        const OpInfo &info = opInfo(n.op);
        for (uint8_t i = 0; i < info.arity; i++) {
            NodeId src = n.operands[i];
            if (src == kInvalidNode)
                continue;
            uint32_t lat = opInfo(nodes_[src].op).latency;
            all.push_back({src, id, lat, 0});
        }
        // The address-to-data separation constraint: the data read must be
        // scheduled at least `separation` cycles after the address issue
        // (§4.7, §5.1: fixed separation because the scheduler does not
        // support variable-latency ops).
        if (n.op == Opcode::IdxRead && n.pairedAddr != kInvalidNode)
            all.push_back({n.pairedAddr, id, separation, 0});
    }
    // Explicit edges (loop-carried recurrences, ordering constraints).
    for (const Edge &e : edges_)
        all.push_back(e);
    return all;
}

} // namespace isrf
