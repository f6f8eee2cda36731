#include "workloads/sort.h"

#include <algorithm>

#include "kernel/builder.h"
#include "util/log.h"
#include "util/random.h"
#include "workloads/trace_util.h"

namespace isrf {

KernelGraph
sortLocalIdxGraph()
{
    KernelBuilder b("sort1");
    auto in = b.idxlIn("runs");
    auto out = b.seqOut("merged");

    // Run pointers and current head values live in LRFs across
    // iterations; the comparison picks the pointer, the indexed read
    // fetches the next head -- putting the separation on the merge
    // recurrence (para. 5.4).
    auto ptrA = b.carryIn();
    auto ptrB = b.carryIn();
    auto va = b.carryIn();
    auto vb = b.carryIn();
    auto cond = b.cmpLt(va, vb);
    auto winner = b.select(cond, va, vb);
    b.write(out, winner);
    auto idx = b.select(cond, ptrA, ptrB);
    auto next = b.readIdx(in, b.iadd(idx, b.constInt(1)));
    auto newVa = b.select(cond, next, va);
    auto newVb = b.select(cond, vb, next);
    auto newPtrA = b.iadd(ptrA, cond);
    auto newPtrB = b.isub(ptrB, cond);
    b.carryOut(va, newVa, 1);
    b.carryOut(vb, newVb, 1);
    b.carryOut(ptrA, newPtrA, 1);
    b.carryOut(ptrB, newPtrB, 1);
    return b.build();
}

KernelGraph
sortGlobalIdxGraph()
{
    KernelBuilder b("sort2");
    auto in = b.idxlIn("runs");
    auto out = b.seqOut("merged");

    auto ptrA = b.carryIn();
    auto va = b.carryIn();
    auto vb = b.carryIn();
    auto cond = b.cmpLt(va, vb);
    b.write(out, b.select(cond, va, vb));
    auto next = b.readIdx(in, b.iadd(ptrA, cond));
    // Partner-lane exchange of run boundaries: the receive completes a
    // network round trip after the send.
    auto sent = b.commSend(next, cond);
    auto remote = b.commRecv();
    b.orderEdge(sent, remote, 2, 0);
    auto newVa = b.select(cond, next, va);
    auto newVb = b.select(cond, remote, vb);
    b.carryOut(va, newVa, 1);
    b.carryOut(vb, newVb, 1);
    b.carryOut(ptrA, b.iadd(ptrA, cond), 1);
    return b.build();
}

KernelGraph
sortCondStreamGraph(const char *name)
{
    KernelBuilder b(name);
    auto in = b.seqIn("runs");
    auto out = b.seqOut("merged");

    auto va = b.carryIn();
    auto vb = b.carryIn();
    auto x = b.read(in);
    auto cond = b.cmpLt(va, vb);
    b.write(out, b.select(cond, va, vb));
    // Conditional-stream machinery [16]: cross-cluster scan of the
    // condition masks and data routing, three network hops deep for
    // eight clusters, all on the merge recurrence.
    auto m0 = b.iand(cond, b.constInt(1));
    auto s0 = b.commSend(m0, cond);
    auto r0 = b.commRecv();
    b.orderEdge(s0, r0, 2, 0);
    auto m1 = b.iadd(r0, m0);
    auto s1 = b.commSend(m1, cond);
    auto r1 = b.commRecv();
    b.orderEdge(s1, r1, 2, 0);
    auto m2 = b.iadd(r1, m1);
    auto s2 = b.commSend(m2, cond);
    auto r2 = b.commRecv();
    b.orderEdge(s2, r2, 2, 0);
    auto routed = b.select(m2, r2, x);
    auto newVa = b.select(cond, routed, va);
    auto newVb = b.select(cond, vb, routed);
    b.carryOut(va, newVa, 1);
    b.carryOut(vb, b.iadd(newVb, r2), 1);
    return b.build();
}

namespace {

/**
 * Merge pass recording, per output element, the word index read from
 * the input region (the indexed-SRF access trace).
 */
std::vector<Word>
mergePassTraced(const std::vector<Word> &data, size_t run,
                std::vector<uint32_t> &reads)
{
    std::vector<Word> out(data.size());
    for (size_t base = 0; base < data.size(); base += 2 * run) {
        size_t aEnd = std::min(base + run, data.size());
        size_t bEnd = std::min(base + 2 * run, data.size());
        size_t a = base, b = aEnd, o = base;
        while (a < aEnd || b < bEnd) {
            bool takeA = b >= bEnd ||
                (a < aEnd && static_cast<int32_t>(data[a]) <=
                     static_cast<int32_t>(data[b]));
            size_t src = takeA ? a : b;
            reads.push_back(static_cast<uint32_t>(src));
            out[o++] = takeA ? data[a++] : data[b++];
        }
    }
    return out;
}

} // namespace

WorkloadResult
runSort(const MachineConfig &machineCfg, const WorkloadOptions &opts)
{
    MachineConfig cfg = machineCfg;
    if (opts.separationOverride)
        cfg.inLaneSeparation = opts.separationOverride;
    Machine m;
    m.init(cfg);
    m.setCancel(opts.cancel);
    m.setCheckpoint(opts.checkpoint);

    WorkloadResult res;
    res.workload = "Sort";

    const SortParams params;
    const SrfGeometry &g = cfg.srf;
    const bool indexed = cfg.srfMode != SrfMode::SequentialOnly;
    const uint32_t total = params.totalValues;
    const uint32_t perLane = total / g.lanes;
    uint32_t localPasses = 0;
    while ((1u << localPasses) < perLane)
        localPasses++;
    uint32_t globalPasses = 0;
    while ((1u << globalPasses) < g.lanes)
        globalPasses++;

    Rng rng(opts.seed);
    std::vector<Word> input(total);
    for (auto &w : input)
        w = static_cast<Word>(rng.next() & 0x7fffffff);

    const uint64_t inAddr = 0, outAddr = total;
    m.mem().dram().fill(inAddr, input);

    std::vector<std::unique_ptr<KernelGraph>> graphs;
    if (indexed) {
        graphs.push_back(
            std::make_unique<KernelGraph>(sortLocalIdxGraph()));
        graphs.push_back(
            std::make_unique<KernelGraph>(sortGlobalIdxGraph()));
    } else {
        graphs.push_back(
            std::make_unique<KernelGraph>(sortCondStreamGraph("sort1")));
        graphs.push_back(
            std::make_unique<KernelGraph>(sortCondStreamGraph("sort2")));
    }
    const KernelGraph *kLocal = graphs[0].get();
    const KernelGraph *kGlobal = graphs[1].get();

    StreamProgram prog(m);
    // Lane-major data: lane l owns elements [l*perLane, (l+1)*perLane).
    SlotId A = prog.addStream("sortA", perLane, StreamLayout::PerLane,
                              StreamDir::In, indexed);
    SlotId B = prog.addStream("sortB", perLane, StreamLayout::PerLane,
                              StreamDir::In, indexed);

    for (uint32_t rep = 0; rep < opts.repeats; rep++) {
        prog.load(A, inAddr);
        SlotId cur = A, nxt = B;
        std::vector<Word> data = input;

        // Local passes: each lane merges within its own block.
        for (uint32_t p = 0; p < localPasses; p++) {
            std::vector<uint32_t> reads;
            std::vector<Word> out =
                mergePassTraced(data, 1ull << p, reads);
            auto inv = newInvocation(m, kLocal, {cur, nxt});
            for (uint32_t l = 0; l < g.lanes; l++) {
                auto &tr = inv->laneTraces[l];
                tr.iterations = perLane;
                for (uint32_t i = 0; i < perLane; i++) {
                    tr.seqWrites[1].push_back(out[l * perLane + i]);
                    if (indexed) {
                        // Lane-local word index into the input slot.
                        tr.idxReads[0].push_back(
                            reads[l * perLane + i] - l * perLane);
                    }
                }
            }
            inv->finalize();
            prog.kernel(inv);
            data = std::move(out);
            std::swap(cur, nxt);
        }

        // Cross-lane passes: merge the eight sorted runs.
        for (uint32_t p = 0; p < globalPasses; p++) {
            std::vector<uint32_t> reads;
            std::vector<Word> out = mergePassTraced(
                data, static_cast<size_t>(perLane) << p, reads);
            auto inv = newInvocation(m, kGlobal, {cur, nxt});
            for (uint32_t l = 0; l < g.lanes; l++) {
                auto &tr = inv->laneTraces[l];
                tr.iterations = perLane;
                for (uint32_t i = 0; i < perLane; i++) {
                    tr.seqWrites[1].push_back(out[l * perLane + i]);
                    if (indexed) {
                        // Reads during cross-lane merges stay within a
                        // lane-sized window of the run being consumed.
                        tr.idxReads[0].push_back(
                            reads[l * perLane + i] % perLane);
                    }
                }
            }
            inv->finalize();
            prog.kernel(inv);
            data = std::move(out);
            std::swap(cur, nxt);
        }
        prog.store(cur, outAddr);
    }

    uint64_t cycles = prog.run();
    res.status = prog.lastStatus();
    harvestResult(res, m, cycles);
    if (res.status != RunStatus::Done) {
        // Interrupted run (watchdog/deadline/cancel): the functional
        // output is incomplete, so skip the reference validation.
        return res;
    }

    std::vector<Word> got = m.mem().dram().dump(outAddr, total);
    std::vector<Word> ref = input;
    std::sort(ref.begin(), ref.end(),
              [](Word a, Word b) {
                  return static_cast<int32_t>(a) <
                      static_cast<int32_t>(b);
              });
    res.correct = got == ref;
    res.extra["local_ii"] = m.scheduleKernel(*kLocal).ii;
    res.extra["global_ii"] = m.scheduleKernel(*kGlobal).ii;
    return res;
}

} // namespace isrf
