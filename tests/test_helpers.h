/**
 * @file
 * Shared helpers for machine-level tests: small kernels, invocation
 * builders and the whole-machine state oracle.
 */
#ifndef ISRF_TESTS_TEST_HELPERS_H
#define ISRF_TESTS_TEST_HELPERS_H

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/machine.h"
#include "kernel/builder.h"
#include "util/snapshot.h"

namespace isrf {
namespace test {

/** An SRF port client that only counts its grants. */
struct GrantCounter final : SrfPortClient
{
    uint64_t grants = 0;
    void onPortGrant() override { grants++; }
};

/** copy: out[i] = in[i] * 1 (one ALU op to keep the loop non-trivial). */
inline KernelGraph
makeCopyKernel()
{
    KernelBuilder b("copy");
    auto in = b.seqIn("in");
    auto out = b.seqOut("out");
    auto x = b.read(in);
    b.write(out, b.iadd(x, b.constInt(0)));
    return b.build();
}

/** lookup: out[i] = table[in[i] & mask] (in-lane indexed). */
inline KernelGraph
makeLookupKernel()
{
    KernelBuilder b("lookup");
    auto in = b.seqIn("in");
    auto lut = b.idxlIn("lut");
    auto out = b.seqOut("out");
    auto x = b.read(in);
    auto v = b.readIdx(lut, x);
    b.write(out, v);
    return b.build();
}

/**
 * Build a copy-kernel invocation: input slot striped data is echoed to
 * the output slot. The functional trace (per-lane output words) is the
 * lane's share of the input.
 */
inline std::shared_ptr<KernelInvocation>
makeCopyInvocation(Machine &m, const KernelGraph *graph, SlotId in,
                   SlotId out, const std::vector<Word> &inputData)
{
    auto inv = std::make_shared<KernelInvocation>();
    inv->graph = graph;
    inv->sched = m.scheduleKernel(*graph);
    inv->slots = {in, out};
    inv->laneTraces.assign(m.lanes(), LaneTrace());
    const SrfGeometry &g = m.config().srf;
    for (size_t e = 0; e < inputData.size(); e++) {
        uint32_t lane =
            static_cast<uint32_t>((e / g.seqWidth) % g.lanes);
        auto &t = inv->laneTraces[lane];
        t.iterations++;
        t.seqWrites.resize(2);
        t.seqWrites[1].push_back(inputData[e]);
    }
    for (auto &t : inv->laneTraces)
        t.seqWrites.resize(2);
    inv->finalize();
    return inv;
}

/** A section tag as its four characters ("MACH", "SRF ", ...). */
inline std::string
tagName(uint32_t tag)
{
    std::string s;
    for (int i = 0; i < 4; i++)
        s += static_cast<char>(tag >> (8 * i) & 0xff);
    return s;
}

/**
 * Two snapshots hold the same state: the same cycle and the same
 * sections, in order, byte for byte. A checkpoint carries every piece
 * of state a machine reads, so this is the strongest equality of two
 * machines there is. @return false on the first mismatch.
 */
inline ::testing::AssertionResult
sameSnapshotState(const Snapshot &got, const Snapshot &want)
{
    if (got.cycle != want.cycle)
        return ::testing::AssertionFailure()
            << "cycle " << got.cycle << " != " << want.cycle;
    if (got.sections.size() != want.sections.size())
        return ::testing::AssertionFailure()
            << got.sections.size() << " sections != "
            << want.sections.size();
    for (size_t i = 0; i < want.sections.size(); i++) {
        if (got.sections[i].tag != want.sections[i].tag)
            return ::testing::AssertionFailure()
                << "section " << i << " is " << tagName(got.sections[i].tag)
                << ", not " << tagName(want.sections[i].tag);
        if (got.sections[i].payload != want.sections[i].payload)
            return ::testing::AssertionFailure()
                << "section " << tagName(want.sections[i].tag)
                << " differs";
    }
    return ::testing::AssertionSuccess();
}

/** An Srf's `SRF ` checkpoint section payload. */
inline std::string
srfSection(Srf &srf)
{
    SnapshotWriter w;
    SnapshotIo io(w);
    srf.snapshot(io);
    return w.data();
}

/** sameSnapshotState() of two machines saved at their current cycle. */
inline ::testing::AssertionResult
sameMachineState(Machine &got, Machine &want)
{
    Snapshot a, b;
    got.saveSnapshot(a);
    want.saveSnapshot(b);
    return sameSnapshotState(a, b);
}

} // namespace test
} // namespace isrf

#endif // ISRF_TESTS_TEST_HELPERS_H
