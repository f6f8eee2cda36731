/**
 * @file
 * Geometry-sweep tests: the SRF/machine models are parametric in lane
 * count, sequential width and capacity — not hard-wired to the paper's
 * Table 3 point. (The paper's scalability discussion [27] motivates
 * supporting other organizations.)
 */
#include <gtest/gtest.h>

#include "test_helpers.h"
#include "util/log.h"

namespace isrf {
namespace {

struct Geom
{
    uint32_t lanes;
    uint32_t seqWidth;
    uint32_t subArrays;
};

class GeometrySweep : public ::testing::TestWithParam<Geom>
{
};

TEST_P(GeometrySweep, SequentialRoundtripAtAnyGeometry)
{
    Geom p = GetParam();
    SrfGeometry g;
    g.lanes = p.lanes;
    g.seqWidth = p.seqWidth;
    g.subArrays = p.subArrays;
    g.laneWords = 1024;
    Srf srf;
    srf.init(g, SrfMode::Indexed4, nullptr);

    SlotConfig cfg;
    cfg.layout = StreamLayout::Striped;
    cfg.lengthWords = 4 * p.lanes * p.seqWidth + 3;  // ragged tail
    SlotId id = srf.openSlot(cfg);
    std::vector<Word> data(cfg.lengthWords);
    for (size_t i = 0; i < data.size(); i++)
        data[i] = static_cast<Word>(i * 7 + 1);
    srf.fillSlot(id, data);
    EXPECT_EQ(srf.dumpSlot(id), data);

    // Stream it through the buffers.
    Cycle now = 0;
    std::vector<std::vector<Word>> seen(p.lanes);
    for (int c = 0; c < 200; c++) {
        srf.beginCycle(now);
        for (uint32_t l = 0; l < p.lanes; l++)
            while (srf.seqCanRead(l, id))
                seen[l].push_back(srf.seqRead(l, id));
        srf.endCycle(now);
        now++;
    }
    uint64_t total = 0;
    for (const auto &v : seen)
        total += v.size();
    EXPECT_EQ(total, data.size());
    // Lane 0's first word is element 0; lane 1's is element m.
    EXPECT_EQ(seen[0][0], data[0]);
    if (p.lanes > 1) {
        EXPECT_EQ(seen[1][0], data[p.seqWidth]);
    }
}

TEST_P(GeometrySweep, IndexedReadsWorkAtAnyGeometry)
{
    Geom p = GetParam();
    SrfGeometry g;
    g.lanes = p.lanes;
    g.seqWidth = p.seqWidth;
    g.subArrays = p.subArrays;
    g.laneWords = 1024;
    Srf srf;
    srf.init(g, SrfMode::Indexed4, nullptr);
    SlotConfig cfg;
    cfg.dir = StreamDir::In;
    cfg.indexed = true;
    cfg.layout = StreamLayout::PerLane;
    cfg.lengthWords = 64;
    SlotId id = srf.openSlot(cfg);
    for (uint32_t l = 0; l < p.lanes; l++)
        for (uint32_t w = 0; w < 64; w++)
            srf.writeWord(l, w, l * 100 + w);

    Cycle now = 0;
    srf.beginCycle(now);
    for (uint32_t l = 0; l < p.lanes; l++)
        ASSERT_TRUE(srf.idxIssueRead(l, id, l % 64));
    srf.endCycle(now);
    now++;
    for (int c = 0; c < 20; c++) {
        srf.beginCycle(now);
        srf.endCycle(now);
        now++;
    }
    Word out[4];
    for (uint32_t l = 0; l < p.lanes; l++) {
        ASSERT_TRUE(srf.idxDataReady(l, id, now)) << "lane " << l;
        srf.idxDataPop(l, id, out);
        EXPECT_EQ(out[0], l * 100 + (l % 64));
    }
}

TEST_P(GeometrySweep, CopyKernelMachineAtAnyLaneCount)
{
    Geom p = GetParam();
    MachineConfig cfg = MachineConfig::base();
    cfg.srf.lanes = p.lanes;
    cfg.srf.seqWidth = p.seqWidth;
    cfg.srf.subArrays = p.subArrays;
    cfg.srf.laneWords = 1024;
    cfg.dram.capacityWords = 1 << 16;
    Machine m;
    m.init(cfg);
    SlotConfig ic, oc;
    ic.lengthWords = 16 * p.lanes * p.seqWidth;
    oc.lengthWords = ic.lengthWords;
    oc.base = 512;
    SlotId in = m.srf().openSlot(ic);
    SlotId out = m.srf().openSlot(oc);
    std::vector<Word> data(ic.lengthWords);
    for (size_t i = 0; i < data.size(); i++)
        data[i] = static_cast<Word>(i ^ 0xa5);
    m.srf().fillSlot(in, data);
    KernelGraph g = test::makeCopyKernel();
    m.launchKernel(test::makeCopyInvocation(m, &g, in, out, data));
    m.runUntil([&]() { return !m.kernelActive(); }, 500000);
    EXPECT_EQ(m.srf().dumpSlot(out), data);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, GeometrySweep,
    ::testing::Values(Geom{2, 4, 4}, Geom{4, 4, 2}, Geom{8, 4, 4},
                      Geom{16, 4, 4}, Geom{8, 8, 4}, Geom{4, 2, 8}),
    [](const auto &info) {
        return strprintf("L%um%us%u", info.param.lanes,
                         info.param.seqWidth, info.param.subArrays);
    });

} // namespace
} // namespace isrf
