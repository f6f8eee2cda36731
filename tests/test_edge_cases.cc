/**
 * @file
 * Edge-case coverage: partial flushes, multi-word indexed writes, DMA
 * vs indexed arbitration, stat resets, and separation selection.
 */
#include <gtest/gtest.h>

#include "core/stream_program.h"
#include "test_helpers.h"
#include "workloads/igraph.h"

namespace isrf {
namespace {

TEST(SrfEdge, MultiWordIndexedWriteRecord)
{
    SrfGeometry geom;
    Srf srf;
    srf.init(geom, SrfMode::Indexed4, nullptr);
    SlotConfig cfg;
    cfg.dir = StreamDir::Out;
    cfg.indexed = true;
    cfg.layout = StreamLayout::PerLane;
    cfg.lengthWords = 64;
    cfg.recordWords = 4;
    SlotId id = srf.openSlot(cfg);
    Word rec[4] = {11, 22, 33, 44};
    Cycle now = 0;
    srf.beginCycle(now);
    ASSERT_TRUE(srf.idxIssueWrite(3, id, 2, rec, now));  // words 8..11
    srf.endCycle(now);
    now++;
    for (int i = 0; i < 8; i++) {
        srf.beginCycle(now);
        srf.endCycle(now);
        now++;
    }
    EXPECT_TRUE(srf.idxWritesDrained(id));
    EXPECT_EQ(srf.readWord(3, 8), 11u);
    EXPECT_EQ(srf.readWord(3, 11), 44u);
}

TEST(SrfEdge, FlushEmptyOutputIsImmediatelyComplete)
{
    SrfGeometry geom;
    Srf srf;
    srf.init(geom, SrfMode::SequentialOnly, nullptr);
    SlotConfig cfg;
    cfg.dir = StreamDir::Out;
    cfg.lengthWords = 64;
    SlotId id = srf.openSlot(cfg);
    srf.flushSlot(id);
    EXPECT_TRUE(srf.flushComplete(id));
    EXPECT_EQ(srf.wordsWritten(id), 0u);
}

TEST(SrfEdge, SingleWordFlushDrains)
{
    SrfGeometry geom;
    Srf srf;
    srf.init(geom, SrfMode::SequentialOnly, nullptr);
    SlotConfig cfg;
    cfg.dir = StreamDir::Out;
    cfg.lengthWords = 64;
    SlotId id = srf.openSlot(cfg);
    srf.seqWrite(5, id, 0x77);
    srf.flushSlot(id);
    Cycle now = 0;
    for (int i = 0; i < 4 && !srf.flushComplete(id); i++) {
        srf.beginCycle(now);
        srf.endCycle(now);
        now++;
    }
    EXPECT_TRUE(srf.flushComplete(id));
    EXPECT_EQ(srf.wordsWritten(id), 1u);
}

TEST(SrfEdge, DmaAndIndexedShareCyclesFairly)
{
    SrfGeometry geom;
    Srf srf;
    srf.init(geom, SrfMode::Indexed4, nullptr);
    SlotConfig tc;
    tc.dir = StreamDir::In;
    tc.indexed = true;
    tc.layout = StreamLayout::PerLane;
    tc.lengthWords = 128;
    SlotId tbl = srf.openSlot(tc);
    SlotConfig dc;
    dc.base = 256;
    dc.lengthWords = 64;
    SlotId dma = srf.openSlot(dc);

    Rng rng(1);
    int dmaGrants = 0;
    Cycle now = 0;
    Word out[4];
    for (int c = 0; c < 40; c++) {
        srf.beginCycle(now);
        srf.memClaim(dma, [&]() { dmaGrants++; });
        for (uint32_t l = 0; l < geom.lanes; l++) {
            while (srf.idxDataReady(l, tbl, now))
                srf.idxDataPop(l, tbl, out);
            if (srf.idxCanIssue(l, tbl))
                srf.idxIssueRead(l, tbl,
                    static_cast<uint32_t>(rng.below(128)), now);
        }
        srf.endCycle(now);
        now++;
    }
    // Round-robin between the DMA claimant and the indexed bundle.
    EXPECT_GE(dmaGrants, 15);
    EXPECT_LE(dmaGrants, 25);
    EXPECT_GT(srf.idxInLaneWords(), 50u);
}

TEST(MachineEdge, ResetStatsClearsCounters)
{
    MachineConfig cfg = MachineConfig::base();
    cfg.dram.capacityWords = 1 << 16;
    Machine m;
    m.init(cfg);
    std::vector<Word> data(256, 1);
    m.mem().dram().fill(0, data);
    StreamProgram prog(m);
    SlotId in = prog.addStream("in", 256);
    prog.load(in, 0);
    prog.run();
    EXPECT_GT(m.breakdown().total(), 0u);
    EXPECT_GT(m.mem().dram().wordsTransferred(), 0u);
    m.resetStats();
    EXPECT_EQ(m.breakdown().total(), 0u);
    EXPECT_EQ(m.mem().dram().wordsTransferred(), 0u);
}

TEST(MachineEdge, ScheduleKernelPicksCrossLaneSeparation)
{
    MachineConfig cfg = MachineConfig::isrf4();
    cfg.dram.capacityWords = 1 << 16;
    cfg.inLaneSeparation = 6;
    cfg.crossLaneSeparation = 20;
    Machine m;
    m.init(cfg);
    KernelGraph inLane = test::makeLookupKernel();
    EXPECT_EQ(m.scheduleKernel(inLane).separation, 6u);
    KernelGraph cross = igIdxKernelGraph(16);
    EXPECT_EQ(m.scheduleKernel(cross).separation, 20u);
}

TEST(WorkloadEdge, DifferentSeedsChangeTiming)
{
    WorkloadOptions a;
    a.repeats = 1;
    a.seed = 1;
    WorkloadOptions b = a;
    b.seed = 2;
    WorkloadResult ra = runIgraph("IG_DMS", MachineConfig::isrf4(), a);
    WorkloadResult rb = runIgraph("IG_DMS", MachineConfig::isrf4(), b);
    EXPECT_TRUE(ra.correct);
    EXPECT_TRUE(rb.correct);
    EXPECT_NE(ra.cycles, rb.cycles) << "different graphs, different time";
}

TEST(WorkloadEdge, SameSeedIsFullyDeterministic)
{
    WorkloadOptions o;
    o.repeats = 1;
    WorkloadResult a = runIgraph("IG_DMS", MachineConfig::isrf4(), o);
    WorkloadResult b = runIgraph("IG_DMS", MachineConfig::isrf4(), o);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.dramWords, b.dramWords);
    EXPECT_EQ(a.breakdown.total(), b.breakdown.total());
}

} // namespace
} // namespace isrf
