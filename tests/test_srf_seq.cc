/**
 * @file
 * Tests for sequential SRF streaming: striping, buffer refill/drain,
 * flush, DMA port arbitration and allocator behaviour.
 */
#include <gtest/gtest.h>

#include "core/stream.h"
#include "srf/srf.h"

namespace isrf {
namespace {

class SrfSeqTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        geom_ = SrfGeometry{};  // Table 3 defaults: 8 lanes, m=4, s=4
        srf_.init(geom_, SrfMode::SequentialOnly, nullptr);
    }

    void
    cycle(uint32_t n = 1)
    {
        for (uint32_t i = 0; i < n; i++) {
            srf_.beginCycle(now_);
            srf_.endCycle(now_);
            now_++;
        }
    }

    SrfGeometry geom_;
    Srf srf_;
    Cycle now_ = 0;
};

TEST_F(SrfSeqTest, StripedLocationMapsBlocksRoundRobin)
{
    // Element words 0..3 in lane 0, 4..7 in lane 1, ..., 32..35 back in
    // lane 0 at the next row.
    auto [l0, a0] = srf_.stripedLocation(0, 0);
    EXPECT_EQ(l0, 0u);
    EXPECT_EQ(a0, 0u);
    auto [l1, a1] = srf_.stripedLocation(0, 4);
    EXPECT_EQ(l1, 1u);
    EXPECT_EQ(a1, 0u);
    auto [l2, a2] = srf_.stripedLocation(0, 32);
    EXPECT_EQ(l2, 0u);
    EXPECT_EQ(a2, 4u);
    auto [l3, a3] = srf_.stripedLocation(100, 33);
    EXPECT_EQ(l3, 0u);
    EXPECT_EQ(a3, 105u);
}

TEST_F(SrfSeqTest, FillDumpRoundtripStriped)
{
    SlotConfig cfg;
    cfg.layout = StreamLayout::Striped;
    cfg.base = 0;
    cfg.lengthWords = 100;  // deliberately not a multiple of N*m
    SlotId id = srf_.openSlot(cfg);
    std::vector<Word> data(100);
    for (size_t i = 0; i < data.size(); i++)
        data[i] = static_cast<Word>(i * 3 + 1);
    srf_.fillSlot(id, data);
    EXPECT_EQ(srf_.dumpSlot(id), data);
    EXPECT_EQ(srf_.slotTotalWords(id), 100u);
}

TEST_F(SrfSeqTest, SequentialReadDeliversLaneStripes)
{
    SlotConfig cfg;
    cfg.dir = StreamDir::In;
    cfg.layout = StreamLayout::Striped;
    cfg.base = 0;
    cfg.lengthWords = 64;
    SlotId id = srf_.openSlot(cfg);
    std::vector<Word> data(64);
    for (size_t i = 0; i < 64; i++)
        data[i] = static_cast<Word>(i);
    srf_.fillSlot(id, data);

    cycle(64);  // plenty of time to refill all lanes

    // Lane 0 owns global words 0..3 and 32..35.
    std::vector<Word> lane0;
    while (srf_.seqCanRead(0, id))
        lane0.push_back(srf_.seqRead(0, id));
    // Buffer capacity is 8, which is exactly lane 0's share here.
    ASSERT_EQ(lane0.size(), 8u);
    EXPECT_EQ(lane0[0], 0u);
    EXPECT_EQ(lane0[3], 3u);
    EXPECT_EQ(lane0[4], 32u);
    EXPECT_EQ(lane0[7], 35u);

    std::vector<Word> lane5;
    while (srf_.seqCanRead(5, id))
        lane5.push_back(srf_.seqRead(5, id));
    ASSERT_EQ(lane5.size(), 8u);
    EXPECT_EQ(lane5[0], 20u);
    EXPECT_EQ(lane5[4], 52u);
}

TEST_F(SrfSeqTest, SeqWordsRemainingCountsDown)
{
    SlotConfig cfg;
    cfg.dir = StreamDir::In;
    cfg.lengthWords = 64;
    SlotId id = srf_.openSlot(cfg);
    EXPECT_EQ(srf_.seqWordsRemaining(0, id), 8u);
    cycle(32);
    srf_.seqRead(0, id);
    srf_.seqRead(0, id);
    EXPECT_EQ(srf_.seqWordsRemaining(0, id), 6u);
}

TEST_F(SrfSeqTest, OutputDrainAndFlush)
{
    SlotConfig cfg;
    cfg.dir = StreamDir::Out;
    cfg.layout = StreamLayout::Striped;
    cfg.base = 16;
    cfg.lengthWords = 48;
    SlotId id = srf_.openSlot(cfg);

    // Each lane pushes 6 words (48 total, but last rows are partial).
    for (uint32_t l = 0; l < 8; l++) {
        for (uint32_t i = 0; i < 6; i++) {
            ASSERT_TRUE(srf_.seqCanWrite(l, id));
            srf_.seqWrite(l, id, l * 100 + i);
        }
    }
    cycle(8);  // full rows (4 words) drain
    srf_.flushSlot(id);
    cycle(16);  // partial rows drain under flush
    EXPECT_TRUE(srf_.flushComplete(id));
    EXPECT_EQ(srf_.wordsWritten(id), 48u);

    // Lane 2's first word landed at base, and the stream order follows
    // the stripe mapping.
    std::vector<Word> out = srf_.dumpSlot(id);
    EXPECT_EQ(out[0], 0u);       // lane 0, word 0
    EXPECT_EQ(out[4], 100u);     // lane 1, word 0
    EXPECT_EQ(out[8], 200u);     // lane 2, word 0
    EXPECT_EQ(out[33], 5u);      // lane 0 row 1: words 32..35 = 4,5 pad
}

TEST_F(SrfSeqTest, PerLaneLayoutIndependentLengths)
{
    SlotConfig cfg;
    cfg.layout = StreamLayout::PerLane;
    cfg.base = 0;
    cfg.perLaneLen = {4, 0, 2, 0, 0, 0, 0, 1};
    SlotId id = srf_.openSlot(cfg);
    EXPECT_EQ(srf_.slotTotalWords(id), 7u);
    std::vector<Word> data = {1, 2, 3, 4, 5, 6, 7};
    srf_.fillSlot(id, data);
    EXPECT_EQ(srf_.dumpSlot(id), data);
    // Lane 2's words live at its own base.
    EXPECT_EQ(srf_.readWord(2, 0), 5u);
    EXPECT_EQ(srf_.readWord(7, 0), 7u);
}

TEST_F(SrfSeqTest, DmaClaimGrantedWhenPortFree)
{
    SlotConfig cfg;
    cfg.lengthWords = 32;
    SlotId id = srf_.openSlot(cfg);
    int granted = 0;
    srf_.beginCycle(now_);
    srf_.memClaim(id, [&]() { granted++; });
    srf_.endCycle(now_);
    EXPECT_EQ(granted, 1);
}

TEST_F(SrfSeqTest, DmaSharesPortWithStreams)
{
    // A DMA claim and an input-stream refill on different slots must
    // alternate via round-robin, not starve each other.
    SlotConfig cfg;
    cfg.dir = StreamDir::In;
    cfg.lengthWords = 512;
    SlotId sid = srf_.openSlot(cfg);
    std::vector<Word> data(512, 7);
    srf_.fillSlot(sid, data);

    SlotConfig dcfg;
    dcfg.lengthWords = 32;
    dcfg.base = 256;
    SlotId did = srf_.openSlot(dcfg);

    int dmaGrants = 0;
    for (int i = 0; i < 10; i++) {
        srf_.beginCycle(now_);
        srf_.memClaim(did, [&]() { dmaGrants++; });
        // Keep draining lane buffers so the stream keeps claiming.
        for (uint32_t l = 0; l < 8; l++)
            while (srf_.seqCanRead(l, sid))
                srf_.seqRead(l, sid);
        srf_.endCycle(now_);
        now_++;
    }
    EXPECT_GE(dmaGrants, 4);
    EXPECT_LE(dmaGrants, 6);
}

TEST_F(SrfSeqTest, IndexedIssueOnSequentialOnlyDies)
{
    SlotConfig cfg;
    cfg.lengthWords = 16;
    SlotId id = srf_.openSlot(cfg);
    EXPECT_DEATH(srf_.configureSlotBinding(id, StreamDir::In, true, false),
                 "sequential-only");
}

/**
 * Drive a mixed stream + DMA load and return the DMA grant count.
 * Used to compare a re-initialized Srf against a fresh one.
 */
uint64_t
driveMixedLoad(Srf &srf)
{
    Cycle now = 0;
    SlotConfig cfg;
    cfg.dir = StreamDir::In;
    cfg.lengthWords = 256;
    SlotId in = srf.openSlot(cfg);
    std::vector<Word> data(256, 3);
    srf.fillSlot(in, data);
    SlotConfig dcfg;
    dcfg.lengthWords = 32;
    dcfg.base = 512;
    SlotId dma = srf.openSlot(dcfg);
    uint64_t dmaGrants = 0;
    for (int i = 0; i < 64; i++) {
        srf.beginCycle(now);
        srf.memClaim(dma, [&] { dmaGrants++; });
        for (uint32_t l = 0; l < 8; l++)
            while (srf.seqCanRead(l, in))
                srf.seqRead(l, in);
        srf.endCycle(now);
        now++;
    }
    srf.closeSlot(in);
    srf.closeSlot(dma);
    return dmaGrants;
}

TEST(SrfReinit, ReinitializedSrfArbitratesLikeFresh)
{
    // The re-init comment in Srf::init() as an asserted invariant:
    // after init() on a used Srf, arbitration (grants, RR rotation,
    // idle credit) replays exactly like a freshly constructed one.
    SrfGeometry geom;
    Srf reused, fresh;
    reused.init(geom, SrfMode::SequentialOnly, nullptr);
    driveMixedLoad(reused);  // dirty arbiters, rotations, counters
    reused.init(geom, SrfMode::SequentialOnly, nullptr);
    fresh.init(geom, SrfMode::SequentialOnly, nullptr);

    EXPECT_EQ(driveMixedLoad(reused), driveMixedLoad(fresh));
    for (const char *name : {"port_idle_cycles", "seq_grant_cycles",
                             "dma_grant_cycles"}) {
        EXPECT_EQ(reused.stats().counter(name).value(),
                  fresh.stats().counter(name).value())
            << name;
    }
}

TEST(SrfAllocator, AlignsAndExhausts)
{
    SrfGeometry geom;
    SrfAllocator a(geom);
    uint32_t b0 = a.alloc(64, StreamLayout::Striped);  // 8 words/lane
    uint32_t b1 = a.alloc(1, StreamLayout::Striped);   // rounds to 4
    EXPECT_EQ(b0, 0u);
    EXPECT_EQ(b1, 8u);
    EXPECT_EQ(a.usedWords(), 12u);
    // PerLane allocation of the full remaining space succeeds ...
    uint32_t b2 = a.alloc(geom.laneWords - 12, StreamLayout::PerLane);
    EXPECT_NE(b2, SrfAllocator::kAllocFail);
    // ... and the next one fails.
    EXPECT_EQ(a.alloc(4, StreamLayout::Striped), SrfAllocator::kAllocFail);
    a.reset();
    EXPECT_EQ(a.alloc(4, StreamLayout::Striped), 0u);
}

TEST(SrfGeometry, SubArrayMapping)
{
    SrfGeometry g;  // m=4, s=4
    EXPECT_EQ(g.subArrayOf(0), 0u);
    EXPECT_EQ(g.subArrayOf(3), 0u);
    EXPECT_EQ(g.subArrayOf(4), 1u);
    EXPECT_EQ(g.subArrayOf(15), 3u);
    EXPECT_EQ(g.subArrayOf(16), 0u);
    EXPECT_EQ(g.indexedPerBank(SrfMode::SequentialOnly), 0u);
    EXPECT_EQ(g.indexedPerBank(SrfMode::Indexed1), 1u);
    EXPECT_EQ(g.indexedPerBank(SrfMode::Indexed4), 4u);
}

} // namespace
} // namespace isrf
