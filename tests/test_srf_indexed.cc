/**
 * @file
 * Tests for indexed SRF access: in-lane reads/writes, latency, in-order
 * delivery, sub-array conflicts, ISRF1 vs ISRF4 bandwidth, records, and
 * cross-lane access through the index network and data crossbar.
 */
#include <gtest/gtest.h>

#include "net/crossbar.h"
#include "srf/srf.h"

namespace isrf {
namespace {

class SrfIdxTest : public ::testing::Test
{
  protected:
    void
    initSrf(SrfMode mode)
    {
        geom_ = SrfGeometry{};
        net_.init(geom_.lanes, 1, 1);
        srf_.init(geom_, mode, &net_);
    }

    void
    cycle(uint32_t n = 1)
    {
        for (uint32_t i = 0; i < n; i++) {
            net_.newCycle();
            srf_.beginCycle(now_);
            srf_.endCycle(now_);
            now_++;
        }
    }

    /** Open a PerLane table slot with lane-dependent contents. */
    SlotId
    openTable(uint32_t words, uint32_t base = 0, uint32_t recordWords = 1)
    {
        SlotConfig cfg;
        cfg.dir = StreamDir::In;
        cfg.indexed = true;
        cfg.layout = StreamLayout::PerLane;
        cfg.base = base;
        cfg.lengthWords = words;
        cfg.recordWords = recordWords;
        SlotId id = srf_.openSlot(cfg);
        for (uint32_t l = 0; l < geom_.lanes; l++)
            for (uint32_t w = 0; w < words; w++)
                srf_.writeWord(l, base + w, l * 1000 + w);
        return id;
    }

    SrfGeometry geom_;
    Crossbar net_;
    Srf srf_;
    Cycle now_ = 0;
};

TEST_F(SrfIdxTest, InLaneReadReturnsCorrectDataAfterLatency)
{
    initSrf(SrfMode::Indexed4);
    SlotId id = openTable(64);
    ASSERT_TRUE(srf_.idxCanIssue(3, id));
    srf_.beginCycle(now_);
    ASSERT_TRUE(srf_.idxIssueRead(3, id, 17, now_));
    srf_.endCycle(now_);
    Cycle issue = now_;
    now_++;
    // Not ready before the in-lane latency has elapsed.
    while (now_ < issue + geom_.inLaneLatency) {
        EXPECT_FALSE(srf_.idxDataReady(3, id, now_));
        cycle();
    }
    cycle(2);
    ASSERT_TRUE(srf_.idxDataReady(3, id, now_));
    Word out[4];
    EXPECT_EQ(srf_.idxDataPop(3, id, out), 1u);
    EXPECT_EQ(out[0], 3017u);
}

TEST_F(SrfIdxTest, InOrderDeliveryAcrossConflicts)
{
    initSrf(SrfMode::Indexed4);
    SlotId id = openTable(64);
    // Two requests to the same sub-array (addresses 0 and 1) conflict
    // with each other only within a cycle; in-order pop still holds.
    srf_.beginCycle(now_);
    ASSERT_TRUE(srf_.idxIssueRead(0, id, 1, now_));
    ASSERT_TRUE(srf_.idxIssueRead(0, id, 0, now_));
    srf_.endCycle(now_);
    now_++;
    cycle(10);
    Word out[4];
    ASSERT_TRUE(srf_.idxDataReady(0, id, now_));
    srf_.idxDataPop(0, id, out);
    EXPECT_EQ(out[0], 1u);  // first-issued first
    ASSERT_TRUE(srf_.idxDataReady(0, id, now_));
    srf_.idxDataPop(0, id, out);
    EXPECT_EQ(out[0], 0u);
}

TEST_F(SrfIdxTest, Isrf4ServesFourDistinctSubArraysPerCycle)
{
    initSrf(SrfMode::Indexed4);
    // Four streams, each issuing to a different sub-array.
    SlotId ids[4];
    for (uint32_t s = 0; s < 4; s++)
        ids[s] = openTable(16, s * 16);
    srf_.beginCycle(now_);
    for (uint32_t s = 0; s < 4; s++)
        ASSERT_TRUE(srf_.idxIssueRead(0, ids[s], s * 4, now_));  // sub-array s
    srf_.endCycle(now_);
    now_++;
    // Addresses become serviceable the cycle after FIFO entry.
    cycle(1);
    EXPECT_EQ(srf_.idxInLaneWords(), 4u);
}

TEST_F(SrfIdxTest, Isrf1ServesOneWordPerCycle)
{
    initSrf(SrfMode::Indexed1);
    SlotId ids[4];
    for (uint32_t s = 0; s < 4; s++)
        ids[s] = openTable(16, s * 16);
    srf_.beginCycle(now_);
    for (uint32_t s = 0; s < 4; s++)
        ASSERT_TRUE(srf_.idxIssueRead(0, ids[s], s * 4, now_));
    srf_.endCycle(now_);
    now_++;
    cycle(1);
    EXPECT_EQ(srf_.idxInLaneWords(), 1u);
    cycle(3);
    EXPECT_EQ(srf_.idxInLaneWords(), 4u);
}

TEST_F(SrfIdxTest, SameSubArrayConflictSerializes)
{
    initSrf(SrfMode::Indexed4);
    SlotId a = openTable(16, 0);
    SlotId b = openTable(16, 16);
    srf_.beginCycle(now_);
    // Both target sub-array 0 of lane 0 (addresses 0 and 16+... note
    // slot b's base 16 -> laneAddr 16 -> sub-array 0 again).
    ASSERT_TRUE(srf_.idxIssueRead(0, a, 0, now_));
    ASSERT_TRUE(srf_.idxIssueRead(0, b, 0, now_));
    srf_.endCycle(now_);
    now_++;
    cycle(1);
    EXPECT_EQ(srf_.idxInLaneWords(), 1u);
    EXPECT_GE(srf_.subArrayConflicts(), 1u);
    cycle(1);
    EXPECT_EQ(srf_.idxInLaneWords(), 2u);
}

TEST_F(SrfIdxTest, MultiWordRecordsExpandToWordAccesses)
{
    initSrf(SrfMode::Indexed4);
    SlotId id = openTable(64, 0, 4);
    srf_.beginCycle(now_);
    ASSERT_TRUE(srf_.idxIssueRead(2, id, 3, now_));  // words 12..15
    srf_.endCycle(now_);
    now_++;
    cycle(10);
    ASSERT_TRUE(srf_.idxDataReady(2, id, now_));
    Word out[4];
    EXPECT_EQ(srf_.idxDataPop(2, id, out), 4u);
    EXPECT_EQ(out[0], 2012u);
    EXPECT_EQ(out[3], 2015u);
}

TEST_F(SrfIdxTest, IndexedWriteLandsInBank)
{
    initSrf(SrfMode::Indexed4);
    SlotConfig cfg;
    cfg.dir = StreamDir::Out;
    cfg.indexed = true;
    cfg.layout = StreamLayout::PerLane;
    cfg.base = 32;
    cfg.lengthWords = 32;
    SlotId id = srf_.openSlot(cfg);
    Word data[1] = {0xdead};
    srf_.beginCycle(now_);
    ASSERT_TRUE(srf_.idxIssueWrite(5, id, 7, data, now_));
    EXPECT_FALSE(srf_.idxWritesDrained(id));
    srf_.endCycle(now_);
    now_++;
    cycle(2);
    EXPECT_TRUE(srf_.idxWritesDrained(id));
    EXPECT_EQ(srf_.readWord(5, 39), 0xdeadu);
}

TEST_F(SrfIdxTest, AddressFifoBackpressure)
{
    initSrf(SrfMode::Indexed4);
    SlotId id = openTable(64);
    // Fill the FIFO without any service cycles.
    uint32_t issued = 0;
    srf_.beginCycle(now_);
    while (srf_.idxIssueRead(0, id, issued % 64, now_))
        issued++;
    // Capacity = addrFifoSize (8); the data buffer is larger.
    EXPECT_EQ(issued, geom_.addrFifoSize);
    EXPECT_FALSE(srf_.idxCanIssue(0, id));
    srf_.endCycle(now_);
    now_++;
    cycle(1);
    EXPECT_TRUE(srf_.idxCanIssue(0, id));
}

TEST_F(SrfIdxTest, CrossLaneReadRoutesToOwningBank)
{
    initSrf(SrfMode::Indexed4);
    SlotConfig cfg;
    cfg.dir = StreamDir::In;
    cfg.indexed = true;
    cfg.crossLane = true;
    cfg.layout = StreamLayout::Striped;
    cfg.base = 0;
    cfg.lengthWords = 256;
    SlotId id = srf_.openSlot(cfg);
    std::vector<Word> data(256);
    for (size_t i = 0; i < data.size(); i++)
        data[i] = static_cast<Word>(i + 7000);
    srf_.fillSlot(id, data);

    // Lane 0 reads global word 100 (lives in lane (100/4)%8 = 1).
    srf_.beginCycle(now_);
    ASSERT_TRUE(srf_.idxIssueRead(0, id, 100, now_));
    srf_.endCycle(now_);
    Cycle issue = now_;
    now_++;
    while (now_ < issue + geom_.crossLaneLatency) {
        EXPECT_FALSE(srf_.idxDataReady(0, id, now_));
        cycle();
    }
    cycle(4);
    ASSERT_TRUE(srf_.idxDataReady(0, id, now_));
    Word out[4];
    srf_.idxDataPop(0, id, out);
    EXPECT_EQ(out[0], 7100u);
    EXPECT_EQ(srf_.idxCrossWords(), 1u);
}

TEST_F(SrfIdxTest, CrossLaneBankPortLimitsThroughput)
{
    initSrf(SrfMode::Indexed4);
    SlotConfig cfg;
    cfg.dir = StreamDir::In;
    cfg.indexed = true;
    cfg.crossLane = true;
    cfg.layout = StreamLayout::Striped;
    cfg.base = 0;
    cfg.lengthWords = 1024;
    SlotId id = srf_.openSlot(cfg);

    // All 8 lanes target bank 0 (word indices 0..3 stripe to lane 0).
    srf_.beginCycle(now_);
    for (uint32_t l = 0; l < 8; l++)
        ASSERT_TRUE(srf_.idxIssueRead(l, id, l % 4, now_));
    srf_.endCycle(now_);
    now_++;
    // With one network port per bank, only ~1 index routes per cycle.
    cycle(1);
    EXPECT_LE(srf_.idxCrossWords(), 2u);
    cycle(20);
    EXPECT_EQ(srf_.idxCrossWords(), 8u);
}

TEST_F(SrfIdxTest, CrossLaneWriteRejected)
{
    initSrf(SrfMode::Indexed4);
    SlotConfig cfg;
    cfg.dir = StreamDir::Out;
    cfg.indexed = true;
    cfg.crossLane = true;
    EXPECT_DEATH(srf_.openSlot(cfg), "cross-lane indexed write");
}

TEST_F(SrfIdxTest, SequentialAndIndexedShareThePort)
{
    initSrf(SrfMode::Indexed4);
    SlotId tbl = openTable(64, 0);

    SlotConfig scfg;
    scfg.dir = StreamDir::In;
    scfg.layout = StreamLayout::Striped;
    scfg.base = 64;
    scfg.lengthWords = 2048;
    SlotId seq = srf_.openSlot(scfg);

    // Keep both sides demanding for 40 cycles.
    uint64_t seqGrants0 = srf_.stats().counterValue("seq_grant_cycles");
    for (int i = 0; i < 40; i++) {
        srf_.beginCycle(now_);
        for (uint32_t l = 0; l < 8; l++) {
            if (srf_.idxCanIssue(l, tbl))
                srf_.idxIssueRead(l, tbl, static_cast<uint32_t>(i) % 64, now_);
            while (srf_.seqCanRead(l, seq))
                srf_.seqRead(l, seq);
        }
        srf_.endCycle(now_);
        now_++;
    }
    uint64_t seqGrants =
        srf_.stats().counterValue("seq_grant_cycles") - seqGrants0;
    uint64_t idxGrants = srf_.stats().counterValue("idx_grant_cycles");
    // Round-robin between one sequential claimant and the indexed
    // bundle: roughly half the cycles each.
    EXPECT_GE(seqGrants, 15u);
    EXPECT_GE(idxGrants, 15u);
}

} // namespace
} // namespace isrf
