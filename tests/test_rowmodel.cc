/**
 * @file
 * Tests for the optional DRAM row-buffer model.
 */
#include <gtest/gtest.h>

#include "mem/memory_system.h"
#include "util/random.h"
#include "workloads/rijndael.h"

namespace isrf {
namespace {

class RowModelTest : public ::testing::Test
{
  protected:
    DramConfig
    rowCfg()
    {
        DramConfig cfg;
        cfg.capacityWords = 1 << 16;
        cfg.rowBufferModel = true;
        cfg.wordsPerCycle = 4.0;
        cfg.burstTokens = 8.0;
        return cfg;
    }
};

TEST_F(RowModelTest, SequentialRunMostlyHits)
{
    Dram d(rowCfg());
    uint64_t done = 0;
    for (int cyc = 0; cyc < 1000 && done < 2048; cyc++) {
        d.tick();
        while (done < 2048 && d.tryAccessWord(done, cyc))
            done++;
    }
    ASSERT_EQ(done, 2048u);
    // 2048 sequential words over 512-word rows: 4 row misses.
    EXPECT_EQ(d.rowMisses(), 4u);
    EXPECT_EQ(d.rowHits(), 2044u);
}

TEST_F(RowModelTest, RandomAccessesMissOften)
{
    Dram d(rowCfg());
    Rng rng(5);
    uint64_t done = 0;
    for (int cyc = 0; cyc < 4000 && done < 2000; cyc++) {
        d.tick();
        for (int k = 0; k < 8 && done < 2000; k++) {
            if (d.tryAccessWord(rng.below(1 << 16), cyc))
                done++;
        }
    }
    ASSERT_EQ(done, 2000u);
    // Random over a 64K-word space (128 rows, 4 banks): mostly misses.
    EXPECT_GT(d.rowMisses(), d.rowHits());
}

TEST_F(RowModelTest, SmallTableGathersHitOpenRows)
{
    Dram d(rowCfg());
    Rng rng(6);
    uint64_t done = 0;
    for (int cyc = 0; cyc < 4000 && done < 2000; cyc++) {
        d.tick();
        for (int k = 0; k < 8 && done < 2000; k++) {
            // A 1 KB table spans two rows: high hit rate emerges from
            // the mechanism, not from a heuristic.
            if (d.tryAccessWord(rng.below(256), cyc))
                done++;
        }
    }
    ASSERT_EQ(done, 2000u);
    EXPECT_GT(d.rowHits(), 10 * d.rowMisses());
}

TEST_F(RowModelTest, RequiresEnablement)
{
    DramConfig cfg;
    cfg.capacityWords = 1024;
    Dram d(cfg);
    EXPECT_DEATH(d.tryAccessWord(0, 0), "rowBufferModel");
}

TEST_F(RowModelTest, EndToEndRijndaelStillCorrectAndMemoryBound)
{
    // The benchmark shapes must survive swapping the cost heuristic
    // for the mechanistic row model.
    MachineConfig cfg = MachineConfig::base();
    cfg.dram.rowBufferModel = true;
    WorkloadOptions opts;
    opts.repeats = 1;
    WorkloadResult r = runRijndael(cfg, opts);
    EXPECT_TRUE(r.correct);
    double memFrac = static_cast<double>(r.breakdown.memStall) /
        static_cast<double>(r.breakdown.total());
    EXPECT_GT(memFrac, 0.4);

    MachineConfig icfg = MachineConfig::isrf4();
    icfg.dram.rowBufferModel = true;
    WorkloadResult ri = runRijndael(icfg, opts);
    EXPECT_TRUE(ri.correct);
    EXPECT_LT(ri.cycles, r.cycles / 2) << "big speedup persists";
}

} // namespace
} // namespace isrf
