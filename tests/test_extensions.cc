/**
 * @file
 * Tests for the paper's §7 future-work extensions implemented here:
 * read-write indexed data structures resident in the SRF.
 */
#include <gtest/gtest.h>

#include "test_helpers.h"
#include "workloads/micro.h"

namespace isrf {
namespace {

MachineConfig
smallConfig()
{
    MachineConfig cfg = MachineConfig::isrf4();
    cfg.dram.capacityWords = 1 << 16;
    return cfg;
}

TEST(ReadWriteSlot, DirectSrfReadAndWriteInterleave)
{
    SrfGeometry geom;
    Srf srf;
    srf.init(geom, SrfMode::Indexed4, nullptr);
    SlotConfig cfg;
    cfg.dir = StreamDir::In;
    cfg.indexed = true;
    cfg.readWrite = true;
    cfg.layout = StreamLayout::PerLane;
    cfg.lengthWords = 64;
    SlotId id = srf.openSlot(cfg);
    srf.configureSlotBinding(id, StreamDir::In, true, false, true);
    for (uint32_t w = 0; w < 64; w++)
        srf.writeWord(2, w, w);

    Cycle now = 0;
    auto cycle = [&](uint32_t n) {
        for (uint32_t i = 0; i < n; i++) {
            srf.beginCycle(now);
            srf.endCycle(now);
            now++;
        }
    };

    // Read record 5, then write record 5, then read it again: the FIFO
    // preserves issue order, so the second read sees the new value.
    srf.beginCycle(now);
    ASSERT_TRUE(srf.idxIssueRead(2, id, 5, now));
    Word nv[1] = {1000};
    ASSERT_TRUE(srf.idxIssueWrite(2, id, 5, nv, now));
    ASSERT_TRUE(srf.idxIssueRead(2, id, 5, now));
    srf.endCycle(now);
    now++;
    cycle(12);
    Word out[4];
    ASSERT_TRUE(srf.idxDataReady(2, id, now));
    srf.idxDataPop(2, id, out);
    EXPECT_EQ(out[0], 5u);  // old value
    ASSERT_TRUE(srf.idxDataReady(2, id, now));
    srf.idxDataPop(2, id, out);
    EXPECT_EQ(out[0], 1000u);  // value written in between
    EXPECT_EQ(srf.readWord(2, 5), 1000u);
    EXPECT_TRUE(srf.idxWritesDrained(id));
}

TEST(ReadWriteSlot, CrossLaneReadWriteRejected)
{
    SrfGeometry geom;
    Srf srf;
    srf.init(geom, SrfMode::Indexed4, nullptr);
    SlotConfig cfg;
    cfg.indexed = true;
    cfg.lengthWords = 64;
    SlotId id = srf.openSlot(cfg);
    EXPECT_DEATH(
        srf.configureSlotBinding(id, StreamDir::In, true, true, true),
        "cross-lane indexed write");
}

TEST(ReadWriteSlot, RequiresIndexedBinding)
{
    SrfGeometry geom;
    Srf srf;
    srf.init(geom, SrfMode::Indexed4, nullptr);
    SlotConfig cfg;
    cfg.lengthWords = 64;
    SlotId id = srf.openSlot(cfg);
    EXPECT_DEATH(
        srf.configureSlotBinding(id, StreamDir::In, false, false, true),
        "read-write bindings require");
}

TEST(ReadWriteSlot, KernelBuilderDeclaresRwStream)
{
    KernelBuilder b("rw");
    auto t = b.idxlRw("table");
    auto out = b.seqOut("o");
    auto v = b.readIdx(t, b.iterIdx());
    auto doubled = b.iadd(v, v);
    b.writeIdx(t, b.iterIdx(), doubled);
    b.write(out, doubled);
    KernelGraph g = b.build();
    EXPECT_EQ(g.streamSlots()[0].kind, StreamKind::IdxInLaneRw);
    EXPECT_TRUE(g.streamSlots()[0].isOutput);
    EXPECT_EQ(g.countOps(Opcode::IdxRead), 1u);
    EXPECT_EQ(g.countOps(Opcode::IdxWrite), 1u);
}

TEST(ReadWriteSlot, InPlaceUpdateKernelEndToEnd)
{
    // A machine-level in-place histogram-style update: each lane
    // increments records of an SRF-resident table selected by an input
    // stream — the "read-write data structures" use case of §7.
    Machine m;
    m.init(smallConfig());

    const uint32_t tableWords = 64, n = 256;
    SlotConfig tc;
    tc.layout = StreamLayout::PerLane;
    tc.lengthWords = tableWords;
    tc.indexed = true;
    tc.readWrite = true;
    SlotId tbl = m.srf().openSlot(tc);
    for (uint32_t l = 0; l < m.lanes(); l++)
        for (uint32_t w = 0; w < tableWords; w++)
            m.srf().writeWord(l, w, 0);

    SlotConfig ic;
    ic.lengthWords = n;
    ic.base = 128;
    SlotId in = m.srf().openSlot(ic);
    Rng rng(21);
    std::vector<Word> keys(n);
    for (auto &k : keys)
        k = static_cast<Word>(rng.below(tableWords));
    m.srf().fillSlot(in, keys);

    KernelBuilder b("bump");
    auto keysIn = b.seqIn("keys");
    auto table = b.idxlRw("table");
    auto k = b.read(keysIn);
    auto v = b.readIdx(table, k);
    b.writeIdx(table, k, b.iadd(v, b.constInt(1)));
    KernelGraph g = b.build();

    // Functional per-lane histogram + traces. Reads and writes of a key
    // must stay ordered, which the shared FIFO guarantees.
    auto inv = std::make_shared<KernelInvocation>();
    inv->graph = &g;
    inv->sched = m.scheduleKernel(g);
    inv->slots = {in, tbl};
    inv->laneTraces.assign(m.lanes(), LaneTrace());
    for (auto &t : inv->laneTraces) {
        t.seqWrites.resize(2);
        t.idxReads.resize(2);
        t.idxWrites.resize(2);
    }
    std::vector<std::vector<Word>> hist(
        m.lanes(), std::vector<Word>(tableWords, 0));
    const SrfGeometry &geom = m.config().srf;
    for (size_t e = 0; e < keys.size(); e++) {
        uint32_t lane = static_cast<uint32_t>(
            (e / geom.seqWidth) % geom.lanes);
        auto &t = inv->laneTraces[lane];
        t.iterations++;
        t.idxReads[1].push_back(keys[e]);
        IdxWriteTraceEntry w;
        w.recordIndex = keys[e];
        hist[lane][keys[e]]++;
        w.data[0] = hist[lane][keys[e]];
        t.idxWrites[1].push_back(w);
    }
    inv->finalize();
    m.launchKernel(inv);
    m.runUntil([&]() { return !m.kernelActive(); }, 200000);

    // The SRF-resident table now holds each lane's histogram.
    for (uint32_t l = 0; l < m.lanes(); l++)
        for (uint32_t w = 0; w < tableWords; w++)
            EXPECT_EQ(m.srf().readWord(l, w), hist[l][w])
                << "lane " << l << " bin " << w;
}

TEST(ReadWriteSlot, RecurrenceThroughRwStreamSchedules)
{
    // Read-modify-write with a loop-carried dependency through the
    // indexed stream: II must grow with the separation, like the other
    // recurrence-bound kernels.
    KernelBuilder b("rmw");
    auto t = b.idxlRw("t");
    auto prev = b.carryIn();
    auto v = b.readIdx(t, prev);
    b.writeIdx(t, prev, v);
    b.carryOut(prev, v, 1);
    KernelGraph g = b.build();
    ModuloScheduler sched;
    uint32_t ii2 = sched.schedule(g, 2).ii;
    uint32_t ii10 = sched.schedule(g, 10).ii;
    EXPECT_GT(ii10, ii2);
}

} // namespace
} // namespace isrf

namespace isrf {
namespace {

TEST(RingNetwork, HopDistanceAndLatency)
{
    Crossbar ring;
    ring.init(8, 1, 1, NetTopology::Ring);
    EXPECT_EQ(ring.hopDistance(0, 1), 1u);
    EXPECT_EQ(ring.hopDistance(0, 7), 1u);   // wraps the short way
    EXPECT_EQ(ring.hopDistance(0, 4), 4u);   // diameter
    EXPECT_EQ(ring.hopDistance(3, 3), 0u);
    EXPECT_EQ(ring.extraLatency(0, 1), 0u);
    EXPECT_EQ(ring.extraLatency(0, 4), 3u);

    Crossbar xbar;
    xbar.init(8, 1, 1);
    EXPECT_EQ(xbar.extraLatency(0, 4), 0u);
}

TEST(RingNetwork, LinkContentionBlocksOverlappingPaths)
{
    Crossbar ring;
    ring.init(8, 4, 4, NetTopology::Ring);
    ring.newCycle();
    // 0 -> 2 uses clockwise links 0->1 and 1->2.
    EXPECT_TRUE(ring.tryTransfer(0, 2));
    // 1 -> 2 needs link 1->2, already taken.
    EXPECT_FALSE(ring.tryTransfer(1, 2));
    // 2 -> 4 is disjoint.
    EXPECT_TRUE(ring.tryTransfer(2, 4));
    // Counter-clockwise direction is independent: 2 -> 1 is free.
    EXPECT_TRUE(ring.tryTransfer(2, 1));
}

TEST(RingNetwork, ThroughputBelowCrossbar)
{
    CrossLaneMicroParams xb;
    xb.cycles = 6000;
    CrossLaneMicroParams rg = xb;
    rg.topology = NetTopology::Ring;
    double x = crossLaneRandomThroughput(xb);
    double r = crossLaneRandomThroughput(rg);
    EXPECT_LE(r, x * 1.02);
    EXPECT_GT(r, 0.3 * x) << "ring should still be usable";
}

TEST(RingNetwork, CrossLaneReadStillCorrect)
{
    SrfGeometry geom;
    geom.netTopology = NetTopology::Ring;
    Crossbar net;
    net.init(geom.lanes, 1, 1, NetTopology::Ring);
    Srf srf;
    srf.init(geom, SrfMode::Indexed4, &net);
    SlotConfig cfg;
    cfg.dir = StreamDir::In;
    cfg.indexed = true;
    cfg.crossLane = true;
    cfg.lengthWords = 256;
    SlotId id = srf.openSlot(cfg);
    std::vector<Word> data(256);
    for (size_t i = 0; i < data.size(); i++)
        data[i] = static_cast<Word>(i + 100);
    srf.fillSlot(id, data);

    Cycle now = 0;
    srf.beginCycle(now);
    // Read a word 4 hops away around the ring (lane 0 -> bank 4).
    ASSERT_TRUE(srf.idxIssueRead(0, id, 16, now));  // block 4 -> lane 4
    srf.endCycle(now);
    now++;
    for (int i = 0; i < 40 && !srf.idxDataReady(0, id, now); i++) {
        net.newCycle();
        srf.beginCycle(now);
        srf.endCycle(now);
        now++;
    }
    ASSERT_TRUE(srf.idxDataReady(0, id, now));
    Word out[4];
    srf.idxDataPop(0, id, out);
    EXPECT_EQ(out[0], 116u);
    // Ring latency must exceed the crossbar minimum of 6 cycles.
    EXPECT_GT(now, 7u);
}

TEST(ArbitrationPolicy, IndexedPriorityActivatesUnderPressure)
{
    // ISRF1 + a demanding sequential stream: with round-robin the
    // indexed FIFOs back up; the stall-aware arbiter must serve more
    // indexed words in the same number of cycles.
    auto run = [](ArbPolicy policy) {
        SrfGeometry geom;
        geom.arbPolicy = policy;
        Srf srf;
        srf.init(geom, SrfMode::Indexed1, nullptr);
        SlotConfig tc;
        tc.dir = StreamDir::In;
        tc.indexed = true;
        tc.layout = StreamLayout::PerLane;
        tc.lengthWords = 256;
        SlotId tbl = srf.openSlot(tc);
        SlotConfig sc;
        sc.dir = StreamDir::In;
        sc.base = 256;
        sc.lengthWords = 8 * 3072;
        SlotId seq = srf.openSlot(sc);
        Rng rng(3);
        Cycle now = 0;
        Word tmp[4];
        for (int c = 0; c < 2000; c++) {
            srf.beginCycle(now);
            for (uint32_t l = 0; l < geom.lanes; l++) {
                while (srf.idxDataReady(l, tbl, now))
                    srf.idxDataPop(l, tbl, tmp);
                if (srf.idxCanIssue(l, tbl))
                    srf.idxIssueRead(l, tbl,
                        static_cast<uint32_t>(rng.below(256)), now);
                for (int k = 0; k < 3; k++)
                    if (srf.seqCanRead(l, seq))
                        srf.seqRead(l, seq);
            }
            if (srf.seqWordsRemaining(0, seq) == 0)
                srf.rewindSlot(seq);
            srf.endCycle(now);
            now++;
        }
        return srf.idxInLaneWords();
    };
    uint64_t rr = run(ArbPolicy::RoundRobin);
    uint64_t pri = run(ArbPolicy::IndexedPriority);
    EXPECT_GT(pri, rr) << "stall-aware arbitration must help under "
                          "pressure";
    // ... but not by an order of magnitude (the paper's <10% on real
    // kernels comes from this limited headroom).
    EXPECT_LT(pri, rr * 3);
}

} // namespace
} // namespace isrf
