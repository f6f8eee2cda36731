/**
 * @file
 * Machine-level tests: configuration factories, kernel launch/finish
 * lifecycle, functional output correctness, execution-time breakdown
 * accounting and Figure 13 bandwidth records.
 */
#include <gtest/gtest.h>

#include "core/config.h"
#include "test_helpers.h"

namespace isrf {
namespace {

MachineConfig
smallConfig(MachineKind kind)
{
    MachineConfig cfg = MachineConfig::make(kind);
    cfg.dram.capacityWords = 1 << 18;  // keep test machines light
    return cfg;
}

TEST(MachineConfig, Factories)
{
    EXPECT_EQ(MachineConfig::base().srfMode, SrfMode::SequentialOnly);
    EXPECT_EQ(MachineConfig::isrf1().srfMode, SrfMode::Indexed1);
    EXPECT_EQ(MachineConfig::isrf4().srfMode, SrfMode::Indexed4);
    EXPECT_TRUE(MachineConfig::cacheCfg().mem.cacheEnabled);
    EXPECT_EQ(MachineConfig::base().name(), "Base");
    for (auto kind : {MachineKind::Base, MachineKind::ISRF1,
                      MachineKind::ISRF4, MachineKind::Cache}) {
        MachineConfig::make(kind).validate();
    }
}

TEST(MachineConfig, Table3Defaults)
{
    MachineConfig cfg = MachineConfig::base();
    EXPECT_EQ(cfg.srf.lanes, 8u);
    EXPECT_EQ(cfg.srf.totalBytes(), 128u * 1024);
    EXPECT_EQ(cfg.srf.seqWidth, 4u);
    EXPECT_EQ(cfg.srf.streamBufWords, 8u);
    EXPECT_EQ(cfg.srf.addrFifoSize, 8u);
    EXPECT_EQ(cfg.srf.seqLatency, 3u);
    EXPECT_EQ(cfg.srf.inLaneLatency, 4u);
    EXPECT_EQ(cfg.srf.crossLaneLatency, 6u);
    EXPECT_NEAR(cfg.dram.wordsPerCycle, 2.285, 0.001);
    EXPECT_EQ(cfg.cache.capacityWords * 4, 128u * 1024);
    EXPECT_EQ(cfg.cache.ways, 4u);
    EXPECT_EQ(cfg.cache.banks, 4u);
    EXPECT_EQ(cfg.cache.lineWords, 2u);
    EXPECT_EQ(cfg.cluster.aluSlots, 4u);
    EXPECT_EQ(cfg.cluster.divSlots, 1u);
}

class MachineTest : public ::testing::TestWithParam<MachineKind>
{
};

TEST_P(MachineTest, CopyKernelEndToEnd)
{
    Machine m;
    m.init(smallConfig(GetParam()));

    SlotConfig inCfg, outCfg;
    inCfg.lengthWords = 256;
    inCfg.base = m.allocator().alloc(256, StreamLayout::Striped);
    outCfg.lengthWords = 256;
    outCfg.base = m.allocator().alloc(256, StreamLayout::Striped);
    SlotId in = m.srf().openSlot(inCfg);
    SlotId out = m.srf().openSlot(outCfg);

    std::vector<Word> data(256);
    for (size_t i = 0; i < data.size(); i++)
        data[i] = static_cast<Word>(i * 5 + 3);
    m.srf().fillSlot(in, data);

    KernelGraph g = test::makeCopyKernel();
    auto inv = test::makeCopyInvocation(m, &g, in, out, data);
    m.launchKernel(inv);
    EXPECT_TRUE(m.kernelActive());
    uint64_t cycles = m.runUntil([&]() { return !m.kernelActive(); },
                                 200000).cycles;
    EXPECT_GT(cycles, 0u);
    EXPECT_EQ(m.srf().dumpSlot(out), data);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, MachineTest,
                         ::testing::Values(MachineKind::Base,
                                           MachineKind::ISRF1,
                                           MachineKind::ISRF4,
                                           MachineKind::Cache));

TEST(Machine, BreakdownAccountsEveryLaneCycle)
{
    Machine m;
    m.init(smallConfig(MachineKind::Base));
    SlotConfig inCfg, outCfg;
    inCfg.lengthWords = 512;
    inCfg.base = 0;
    outCfg.lengthWords = 512;
    outCfg.base = m.config().srf.laneWords / 2;
    SlotId in = m.srf().openSlot(inCfg);
    SlotId out = m.srf().openSlot(outCfg);
    std::vector<Word> data(512, 1);
    m.srf().fillSlot(in, data);
    KernelGraph g = test::makeCopyKernel();
    auto inv = test::makeCopyInvocation(m, &g, in, out, data);
    m.launchKernel(inv);
    m.runUntil([&]() { return !m.kernelActive(); }, 200000);

    const TimeBreakdown &bd = m.breakdown();
    EXPECT_EQ(bd.total(), m.now() * m.lanes());
    EXPECT_GT(bd.loopBody, 0u);
    EXPECT_GT(bd.overhead, 0u);  // dispatch + fill/drain
    EXPECT_EQ(bd.memStall, 0u);  // no memory ops issued
}

TEST(Machine, KernelBwRecorded)
{
    Machine m;
    m.init(smallConfig(MachineKind::Base));
    SlotConfig inCfg, outCfg;
    inCfg.lengthWords = 512;
    inCfg.base = 0;
    outCfg.lengthWords = 512;
    outCfg.base = 1024;
    SlotId in = m.srf().openSlot(inCfg);
    SlotId out = m.srf().openSlot(outCfg);
    std::vector<Word> data(512, 2);
    m.srf().fillSlot(in, data);
    KernelGraph g = test::makeCopyKernel();
    m.launchKernel(test::makeCopyInvocation(m, &g, in, out, data));
    m.runUntil([&]() { return !m.kernelActive(); }, 200000);

    const auto &bw = m.kernelBw();
    ASSERT_TRUE(bw.count("copy"));
    const KernelBwRecord &rec = bw.at("copy");
    EXPECT_EQ(rec.invocations, 1u);
    EXPECT_GT(rec.laneCycles, 0u);
    // copy touches 2 words (1 read + 1 write) per iteration.
    EXPECT_EQ(rec.seqWords, 2u * 512u);
    EXPECT_GT(rec.seqPerLaneCycle(), 0.0);
    EXPECT_EQ(rec.inLaneWords, 0u);
}

TEST(Machine, LaunchWhileActiveDies)
{
    Machine m;
    m.init(smallConfig(MachineKind::Base));
    SlotConfig cfg;
    cfg.lengthWords = 64;
    SlotId in = m.srf().openSlot(cfg);
    cfg.base = 512;
    SlotId out = m.srf().openSlot(cfg);
    std::vector<Word> data(64, 1);
    m.srf().fillSlot(in, data);
    KernelGraph g = test::makeCopyKernel();
    auto inv = test::makeCopyInvocation(m, &g, in, out, data);
    m.launchKernel(inv);
    auto inv2 = test::makeCopyInvocation(m, &g, in, out, data);
    EXPECT_DEATH(m.launchKernel(inv2), "while");
}

TEST(Machine, IndexedLookupKernelEndToEnd)
{
    Machine m;
    m.init(smallConfig(MachineKind::ISRF4));

    // Table: per-lane copy of 256 entries; in: per-lane indices; out:
    // the looked-up values.
    SlotConfig tblCfg;
    tblCfg.layout = StreamLayout::PerLane;
    tblCfg.lengthWords = 256;
    tblCfg.base = 0;
    tblCfg.indexed = true;
    SlotId tbl = m.srf().openSlot(tblCfg);
    for (uint32_t l = 0; l < m.lanes(); l++)
        for (uint32_t w = 0; w < 256; w++)
            m.srf().writeWord(l, w, (w * 3) ^ l);

    SlotConfig inCfg;
    inCfg.lengthWords = 512;
    inCfg.base = 256;
    SlotId in = m.srf().openSlot(inCfg);
    SlotConfig outCfg;
    outCfg.lengthWords = 512;
    outCfg.base = 512;
    SlotId out = m.srf().openSlot(outCfg);

    std::vector<Word> indices(512);
    Rng rng(3);
    for (auto &w : indices)
        w = static_cast<Word>(rng.below(256));
    m.srf().fillSlot(in, indices);

    KernelGraph g = test::makeLookupKernel();
    auto inv = std::make_shared<KernelInvocation>();
    inv->graph = &g;
    inv->sched = m.scheduleKernel(g);
    inv->slots = {in, tbl, out};
    inv->laneTraces.assign(m.lanes(), LaneTrace());
    const SrfGeometry &geom = m.config().srf;
    for (size_t e = 0; e < indices.size(); e++) {
        uint32_t lane =
            static_cast<uint32_t>((e / geom.seqWidth) % geom.lanes);
        auto &t = inv->laneTraces[lane];
        t.iterations++;
        t.seqWrites.resize(3);
        t.idxReads.resize(3);
        t.idxReads[1].push_back(indices[e]);
        t.seqWrites[2].push_back((indices[e] * 3) ^ lane);
    }
    inv->finalize();
    m.launchKernel(inv);
    m.runUntil([&]() { return !m.kernelActive(); }, 400000);

    // Verify the output: element e was processed by its stripe lane.
    auto outData = m.srf().dumpSlot(out);
    for (size_t e = 0; e < indices.size(); e++) {
        uint32_t lane =
            static_cast<uint32_t>((e / geom.seqWidth) % geom.lanes);
        EXPECT_EQ(outData[e], (indices[e] * 3) ^ lane) << "element " << e;
    }
    EXPECT_GT(m.srf().idxInLaneWords(), 0u);
}

/**
 * A kernel whose lanes sleep between events: a sequential input, a
 * lookup on indexed machines, a divide chain that stretches the II
 * past the lookup's data-return time, a comm send and an output.
 */
KernelGraph
makeSleepyKernel(bool indexed)
{
    KernelBuilder b(indexed ? "sleepy_idx" : "sleepy_seq");
    auto in = b.seqIn("in");
    StreamRef lut;
    if (indexed)
        lut = b.idxlIn("lut");
    auto out = b.seqOut("out");
    auto x = b.read(in);
    auto v = indexed ? b.readIdx(lut, b.iand(x, b.constInt(255))) : x;
    auto q = b.fdiv(b.fdiv(v, b.constFloat(3)), b.constFloat(5));
    b.commSend(q, b.laneId());
    b.write(out, q);
    return b.build();
}

/**
 * Open the sleepy kernel's streams on `m` and build its invocation.
 * Lane l runs 24 + 5l iterations, so early lanes drain and wait while
 * later ones still issue.
 */
std::shared_ptr<KernelInvocation>
sleepyInvocation(Machine &m, const KernelGraph &g, bool indexed)
{
    SlotConfig inCfg;
    inCfg.lengthWords = 512;
    SlotId in = m.srf().openSlot(inCfg);
    SlotConfig outCfg;
    outCfg.lengthWords = 512;
    outCfg.base = 64;
    SlotId out = m.srf().openSlot(outCfg);
    Rng rng(17);
    std::vector<Word> data(512);
    for (Word &w : data)
        w = static_cast<Word>(rng.below(1 << 20));
    m.srf().fillSlot(in, data);

    auto inv = std::make_shared<KernelInvocation>();
    inv->graph = &g;
    inv->sched = m.scheduleKernel(g);
    inv->slots = {in, out};
    if (indexed) {
        SlotConfig tc;
        tc.layout = StreamLayout::PerLane;
        tc.lengthWords = 256;
        tc.indexed = true;
        tc.base = 128;
        inv->slots = {in, m.srf().openSlot(tc), out};
    }
    const size_t outSlot = inv->slots.size() - 1;
    inv->laneTraces.assign(m.lanes(), LaneTrace());
    for (uint32_t l = 0; l < m.lanes(); l++) {
        LaneTrace &t = inv->laneTraces[l];
        t.iterations = 24 + 5 * l;
        t.seqWrites.resize(inv->slots.size());
        t.idxReads.resize(inv->slots.size());
        for (uint64_t i = 0; i < t.iterations; i++) {
            t.seqWrites[outSlot].push_back(static_cast<Word>(i));
            if (indexed)
                t.idxReads[1].push_back(
                    static_cast<uint32_t>(rng.below(256)));
        }
    }
    inv->finalize();
    return inv;
}

/** A fresh machine loaded from `m`'s checkpoint: every lane wakes. */
std::unique_ptr<Machine>
reloaded(Machine &m, const MachineConfig &cfg,
         const std::shared_ptr<KernelInvocation> &inv)
{
    Snapshot snap;
    m.saveSnapshot(snap);
    auto fresh = std::make_unique<Machine>();
    fresh->init(cfg);
    std::string err;
    EXPECT_TRUE(fresh->loadSnapshot(snap, m.kernelActive() ? inv : nullptr,
                                    &err)) << err;
    return fresh;
}

class LaneSleep : public ::testing::TestWithParam<MachineKind>
{
};

TEST_P(LaneSleep, SleepingLanesMatchLanesTickedEveryCycle)
{
    // Lanes skip the cycles on which a tick would change nothing
    // (DESIGN.md §19). A snapshot load resets every wake, so a machine
    // reloaded before each step ticks every lane on every cycle: the
    // two must agree on the Figure 12 buckets and on every checkpoint
    // section (CLUS included) after each cycle, over two launches.
    const MachineConfig cfg = smallConfig(GetParam());
    const bool indexed = cfg.srfMode != SrfMode::SequentialOnly;
    KernelGraph g = makeSleepyKernel(indexed);
    Machine sleeping;
    sleeping.init(cfg);
    auto inv = sleepyInvocation(sleeping, g, indexed);
    auto ticking = std::make_unique<Machine>();
    ticking->init(cfg);
    ASSERT_EQ(sleepyInvocation(*ticking, g, indexed)->slots, inv->slots);

    uint64_t cycles = 0;
    for (int launch = 0; launch < 2; launch++) {
        sleeping.launchKernel(inv);
        ticking->launchKernel(inv);
        // Run a few cycles past the kernel, with no lane bound.
        for (int tail = 8; tail > 0; tail -= !sleeping.kernelActive()) {
            ASSERT_LT(cycles, 100000u) << "kernel never finished";
            ticking = reloaded(*ticking, cfg, inv);
            sleeping.step();
            ticking->step();
            cycles++;
            const TimeBreakdown &a = sleeping.breakdown();
            const TimeBreakdown &b = ticking->breakdown();
            ASSERT_EQ(a.loopBody, b.loopBody) << "cycle " << cycles;
            ASSERT_EQ(a.srfStall, b.srfStall) << "cycle " << cycles;
            ASSERT_EQ(a.overhead, b.overhead) << "cycle " << cycles;
            ASSERT_EQ(a.memStall, b.memStall) << "cycle " << cycles;
            ASSERT_TRUE(test::sameMachineState(sleeping, *ticking))
                << "cycle " << cycles;
        }
    }
    const TimeBreakdown &bd = sleeping.breakdown();
    EXPECT_EQ(bd.total(), cycles * sleeping.lanes());
    EXPECT_GT(bd.loopBody, 0u);
    EXPECT_GT(bd.overhead, 0u);
    // Lanes sleep through most of each II.
    EXPECT_GT(sleeping.scheduleKernel(g).ii, 8u);
}

INSTANTIATE_TEST_SUITE_P(BaseAndIsrf4, LaneSleep,
                         ::testing::Values(MachineKind::Base,
                                           MachineKind::ISRF4));

TEST(ScheduleMemo, EqualsAFreshScheduleForEveryGraphAndSeparation)
{
    // scheduleKernel memoizes per graph; each result must be the one a
    // fresh scheduler gives for that graph at the separation the
    // machine picks (cross-lane for a cross-lane stream).
    KernelBuilder cb("cross_lookup");
    auto cin = cb.seqIn("in");
    auto ctab = cb.idxIn("tab");
    auto cout = cb.seqOut("out");
    cb.write(cout, cb.readIdx(ctab, cb.read(cin)));
    KernelGraph cross = cb.build();
    KernelGraph copy = test::makeCopyKernel();
    KernelGraph lookup = test::makeLookupKernel();
    KernelGraph chain = makeSleepyKernel(true);
    const KernelGraph *graphs[] = {&copy, &lookup, &chain, &cross};
    for (uint32_t sep : {2u, 6u, 20u}) {
        MachineConfig cfg = smallConfig(MachineKind::ISRF4);
        cfg.inLaneSeparation = sep;
        cfg.crossLaneSeparation = sep + 7;
        Machine m;
        m.init(cfg);
        for (int pass = 0; pass < 2; pass++) {
            for (const KernelGraph *g : graphs) {
                uint32_t gsep = g == &cross ? sep + 7 : sep;
                KernelSchedule want =
                    ModuloScheduler(cfg.cluster, cfg.seed)
                        .schedule(*g, gsep);
                KernelSchedule got = m.scheduleKernel(*g);
                EXPECT_EQ(got.ii, want.ii) << g->name() << " sep " << sep;
                EXPECT_EQ(got.length, want.length) << g->name();
                EXPECT_EQ(got.opCycle, want.opCycle) << g->name();
                EXPECT_EQ(got.separation, gsep) << g->name();
            }
        }
    }
}

TEST(ScheduleMemo, InitAndNewGraphContentsDropOldSchedules)
{
    KernelGraph g = makeSleepyKernel(false);
    MachineConfig wide = smallConfig(MachineKind::Base);
    MachineConfig narrow = wide;
    narrow.cluster.divSlots = 1;
    narrow.cluster.aluSlots = 1;
    wide.cluster.divSlots = 4;
    Machine m;
    m.init(wide);
    const uint32_t wideII = m.scheduleKernel(g).ii;
    // init() with another cluster config drops the memo.
    m.init(narrow);
    const KernelSchedule want = ModuloScheduler(narrow.cluster, narrow.seed)
        .schedule(g, narrow.inLaneSeparation);
    EXPECT_EQ(m.scheduleKernel(g).ii, want.ii);
    EXPECT_EQ(m.scheduleKernel(g).opCycle, want.opCycle);
    EXPECT_NE(want.ii, wideII);
    // New contents at the same address never hit the old entry: not
    // after an assignment, nor after an add*() call.
    KernelGraph copy = test::makeCopyKernel();
    g = copy;
    EXPECT_EQ(m.scheduleKernel(g).opCycle,
              ModuloScheduler(narrow.cluster, narrow.seed)
                  .schedule(copy, narrow.inLaneSeparation).opCycle);
    EXPECT_EQ(g.uid(), copy.uid());
    g.addStreamSlot({"extra", StreamKind::SeqIn, false});
    EXPECT_NE(g.uid(), copy.uid());
}

} // namespace
} // namespace isrf
