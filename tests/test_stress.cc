/**
 * @file
 * Randomized stress/property tests: the simulator must preserve its
 * core invariants under arbitrary interleavings — every indexed read
 * completes exactly once with the right value and in issue order, the
 * scheduler only emits legal schedules for random graphs, random
 * memory-op soups complete with correct functional contents, and
 * random stream programs never deadlock.
 */
#include <gtest/gtest.h>

#include <map>

#include "core/stream_program.h"
#include "kernel/builder.h"
#include "kernel/scheduler.h"
#include "test_helpers.h"
#include "util/log.h"
#include "util/random.h"

namespace isrf {
namespace {

// ----------------------------------------------------------------------
// SRF random traffic
// ----------------------------------------------------------------------

class SrfRandomTraffic : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(SrfRandomTraffic, EveryReadCompletesInOrderWithCorrectData)
{
    Rng rng(GetParam());
    SrfGeometry geom;
    geom.subArrays = 1u << rng.below(4);  // 1..8
    geom.addrFifoSize = static_cast<uint32_t>(rng.range(2, 8));
    Crossbar net;
    net.init(geom.lanes, 1, 1);
    Srf srf;
    srf.init(geom, rng.chance(0.5) ? SrfMode::Indexed4
                                   : SrfMode::Indexed1, &net);

    // One in-lane table slot and one cross-lane striped slot.
    SlotConfig tc;
    tc.dir = StreamDir::In;
    tc.indexed = true;
    tc.layout = StreamLayout::PerLane;
    tc.lengthWords = 128;
    SlotId tbl = srf.openSlot(tc);
    for (uint32_t l = 0; l < geom.lanes; l++)
        for (uint32_t w = 0; w < 128; w++)
            srf.writeWord(l, w, l * 1000 + w);

    SlotConfig xc;
    xc.dir = StreamDir::In;
    xc.indexed = true;
    xc.crossLane = true;
    xc.layout = StreamLayout::Striped;
    xc.base = 128;
    xc.lengthWords = 1024;
    SlotId cross = srf.openSlot(xc);
    std::vector<Word> crossData(1024);
    for (size_t i = 0; i < crossData.size(); i++)
        crossData[i] = static_cast<Word>(0xc0000 + i);
    srf.fillSlot(cross, crossData);

    // Issue random reads; remember expectations per (lane, slot) FIFO.
    struct Expect
    {
        std::deque<Word> values;
    };
    std::map<std::pair<uint32_t, SlotId>, Expect> expect;
    uint64_t issued = 0, completed = 0;
    Cycle now = 0;
    Word out[4];
    const uint32_t cycles = 1200;
    for (uint32_t c = 0; c < cycles; c++) {
        net.newCycle();
        srf.beginCycle(now);
        for (uint32_t l = 0; l < geom.lanes; l++) {
            for (SlotId id : {tbl, cross}) {
                // Drain anything ready, checking order + value.
                while (srf.idxDataReady(l, id, now)) {
                    srf.idxDataPop(l, id, out);
                    auto &q = expect[{l, id}];
                    ASSERT_FALSE(q.values.empty());
                    EXPECT_EQ(out[0], q.values.front());
                    q.values.pop_front();
                    completed++;
                }
                if (rng.chance(0.5) && srf.idxCanIssue(l, id)) {
                    if (id == tbl) {
                        auto rec = static_cast<uint32_t>(rng.below(128));
                        srf.idxIssueRead(l, id, rec);
                        expect[{l, id}].values.push_back(l * 1000 + rec);
                    } else {
                        auto rec = static_cast<uint32_t>(
                            rng.below(1024));
                        srf.idxIssueRead(l, id, rec);
                        expect[{l, id}].values.push_back(
                            crossData[rec]);
                    }
                    issued++;
                }
            }
        }
        srf.endCycle(now);
        now++;
    }
    // Drain the tail.
    for (uint32_t c = 0; c < 200; c++) {
        net.newCycle();
        srf.beginCycle(now);
        srf.endCycle(now);
        now++;
        for (uint32_t l = 0; l < geom.lanes; l++) {
            for (SlotId id : {tbl, cross}) {
                while (srf.idxDataReady(l, id, now)) {
                    srf.idxDataPop(l, id, out);
                    auto &q = expect[{l, id}];
                    ASSERT_FALSE(q.values.empty());
                    EXPECT_EQ(out[0], q.values.front());
                    q.values.pop_front();
                    completed++;
                }
            }
        }
    }
    EXPECT_EQ(issued, completed) << "every read completes exactly once";
    EXPECT_GT(issued, 500u) << "the stress actually exercised traffic";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SrfRandomTraffic,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ----------------------------------------------------------------------
// Scheduler fuzzing
// ----------------------------------------------------------------------

/** Build a random kernel graph with mixed ops and recurrences. */
KernelGraph
randomGraph(Rng &rng, uint32_t id)
{
    KernelBuilder b("fuzz" + std::to_string(id));
    auto in = b.seqIn("in");
    auto lut = b.idxlIn("lut");
    auto out = b.seqOut("out");
    std::vector<Value> pool;
    pool.push_back(b.read(in));
    pool.push_back(b.constInt(static_cast<int32_t>(rng.below(100))));
    uint32_t ops = static_cast<uint32_t>(rng.range(3, 40));
    Value carry{};
    bool hasCarry = rng.chance(0.5);
    if (hasCarry) {
        carry = b.carryIn();
        pool.push_back(carry);
    }
    for (uint32_t i = 0; i < ops; i++) {
        Value a = pool[rng.below(pool.size())];
        Value c = pool[rng.below(pool.size())];
        switch (rng.below(6)) {
          case 0: pool.push_back(b.iadd(a, c)); break;
          case 1: pool.push_back(b.fmul(a, c)); break;
          case 2: pool.push_back(b.ixor(a, c)); break;
          case 3: pool.push_back(b.cmpLt(a, c)); break;
          case 4: pool.push_back(b.readIdx(lut, a)); break;
          case 5:
            if (rng.chance(0.2))
                pool.push_back(b.fdiv(a, c));
            else
                pool.push_back(b.fadd(a, c));
            break;
        }
    }
    if (hasCarry)
        b.carryOut(carry, pool.back(), 1);
    b.write(out, pool.back());
    return b.build();
}

/** Re-usable legality check (dependences + resource capacities). */
void
checkLegal(const KernelGraph &g, const KernelSchedule &s, uint32_t sep)
{
    ASSERT_GT(s.ii, 0u);
    for (const Edge &e : g.fullEdges(sep)) {
        int64_t lhs = static_cast<int64_t>(s.opCycle[e.to]);
        int64_t rhs = static_cast<int64_t>(s.opCycle[e.from]) +
            static_cast<int64_t>(e.latency) -
            static_cast<int64_t>(s.ii) * static_cast<int64_t>(e.distance);
        ASSERT_GE(lhs, rhs);
    }
    std::map<std::pair<int, uint32_t>, uint32_t> use;
    ClusterResources res;
    for (NodeId id = 0; id < g.nodeCount(); id++) {
        const OpInfo &info = opInfo(g.node(id).op);
        if (info.fu == FuClass::None)
            continue;
        uint32_t dur = info.pipelined ? 1 : info.latency;
        for (uint32_t d = 0; d < dur; d++) {
            auto key = std::make_pair(static_cast<int>(info.fu),
                                      (s.opCycle[id] + d) % s.ii);
            use[key]++;
            uint32_t cap = 0;
            switch (info.fu) {
              case FuClass::Alu: cap = res.aluSlots; break;
              case FuClass::Div: cap = res.divSlots; break;
              case FuClass::Comm: cap = res.commSlots; break;
              case FuClass::Sbuf: cap = res.sbufSlots; break;
              case FuClass::Sp: cap = res.spSlots; break;
              default: cap = 1; break;
            }
            ASSERT_LE(use[key], cap)
                << opName(g.node(id).op) << " at modulo slot "
                << (s.opCycle[id] + d) % s.ii;
        }
    }
}

class SchedulerFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(SchedulerFuzz, RandomGraphsScheduleLegally)
{
    Rng rng(GetParam() * 7919);
    ModuloScheduler sched;
    for (uint32_t i = 0; i < 8; i++) {
        KernelGraph g = randomGraph(rng, i);
        uint32_t sep = static_cast<uint32_t>(rng.range(2, 24));
        KernelSchedule s = sched.schedule(g, sep);
        checkLegal(g, s, sep);
        EXPECT_GE(s.ii, sched.resourceMinII(g));
        EXPECT_GE(s.ii, sched.recurrenceMinII(g, sep));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ----------------------------------------------------------------------
// Memory-system soup
// ----------------------------------------------------------------------

TEST(MemStress, RandomOpSoupCompletesWithCorrectContents)
{
    Rng rng(404);
    SrfGeometry geom;
    Srf srf;
    srf.init(geom, SrfMode::SequentialOnly, nullptr);
    MemSystemConfig mc;
    DramConfig dc;
    dc.capacityWords = 1 << 18;
    dc.accessLatency = 6;
    CacheConfig cc;
    MemorySystem mem;
    mem.init(mc, dc, cc, &srf);

    // Pre-fill DRAM.
    std::vector<Word> image(1 << 16);
    for (size_t i = 0; i < image.size(); i++)
        image[i] = static_cast<Word>(i * 2654435761u);
    mem.dram().fill(0, image);

    // Several disjoint SRF regions.
    std::vector<SlotId> slots;
    for (int i = 0; i < 6; i++) {
        SlotConfig cfg;
        cfg.lengthWords = 512;
        cfg.base = static_cast<uint32_t>(i) * 512;
        slots.push_back(srf.openSlot(cfg));
    }

    // One load per slot: the memory system itself does not order
    // same-slot ops (that is the stream program scoreboard's job), so
    // concurrent units may interleave writes to a shared slot.
    std::vector<std::pair<MemOpId, std::pair<SlotId, uint64_t>>> loads;
    for (size_t i = 0; i < slots.size(); i++) {
        uint64_t src = rng.below((1 << 16) - 512);
        MemOp op;
        op.kind = MemOpKind::Load;
        op.memBase = src;
        op.srfSlot = slots[i];
        loads.push_back({mem.submit(op), {slots[i], src}});
    }
    Cycle now = 0;
    for (int i = 0; i < 30000 && !mem.idle(); i++) {
        srf.beginCycle(now);
        mem.tick(now);
        srf.endCycle(now);
        now++;
    }
    ASSERT_TRUE(mem.idle());
    std::map<SlotId, uint64_t> lastSrc;
    for (auto &kv : loads) {
        EXPECT_TRUE(mem.done(kv.first));
        lastSrc[kv.second.first] = kv.second.second;
    }
    for (auto &kv : lastSrc) {
        auto dump = srf.dumpSlot(kv.first);
        for (size_t i = 0; i < dump.size(); i++)
            ASSERT_EQ(dump[i], image[kv.second + i]) << i;
    }
}

// ----------------------------------------------------------------------
// Random stream programs
// ----------------------------------------------------------------------

class ProgramStress : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(ProgramStress, RandomPipelinesRunToCompletion)
{
    Rng rng(GetParam() * 31337);
    MachineConfig cfg = MachineConfig::base();
    cfg.dram.capacityWords = 1 << 18;
    Machine m;
    m.init(cfg);
    KernelGraph g = test::makeCopyKernel();

    std::vector<Word> image(8192);
    for (size_t i = 0; i < image.size(); i++)
        image[i] = static_cast<Word>(rng.next());
    m.mem().dram().fill(0, image);

    StreamProgram prog(m);
    const uint32_t n = 512;
    std::vector<SlotId> slots;
    std::vector<std::vector<Word>> contents(4);
    for (int i = 0; i < 4; i++)
        slots.push_back(prog.addStream(strprintf("s%d", i), n));

    // Random chain: loads, copies between slots, stores.
    std::vector<std::pair<uint64_t, std::vector<Word>>> expectedStores;
    for (int step = 0; step < 10; step++) {
        switch (rng.below(3)) {
          case 0: {  // load
            size_t dst = rng.below(slots.size());
            uint64_t src = rng.below(4096);
            prog.load(slots[dst], src, false, n);
            contents[dst].assign(image.begin() + src,
                                 image.begin() + src + n);
            break;
          }
          case 1: {  // copy kernel between two distinct slots
            size_t a = rng.below(slots.size());
            size_t b2 = (a + 1 + rng.below(slots.size() - 1)) %
                slots.size();
            if (contents[a].empty())
                break;
            prog.kernel(test::makeCopyInvocation(m, &g, slots[a],
                                                 slots[b2],
                                                 contents[a]));
            contents[b2] = contents[a];
            break;
          }
          case 2: {  // store
            size_t src = rng.below(slots.size());
            if (contents[src].empty())
                break;
            uint64_t dst = 16384 + step * 1024;
            prog.store(slots[src], dst, false, n);
            expectedStores.push_back({dst, contents[src]});
            break;
          }
        }
    }
    prog.run(5'000'000);
    for (const auto &kv : expectedStores) {
        auto got = m.mem().dram().dump(kv.first, n);
        EXPECT_EQ(got, kv.second);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProgramStress,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9,
                                           10));

} // namespace
} // namespace isrf
