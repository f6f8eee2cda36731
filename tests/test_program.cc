/**
 * @file
 * StreamProgram runtime tests: dependency inference, out-of-order
 * issue, load->kernel->store pipelines, memory/compute overlap, the
 * dependsOn() invariant, and a differential test of the scoreboard
 * against the per-cycle scan driver it replaced.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "core/stream_program.h"
#include "test_helpers.h"
#include "util/log.h"
#include "util/random.h"

namespace isrf {
namespace {

MachineConfig
smallConfig(MachineKind kind = MachineKind::Base)
{
    MachineConfig cfg = MachineConfig::make(kind);
    cfg.dram.capacityWords = 1 << 18;
    return cfg;
}

TEST(StreamProgram, LoadKernelStoreRoundtrip)
{
    Machine m;
    m.init(smallConfig());
    std::vector<Word> input(512);
    for (size_t i = 0; i < input.size(); i++)
        input[i] = static_cast<Word>(i * 11 + 1);
    m.mem().dram().fill(0, input);

    StreamProgram prog(m);
    SlotId in = prog.addStream("in", 512);
    SlotId out = prog.addStream("out", 512);
    prog.load(in, 0);
    KernelGraph g = test::makeCopyKernel();
    prog.kernel(test::makeCopyInvocation(m, &g, in, out, input));
    prog.store(out, 4096);
    uint64_t cycles = prog.run();
    EXPECT_GT(cycles, 0u);
    EXPECT_EQ(m.mem().dram().dump(4096, 512), input);
    // Load + store cross the pins exactly once each.
    EXPECT_EQ(m.mem().dram().wordsTransferred(), 1024u);
}

TEST(StreamProgram, DependenciesSerializeRawWarWaw)
{
    Machine m;
    m.init(smallConfig());
    std::vector<Word> a(256, 1), b(256, 2);
    m.mem().dram().fill(0, a);
    m.mem().dram().fill(1000, b);

    StreamProgram prog(m);
    SlotId s = prog.addStream("s", 256);
    // WAW: two loads into the same slot; the second must win.
    prog.load(s, 0);
    prog.load(s, 1000);
    prog.store(s, 2000);
    prog.run();
    EXPECT_EQ(m.mem().dram().dump(2000, 256), b);
}

TEST(StreamProgram, ExplicitDependency)
{
    Machine m;
    m.init(smallConfig());
    std::vector<Word> a(64, 7);
    m.mem().dram().fill(0, a);
    StreamProgram prog(m);
    SlotId x = prog.addStream("x", 64);
    SlotId y = prog.addStream("y", 64);
    ProgOpId l1 = prog.load(x, 0);
    // y's load would otherwise run concurrently; force it after l1.
    ProgOpId l2 = prog.load(y, 0);
    prog.dependsOn(l2, l1);
    prog.run();
    EXPECT_EQ(prog.dumpStream(y), a);
}

TEST(StreamProgram, DependsOnRejectsSelfAndForwardEdges)
{
    Machine m;
    m.init(smallConfig());
    StreamProgram prog(m);
    SlotId x = prog.addStream("x", 64);
    SlotId y = prog.addStream("y", 64);
    ProgOpId l1 = prog.load(x, 0);
    ProgOpId l2 = prog.load(y, 64);
    EXPECT_DEATH(prog.dependsOn(l1, l2), "must point backwards");
    EXPECT_DEATH(prog.dependsOn(l2, l2), "must point backwards");
}

TEST(StreamProgram, DuplicateEdgeKeptAndHarmless)
{
    // Re-adding an inferred RAW edge (as the stencil workload does)
    // keeps the duplicate in the graph — the structural hash sees it —
    // and releases the dependent exactly once, at the same cycle.
    std::vector<Word> data(256, 3);
    KernelGraph g = test::makeCopyKernel();
    auto build = [&](Machine &m, StreamProgram &prog, bool duplicate) {
        m.init(smallConfig());
        m.mem().dram().fill(0, data);
        SlotId in = prog.addStream("in", 256);
        SlotId out = prog.addStream("out", 256);
        ProgOpId ld = prog.load(in, 0);
        ProgOpId k =
            prog.kernel(test::makeCopyInvocation(m, &g, in, out, data));
        if (duplicate)
            prog.dependsOn(k, ld);
        prog.store(out, 4096);
    };
    Machine m1, m2;
    StreamProgram plain(m1), dup(m2);
    build(m1, plain, false);
    build(m2, dup, true);
    EXPECT_NE(plain.structureHash(), dup.structureHash());
    uint64_t c1 = plain.run();
    uint64_t c2 = dup.run();
    EXPECT_EQ(dup.lastStatus(), RunStatus::Done);
    EXPECT_EQ(c1, c2);
    EXPECT_TRUE(test::sameMachineState(m2, m1));
    EXPECT_EQ(m2.mem().dram().dump(4096, 256), data);
}

TEST(StreamProgram, MemoryOverlapsKernels)
{
    // Two independent chains: load A -> kernel A while load B proceeds.
    // Total time must be well below the serial sum.
    Machine m;
    m.init(smallConfig());
    std::vector<Word> data(2048);
    for (size_t i = 0; i < data.size(); i++)
        data[i] = static_cast<Word>(i);
    m.mem().dram().fill(0, data);

    KernelGraph g = test::makeCopyKernel();

    StreamProgram prog(m);
    SlotId inA = prog.addStream("inA", 2048);
    SlotId outA = prog.addStream("outA", 2048);
    SlotId inB = prog.addStream("inB", 2048);
    SlotId outB = prog.addStream("outB", 2048);
    prog.load(inA, 0);
    prog.kernel(test::makeCopyInvocation(m, &g, inA, outA, data));
    prog.store(outA, 8192);
    prog.load(inB, 0);
    prog.kernel(test::makeCopyInvocation(m, &g, inB, outB, data));
    prog.store(outB, 16384);
    uint64_t cycles = prog.run();

    // Serial lower bound for the memory ops alone: 4 x 2048 words at
    // ~2.285 words/cycle = ~3585 cycles. With overlap, the whole thing
    // should be well under load+kernel+store fully serialized.
    Machine m2;
    m2.init(smallConfig());
    m2.mem().dram().fill(0, data);
    StreamProgram serial(m2);
    SlotId sIn = serial.addStream("in", 2048);
    SlotId sOut = serial.addStream("out", 2048);
    serial.load(sIn, 0);
    serial.kernel(test::makeCopyInvocation(m2, &g, sIn, sOut, data));
    uint64_t serialOne = serial.run();
    EXPECT_LT(cycles, 2 * serialOne + 2 * 2048);

    EXPECT_EQ(m.mem().dram().dump(8192, 2048), data);
    EXPECT_EQ(m.mem().dram().dump(16384, 2048), data);
}

TEST(StreamProgram, MemStallAccountedWhenKernelWaitsOnLoad)
{
    Machine m;
    m.init(smallConfig());
    std::vector<Word> data(4096, 5);
    m.mem().dram().fill(0, data);
    StreamProgram prog(m);
    SlotId in = prog.addStream("in", 4096);
    SlotId out = prog.addStream("out", 4096);
    prog.load(in, 0);
    KernelGraph g = test::makeCopyKernel();
    prog.kernel(test::makeCopyInvocation(m, &g, in, out, data));
    prog.run();
    // The kernel cannot start until the load finishes: those cycles are
    // memory stalls.
    EXPECT_GT(m.breakdown().memStall, 1000u);
}

TEST(StreamProgram, GatherFeedsKernel)
{
    Machine m;
    m.init(smallConfig());
    std::vector<Word> table(1024);
    for (size_t i = 0; i < table.size(); i++)
        table[i] = static_cast<Word>(i ^ 0xff);
    m.mem().dram().fill(0, table);

    StreamProgram prog(m);
    SlotId in = prog.addStream("in", 128);
    SlotId out = prog.addStream("out", 128);
    std::vector<uint32_t> idx(128);
    Rng rng(17);
    std::vector<Word> gathered(128);
    for (size_t i = 0; i < idx.size(); i++) {
        idx[i] = static_cast<uint32_t>(rng.below(1024));
        gathered[i] = table[idx[i]];
    }
    prog.gather(in, 0, idx);
    KernelGraph g = test::makeCopyKernel();
    prog.kernel(test::makeCopyInvocation(m, &g, in, out, gathered));
    prog.run();
    EXPECT_EQ(prog.dumpStream(out), gathered);
}

TEST(StreamProgram, AllocatorExhaustionIsFatal)
{
    Machine m;
    m.init(smallConfig());
    StreamProgram prog(m);
    // 8 lanes x 4096 words = 32K words total; ask for too much.
    prog.addStream("big", 30000);
    EXPECT_DEATH(prog.addStream("huge", 30000), "allocation failed");
}

TEST(StreamProgram, SlotsReleasedOnDestruction)
{
    Machine m;
    m.init(smallConfig());
    for (int round = 0; round < 3; round++) {
        StreamProgram prog(m);
        for (int i = 0; i < 20; i++) {
            prog.addStream(strprintf("s%d", i), 64);
        }
        m.allocator().reset();
    }
    SUCCEED();  // would die on slot exhaustion if slots leaked
}

} // namespace
} // namespace isrf

namespace isrf {
namespace {

TEST(StreamProgram, AliasSharesStorageWithIndependentBuffers)
{
    Machine m;
    MachineConfig cfg = MachineConfig::isrf4();
    cfg.dram.capacityWords = 1 << 16;
    m.init(cfg);
    StreamProgram prog(m);
    SlotId a = prog.addStream("orig", 256, StreamLayout::Striped,
                              StreamDir::In, true);
    SlotId b = prog.addStreamAlias("view", a);
    EXPECT_NE(a, b);
    // Same storage region...
    EXPECT_EQ(m.srf().slotConfig(a).base, m.srf().slotConfig(b).base);
    std::vector<Word> data(256);
    for (size_t i = 0; i < data.size(); i++)
        data[i] = static_cast<Word>(i + 9);
    prog.fillStream(a, data);
    EXPECT_EQ(prog.dumpStream(b), data);
    // ...but independent buffer state: reading via the alias does not
    // disturb the original's cursors.
    m.srf().configureSlotBinding(b, StreamDir::In, true, false);
    Cycle now = 0;
    m.srf().beginCycle(now);
    ASSERT_TRUE(m.srf().idxIssueRead(0, b, 1, now));
    m.srf().endCycle(now);
    EXPECT_EQ(m.srf().idxOutstanding(0, a), 0u);
    // The request sits in the alias's FIFO and data buffer.
    EXPECT_EQ(m.srf().idxOutstanding(0, b), 2u);
}

// ----------------------------------------------------------------------
// Differential test: scoreboard vs the per-cycle scan driver
// ----------------------------------------------------------------------

/**
 * Test-only oracle: the stream-program driver StreamProgram used before
 * its scoreboard. Every cycle it rescans every op from the first
 * incomplete one, through the public Machine API. Dependency inference
 * is the same RAW/WAR/WAW rule over SRF slots.
 */
class ScanDriver
{
  public:
    explicit ScanDriver(Machine &m)
        : m_(m), lastWriter_(m.config().srf.maxStreamSlots, -1),
          readersSinceWrite_(m.config().srf.maxStreamSlots)
    {
    }

    void load(SlotId s, uint64_t base) { mem(MemOpKind::Load, s, base); }
    void store(SlotId s, uint64_t base) { mem(MemOpKind::Store, s, base); }

    void
    gather(SlotId s, uint64_t base, std::vector<uint32_t> indices)
    {
        mem(MemOpKind::Gather, s, base, std::move(indices));
    }

    void
    scatter(SlotId s, uint64_t base, std::vector<uint32_t> indices)
    {
        mem(MemOpKind::Scatter, s, base, std::move(indices));
    }

    void
    kernel(std::shared_ptr<KernelInvocation> inv)
    {
        Op o;
        o.isKernel = true;
        std::vector<SlotId> reads, writes;
        const auto &slots = inv->graph->streamSlots();
        for (size_t s = 0; s < slots.size(); s++)
            (slots[s].isOutput ? writes : reads).push_back(inv->slots[s]);
        o.inv = std::move(inv);
        add(std::move(o), std::move(reads), std::move(writes));
    }

    void dependsOn(ProgOpId after, ProgOpId before)
    {
        ops_[after].deps.push_back(before);
    }

    uint64_t
    run()
    {
        const Cycle start = m_.now();
        while (true) {
            updateCompletion();
            bool allDone = scanFrom_ == ops_.size();
            if (allDone && m_.mem().idle() && !m_.kernelActive())
                break;
            tryIssue();
            m_.step();
            if (m_.now() - start > (1ull << 30)) {
                ADD_FAILURE() << "scan driver deadlocked";
                break;
            }
        }
        m_.noteRunStatus(RunStatus::Done);
        return m_.now() - start;
    }

  private:
    struct Op
    {
        bool isKernel = false;
        MemOp mem;
        std::shared_ptr<KernelInvocation> inv;
        std::vector<ProgOpId> deps;
        bool issued = false;
        bool completed = false;
        MemOpId memId = 0;
    };

    void
    mem(MemOpKind kind, SlotId s, uint64_t base,
        std::vector<uint32_t> indices = {})
    {
        Op o;
        o.mem.kind = kind;
        o.mem.memBase = base;
        o.mem.srfSlot = s;
        o.mem.indices = std::move(indices);
        bool fromSrf = kind == MemOpKind::Store || kind == MemOpKind::Scatter;
        if (fromSrf)
            add(std::move(o), {s}, {});
        else
            add(std::move(o), {}, {s});
    }

    void
    add(Op o, std::vector<SlotId> reads, std::vector<SlotId> writes)
    {
        auto id = static_cast<ProgOpId>(ops_.size());
        auto addDep = [&](ProgOpId d) {
            if (d >= 0 && std::find(o.deps.begin(), o.deps.end(), d) ==
                    o.deps.end())
                o.deps.push_back(d);
        };
        for (SlotId r : reads)
            addDep(lastWriter_[r]);
        for (SlotId w : writes) {
            addDep(lastWriter_[w]);
            for (ProgOpId r : readersSinceWrite_[w])
                addDep(r);
        }
        for (SlotId w : writes) {
            lastWriter_[w] = id;
            readersSinceWrite_[w].clear();
        }
        for (SlotId r : reads)
            readersSinceWrite_[r].push_back(id);
        ops_.push_back(std::move(o));
    }

    bool
    depsDone(const Op &op) const
    {
        for (ProgOpId d : op.deps)
            if (!ops_[d].completed)
                return false;
        return true;
    }

    void
    tryIssue()
    {
        for (size_t i = scanFrom_; i < ops_.size(); i++) {
            Op &op = ops_[i];
            if (op.issued || !depsDone(op))
                continue;
            if (!op.isKernel) {
                op.memId = m_.mem().submit(op.mem);
                op.issued = true;
            } else {
                if (m_.kernelActive() || activeKernelOp_ >= 0)
                    continue;
                m_.launchKernel(op.inv);
                activeKernelOp_ = static_cast<ProgOpId>(i);
                op.issued = true;
            }
        }
    }

    void
    updateCompletion()
    {
        for (size_t i = scanFrom_; i < ops_.size(); i++) {
            Op &op = ops_[i];
            if (!op.issued || op.completed)
                continue;
            if (!op.isKernel) {
                op.completed = m_.mem().done(op.memId);
            } else if (static_cast<ProgOpId>(i) == activeKernelOp_ &&
                       !m_.kernelActive()) {
                op.completed = true;
                activeKernelOp_ = -1;
            }
        }
        while (scanFrom_ < ops_.size() && ops_[scanFrom_].completed)
            scanFrom_++;
    }

    Machine &m_;
    std::vector<Op> ops_;
    size_t scanFrom_ = 0;
    std::vector<ProgOpId> lastWriter_;
    std::vector<std::vector<ProgOpId>> readersSinceWrite_;
    ProgOpId activeKernelOp_ = -1;
};

/** One op of a random stream program. */
struct RandomOp
{
    enum Kind { Load, Store, Gather, Scatter, Kernel } kind;
    uint32_t slot = 0;     ///< mem ops: SRF slot; kernels: input slot
    uint32_t outSlot = 0;  ///< kernels: output slot
    uint64_t base = 0;
    std::vector<uint32_t> indices;
    std::vector<ProgOpId> extraDeps;  ///< explicit backward edges
};

constexpr uint32_t kRandWords = 64;

/**
 * A random DAG of loads, stores, gathers, scatters and copy kernels
 * over a few slots, with random backward dependsOn() edges (sometimes
 * duplicating an inferred one).
 */
std::vector<RandomOp>
randomProgram(uint64_t seed, uint32_t &slots)
{
    Rng rng(seed);
    slots = 2 + static_cast<uint32_t>(rng.below(4));
    const size_t n = 4 + rng.below(24);
    std::vector<RandomOp> ops(n);
    for (size_t i = 0; i < n; i++) {
        RandomOp &op = ops[i];
        op.kind = static_cast<RandomOp::Kind>(rng.below(5));
        op.slot = static_cast<uint32_t>(rng.below(slots));
        op.outSlot = (op.slot + 1 + static_cast<uint32_t>(
            rng.below(slots - 1))) % slots;
        const uint64_t region = (op.kind == RandomOp::Store ||
                                 op.kind == RandomOp::Scatter)
            ? (1u << 16) : 0;
        op.base = region + rng.below(64) * kRandWords;
        if (op.kind == RandomOp::Gather || op.kind == RandomOp::Scatter) {
            op.indices.resize(kRandWords);
            for (uint32_t &x : op.indices)
                x = static_cast<uint32_t>(rng.below(4096));
        }
        while (i > 0 && rng.below(3) == 0)
            op.extraDeps.push_back(
                static_cast<ProgOpId>(rng.below(i)));
    }
    return ops;
}

/** Add `ops` to `driver` (StreamProgram or ScanDriver) on `m`. */
template <typename Driver>
void
buildRandomProgram(Driver &driver, Machine &m, const KernelGraph &g,
                   const std::vector<SlotId> &slot,
                   const std::vector<RandomOp> &ops)
{
    std::vector<Word> data(kRandWords);
    for (uint32_t i = 0; i < kRandWords; i++)
        data[i] = i * 7 + 1;
    for (size_t i = 0; i < ops.size(); i++) {
        const RandomOp &op = ops[i];
        SlotId s = slot[op.slot];
        switch (op.kind) {
          case RandomOp::Load:
            driver.load(s, op.base);
            break;
          case RandomOp::Store:
            driver.store(s, op.base);
            break;
          case RandomOp::Gather:
            driver.gather(s, op.base, op.indices);
            break;
          case RandomOp::Scatter:
            driver.scatter(s, op.base, op.indices);
            break;
          case RandomOp::Kernel:
            driver.kernel(test::makeCopyInvocation(
                m, &g, s, slot[op.outSlot], data));
            break;
        }
        for (ProgOpId d : op.extraDeps)
            driver.dependsOn(static_cast<ProgOpId>(i), d);
    }
}

/**
 * 200 random programs on twin machines: one driven by
 * StreamProgram::run, one by the scan oracle. Cycles and every
 * checkpointed byte of the two machines must be identical.
 */
void
expectScoreboardMatchesScan(MachineKind kind)
{
    MachineConfig cfg = smallConfig(kind);
    std::vector<Word> dram(1 << 13);
    for (size_t i = 0; i < dram.size(); i++)
        dram[i] = static_cast<Word>(i * 2654435761u);
    KernelGraph g = test::makeCopyKernel();
    // Re-initialised per program rather than rebuilt: constructing a
    // Machine dominates the cost of these small programs.
    Machine ma, mb;
    for (uint64_t seed = 1; seed <= 200; seed++) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        uint32_t nslots = 0;
        const std::vector<RandomOp> ops = randomProgram(seed, nslots);

        ma.init(cfg);
        mb.init(cfg);
        ma.mem().dram().fill(0, dram);
        mb.mem().dram().fill(0, dram);
        StreamProgram prog(ma);
        // The oracle's slots come from a program that is never run, so
        // both machines see the same SRF allocation.
        StreamProgram streamsB(mb);
        ScanDriver oracle(mb);
        std::vector<SlotId> sa, sb;
        for (uint32_t s = 0; s < nslots; s++) {
            sa.push_back(prog.addStream(strprintf("s%u", s), kRandWords));
            sb.push_back(streamsB.addStream(strprintf("s%u", s), kRandWords));
        }
        buildRandomProgram(prog, ma, g, sa, ops);
        buildRandomProgram(oracle, mb, g, sb, ops);
        const uint64_t ca = prog.run();
        const uint64_t cb = oracle.run();
        ASSERT_EQ(prog.lastStatus(), RunStatus::Done);
        ASSERT_EQ(ca, cb);
        ASSERT_TRUE(test::sameMachineState(ma, mb));
    }
}

TEST(StreamProgramDifferential, MatchesScanOracleBaseDense)
{
    expectScoreboardMatchesScan(MachineKind::Base);
}

TEST(StreamProgramDifferential, MatchesScanOracleIsrf4Dense)
{
    expectScoreboardMatchesScan(MachineKind::ISRF4);
}

TEST(MachineConfigValidate, RejectsInconsistentCombos)
{
    MachineConfig cfg = MachineConfig::base();
    cfg.mem.cacheEnabled = true;  // cache on a non-Cache machine
    EXPECT_DEATH(cfg.validate(), "cache enabled");

    MachineConfig c2 = MachineConfig::cacheCfg();
    c2.mem.cacheEnabled = false;
    EXPECT_DEATH(c2.validate(), "without cache");

    MachineConfig c3 = MachineConfig::isrf4();
    c3.srf.laneWords = 4097;  // not a multiple of seqWidth
    EXPECT_DEATH(c3.validate(), "multiple of seqWidth");

    MachineConfig c4 = MachineConfig::base();
    c4.srfMode = SrfMode::Indexed4;  // mode/kind mismatch
    EXPECT_DEATH(c4.validate(), "inconsistent");
}

} // namespace
} // namespace isrf
