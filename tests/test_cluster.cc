/**
 * @file
 * Tests for the compute-cluster model: invocation metadata, iteration
 * pacing against the schedule, spill-over of wide per-iteration stream
 * work, indexed-data stalls, load imbalance, and cycle categorization.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <string>

#include "test_helpers.h"
#include "util/snapshot.h"

namespace isrf {
namespace {

MachineConfig
smallConfig(MachineKind kind = MachineKind::ISRF4)
{
    MachineConfig cfg = MachineConfig::make(kind);
    cfg.dram.capacityWords = 1 << 16;
    return cfg;
}

TEST(KernelInvocation, FinalizeDerivesPerSlotCounts)
{
    KernelGraph g = test::makeLookupKernel();
    KernelInvocation inv;
    inv.graph = &g;
    ModuloScheduler sched;
    inv.sched = sched.schedule(g, 6);
    inv.slots = {0, 1, 2};
    inv.laneTraces.assign(8, LaneTrace());
    inv.finalize();
    ASSERT_EQ(inv.seqReadsPerIter.size(), 3u);
    EXPECT_EQ(inv.seqReadsPerIter[0], 1u);
    EXPECT_EQ(inv.idxReadsPerIter[1], 1u);
    EXPECT_EQ(inv.seqWritesPerIter[2], 1u);
    EXPECT_EQ(inv.commSendsPerIter, 0u);
    ASSERT_EQ(inv.idxReadOffsets[1].size(), 1u);
    // The data read is scheduled at least `separation` after issue.
    EXPECT_GE(inv.idxReadOffsets[1][0], 6u);
}

TEST(KernelInvocation, FinalizeChecksBindingArity)
{
    KernelGraph g = test::makeCopyKernel();
    KernelInvocation inv;
    inv.graph = &g;
    inv.slots = {0};  // needs 2
    inv.laneTraces.assign(8, LaneTrace());
    EXPECT_DEATH(inv.finalize(), "slot bindings");
}

TEST(Cluster, IterationPacingFollowsII)
{
    // A compute-only kernel (no stream stalls possible) must retire one
    // iteration exactly every II cycles after the pipeline fills.
    Machine m;
    m.init(smallConfig(MachineKind::Base));
    SlotConfig sc;
    sc.lengthWords = 4096;
    sc.base = 0;
    SlotId out = m.srf().openSlot(sc);

    KernelBuilder b("paced");
    auto o = b.seqOut("o");
    auto x = b.fmul(b.constFloat(2), b.constFloat(3));
    for (int i = 0; i < 7; i++)
        x = b.fadd(x, x);  // 8 ALU ops -> II = 2
    b.write(o, x);
    KernelGraph g = b.build();

    auto inv = std::make_shared<KernelInvocation>();
    inv->graph = &g;
    inv->sched = m.scheduleKernel(g);
    inv->slots = {out};
    inv->laneTraces.assign(m.lanes(), LaneTrace());
    const uint64_t iters = 100;
    for (auto &t : inv->laneTraces) {
        t.iterations = iters;
        t.seqWrites.resize(1);
        t.seqWrites[0].assign(iters, 1);
        t.idxReads.resize(1);
        t.idxWrites.resize(1);
    }
    inv->finalize();
    uint32_t ii = inv->sched.ii;
    EXPECT_EQ(ii, 2u);
    m.launchKernel(inv);
    uint64_t cycles = m.runUntil([&]() { return !m.kernelActive(); },
                                 100000).cycles;
    // startOverhead + fill + iters*II + drain + flush, with slack.
    uint64_t lower = m.config().kernelStartOverhead + iters * ii;
    EXPECT_GE(cycles, lower);
    EXPECT_LE(cycles, lower + inv->sched.length + 64);
}

TEST(Cluster, WidePerIterationWritesSpillAcrossCycles)
{
    // 16 writes/iteration against an 8-word buffer must work (spill
    // over), not deadlock — the Rijndael base kernel shape.
    Machine m;
    m.init(smallConfig(MachineKind::Base));
    SlotConfig sc;
    sc.lengthWords = 4096;
    SlotId out = m.srf().openSlot(sc);

    KernelBuilder b("wide");
    auto o = b.seqOut("o");
    for (int i = 0; i < 16; i++)
        b.write(o, b.constInt(i));
    KernelGraph g = b.build();

    auto inv = std::make_shared<KernelInvocation>();
    inv->graph = &g;
    inv->sched = m.scheduleKernel(g);
    inv->slots = {out};
    inv->laneTraces.assign(m.lanes(), LaneTrace());
    for (auto &t : inv->laneTraces) {
        t.iterations = 16;
        t.seqWrites.resize(1);
        for (uint32_t i = 0; i < 16 * 16; i++)
            t.seqWrites[0].push_back(i);
        t.idxReads.resize(1);
        t.idxWrites.resize(1);
    }
    inv->finalize();
    m.launchKernel(inv);
    m.runUntil([&]() { return !m.kernelActive(); }, 100000);
    // All 256 words per lane landed in order.
    EXPECT_EQ(m.srf().wordsWritten(out), 16u * 16 * m.lanes());
    EXPECT_EQ(m.srf().readWord(0, 0), 0u);
    EXPECT_EQ(m.srf().readWord(0, 9), 9u);
}

TEST(Cluster, LoadImbalanceCountedAsOverhead)
{
    // Lane 0 runs 400 iterations, everyone else 4: the idle lanes must
    // accumulate overhead (load imbalance), not loop time.
    Machine m;
    m.init(smallConfig(MachineKind::Base));
    SlotConfig sc;
    sc.lengthWords = 4096;
    SlotId out = m.srf().openSlot(sc);
    KernelGraph g = test::makeCopyKernel();
    SlotConfig ic;
    ic.lengthWords = 4096;
    ic.base = 2048;
    SlotId in = m.srf().openSlot(ic);

    auto inv = std::make_shared<KernelInvocation>();
    inv->graph = &g;
    inv->sched = m.scheduleKernel(g);
    inv->slots = {in, out};
    inv->laneTraces.assign(m.lanes(), LaneTrace());
    for (uint32_t l = 0; l < m.lanes(); l++) {
        auto &t = inv->laneTraces[l];
        t.iterations = l == 0 ? 400 : 4;
        t.seqWrites.resize(2);
        t.seqWrites[1].assign(t.iterations, 7);
        t.idxReads.resize(2);
        t.idxWrites.resize(2);
    }
    inv->finalize();
    m.launchKernel(inv);
    m.runUntil([&]() { return !m.kernelActive(); }, 100000);
    const TimeBreakdown &bd = m.breakdown();
    // 7 lanes idle for ~396 iterations' worth of cycles.
    EXPECT_GT(bd.overhead, bd.loopBody);
}

TEST(Cluster, IndexedDataLatencyStallsWhenSeparationTooShort)
{
    // With a 1-cycle scheduled separation the data cannot be back in
    // time (in-lane latency is 4), so the lane must take SRF stalls.
    Machine m;
    MachineConfig cfg = smallConfig(MachineKind::ISRF4);
    cfg.inLaneSeparation = 1;
    m.init(cfg);

    SlotConfig tc;
    tc.layout = StreamLayout::PerLane;
    tc.lengthWords = 256;
    tc.indexed = true;
    SlotId tbl = m.srf().openSlot(tc);
    SlotConfig oc;
    oc.lengthWords = 4096;
    oc.base = 256;
    SlotId out = m.srf().openSlot(oc);

    KernelBuilder b("shortsep");
    auto lut = b.idxlIn("lut");
    auto o = b.seqOut("o");
    auto v = b.readIdx(lut, b.iterIdx());
    b.write(o, v);
    KernelGraph g = b.build();

    auto inv = std::make_shared<KernelInvocation>();
    inv->graph = &g;
    inv->sched = m.scheduleKernel(g);
    inv->slots = {tbl, out};
    inv->laneTraces.assign(m.lanes(), LaneTrace());
    Rng rng(5);
    for (auto &t : inv->laneTraces) {
        t.iterations = 64;
        t.seqWrites.resize(2);
        t.idxReads.resize(2);
        t.idxWrites.resize(2);
        for (int i = 0; i < 64; i++) {
            t.seqWrites[1].push_back(1);
            t.idxReads[0].push_back(
                static_cast<uint32_t>(rng.below(256)));
        }
    }
    inv->finalize();
    m.launchKernel(inv);
    m.runUntil([&]() { return !m.kernelActive(); }, 100000);
    EXPECT_GT(m.breakdown().srfStall, 0u);
}

TEST(Cluster, CommSendsOccupyDataNetwork)
{
    Machine m;
    m.init(smallConfig(MachineKind::Base));
    SlotConfig sc;
    sc.lengthWords = 2048;
    SlotId out = m.srf().openSlot(sc);

    KernelBuilder b("commy");
    auto o = b.seqOut("o");
    auto v = b.constInt(1);
    auto s0 = b.commSend(v, v);
    auto r = b.commRecv();
    b.orderEdge(s0, r, 2, 0);
    b.write(o, b.iadd(r, v));
    KernelGraph g = b.build();

    auto inv = std::make_shared<KernelInvocation>();
    inv->graph = &g;
    inv->sched = m.scheduleKernel(g);
    inv->slots = {out};
    inv->laneTraces.assign(m.lanes(), LaneTrace());
    for (auto &t : inv->laneTraces) {
        t.iterations = 32;
        t.seqWrites.resize(1);
        t.seqWrites[0].assign(32, 3);
        t.idxReads.resize(1);
        t.idxWrites.resize(1);
    }
    inv->finalize();
    EXPECT_EQ(inv->commSendsPerIter, 1u);
    m.launchKernel(inv);
    m.runUntil([&]() { return !m.kernelActive(); }, 100000);
    SUCCEED();  // completing without deadlock exercises the comm path
}

TEST(Cluster, DoneRequiresPipelineDrain)
{
    Machine m;
    m.init(smallConfig(MachineKind::Base));
    SlotConfig sc;
    sc.lengthWords = 1024;
    SlotId out = m.srf().openSlot(sc);
    KernelGraph g = test::makeCopyKernel();
    SlotConfig ic;
    ic.lengthWords = 1024;
    ic.base = 1024;
    SlotId in = m.srf().openSlot(ic);
    std::vector<Word> data(1024, 9);
    m.srf().fillSlot(in, data);
    auto inv = test::makeCopyInvocation(m, &g, in, out, data);
    uint32_t len = inv->sched.length;
    EXPECT_GT(len, inv->sched.ii);
    m.launchKernel(inv);
    m.runUntil([&]() { return !m.kernelActive(); }, 100000);
    SUCCEED();
}


// ----------------------------------------------------------------------
// Cluster bookkeeping: one lane on a standalone SRF, observed per cycle
// ----------------------------------------------------------------------

/** Indexed reads `c` has issued to the SRF since its bind (from CLUS). */
uint64_t idxReadsIssued(Cluster &c);

/**
 * Lane 0 of an ISRF4 SRF with one Cluster, ticked in Machine::tick's
 * order (network, SRF begin, cluster, SRF end). `cl` may be pointed at
 * another Cluster object (use()) to check that a cluster's state alone
 * decides what it does.
 */
struct ClusterRig
{
    MachineConfig cfg = smallConfig(MachineKind::ISRF4);
    Crossbar net;
    Srf srf;
    Cluster own;
    Cluster *cl = &own;
    Cycle now = 0;

    ClusterRig()
    {
        net.init(cfg.srf.lanes, 1, 1, cfg.srf.netTopology);
        srf.init(cfg.srf, cfg.srfMode, &net);
        own.init(0, &srf, &net);
    }

    void
    use(Cluster &c)
    {
        c.init(0, &srf, &net);
        cl = &c;
    }

    /** Bind the invocation's slots the way Machine::launchKernel does. */
    void
    bind(const KernelInvocation &inv)
    {
        const auto &slots = inv.graph->streamSlots();
        for (size_t s = 0; s < slots.size(); s++) {
            StreamKind k = slots[s].kind;
            bool indexed = k == StreamKind::IdxInLane ||
                k == StreamKind::IdxCross;
            srf.configureSlotBinding(inv.slots[s],
                slots[s].isOutput ? StreamDir::Out : StreamDir::In,
                indexed, k == StreamKind::IdxCross);
        }
        cl->bind(&inv, now);
    }

    /**
     * One cycle, as one text line: the lane's cycle category, then the
     * indexed records it popped, SRF words moved and reads issued.
     */
    std::string
    tick(SlotId idxSlot)
    {
        net.newCycle();
        srf.beginCycle(now);
        // A cluster tick adds each issued read to the address FIFO and
        // the data buffer, and takes each popped record off the data
        // buffer: pops = 2 * issued - (change in outstanding).
        const uint64_t issued0 = idxReadsIssued(*cl);
        size_t out0 = idxSlot >= 0 ? srf.idxOutstanding(0, idxSlot) : 0;
        const CycleCat cat = cl->tick(now);
        const uint64_t issuedTotal = idxReadsIssued(*cl);
        const uint64_t issued = issuedTotal - issued0;
        size_t out1 = idxSlot >= 0 ? srf.idxOutstanding(0, idxSlot) : 0;
        int64_t pops = 2 * static_cast<int64_t>(issued) -
            (static_cast<int64_t>(out1) - static_cast<int64_t>(out0));
        srf.endCycle(now);
        static const char kCat[] = {'I', 'L', 'O', 'S'};
        std::string line = strprintf(
            "%llu %c pop=%lld seq=%llu idx=%llu iss=%llu",
            static_cast<unsigned long long>(now),
            kCat[static_cast<int>(cat)],
            static_cast<long long>(pops),
            static_cast<unsigned long long>(srf.seqWordsAccessed()),
            static_cast<unsigned long long>(srf.idxInLaneWords()),
            static_cast<unsigned long long>(issuedTotal));
        now++;
        return line;
    }

    /** Tick until the bound kernel is done; one line per cycle. */
    std::vector<std::string>
    runToDone(SlotId idxSlot, uint64_t limit = 20000)
    {
        std::vector<std::string> lines;
        while (lines.size() < limit) {
            lines.push_back(tick(idxSlot));
            if (cl->done(now - 1))
                break;
        }
        return lines;
    }
};

/**
 * The wire layout of a CLUS section (format 4), parsed independently of
 * Cluster so a test can read a saved lane's queues and forge bad ones.
 */
struct ClusImage
{
    bool bound = false;
    uint64_t bindCycle = 0, itersIssued = 0, nextIssue = 0, lastIssue = 0;
    uint32_t commSends = 0;
    std::vector<std::vector<uint64_t>> dataNeeds;
    std::vector<uint64_t> seqWriteCur, idxReadCur, idxWriteCur;
    std::vector<std::vector<uint32_t>> pendingOut;
    std::vector<uint32_t> pendingIn;
    std::vector<std::vector<uint32_t>> pendingIdxR;
    std::vector<std::vector<std::array<uint32_t, 5>>> pendingIdxW;
    bool doneReported = false;

    void
    io(SnapshotIo &io)
    {
        io.b(bound);
        io.u64(bindCycle);
        io.u64(itersIssued);
        io.u64(nextIssue);
        io.u64(lastIssue);
        io.u32(commSends);
        uint64_t n = dataNeeds.size();
        io.len(n, 1);
        if (io.loading()) {
            dataNeeds.assign(n, {});
            seqWriteCur.assign(n, 0);
            idxReadCur.assign(n, 0);
            idxWriteCur.assign(n, 0);
            pendingOut.assign(n, {});
            pendingIn.assign(n, 0);
            pendingIdxR.assign(n, {});
            pendingIdxW.assign(n, {});
        }
        for (auto &q : dataNeeds)
            io.seq(q);
        io.each(seqWriteCur);
        io.each(idxReadCur);
        io.each(idxWriteCur);
        for (auto &q : pendingOut)
            io.seq(q);
        io.each(pendingIn);
        for (auto &q : pendingIdxR)
            io.seq(q);
        for (auto &q : pendingIdxW)
            io.seq(q, 20, [&](std::array<uint32_t, 5> &e) { io.each(e); });
        io.b(doneReported);
    }
};

std::string
saveClus(Cluster &c)
{
    SnapshotWriter w;
    SnapshotIo io(w);
    c.snapshot(io);
    return w.data();
}

ClusImage
parseClus(const std::string &bytes)
{
    ClusImage img;
    SnapshotReader r(bytes);
    SnapshotIo io(r);
    img.io(io);
    EXPECT_TRUE(r.atEnd());
    return img;
}

uint64_t
idxReadsIssued(Cluster &c)
{
    // A read leaves its slot's trace cursor into the unissued queue and
    // leaves that queue when the SRF accepts it.
    ClusImage img = parseClus(saveClus(c));
    uint64_t n = 0;
    for (size_t s = 0; s < img.idxReadCur.size(); s++)
        n += img.idxReadCur[s] - img.pendingIdxR[s].size();
    return n;
}

std::string
writeClus(ClusImage img)
{
    SnapshotWriter w;
    SnapshotIo io(w);
    img.io(io);
    return w.data();
}

/** Load CLUS bytes into `c` bound to `inv`; true iff accepted whole. */
bool
loadClus(Cluster &c, const KernelInvocation *inv, const std::string &bytes)
{
    c.restoreBind(inv);
    SnapshotReader r(bytes);
    SnapshotIo io(r);
    c.snapshot(io);
    return r.atEnd();
}

/** Per-lane traces for `iters` iterations of a kernel's slots. */
void
fillTraces(KernelInvocation &inv, uint32_t lanes, uint64_t iters,
           uint32_t seed)
{
    size_t nSlots = inv.graph->streamSlots().size();
    inv.laneTraces.assign(lanes, LaneTrace());
    Rng rng(seed);
    for (auto &t : inv.laneTraces) {
        t.iterations = iters;
        t.seqWrites.resize(nSlots);
        t.idxReads.resize(nSlots);
        t.idxWrites.resize(nSlots);
    }
    for (NodeId id = 0; id < inv.graph->nodeCount(); id++) {
        const Node &n = inv.graph->node(id);
        for (auto &t : inv.laneTraces) {
            for (uint64_t i = 0; i < iters; i++) {
                if (n.op == Opcode::SeqWrite)
                    t.seqWrites[n.streamSlot].push_back(
                        static_cast<Word>(i));
                else if (n.op == Opcode::IdxRead)
                    t.idxReads[n.streamSlot].push_back(
                        static_cast<uint32_t>(rng.below(256)));
            }
        }
    }
}

/** Open a 256-word per-lane indexed table and a sequential output. */
std::vector<SlotId>
openTableAndOutput(Srf &srf)
{
    SlotConfig tc;
    tc.layout = StreamLayout::PerLane;
    tc.lengthWords = 256;
    tc.indexed = true;
    SlotConfig oc;
    oc.lengthWords = 4096;
    oc.base = 256;
    return {srf.openSlot(tc), srf.openSlot(oc)};
}

/** `reads` chained in-lane lookups in one table, then one output. */
KernelGraph
makeChainedLookupKernel(int reads)
{
    KernelBuilder b("chained_lookup");
    auto lut = b.idxlIn("lut");
    auto o = b.seqOut("o");
    auto v = b.readIdx(lut, b.iterIdx());
    for (int i = 1; i < reads; i++)
        v = b.readIdx(lut, b.iand(v, b.constInt(255)));
    b.write(o, v);
    return b.build();
}

/** `reads` independent in-lane lookups in one table, summed. */
KernelGraph
makeWideLookupKernel(int reads)
{
    KernelBuilder b("wide_lookup");
    auto lut = b.idxlIn("lut");
    auto o = b.seqOut("o");
    auto sum = b.readIdx(lut, b.iterIdx());
    for (int i = 1; i < reads; i++)
        sum = b.iadd(sum,
                     b.readIdx(lut, b.iadd(b.iterIdx(), b.constInt(i))));
    b.write(o, sum);
    return b.build();
}

/** Run-length code of the category column: "O64 L12 S3 ...". */
std::string
catRuns(const std::vector<std::string> &lines)
{
    std::string out;
    char cur = 0;
    int run = 0;
    auto flush = [&]() {
        if (run)
            out += strprintf("%s%c%d", out.empty() ? "" : " ", cur, run);
    };
    for (const std::string &l : lines) {
        char c = l[l.find(' ') + 1];
        if (c != cur) {
            flush();
            cur = c;
            run = 0;
        }
        run++;
    }
    flush();
    return out;
}

/** Cycles at which the lane popped indexed records, "cycle xN" each. */
std::string
popCycles(const std::vector<std::string> &lines)
{
    std::string out;
    for (const std::string &l : lines) {
        size_t p = l.find("pop=");
        int pops = std::atoi(l.c_str() + p + 4);
        if (pops != 0)
            out += strprintf("%s%s x%d", out.empty() ? "" : " ",
                             l.substr(0, l.find(' ')).c_str(), pops);
    }
    return out;
}

TEST(ClusterBookkeeping, UnsortedDataNeedFrontsKeepTheirTiming)
{
    // Two lookups in one slot at different schedule cycles: each read's
    // need time is its issue cycle plus the offset picked by the queue
    // depth, so a slot's queue is not sorted. The per-cycle categories
    // and the cycle of every data pop are pinned. A 2-cycle separation
    // is shorter than the in-lane latency, so the lane also stalls.
    ClusterRig rig;
    rig.cfg.inLaneSeparation = 2;
    std::vector<SlotId> ids = openTableAndOutput(rig.srf);
    KernelGraph g = makeChainedLookupKernel(2);
    KernelInvocation inv;
    inv.graph = &g;
    inv.sched = ModuloScheduler(rig.cfg.cluster, rig.cfg.seed)
        .schedule(g, rig.cfg.inLaneSeparation);
    inv.slots = ids;
    fillTraces(inv, rig.cfg.srf.lanes, 12, 7);
    inv.finalize();
    ASSERT_EQ(inv.idxReadOffsets[0].size(), 2u);
    ASSERT_LT(inv.idxReadOffsets[0][0], inv.idxReadOffsets[0][1]);

    rig.bind(inv);
    std::vector<std::string> lines;
    bool unsorted = false;
    while (lines.size() < 20000) {
        lines.push_back(rig.tick(ids[0]));
        std::vector<uint64_t> q =
            parseClus(saveClus(*rig.cl)).dataNeeds[0];
        unsorted |= !std::is_sorted(q.begin(), q.end());
        if (rig.cl->done(rig.now - 1))
            break;
    }
    rig.cl->unbind();
    EXPECT_TRUE(unsorted) << "the queue never held an earlier need "
                             "behind a later one";
    EXPECT_EQ(catRuns(lines), "O66 S2 O5 L16 O2 S1 O1 S1 O4");
    EXPECT_EQ(popCycles(lines),
              "68 x1 71 x1 75 x2 77 x3 79 x2 81 x2 83 x1 85 x2 87 x2 "
              "89 x3 91 x1 92 x1 93 x1 94 x1 95 x1");
    EXPECT_EQ(lines.back(), "97 O pop=0 seq=12 idx=24 iss=24");
}

TEST(ClusterBookkeeping, ReboundClusterBehavesLikeAFreshOne)
{
    // One Cluster object runs three invocations back to back: 2 slots,
    // then 3, then 1. Each run must match a fresh Cluster's cycle for
    // cycle, so no queue, cursor or cached state leaks across binds.
    KernelGraph copy = test::makeCopyKernel();
    KernelGraph lookup = test::makeLookupKernel();
    KernelBuilder pb("paced_out");
    auto po = pb.seqOut("o");
    pb.write(po, pb.fadd(pb.constFloat(1), pb.constFloat(2)));
    KernelGraph paced = pb.build();

    Cluster reused;
    const KernelGraph *graphs[] = {&copy, &lookup, &paced};
    for (const KernelGraph *g : graphs) {
        std::vector<std::vector<std::string>> runs;
        for (int fresh = 0; fresh < 2; fresh++) {
            ClusterRig rig;
            if (!fresh)
                rig.use(reused);
            SlotConfig ic;
            ic.lengthWords = 1024;
            SlotId in = rig.srf.openSlot(ic);
            SlotConfig tc;
            tc.layout = StreamLayout::PerLane;
            tc.lengthWords = 256;
            tc.indexed = true;
            tc.base = 1024;
            SlotId tbl = rig.srf.openSlot(tc);
            SlotConfig oc;
            oc.lengthWords = 1024;
            oc.base = 1280;
            SlotId out = rig.srf.openSlot(oc);
            rig.srf.fillSlot(in, std::vector<Word>(1024, 5));

            KernelInvocation inv;
            inv.graph = g;
            inv.sched = ModuloScheduler(rig.cfg.cluster, rig.cfg.seed)
                .schedule(*g, rig.cfg.inLaneSeparation);
            if (g == &copy)
                inv.slots = {in, out};
            else if (g == &lookup)
                inv.slots = {in, tbl, out};
            else
                inv.slots = {out};
            fillTraces(inv, rig.cfg.srf.lanes, 40, 3);
            inv.finalize();
            rig.bind(inv);
            runs.push_back(rig.runToDone(g == &lookup ? tbl : -1));
            EXPECT_TRUE(rig.cl->done(rig.now));
            rig.cl->unbind();
        }
        EXPECT_EQ(runs[0], runs[1]) << g->name();
    }
}

/**
 * Two lockstep rigs on a kernel with more lookups per iteration than
 * the address FIFO holds, ticked until the lane has both unissued
 * reads (pendingIdxR) and issued reads awaiting their data (dataNeeds).
 */
struct SpillingPair
{
    ClusterRig a, b;
    KernelGraph g = makeWideLookupKernel(12);
    KernelInvocation inv;
    SlotId tbl = -1;
    std::string clus;  ///< a's CLUS on the first such cycle

    SpillingPair()
    {
        std::vector<SlotId> ids = openTableAndOutput(a.srf);
        openTableAndOutput(b.srf);
        tbl = ids[0];
        inv.graph = &g;
        inv.sched = ModuloScheduler(a.cfg.cluster, a.cfg.seed)
            .schedule(g, a.cfg.inLaneSeparation);
        inv.slots = ids;
        fillTraces(inv, a.cfg.srf.lanes, 30, 11);
        inv.finalize();
        a.bind(inv);
        b.bind(inv);
        for (int c = 0; c < 5000 && clus.empty(); c++) {
            EXPECT_EQ(a.tick(tbl), b.tick(tbl));
            std::string bytes = saveClus(*a.cl);
            ClusImage img = parseClus(bytes);
            if (!img.pendingIdxR[0].empty() && !img.dataNeeds[0].empty())
                clus = bytes;
        }
    }
};

TEST(ClusterBookkeeping, RestoredLaneContinuesLikeTheUninterruptedOne)
{
    SpillingPair p;
    ASSERT_FALSE(p.clus.empty())
        << "never had unissued and outstanding reads at once";
    Cluster restored;
    p.b.use(restored);
    ASSERT_TRUE(loadClus(restored, &p.inv, p.clus));
    EXPECT_EQ(saveClus(restored), p.clus);
    for (int c = 0; c < 200; c++)
        ASSERT_EQ(p.a.tick(p.tbl), p.b.tick(p.tbl)) << "cycle " << c;
}

TEST(ClusterBookkeeping, QueueLongerThanItsRingIsRejected)
{
    // A lane's unissued work is at most one iteration's: the next
    // iteration waits for the queues to drain. A CLUS claiming more
    // cannot come from this invocation and must not load.
    SpillingPair p;
    ASSERT_FALSE(p.clus.empty());
    ClusImage img = parseClus(p.clus);
    uint32_t cap = p.inv.idxReadsPerIter[0];
    ASSERT_LE(img.pendingIdxR[0].size(), cap);
    {
        Cluster c;
        c.init(0, &p.b.srf, &p.b.net);
        EXPECT_TRUE(loadClus(c, &p.inv, writeClus(img)));
    }
    img.pendingIdxR[0].resize(cap + 1, 0);
    Cluster c;
    c.init(0, &p.b.srf, &p.b.net);
    EXPECT_FALSE(loadClus(c, &p.inv, writeClus(img)));

    ClusImage out = parseClus(p.clus);
    out.pendingOut[1].resize(p.inv.seqWritesPerIter[1] + 1, 0);
    Cluster d;
    d.init(0, &p.b.srf, &p.b.net);
    EXPECT_FALSE(loadClus(d, &p.inv, writeClus(out)));
}

} // namespace
} // namespace isrf
