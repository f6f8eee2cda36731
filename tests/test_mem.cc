/**
 * @file
 * Tests for the memory system: DRAM functional storage (zero on
 * demand, touched-page map, snapshot pages) + bandwidth model, the
 * vector cache, and stream load/store/gather/scatter through the
 * MemorySystem into the SRF.
 */
#include <gtest/gtest.h>

#include "mem/memory_system.h"
#include "util/random.h"
#include "util/snapshot.h"
#include "workloads/workload.h"

namespace isrf {
namespace {

TEST(Dram, FunctionalRoundtrip)
{
    DramConfig cfg;
    cfg.capacityWords = 1024;
    Dram d(cfg);
    d.write(100, 0xabcd);
    EXPECT_EQ(d.read(100), 0xabcdu);
    d.fill(10, {1, 2, 3});
    EXPECT_EQ(d.dump(10, 3), (std::vector<Word>{1, 2, 3}));
    EXPECT_DEATH(d.read(2000), "out of range");
}

TEST(Dram, BandwidthTokenBucket)
{
    DramConfig cfg;
    cfg.capacityWords = 64;
    cfg.wordsPerCycle = 2.0;
    cfg.burstTokens = 4.0;
    Dram d(cfg);
    uint64_t total = 0;
    for (int i = 0; i < 100; i++) {
        d.tick();
        total += d.requestWords(100, true);
    }
    // ~2 words per cycle sustained (+ initial burst).
    EXPECT_GE(total, 195u);
    EXPECT_LE(total, 205u);
    EXPECT_EQ(d.wordsTransferred(), total);
}

TEST(Dram, RandomAccessCostsMore)
{
    DramConfig cfg;
    cfg.capacityWords = 64;
    cfg.wordsPerCycle = 2.0;
    cfg.randomCostFactor = 2.0;
    Dram d(cfg);
    uint64_t total = 0;
    for (int i = 0; i < 100; i++) {
        d.tick();
        total += d.requestWords(100, false);
    }
    EXPECT_GE(total, 95u);
    EXPECT_LE(total, 105u);
    EXPECT_EQ(d.randomWords(), total);
    EXPECT_EQ(d.seqWords(), 0u);
}

TEST(Dram, TryConsumeExactAllOrNothing)
{
    DramConfig cfg;
    cfg.capacityWords = 64;
    cfg.wordsPerCycle = 1.0;
    cfg.burstTokens = 2.0;
    Dram d(cfg);
    d.tick();  // 1 token
    EXPECT_FALSE(d.tryConsumeExact(2, true));
    d.tick();  // 2 tokens
    EXPECT_TRUE(d.tryConsumeExact(2, true));
    EXPECT_EQ(d.wordsTransferred(), 2u);
}

// ----------------------------------------------------------------------
// Zero-on-demand storage and its touched-page map
// ----------------------------------------------------------------------

constexpr uint64_t kPage = Dram::kPageWords;
/** Four full pages and a partial fifth. */
constexpr uint64_t kCap = 4 * kPage + 1000;

DramConfig
storageCfg()
{
    DramConfig cfg;
    cfg.capacityWords = kCap;
    return cfg;
}

std::vector<uint64_t>
touchedList(const Dram &d)
{
    std::vector<uint64_t> pages;
    for (uint64_t p = 0; p < d.pages(); p++)
        if (d.pageTouched(p))
            pages.push_back(p);
    return pages;
}

std::string
snapshotBytes(Dram &d)
{
    SnapshotWriter w;
    SnapshotIo io(w);
    d.snapshot(io);
    return w.data();
}

/**
 * The oracle: the storage prefix of a DRAM snapshot (capacity, page
 * count, then each listed page's index and raw words) for a dense
 * model of the words and the pages it says are touched.
 */
std::string
pageLayout(const std::vector<Word> &mem, const std::vector<uint64_t> &pages)
{
    SnapshotWriter w;
    w.u64(mem.size());
    w.u64(pages.size());
    for (uint64_t page : pages) {
        uint64_t lo = page * kPage;
        uint64_t n = std::min<uint64_t>(kPage, mem.size() - lo);
        w.u64(page);
        w.bytes(mem.data() + lo, n * sizeof(Word));
    }
    return w.data();
}

/** True if `bytes` starts with `prefix`. */
bool
startsWith(const std::string &bytes, const std::string &prefix)
{
    return bytes.compare(0, prefix.size(), prefix) == 0;
}

/** Load `bytes` into `d`; true if the payload was accepted whole. */
bool
loadBytes(Dram &d, const std::string &bytes)
{
    SnapshotReader r(bytes);
    SnapshotIo io(r);
    d.snapshot(io);
    return r.atEnd();
}

TEST(DramStorage, UntouchedWordsReadZeroAndStayUntouched)
{
    Dram d(storageCfg());
    EXPECT_EQ(d.pages(), 5u);
    EXPECT_EQ(d.read(0), 0u);
    EXPECT_EQ(d.read(kCap - 1), 0u);
    EXPECT_EQ(d.read(2 * kPage + 17), 0u);
    EXPECT_EQ(d.dump(kCap - 8, 8), std::vector<Word>(8, 0));
    EccStatus st;
    EXPECT_EQ(d.readChecked(kPage, &st), 0u);
    EXPECT_EQ(st, EccStatus::Clean);
    EXPECT_EQ(d.touchedPages(), 0u);
    EXPECT_DEATH(d.read(kCap), "out of range");
}

TEST(DramStorage, WritePathsMarkExactlyThePagesTheyHit)
{
    {
        Dram d(storageCfg());
        d.write(2 * kPage + 5, 7);
        d.write(0, 0);  // a zero-valued write still touches its page
        EXPECT_EQ(touchedList(d), (std::vector<uint64_t>{0, 2}));
    }
    {
        Dram d(storageCfg());
        d.fill(3 * kPage - 2, {1, 2, 3, 4});
        EXPECT_EQ(touchedList(d), (std::vector<uint64_t>{2, 3}));
        d.fill(kPage, {});
        EXPECT_EQ(d.touchedPages(), 2u);
    }
    {
        Dram d(storageCfg());
        d.fill(kCap - 3, {9, 9, 9});
        EXPECT_EQ(touchedList(d), (std::vector<uint64_t>{4}));
    }
    {
        Dram d(storageCfg());
        d.injectBitFlips(kPage + 9, 0x10, false);
        EXPECT_EQ(touchedList(d), (std::vector<uint64_t>{1}));
        EXPECT_EQ(d.read(kPage + 9), 0u);  // corrected on read
        EXPECT_EQ(touchedList(d), (std::vector<uint64_t>{1}));
    }
}

TEST(DramStorage, EccWriteBackOnAnUntouchedPageMarksIt)
{
    // A saved fault always sits on a listed page, but a payload that
    // lists no page under a pending flip must still not lose the
    // corrected word: the read's scrub write-back marks the page, so
    // the next save lists it.
    Dram a(storageCfg());
    a.write(3 * kPage + 4, 0x8);
    a.injectBitFlips(3 * kPage + 4, 0x8, false);
    const std::string saved = snapshotBytes(a);
    SnapshotWriter none;
    none.u64(0);
    const size_t pageEntry = 8 + kPage * sizeof(Word);
    const std::string unlisted = saved.substr(0, 8) + none.data() +
        saved.substr(16 + pageEntry);

    for (bool viaScrub : {false, true}) {
        Dram b(storageCfg());
        ASSERT_TRUE(loadBytes(b, unlisted));
        EXPECT_EQ(b.touchedPages(), 0u);
        if (viaScrub) {
            EXPECT_EQ(b.scrubEcc(), 1u);
        } else {
            EXPECT_EQ(b.read(3 * kPage + 4), 0x8u);
        }
        EXPECT_EQ(touchedList(b), (std::vector<uint64_t>{3}));
        std::vector<Word> model(kCap, 0);
        model[3 * kPage + 4] = 0x8;
        EXPECT_TRUE(startsWith(snapshotBytes(b), pageLayout(model, {3})));
    }
}

TEST(DramStorage, SaveListsExactlyTheTouchedPages)
{
    Dram d(storageCfg());
    std::vector<Word> model(kCap, 0);
    EXPECT_TRUE(startsWith(snapshotBytes(d), pageLayout(model, {})));

    // Zero-valued writes touch their pages, which are listed as zeros.
    d.write(5, 0);
    d.write(2 * kPage, 0);
    EXPECT_TRUE(startsWith(snapshotBytes(d), pageLayout(model, {0, 2})));

    // A fill across a page edge and the partial last page.
    std::vector<Word> run(6, 7);
    d.fill(kPage - 3, run);
    std::copy(run.begin(), run.end(), model.begin() + kPage - 3);
    d.write(kCap - 1, 1);
    model[kCap - 1] = 1;
    const std::string bytes = snapshotBytes(d);
    EXPECT_TRUE(startsWith(bytes, pageLayout(model, {0, 1, 2, 4})));
    // Raw pages: 4 full and the 1000-word tail, each behind its index.
    EXPECT_GE(bytes.size(), 16 + 4 * 8 + (3 * kPage + 1000) * 4);
}

TEST(DramStorage, LoadRestoresTheTouchedMapAndTheWords)
{
    Dram a(storageCfg());
    Rng rng(21);
    for (int i = 0; i < 300; i++)
        a.write(rng.below(2 * kPage), static_cast<Word>(rng.below(3)));
    a.write(3 * kPage + 1, 0);  // a touched page holding only zeros
    a.write(kCap - 1, 0xabcd);
    const std::string saved = snapshotBytes(a);

    Dram b(storageCfg());
    ASSERT_TRUE(loadBytes(b, saved));
    EXPECT_EQ(touchedList(b), touchedList(a));
    EXPECT_EQ(touchedList(b), (std::vector<uint64_t>{0, 1, 3, 4}));
    EXPECT_EQ(b.dump(0, kCap), a.dump(0, kCap));
    EXPECT_EQ(snapshotBytes(b), saved);
}

TEST(DramStorage, LoadRejectsABadPageList)
{
    Dram a(storageCfg());
    a.write(kPage + 2, 5);
    a.write(3 * kPage + 7, 6);
    const std::string saved = snapshotBytes(a);
    const size_t pageEntry = 8 + kPage * sizeof(Word);
    const std::string first = saved.substr(16, pageEntry);   // page 1
    const std::string second = saved.substr(16 + pageEntry, pageEntry);
    const std::string tail = saved.substr(16 + 2 * pageEntry);
    auto withPages = [&](const std::string &entries) {
        return saved.substr(0, 16) + entries + tail;
    };
    auto pageIndex = [](uint64_t page) {
        SnapshotWriter w;
        w.u64(page);
        return w.data();
    };
    const std::string body = first.substr(8);

    Dram b(storageCfg());
    ASSERT_TRUE(loadBytes(b, withPages(first + second)));
    EXPECT_FALSE(loadBytes(b, withPages(first + first))) << "repeated";
    EXPECT_FALSE(loadBytes(b, withPages(second + first))) << "descending";
    EXPECT_FALSE(loadBytes(b, withPages(first + pageIndex(b.pages()) +
                                        body)))
        << "past pages()";
    EXPECT_FALSE(loadBytes(b, withPages(first + pageIndex(4))))
        << "truncated page";
}

TEST(DramStorage, LoadLeavesNoWordOfThePriorState)
{
    Dram a(storageCfg());
    a.fill(kPage - 2, {1, 2, 3, 4});
    a.write(kCap - 1, 6);
    Dram b(storageCfg());
    b.fill(0, std::vector<Word>(kPage + 10, 0x55));
    b.fill(3 * kPage + 8, {8, 8});
    b.write(kCap - 2, 3);

    const std::string saved = snapshotBytes(a);
    ASSERT_TRUE(loadBytes(b, saved));
    EXPECT_EQ(b.dump(0, kCap), a.dump(0, kCap));
    EXPECT_EQ(snapshotBytes(b), saved);
    // The touched map is the saved one, not the union with b's.
    EXPECT_EQ(touchedList(b), (std::vector<uint64_t>{0, 1, 4}));
}

TEST(DramStorage, ReinitZeroesEverything)
{
    Dram d(storageCfg());
    d.fill(0, std::vector<Word>(2 * kPage, 4));
    d.write(kCap - 1, 9);
    d.injectBitFlips(3 * kPage, 0x3, false);
    d.init(storageCfg());
    EXPECT_EQ(d.touchedPages(), 0u);
    EXPECT_TRUE(d.ecc().empty());
    EXPECT_EQ(d.dump(0, kCap), std::vector<Word>(kCap, 0));
}

TEST(DramStorage, SortTouchesAFewPagesOfTheCapacity)
{
    for (MachineKind kind : {MachineKind::Base, MachineKind::ISRF4}) {
        WorkloadResult r = runWorkload("Sort", kind);
        ASSERT_TRUE(r.correct) << machineKindName(kind);
        const uint64_t capacityPages =
            MachineConfig::make(kind).dram.capacityWords / kPage;
        EXPECT_GT(r.dramPagesTouched, 0u);
        EXPECT_LE(r.dramPagesTouched, 8u) << "of " << capacityPages;
    }
}

TEST(Cache, HitAfterMiss)
{
    Cache c;
    EXPECT_FALSE(c.probe(42));
    auto r1 = c.access(42, false);
    EXPECT_FALSE(r1.hit);
    EXPECT_TRUE(c.probe(42));
    auto r2 = c.access(42, false);
    EXPECT_TRUE(r2.hit);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, LruEvictionOrder)
{
    CacheConfig cfg;
    cfg.capacityWords = 16;  // 8 lines, 2 sets x 4 ways (line=2 words)
    Cache c(cfg);
    uint32_t sets = c.numSets();
    ASSERT_EQ(sets, 2u);
    // Fill set 0 with 4 lines, then touch the first to refresh LRU.
    for (uint64_t i = 0; i < 4; i++)
        c.access(i * sets, false);
    c.access(0, false);  // line 0 most recent
    // Allocate a 5th line in set 0: evicts line addressed sets*1 (LRU).
    c.access(4 * sets, false);
    EXPECT_TRUE(c.probe(0));
    EXPECT_FALSE(c.probe(1 * sets));
    EXPECT_TRUE(c.probe(2 * sets));
}

TEST(Cache, DirtyEvictionReportsWriteback)
{
    CacheConfig cfg;
    cfg.capacityWords = 16;
    Cache c(cfg);
    uint32_t sets = c.numSets();
    c.access(0, true);  // dirty
    for (uint64_t i = 1; i < 4; i++)
        c.access(i * sets, false);
    auto r = c.access(4 * sets, false);  // evicts dirty line 0
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.evictedLineAddr, 0u);
    EXPECT_EQ(c.writebacks(), 1u);
}

TEST(Cache, FlushInvalidatesAll)
{
    Cache c;
    c.access(7, false);
    c.flush();
    EXPECT_FALSE(c.probe(7));
}

/** Fixture wiring MemorySystem + Srf for end-to-end transfers. */
class MemSysTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        geom_ = SrfGeometry{};
        srf_.init(geom_, SrfMode::SequentialOnly, nullptr);
        MemSystemConfig mc;
        DramConfig dc;
        dc.capacityWords = 1 << 16;
        dc.accessLatency = 4;
        CacheConfig cc;
        mem_.init(mc, dc, cc, &srf_);
    }

    void
    runCycles(uint32_t n)
    {
        for (uint32_t i = 0; i < n; i++) {
            srf_.beginCycle(now_);
            mem_.tick(now_);
            srf_.endCycle(now_);
            now_++;
        }
    }

    SlotId
    openStriped(uint32_t words, uint32_t base)
    {
        SlotConfig cfg;
        cfg.layout = StreamLayout::Striped;
        cfg.base = base;
        cfg.lengthWords = words;
        return srf_.openSlot(cfg);
    }

    SrfGeometry geom_;
    Srf srf_;
    MemorySystem mem_;
    Cycle now_ = 0;
};

TEST_F(MemSysTest, LoadMovesDataIntoSrf)
{
    std::vector<Word> data(256);
    for (size_t i = 0; i < data.size(); i++)
        data[i] = static_cast<Word>(i ^ 0x55);
    mem_.dram().fill(1000, data);
    SlotId slot = openStriped(256, 0);

    MemOp op;
    op.kind = MemOpKind::Load;
    op.memBase = 1000;
    op.srfSlot = slot;
    MemOpId id = mem_.submit(op);
    EXPECT_FALSE(mem_.done(id));
    runCycles(400);
    EXPECT_TRUE(mem_.done(id));
    EXPECT_TRUE(mem_.idle());
    EXPECT_EQ(srf_.dumpSlot(slot), data);
    EXPECT_EQ(mem_.dram().wordsTransferred(), 256u);
}

TEST_F(MemSysTest, StoreMovesDataToDram)
{
    SlotId slot = openStriped(128, 0);
    std::vector<Word> data(128);
    for (size_t i = 0; i < data.size(); i++)
        data[i] = static_cast<Word>(i * 7);
    srf_.fillSlot(slot, data);

    MemOp op;
    op.kind = MemOpKind::Store;
    op.memBase = 5000;
    op.srfSlot = slot;
    MemOpId id = mem_.submit(op);
    runCycles(300);
    EXPECT_TRUE(mem_.done(id));
    EXPECT_EQ(mem_.dram().dump(5000, 128), data);
}

TEST_F(MemSysTest, GatherCollectsIndexedRecords)
{
    std::vector<Word> table(8192);
    for (size_t i = 0; i < table.size(); i++)
        table[i] = static_cast<Word>(i + 9000);
    mem_.dram().fill(0, table);
    SlotId slot = openStriped(8, 0);

    MemOp op;
    op.kind = MemOpKind::Gather;
    op.memBase = 0;
    op.srfSlot = slot;
    op.indices = {5, 100, 3, 8191, 0, 7, 7, 5200};
    MemOpId id = mem_.submit(op);
    runCycles(300);
    ASSERT_TRUE(mem_.done(id));
    auto out = srf_.dumpSlot(slot);
    EXPECT_EQ(out[0], 9005u);
    EXPECT_EQ(out[1], 9100u);
    EXPECT_EQ(out[3], 9000u + 8191u);
    EXPECT_EQ(out[6], 9007u);
    // A gather spanning a large footprint pays the random-access cost.
    EXPECT_EQ(mem_.dram().randomWords(), 8u);
}

TEST_F(MemSysTest, SmallFootprintGatherRunsAtStreamCost)
{
    std::vector<Word> table(256, 3);
    mem_.dram().fill(0, table);
    SlotId slot = openStriped(8, 0);
    MemOp op;
    op.kind = MemOpKind::Gather;
    op.memBase = 0;
    op.srfSlot = slot;
    op.indices = {1, 2, 3, 4, 250, 6, 7, 8};
    mem_.submit(op);
    runCycles(300);
    // Table-sized footprints hit open DRAM rows: sequential cost.
    EXPECT_EQ(mem_.dram().randomWords(), 0u);
    EXPECT_EQ(mem_.dram().seqWords(), 8u);
}

TEST_F(MemSysTest, GatherWithDstOffsetAppends)
{
    std::vector<Word> table(8192);
    for (size_t i = 0; i < table.size(); i++)
        table[i] = static_cast<Word>(i);
    mem_.dram().fill(0, table);
    SlotId slot = openStriped(16, 0);
    srf_.fillSlot(slot, std::vector<Word>(16, 0xeeee));

    MemOp op;
    op.kind = MemOpKind::Gather;
    op.memBase = 0;
    op.srfSlot = slot;
    op.indices = {7000, 6000};
    op.dstOffsetWords = 8;
    mem_.submit(op);
    runCycles(300);
    auto out = srf_.dumpSlot(slot);
    EXPECT_EQ(out[0], 0xeeeeu);  // untouched prefix
    EXPECT_EQ(out[8], 7000u);
    EXPECT_EQ(out[9], 6000u);
}

TEST_F(MemSysTest, ScatterWritesIndexedRecords)
{
    SlotId slot = openStriped(4, 0);
    srf_.fillSlot(slot, {11, 22, 33, 44});
    MemOp op;
    op.kind = MemOpKind::Scatter;
    op.memBase = 2000;
    op.srfSlot = slot;
    op.indices = {9, 0, 30, 2};
    MemOpId id = mem_.submit(op);
    runCycles(300);
    ASSERT_TRUE(mem_.done(id));
    EXPECT_EQ(mem_.dram().read(2009), 11u);
    EXPECT_EQ(mem_.dram().read(2000), 22u);
    EXPECT_EQ(mem_.dram().read(2030), 33u);
    EXPECT_EQ(mem_.dram().read(2002), 44u);
}

TEST_F(MemSysTest, TwoUnitsOverlapOps)
{
    SlotId a = openStriped(512, 0);
    SlotId b = openStriped(512, 256);
    MemOp op1;
    op1.kind = MemOpKind::Load;
    op1.memBase = 0;
    op1.srfSlot = a;
    MemOp op2;
    op2.kind = MemOpKind::Load;
    op2.memBase = 4096;
    op2.srfSlot = b;
    mem_.submit(op1);
    mem_.submit(op2);
    runCycles(3);
    EXPECT_EQ(mem_.inFlight(), 2u);
    runCycles(800);
    EXPECT_TRUE(mem_.idle());
}

TEST_F(MemSysTest, OpsQueueBeyondUnits)
{
    SlotId s[3];
    for (int i = 0; i < 3; i++)
        s[i] = openStriped(64, static_cast<uint32_t>(i) * 64);
    for (int i = 0; i < 3; i++) {
        MemOp op;
        op.kind = MemOpKind::Load;
        op.memBase = static_cast<uint64_t>(i) * 128;
        op.srfSlot = s[i];
        mem_.submit(op);
    }
    EXPECT_EQ(mem_.inFlight(), 3u);
    runCycles(600);
    EXPECT_TRUE(mem_.idle());
}

TEST_F(MemSysTest, DoneMatchesBruteForceOverRandomTraffic)
{
    // done() answers from the FIFO order of ids instead of scanning the
    // queue. Check it on every cycle against a brute-force scan over
    // every id ever handed out: the not-done ids are exactly the ops
    // queued or executing (inFlight()), ids never handed out are not
    // done, and a done id stays done — including across a snapshot
    // save/load of the memory system.
    SlotId s[4];
    for (uint32_t i = 0; i < 4; i++)
        s[i] = openStriped(64, i * 64);
    Rng rng(2024);
    MemOpId lastId = 0;
    std::vector<bool> wasDone(1, false);
    for (uint32_t cycle = 0; cycle < 3000 || !mem_.idle(); cycle++) {
        ASSERT_LT(cycle, 200000u) << "memory system never drained";
        if (cycle < 3000 && rng.below(8) == 0) {
            MemOp op;
            op.kind = static_cast<MemOpKind>(rng.below(4));
            op.srfSlot = s[rng.below(4)];
            op.memBase = rng.below(64) * 64;
            if (op.kind == MemOpKind::Gather ||
                    op.kind == MemOpKind::Scatter) {
                op.indices.resize(1 + rng.below(64));
                for (uint32_t &x : op.indices)
                    x = static_cast<uint32_t>(rng.below(4096));
            }
            lastId = mem_.submit(op);
            wasDone.push_back(false);
        }
        if (cycle % 500 == 250) {
            // Save, reset to a freshly initialised system, restore.
            SnapshotWriter w;
            SnapshotIo save(w);
            mem_.snapshot(save);
            MemSystemConfig mc;
            DramConfig dc;
            dc.capacityWords = 1 << 16;
            dc.accessLatency = 4;
            mem_.init(mc, dc, CacheConfig{}, &srf_);
            ASSERT_TRUE(mem_.idle());
            SnapshotReader r(w.data());
            SnapshotIo load(r);
            mem_.snapshot(load);
            ASSERT_TRUE(r.atEnd());
        }
        runCycles(1);
        size_t notDone = 0;
        for (MemOpId id = 1; id <= lastId; id++) {
            bool d = mem_.done(id);
            ASSERT_FALSE(wasDone[id] && !d) << "id " << id << " cycle "
                                            << cycle;
            wasDone[id] = d;
            notDone += d ? 0 : 1;
        }
        ASSERT_EQ(notDone, mem_.inFlight()) << "cycle " << cycle;
        EXPECT_FALSE(mem_.done(0));
        EXPECT_FALSE(mem_.done(lastId + 1));
    }
    EXPECT_GT(lastId, 300);
}

TEST_F(MemSysTest, EventsMoveWheneverAnOpCanHaveFinished)
{
    // StreamProgram rescans its in-flight ops only when events() has
    // moved, so every cycle on which some op's done() flips must move
    // it. With a zero access latency an empty gather is dispatched and
    // finishes within one tick, and that cycle counts too.
    MemSystemConfig mc;
    DramConfig dc;
    dc.capacityWords = 1 << 16;
    dc.accessLatency = 0;
    mem_.init(mc, dc, CacheConfig{}, &srf_);
    SlotId s[2] = {openStriped(64, 0), openStriped(64, 64)};
    MemOp empty;
    empty.kind = MemOpKind::Gather;
    empty.srfSlot = s[0];
    MemOpId id = mem_.submit(empty);
    uint64_t seen = mem_.events();
    runCycles(1);
    EXPECT_TRUE(mem_.done(id));
    EXPECT_NE(mem_.events(), seen);

    Rng rng(99);
    std::vector<MemOpId> ids;
    std::vector<bool> wasDone;
    for (uint32_t cycle = 0; cycle < 2000 || !mem_.idle(); cycle++) {
        ASSERT_LT(cycle, 100000u) << "memory system never drained";
        if (cycle < 2000 && rng.below(6) == 0) {
            MemOp op;
            op.kind = static_cast<MemOpKind>(rng.below(4));
            op.srfSlot = s[rng.below(2)];
            op.memBase = rng.below(64) * 64;
            op.lengthWords = rng.below(3) * 16;
            if (op.kind == MemOpKind::Gather ||
                    op.kind == MemOpKind::Scatter) {
                op.indices.resize(rng.below(8));
                for (uint32_t &x : op.indices)
                    x = static_cast<uint32_t>(rng.below(4096));
            }
            ids.push_back(mem_.submit(op));
            wasDone.push_back(false);
        }
        seen = mem_.events();
        runCycles(1);
        bool flipped = false;
        for (size_t i = 0; i < ids.size(); i++) {
            bool d = mem_.done(ids[i]);
            flipped |= d != wasDone[i];
            wasDone[i] = d;
        }
        ASSERT_TRUE(!flipped || mem_.events() != seen)
            << "cycle " << cycle;
    }
    EXPECT_GT(ids.size(), 200u);
}

/** Cache-enabled memory system. */
class CachedMemTest : public MemSysTest
{
  protected:
    void
    SetUp() override
    {
        geom_ = SrfGeometry{};
        srf_.init(geom_, SrfMode::SequentialOnly, nullptr);
        MemSystemConfig mc;
        mc.cacheEnabled = true;
        DramConfig dc;
        dc.capacityWords = 1 << 16;
        dc.accessLatency = 4;
        CacheConfig cc;
        mem_.init(mc, dc, cc, &srf_);
    }
};

TEST_F(CachedMemTest, RepeatedGatherHitsInCache)
{
    std::vector<Word> table(256);
    for (size_t i = 0; i < table.size(); i++)
        table[i] = static_cast<Word>(i);
    mem_.dram().fill(0, table);
    SlotId slot = openStriped(64, 0);

    std::vector<uint32_t> idx(64);
    for (size_t i = 0; i < idx.size(); i++)
        idx[i] = static_cast<uint32_t>((i * 13) % 256);

    MemOp op;
    op.kind = MemOpKind::Gather;
    op.memBase = 0;
    op.srfSlot = slot;
    op.indices = idx;
    op.cached = true;
    mem_.submit(op);
    runCycles(400);
    uint64_t traffic1 = mem_.dram().wordsTransferred();

    // Same gather again: lines are resident, so almost no new DRAM
    // traffic.
    mem_.submit(op);
    runCycles(400);
    uint64_t traffic2 = mem_.dram().wordsTransferred() - traffic1;
    EXPECT_GT(traffic1, 60u);
    EXPECT_LT(traffic2, traffic1 / 4);
    EXPECT_GT(mem_.cache().hits(), 50u);
}

TEST_F(CachedMemTest, UncachedOpsBypassCache)
{
    std::vector<Word> data(128, 3);
    mem_.dram().fill(0, data);
    SlotId slot = openStriped(128, 0);
    MemOp op;
    op.kind = MemOpKind::Load;
    op.memBase = 0;
    op.srfSlot = slot;
    op.cached = false;
    mem_.submit(op);
    runCycles(300);
    EXPECT_EQ(mem_.cache().hits() + mem_.cache().misses(), 0u);
}

} // namespace
} // namespace isrf
