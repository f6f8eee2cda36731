/**
 * @file
 * Tests for indexed SRF access: in-lane reads/writes, latency, in-order
 * delivery, sub-array conflicts, ISRF1 vs ISRF4 bandwidth, records,
 * cross-lane access through the index network and data crossbar, and
 * the `SRF ` section's restore of the indexed path's queues and masks.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "net/crossbar.h"
#include "sim/trace.h"
#include "srf/srf.h"
#include "test_helpers.h"

namespace isrf {
namespace {

class SrfIdxTest : public ::testing::Test
{
  protected:
    void
    initSrf(SrfMode mode, Tracer *tracer = nullptr)
    {
        geom_ = SrfGeometry{};
        net_.init(geom_.lanes, 1, 1);
        srf_.init(geom_, mode, &net_, tracer);
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

TEST_F(SrfIdxTest, RemoteRequestsBeatInLaneHeadOnTheSameSubArray)
{
    // A bank serves its remote (cross-lane) requests before its own
    // lane's in-lane FIFO heads (DESIGN.md §15). Lanes 1-4 read words
    // 0-3 of a striped table, which all live in bank 0's sub-array 0;
    // lane 0 reads its own table at lane address 32, sub-array 0 too.
    // While remote requests keep arriving, lane 0's head stays blocked.
    initSrf(SrfMode::Indexed4);
    SlotConfig cfg;
    cfg.dir = StreamDir::In;
    cfg.indexed = true;
    cfg.crossLane = true;
    cfg.layout = StreamLayout::Striped;
    cfg.base = 0;
    cfg.lengthWords = 256;
    SlotId cross = srf_.openSlot(cfg);
    SlotId own = openTable(16, 32);
    ASSERT_EQ(geom_.subArrayOf(0), geom_.subArrayOf(32));

    constexpr uint32_t kRemote = 4;
    srf_.beginCycle(now_);
    for (uint32_t l = 1; l <= kRemote; l++)
        ASSERT_TRUE(srf_.idxIssueRead(l, cross, l - 1, now_));
    ASSERT_TRUE(srf_.idxIssueRead(0, own, 0, now_));
    srf_.endCycle(now_);
    now_++;
    for (int i = 0; i < 40 && srf_.idxInLaneWords() == 0; i++)
        cycle();
    ASSERT_EQ(srf_.idxInLaneWords(), 1u);
    EXPECT_EQ(srf_.idxCrossWords(), kRemote)
        << "the in-lane head was served before a remote word";
    EXPECT_GE(srf_.subArrayConflicts(), kRemote)
        << "the in-lane head must have lost a conflict to each remote word";
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
    // Every port grant leaves a seq_grant or idx_grant instant on the
    // srf channel.
    Tracer trc;
    trc.enableChannels("srf");
    initSrf(SrfMode::Indexed4, &trc);
    SlotId tbl = openTable(64, 0);

    SlotConfig scfg;
    scfg.dir = StreamDir::In;
    scfg.layout = StreamLayout::Striped;
    scfg.base = 64;
    scfg.lengthWords = 2048;
    SlotId seq = srf_.openSlot(scfg);

    // Keep both sides demanding for 40 cycles.
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
    ASSERT_EQ(trc.dropped(), 0u);
    uint64_t seqGrants = 0, idxGrants = 0;
    for (const TraceEvent &e : trc.lastEvents(trc.size())) {
        seqGrants += std::strcmp(e.name, "seq_grant") == 0;
        idxGrants += std::strcmp(e.name, "idx_grant") == 0;
    }
    EXPECT_LE(seqGrants + idxGrants, 40u);
    // Both sides moved words through the port.
    EXPECT_GT(srf_.seqWordsAccessed(), 0u);
    EXPECT_GT(srf_.idxInLaneWords(), 0u);
    // Round-robin between one sequential claimant and the indexed
    // bundle: roughly half the cycles each.
    EXPECT_GE(seqGrants, 15u);
    EXPECT_GE(idxGrants, 15u);
}

// ----------------------------------------------------------------------
// Restore of the indexed path: queues, rotation and derived work masks
// ----------------------------------------------------------------------

/** An Srf with its own data network, driven by a deterministic mixed
 *  indexed load: in-lane reads, cross-lane reads that pile onto two
 *  banks, and interleaved reads and writes on a read-write slot. From
 *  cycle kIssueEnd on it only drains. */
struct MixedIdxRig
{
    static constexpr Cycle kIssueEnd = 150;

    SrfGeometry geom;
    Crossbar net;
    Srf srf;
    SlotId inLane = kNoSlot, cross = kNoSlot, rw = kNoSlot;

    MixedIdxRig()
    {
        geom.laneWords = 1024;  // small sections to compare every cycle
        net.init(geom.lanes, 1, 1);
        srf.init(geom, SrfMode::Indexed4, &net);
        SlotConfig t;
        t.dir = StreamDir::In;
        t.indexed = true;
        t.layout = StreamLayout::PerLane;
        t.lengthWords = 64;
        t.recordWords = 2;
        inLane = srf.openSlot(t);
        SlotConfig x;
        x.dir = StreamDir::In;
        x.indexed = true;
        x.crossLane = true;
        x.base = 128;
        x.lengthWords = 1024;
        cross = srf.openSlot(x);
        SlotConfig w = t;
        w.base = 512;
        w.recordWords = 1;
        w.readWrite = true;
        rw = srf.openSlot(w);
        srf.configureSlotBinding(rw, StreamDir::In, true, false, true);
        for (uint32_t l = 0; l < geom.lanes; l++)
            for (uint32_t a = 0; a < 64; a++) {
                srf.writeWord(l, a, l * 1000 + a);
                srf.writeWord(l, 512 + a, l * 1000 + 500 + a);
            }
    }

    /** One cycle of the load; decisions depend only on (now, lane). */
    void
    cycle(Cycle now)
    {
        net.newCycle();
        srf.beginCycle(now);
        Word out[4];
        for (uint32_t l = 0; l < geom.lanes; l++) {
            const uint32_t h = static_cast<uint32_t>(now * 7 + l * 13);
            for (SlotId id : {inLane, cross, rw})
                if (h % 3 != 0)
                    srf.idxDataTryPop(l, id, now, out);
            if (now >= kIssueEnd)
                continue;
            // Word indices 0..7 live in banks 0 and 1: every lane
            // crowds the same two banks' remote queues.
            srf.idxIssueRead(l, cross, h % 8, now);
            // Lanes 0 and 1 issue only cross-lane reads, so their banks
            // serve remote requests alone.
            if (l < 2)
                continue;
            srf.idxIssueRead(l, inLane, h % 32, now);
            if (h % 5 == 0) {
                Word d[1] = {h};
                if (srf.idxCanIssue(l, rw))
                    srf.idxIssueWrite(l, rw, h % 64, d, now);
            } else {
                srf.idxIssueRead(l, rw, (h / 5) % 64, now);
            }
        }
        srf.endCycle(now);
    }
};

TEST(SrfIdxRestore, LoadedSrfContinuesLikeTheOriginal)
{
    // Save points through the load and its drain: a fresh Srf loaded
    // from each must rebuild its work masks and then keep the
    // original's section, cycle for cycle, as queue after queue runs
    // dry.
    bool allBusy = false, returnNoRemote = false, remoteNoFifo = false;
    for (Cycle save = 40; save < 240; save += 5) {
        MixedIdxRig a;
        Cycle now = 0;
        for (; now < save; now++)
            a.cycle(now);
        const Srf::IdxInFlight f = a.srf.idxInFlight();
        allBusy = allBusy || (f.inLaneFifoLanes && f.crossFifoLanes &&
            f.remoteBanks && f.returnBanks && f.unretiredWrites);
        returnNoRemote = returnNoRemote ||
            (f.returnBanks & ~f.remoteBanks) != 0;
        remoteNoFifo = remoteNoFifo ||
            (f.remoteBanks & ~f.inLaneFifoLanes) != 0;

        MixedIdxRig b;
        const std::string saved = test::srfSection(a.srf);
        SnapshotReader rd(saved);
        SnapshotIo in(rd);
        b.srf.snapshot(in);
        ASSERT_TRUE(in.ok() && rd.atEnd()) << "save at " << save;
        ASSERT_EQ(test::srfSection(b.srf), saved) << "save at " << save;
        for (Cycle end = save + 60; now < end; now++) {
            a.cycle(now);
            b.cycle(now);
            ASSERT_TRUE(test::srfSection(a.srf) == test::srfSection(b.srf))
                << "save at " << save << ": sections diverge at cycle "
                << now;
        }
    }
    // The save points covered every kind of indexed work at once, a
    // bank whose only work is its return queue, and a bank whose remote
    // requests are its lane's only indexed work.
    EXPECT_TRUE(allBusy);
    EXPECT_TRUE(returnNoRemote);
    EXPECT_TRUE(remoteNoFifo);
}

TEST(SrfIdxReadWrite, InterleavedReadsAndWritesDeliverInIssueOrder)
{
    SrfGeometry geom;
    Srf srf;
    srf.init(geom, SrfMode::Indexed4, nullptr);
    SlotConfig cfg;
    cfg.dir = StreamDir::In;
    cfg.indexed = true;
    cfg.readWrite = true;
    cfg.layout = StreamLayout::PerLane;
    cfg.lengthWords = 16;
    SlotId id = srf.openSlot(cfg);
    srf.configureSlotBinding(id, StreamDir::In, true, false, true);
    std::vector<Word> model(16);
    for (uint32_t a = 0; a < 16; a++)
        srf.writeWord(1, a, model[a] = 100 + a);

    // Every third op is a write, so the reads' seqNos skip: a delivery
    // misses its offset from the head and takes the ordered search.
    // Reads see every older write (one FIFO, serviced in order).
    std::vector<Word> want;
    std::vector<Word> got;
    const uint32_t ops = 300;
    uint32_t k = 0;
    Word out[4];
    for (Cycle now = 0; got.size() < want.size() || k < ops; now++) {
        ASSERT_LT(now, 10000u);
        srf.beginCycle(now);
        while (srf.idxDataTryPop(1, id, now, out))
            got.push_back(out[0]);
        for (int i = 0; i < 2 && k < ops; i++) {
            const uint32_t rec = (k * 7) % 16;
            if (k % 3 == 1) {
                Word d[1] = {1000 + k};
                if (!srf.idxCanIssue(1, id) ||
                        !srf.idxIssueWrite(1, id, rec, d, now))
                    break;
                model[rec] = d[0];
            } else {
                if (!srf.idxIssueRead(1, id, rec, now))
                    break;
                want.push_back(model[rec]);
            }
            k++;
        }
        srf.endCycle(now);
    }
    EXPECT_EQ(got, want);
    EXPECT_TRUE(srf.idxWritesDrained(id));
    for (uint32_t a = 0; a < 16; a++)
        EXPECT_EQ(srf.readWord(1, a), model[a]) << "record " << a;
}

/**
 * `sec` with `extra` more copies of the first element of the sequence
 * whose encoding starts with `needle` (a capacity prefix, the u64
 * length at `lenAt`, then the first element's leading bytes).
 */
std::string
growSeq(const std::string &sec, const std::string &needle, size_t lenAt,
        size_t elemBytes, uint64_t extra)
{
    size_t pos = sec.find(needle);
    EXPECT_NE(pos, std::string::npos);
    EXPECT_EQ(sec.find(needle, pos + 1), std::string::npos);
    std::string out = sec;
    uint64_t n;
    std::memcpy(&n, out.data() + pos + lenAt, 8);
    n += extra;
    std::memcpy(&out[pos + lenAt], &n, 8);
    const size_t first = pos + lenAt + 8;
    const std::string elem = out.substr(first, elemBytes);
    for (uint64_t i = 0; i < extra; i++)
        out.insert(first, elem);
    return out;
}

TEST(SrfIdxLoad, QueueLongerThanItsCapacityIsRejected)
{
    SrfGeometry geom;
    auto fresh = [&](Srf &srf) { srf.init(geom, SrfMode::Indexed4, nullptr); };
    Srf a;
    fresh(a);
    SlotConfig cfg;
    cfg.dir = StreamDir::In;
    cfg.indexed = true;
    cfg.layout = StreamLayout::PerLane;
    cfg.lengthWords = 64;
    SlotId id = a.openSlot(cfg);
    const uint32_t rec0 = 0x5EC7AB1Eu;  // marks lane 0's FIFO
    ASSERT_TRUE(a.idxIssueRead(0, id, rec0, 0));
    ASSERT_TRUE(a.idxIssueRead(0, id, 1, 0));
    ASSERT_TRUE(a.idxIssueRead(0, id, 2, 0));
    const std::string sec = test::srfSection(a);

    auto loads = [&](const std::string &bytes) {
        Srf b;
        fresh(b);
        SnapshotReader rd(bytes);
        SnapshotIo in(rd);
        b.snapshot(in);
        return in.ok() && rd.atEnd();
    };
    ASSERT_TRUE(loads(sec));

    // Address FIFO: capacity 8, record size 1, 3 entries.
    SnapshotWriter f;
    f.u32(geom.addrFifoSize);
    f.u32(1);
    f.u64(3);
    f.u32(rec0);
    EXPECT_TRUE(loads(growSeq(sec, f.data(), 8, 41, 5)))
        << "a full FIFO loads";
    EXPECT_FALSE(loads(growSeq(sec, f.data(), 8, 41, 6)))
        << "one entry past the FIFO's capacity";

    // Indexed data buffer: capacity 8 + 8 records, 3 pending, the first
    // with seqNo 0 and one word.
    const uint32_t dataCap = geom.addrFifoSize + geom.streamBufWords;
    SnapshotWriter d;
    d.u32(dataCap);
    d.u64(3);
    d.u64(0);
    d.u32(1);
    EXPECT_TRUE(loads(growSeq(sec, d.data(), 4, 40, dataCap - 3)))
        << "a full data buffer loads";
    EXPECT_FALSE(loads(growSeq(sec, d.data(), 4, 40, dataCap - 2)))
        << "one record past the data buffer's capacity";
}

} // namespace
} // namespace isrf
