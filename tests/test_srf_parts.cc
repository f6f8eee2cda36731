/**
 * @file
 * Direct unit tests of the SRF building blocks: sequential stream
 * buffers, indexed data buffers, address FIFOs, sub-arrays, and the
 * round-robin arbiter.
 */
#include <gtest/gtest.h>

#include <random>

#include "srf/address_fifo.h"
#include "srf/arbiter.h"
#include "srf/stream_buffer.h"
#include "srf/sub_array.h"

namespace isrf {
namespace {

TEST(SeqBuffer, FifoOrderAndCapacity)
{
    SeqBuffer b(4);
    EXPECT_TRUE(b.empty());
    EXPECT_EQ(b.freeSpace(), 4u);
    b.push(1);
    b.push(2);
    b.push(3);
    b.push(4);
    EXPECT_TRUE(b.full());
    EXPECT_FALSE(b.canPush());
    EXPECT_EQ(b.pop(), 1u);
    EXPECT_EQ(b.pop(), 2u);
    EXPECT_EQ(b.size(), 2u);
}

TEST(SeqBuffer, RefillAndDrainBlocks)
{
    SeqBuffer b(8);
    Word block[4] = {10, 11, 12, 13};
    EXPECT_TRUE(b.canRefill(4));
    b.refill(block, 4);
    b.refill(block, 4);
    EXPECT_FALSE(b.canRefill(4));
    Word out[4];
    EXPECT_TRUE(b.canDrain(4));
    EXPECT_EQ(b.drain(out, 4), 4u);
    EXPECT_EQ(out[0], 10u);
    EXPECT_EQ(out[3], 13u);
    // Partial drain of the remainder.
    b.pop();
    EXPECT_EQ(b.drainPartial(out, 4), 3u);
    EXPECT_EQ(out[0], 11u);
    EXPECT_TRUE(b.empty());
}

TEST(IdxDataBuffer, OutOfOrderDeliveryInOrderPop)
{
    IdxDataBuffer b(4);
    b.registerRequest(0, 1);
    b.registerRequest(1, 1);
    // Second request's data arrives first.
    b.deliver(1, 0, 222, 5);
    EXPECT_FALSE(b.headReady(10)) << "head (seqNo 0) not delivered";
    b.deliver(0, 0, 111, 8);
    EXPECT_FALSE(b.headReady(7)) << "ready cycle not reached";
    EXPECT_TRUE(b.headReady(8));
    Word out[4];
    EXPECT_EQ(b.popHead(out), 1u);
    EXPECT_EQ(out[0], 111u);
    EXPECT_TRUE(b.headReady(8));
    b.popHead(out);
    EXPECT_EQ(out[0], 222u);
    EXPECT_TRUE(b.empty());
}

TEST(IdxDataBuffer, MultiWordRecordNeedsAllWords)
{
    IdxDataBuffer b(4);
    b.registerRequest(7, 3);
    b.deliver(7, 0, 1, 2);
    b.deliver(7, 2, 3, 4);
    EXPECT_FALSE(b.headReady(10)) << "one word still missing";
    b.deliver(7, 1, 2, 6);
    EXPECT_TRUE(b.headReady(6));
    Word out[4];
    EXPECT_EQ(b.popHead(out), 3u);
    EXPECT_EQ(out[0], 1u);
    EXPECT_EQ(out[1], 2u);
    EXPECT_EQ(out[2], 3u);
}

TEST(AddressFifo, HeadCounterExpandsRecords)
{
    AddressFifo f(4, 3);  // 3-word records
    EXPECT_TRUE(f.push(5, 0, 0));
    EXPECT_EQ(f.headWordIndex(), 15u);
    f.advanceHead();
    EXPECT_EQ(f.headWordIndex(), 16u);
    f.advanceHead();
    EXPECT_EQ(f.headWordIndex(), 17u);
    f.advanceHead();
    EXPECT_TRUE(f.empty()) << "record fully issued";
}

TEST(AddressFifo, CapacityAndWriteData)
{
    AddressFifo f(2, 1);
    Word data[1] = {0xbeef};
    EXPECT_TRUE(f.push(0, 0, 0, data, 1));
    EXPECT_TRUE(f.push(1, 1, 0));
    EXPECT_TRUE(f.full());
    EXPECT_FALSE(f.push(2, 2, 0));
    EXPECT_TRUE(f.head().isWrite);
    EXPECT_EQ(f.head().writeData[0], 0xbeefu);
    f.advanceHead();
    EXPECT_FALSE(f.head().isWrite);
}

TEST(SubArray, OnePortPerCycle)
{
    SubArray sa;
    sa.newCycle();
    EXPECT_TRUE(sa.claimIndexed());
    EXPECT_FALSE(sa.claimIndexed()) << "port busy";
    EXPECT_FALSE(sa.claimSequential());
    EXPECT_EQ(sa.conflicts(), 2u);
    sa.newCycle();
    EXPECT_TRUE(sa.claimSequential());
    EXPECT_EQ(sa.indexedAccesses(), 1u);
    EXPECT_EQ(sa.sequentialAccesses(), 1u);
}

TEST(RoundRobinArbiter, RotatesFairly)
{
    RoundRobinArbiter arb(3);
    const uint64_t all = 0b111;
    EXPECT_EQ(arb.arbitrate(all), 0);
    EXPECT_EQ(arb.arbitrate(all), 1);
    EXPECT_EQ(arb.arbitrate(all), 2);
    EXPECT_EQ(arb.arbitrate(all), 0);
}

TEST(RoundRobinArbiter, SkipsNonClaimants)
{
    RoundRobinArbiter arb(4);
    uint64_t claims = 0b0100;
    EXPECT_EQ(arb.arbitrate(claims), 2);
    claims = 0b1001;
    EXPECT_EQ(arb.arbitrate(claims), 3) << "priority after grantee";
    EXPECT_EQ(arb.arbitrate(claims), 0);
}

TEST(RoundRobinArbiter, NobodyClaims)
{
    RoundRobinArbiter arb(2);
    EXPECT_EQ(arb.arbitrate(uint64_t{0}), -1);
    EXPECT_EQ(arb.idleCycles(), 1u);
    EXPECT_EQ(arb.grants(), 0u);
}

TEST(RoundRobinArbiter, LongTermFairness)
{
    RoundRobinArbiter arb(4);
    const uint64_t all = 0b1111;
    std::vector<int> granted(4, 0);
    for (int i = 0; i < 400; i++)
        granted[static_cast<size_t>(arb.arbitrate(all))]++;
    for (int g : granted)
        EXPECT_EQ(g, 100);
}

// ----------------------------------------------------------------------
// Bitmask claims API
// ----------------------------------------------------------------------

/**
 * Reference model of the pre-bitmask arbiter: linear scan from the
 * priority pointer over a claims vector. The production rotate+ctz
 * implementation must be grant-for-grant identical to this.
 */
class ReferenceRrArbiter
{
  public:
    explicit ReferenceRrArbiter(uint32_t n) : n_(n) {}

    int
    arbitrate(const std::vector<uint8_t> &claims)
    {
        for (uint32_t k = 0; k < n_; k++) {
            uint32_t id = (next_ + k) % n_;
            if (claims[id]) {
                next_ = (id + 1) % n_;
                grants_++;
                return static_cast<int>(id);
            }
        }
        idleCycles_++;
        return -1;
    }

    uint64_t grants_ = 0;
    uint64_t idleCycles_ = 0;

  private:
    uint32_t n_;
    uint32_t next_ = 0;
};

TEST(RoundRobinArbiter, MaskGrantsMatchReferenceScan)
{
    // Randomized claim patterns, including long idle stretches and
    // single-claimant bursts: grants, idle counts, and the priority
    // rotation must match the linear-scan reference at every step.
    for (uint32_t n : {1u, 2u, 7u, 25u, 64u}) {
        RoundRobinArbiter arb(n);
        ReferenceRrArbiter ref(n);
        std::mt19937 rng(1234 + n);
        for (int step = 0; step < 2000; step++) {
            std::vector<uint8_t> claims(n, 0);
            uint64_t mask = 0;
            // Mix densities: mostly-idle, sparse, and dense cycles.
            int density = static_cast<int>(rng() % 4);
            for (uint32_t i = 0; i < n; i++) {
                bool claim = density == 0 ? false
                    : density == 1 ? (rng() % 8) == 0
                    : density == 2 ? (rng() % 2) == 0
                    : true;
                if (claim) {
                    claims[i] = 1;
                    mask |= uint64_t{1} << i;
                }
            }
            ASSERT_EQ(arb.arbitrate(mask), ref.arbitrate(claims))
                << "n=" << n << " step=" << step;
        }
        EXPECT_EQ(arb.grants(), ref.grants_);
        EXPECT_EQ(arb.idleCycles(), ref.idleCycles_);
    }
}

TEST(RoundRobinArbiter, IdleCycleFreezesPriority)
{
    RoundRobinArbiter arb(4);
    EXPECT_EQ(arb.arbitrate(uint64_t{0b1111}), 0);
    EXPECT_EQ(arb.arbitrate(uint64_t{0}), -1);
    EXPECT_EQ(arb.arbitrate(uint64_t{0}), -1);
    // Pointer still at 1 after the idle cycles.
    EXPECT_EQ(arb.arbitrate(uint64_t{0b1111}), 1);
    EXPECT_EQ(arb.idleCycles(), 2u);
}

TEST(RoundRobinArbiterDeathTest, ClaimBitBeyondWidthPanics)
{
    RoundRobinArbiter arb(4);
    EXPECT_DEATH(arb.arbitrate(uint64_t{1} << 4),
                 "claim bit beyond 4 claimants");
}

TEST(RoundRobinArbiterDeathTest, TooManyClaimantsPanics)
{
    EXPECT_DEATH(RoundRobinArbiter arb(65),
                 "65 claimants exceed the 64-bit claim mask");
}

} // namespace
} // namespace isrf
