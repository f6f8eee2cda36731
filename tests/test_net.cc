/**
 * @file
 * Tests for the inter-cluster crossbar and the SRF index network.
 */
#include <gtest/gtest.h>

#include "net/crossbar.h"

namespace isrf {
namespace {

TEST(Crossbar, PortLimitsEnforced)
{
    Crossbar x;
    x.init(4, 1, 1);
    x.newCycle();
    EXPECT_TRUE(x.tryTransfer(0, 1));
    EXPECT_FALSE(x.tryTransfer(0, 2)) << "source 0 exhausted";
    EXPECT_FALSE(x.tryTransfer(2, 1)) << "destination 1 exhausted";
    EXPECT_TRUE(x.tryTransfer(2, 3));
}

TEST(Crossbar, NewCycleResetsBudgets)
{
    Crossbar x;
    x.init(2, 1, 1);
    x.newCycle();
    EXPECT_TRUE(x.tryTransfer(0, 0));
    EXPECT_FALSE(x.tryTransfer(0, 0));
    x.newCycle();
    EXPECT_TRUE(x.tryTransfer(0, 0));
}

TEST(Crossbar, WiderLimits)
{
    Crossbar x;
    x.init(4, 2, 3);
    x.newCycle();
    EXPECT_TRUE(x.tryTransfer(0, 1));
    EXPECT_TRUE(x.tryTransfer(0, 1));
    EXPECT_FALSE(x.tryTransfer(0, 1)) << "src limit 2";
    EXPECT_TRUE(x.tryTransfer(1, 1));
    EXPECT_FALSE(x.tryTransfer(2, 1)) << "dst limit 3";
}

TEST(Crossbar, ClaimSourceBlocksTransfers)
{
    // Statically scheduled comm holds the injection port; cross-lane
    // returns from that source must wait (§4.5 priority).
    Crossbar x;
    x.init(4, 1, 1);
    x.newCycle();
    EXPECT_TRUE(x.claimSource(2));
    EXPECT_FALSE(x.tryTransfer(2, 0));
    EXPECT_TRUE(x.tryTransfer(1, 0));
}

TEST(Crossbar, CanTransferDoesNotConsume)
{
    Crossbar x;
    x.init(2, 1, 1);
    x.newCycle();
    EXPECT_TRUE(x.canTransfer(0, 1));
    EXPECT_TRUE(x.canTransfer(0, 1));
    EXPECT_TRUE(x.tryTransfer(0, 1));
    EXPECT_FALSE(x.canTransfer(0, 1));
}

TEST(Crossbar, OutOfRangePanics)
{
    Crossbar x;
    x.init(2, 1, 1);
    x.newCycle();
    EXPECT_DEATH(x.tryTransfer(5, 0), "out of range");
    EXPECT_DEATH(x.claimSource(9), "out of range");
}

TEST(Crossbar, ZeroPortsFatal)
{
    Crossbar x;
    EXPECT_DEATH(x.init(0, 1, 1), "positive");
}

// The SRF's index network is a Crossbar built the way Srf::init builds
// it: one injection per cluster per cycle, `ports` ejection ports per
// bank.

TEST(IndexNetwork, OneInjectionPerClusterPerCycle)
{
    Crossbar net;
    net.init(8, 1, 1);
    net.newCycle();
    EXPECT_TRUE(net.tryTransfer(0, 3));
    EXPECT_FALSE(net.tryTransfer(0, 4)) << "cluster 0 already injected";
    EXPECT_TRUE(net.tryTransfer(1, 4));
}

TEST(IndexNetwork, BankPortsLimitEjection)
{
    Crossbar net;
    net.init(8, 1, 2);
    net.newCycle();
    EXPECT_TRUE(net.tryTransfer(0, 5));
    EXPECT_TRUE(net.tryTransfer(1, 5));
    EXPECT_FALSE(net.tryTransfer(2, 5)) << "bank 5 has 2 ports";
}

class IndexNetworkPorts : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(IndexNetworkPorts, AllLanesToOneBankServesExactlyPorts)
{
    uint32_t ports = GetParam();
    Crossbar net;
    net.init(8, 1, ports);
    net.newCycle();
    uint32_t granted = 0;
    for (uint32_t l = 0; l < 8; l++)
        if (net.tryTransfer(l, 0))
            granted++;
    EXPECT_EQ(granted, std::min(ports, 8u));
}

INSTANTIATE_TEST_SUITE_P(Ports, IndexNetworkPorts,
                         ::testing::Values(1, 2, 4, 8));

} // namespace
} // namespace isrf
