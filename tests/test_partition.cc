/**
 * @file
 * Unit tests for the partition limit/usage registers — the paper's core
 * hardware mechanism (Section IV-B).
 */

#include <gtest/gtest.h>

#include "core/partition.h"

namespace stretch
{
namespace
{

TEST(Partition, DefaultEqualSplit)
{
    PartitionedResource rob("ROB", 192);
    EXPECT_EQ(rob.limit(0), 96u);
    EXPECT_EQ(rob.limit(1), 96u);
    EXPECT_EQ(rob.total(), 192u);
    EXPECT_EQ(rob.mode(), ShareMode::Partitioned);
}

TEST(Partition, StaticLimitEnforced)
{
    PartitionedResource r("ROB", 8);
    r.configure(ShareMode::Partitioned, 3, 5);
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(r.canAllocate(0));
        r.allocate(0);
    }
    EXPECT_FALSE(r.canAllocate(0));
    // Thread 1 is unaffected.
    EXPECT_TRUE(r.canAllocate(1));
}

TEST(Partition, AsymmetricStretchSkew)
{
    PartitionedResource r("ROB", 192);
    r.configure(ShareMode::Partitioned, 56, 136);
    EXPECT_EQ(r.limit(0), 56u);
    EXPECT_EQ(r.limit(1), 136u);
    for (int i = 0; i < 136; ++i)
        r.allocate(1);
    EXPECT_FALSE(r.canAllocate(1));
    EXPECT_TRUE(r.canAllocate(0));
}

TEST(Partition, PrivateFullPerThread)
{
    // "Private" structures in the contention study: both threads may hold
    // the full capacity simultaneously.
    PartitionedResource r("ROB", 16);
    r.configure(ShareMode::Partitioned, 16, 16);
    for (int i = 0; i < 16; ++i) {
        r.allocate(0);
        r.allocate(1);
    }
    EXPECT_FALSE(r.canAllocate(0));
    EXPECT_FALSE(r.canAllocate(1));
    EXPECT_EQ(r.usage(0) + r.usage(1), 32u);
}

TEST(Partition, DynamicJointCap)
{
    PartitionedResource r("ROB", 8);
    r.configure(ShareMode::Dynamic, 8, 8);
    for (int i = 0; i < 6; ++i)
        r.allocate(0);
    r.allocate(1);
    r.allocate(1);
    // Pool exhausted: neither thread can allocate.
    EXPECT_FALSE(r.canAllocate(0));
    EXPECT_FALSE(r.canAllocate(1));
    r.release(0);
    EXPECT_TRUE(r.canAllocate(1));
}

TEST(Partition, DynamicWithPerThreadCap)
{
    PartitionedResource r("ROB", 8);
    r.configure(ShareMode::Dynamic, 2, 8);
    r.allocate(0);
    r.allocate(0);
    EXPECT_FALSE(r.canAllocate(0)); // own cap hit before joint cap
    EXPECT_TRUE(r.canAllocate(1));
}

TEST(Partition, UsageTracksAllocateRelease)
{
    PartitionedResource r("LSQ", 64);
    r.allocate(0);
    r.allocate(0);
    EXPECT_EQ(r.usage(0), 2u);
    r.release(0);
    EXPECT_EQ(r.usage(0), 1u);
}

TEST(PartitionDeathTest, OverAllocatePanics)
{
    PartitionedResource r("ROB", 4);
    r.configure(ShareMode::Partitioned, 2, 2);
    r.allocate(0);
    r.allocate(0);
    EXPECT_DEATH(r.allocate(0), "allocate past limit");
}

TEST(PartitionDeathTest, UnderflowPanics)
{
    PartitionedResource r("ROB", 4);
    EXPECT_DEATH(r.release(0), "release below zero");
}

TEST(PartitionDeathTest, BadLimitsPanic)
{
    PartitionedResource r("ROB", 8);
    EXPECT_DEATH(r.configure(ShareMode::Partitioned, 0, 4), "starves");
    EXPECT_DEATH(r.configure(ShareMode::Partitioned, 9, 4), "exceeds");
}

} // namespace
} // namespace stretch
