/**
 * @file
 * Unit tests for the cache tag array: hit/miss behaviour, LRU
 * replacement, way-partitioning, dirty tracking, and bank mapping.
 */

#include <gtest/gtest.h>

#include "cache/cache.h"

namespace stretch
{
namespace
{

CacheConfig
tinyCache(unsigned size_kb = 1, unsigned assoc = 2, unsigned banks = 2)
{
    return CacheConfig{size_kb * 1024ull, assoc, banks, {}};
}

TEST(Cache, MissThenHit)
{
    Cache c(tinyCache());
    bool dirty = false;
    EXPECT_FALSE(c.access(0, 0x1000));
    c.insert(0, 0x1000, false, dirty);
    EXPECT_TRUE(c.access(0, 0x1000));
    EXPECT_EQ(c.hits(0), 1u);
    EXPECT_EQ(c.misses(0), 1u);
}

TEST(Cache, SameBlockDifferentOffsets)
{
    Cache c(tinyCache());
    bool dirty = false;
    c.insert(0, 0x1000, false, dirty);
    EXPECT_TRUE(c.access(0, 0x1004));
    EXPECT_TRUE(c.access(0, 0x103f));
    EXPECT_FALSE(c.access(0, 0x1040)); // next block
}

TEST(Cache, LruEviction)
{
    // 1KB, 2-way, 64B lines -> 8 sets. Blocks mapping to set 0 are 512B
    // apart.
    Cache c(tinyCache());
    bool dirty = false;
    Addr a = 0, b = 8 * 64, d = 16 * 64;
    c.insert(0, a, false, dirty);
    c.insert(0, b, false, dirty);
    EXPECT_TRUE(c.access(0, a)); // a is now MRU
    c.insert(0, d, false, dirty); // evicts b (LRU)
    EXPECT_TRUE(c.probe(a));
    EXPECT_FALSE(c.probe(b));
    EXPECT_TRUE(c.probe(d));
}

TEST(Cache, ProbeDoesNotPerturbLru)
{
    Cache c(tinyCache());
    bool dirty = false;
    Addr a = 0, b = 8 * 64, d = 16 * 64;
    c.insert(0, a, false, dirty);
    c.insert(0, b, false, dirty);
    // probe(a) must NOT refresh a; inserting d then evicts a.
    EXPECT_TRUE(c.probe(a));
    c.insert(0, d, false, dirty);
    EXPECT_FALSE(c.probe(a));
    EXPECT_TRUE(c.probe(b));
}

TEST(Cache, DirtyEvictionReported)
{
    Cache c(tinyCache());
    bool dirty = false;
    Addr a = 0, b = 8 * 64, d = 16 * 64;
    c.insert(0, a, true, dirty); // dirty install (store fill)
    c.insert(0, b, false, dirty);
    EXPECT_TRUE(c.access(0, b));
    bool evicted_dirty = false;
    bool evicted = c.insert(0, d, false, evicted_dirty);
    EXPECT_TRUE(evicted);
    EXPECT_TRUE(evicted_dirty); // a was dirty and LRU
}

TEST(Cache, SetDirtyOnHit)
{
    Cache c(tinyCache());
    bool dirty = false;
    Addr a = 0, b = 8 * 64, d = 16 * 64;
    c.insert(0, a, false, dirty);
    c.setDirty(a);
    c.insert(0, b, false, dirty);
    EXPECT_TRUE(c.access(0, b));
    bool evicted_dirty = false;
    c.insert(0, d, false, evicted_dirty);
    EXPECT_TRUE(evicted_dirty);
}

TEST(Cache, ReinsertRefreshes)
{
    Cache c(tinyCache());
    bool dirty = false;
    c.insert(0, 0x40, false, dirty);
    bool evicted = c.insert(0, 0x40, true, dirty);
    EXPECT_FALSE(evicted); // already present: no eviction
    // And the dirty bit is merged in.
    Addr conflict1 = 0x40 + 8 * 64, conflict2 = 0x40 + 16 * 64;
    c.insert(0, conflict1, false, dirty);
    EXPECT_TRUE(c.access(0, conflict1));
    bool evicted_dirty = false;
    c.insert(0, conflict2, false, evicted_dirty);
    EXPECT_TRUE(evicted_dirty);
}

TEST(Cache, WayPartitionIsolation)
{
    // 2-way with one way per thread: thread 0 insertions can never evict
    // thread 1 blocks.
    CacheConfig cfg = tinyCache();
    cfg.wayPartition = {1, 1};
    Cache c(cfg);
    bool dirty = false;
    Addr t1_block = 8 * 64;
    c.insert(1, t1_block, false, dirty);
    for (int i = 0; i < 10; ++i)
        c.insert(0, (8 * 64) * i, false, dirty); // same set, thread 0
    EXPECT_TRUE(c.probe(t1_block));
}

TEST(Cache, PartitionCapacityLimit)
{
    CacheConfig cfg = tinyCache(1, 4);
    cfg.wayPartition = {2, 2};
    Cache c(cfg);
    bool dirty = false;
    // Thread 0 may hold at most 2 blocks per set.
    Addr set_stride = (1024 / 4 / 64) * 64; // 4 sets -> 256B stride
    c.insert(0, 0 * set_stride * 4, false, dirty);
    c.insert(0, 1 * set_stride * 4, false, dirty);
    c.insert(0, 2 * set_stride * 4, false, dirty);
    unsigned resident = 0;
    for (int i = 0; i < 3; ++i) {
        if (c.probe(i * set_stride * 4))
            ++resident;
    }
    EXPECT_EQ(resident, 2u);
}

TEST(Cache, BankMapping)
{
    Cache c(tinyCache());
    EXPECT_EQ(c.bank(0x0), 0u);
    EXPECT_EQ(c.bank(0x40), 1u);
    EXPECT_EQ(c.bank(0x80), 0u);
    EXPECT_EQ(c.bank(0x7f), 1u);
}

TEST(Cache, PerThreadStats)
{
    Cache c(tinyCache());
    bool dirty = false;
    c.insert(0, 0x40, false, dirty);
    c.access(0, 0x40);
    c.access(1, 0x40);
    c.access(1, 0x999999);
    EXPECT_EQ(c.hits(0), 1u);
    EXPECT_EQ(c.hits(1), 1u);
    EXPECT_EQ(c.misses(1), 1u);
    c.clearStats();
    EXPECT_EQ(c.hits(1), 0u);
    EXPECT_TRUE(c.probe(0x40)); // state preserved
}

TEST(Cache, Reset)
{
    Cache c(tinyCache());
    bool dirty = false;
    c.insert(0, 0x40, false, dirty);
    c.reset();
    EXPECT_FALSE(c.probe(0x40));
}

TEST(Cache, BlockZeroIsNotAnEmptyWay)
{
    // An empty way holds a sentinel tag, not block 0.
    Cache c(tinyCache());
    bool dirty = false;
    EXPECT_FALSE(c.probe(0x0));
    EXPECT_FALSE(c.access(0, 0x0));
    EXPECT_FALSE(c.insert(0, 0x0, false, dirty)); // no valid victim
    EXPECT_TRUE(c.access(0, 0x0));
    EXPECT_TRUE(c.access(0, 0x3f));
    EXPECT_FALSE(c.access(0, 0x40));
    EXPECT_EQ(c.hits(0), 2u);
    EXPECT_EQ(c.misses(0), 2u);
}

TEST(Cache, GeometryAccessors)
{
    Cache c(CacheConfig{64 * 1024, 8, 2, {}});
    EXPECT_EQ(c.numSets(), 128u);
    EXPECT_EQ(c.config().assoc, 8u);
}

} // namespace
} // namespace stretch
