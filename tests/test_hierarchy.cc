/**
 * @file
 * Unit tests for the memory hierarchy: latencies, MSHR allocation,
 * merging and quotas, bank conflicts, prefetch reservation, LLC
 * partitioning and pre-fill, MLP accounting, and the MshrFull repeat
 * path.
 */

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "cache/memory_hierarchy.h"
#include "util/rng.h"

namespace stretch
{
namespace
{

HierarchyConfig
fullMachine()
{
    HierarchyConfig cfg;
    cfg.llcWayPartition = {16, 0};
    cfg.mshrQuota = {10, 10};
    cfg.prefetchEnable = false; // most tests want deterministic MSHR use
    return cfg;
}

TEST(Hierarchy, L1HitLatency)
{
    MemoryHierarchy mem(fullMachine());
    mem.tick(0);
    // First access misses; after the fill it hits with hit latency.
    DataAccessResult r = mem.dataAccess(0, 0x1, 0x5000, false, 0);
    EXPECT_EQ(r.kind, DataAccessKind::Miss);
    Cycle fill = r.readyCycle;
    mem.tick(fill);
    DataAccessResult r2 = mem.dataAccess(0, 0x1, 0x5000, false, fill);
    EXPECT_EQ(r2.kind, DataAccessKind::Hit);
    EXPECT_EQ(r2.readyCycle, fill + mem.config().l1dHitLatency);
}

TEST(Hierarchy, LlcHitVsMemoryLatency)
{
    HierarchyConfig cfg = fullMachine();
    MemoryHierarchy mem(cfg);
    // Pre-fill one block into the LLC: its miss costs llcLatency; a block
    // not in the LLC costs llcLatency + memLatency.
    mem.prefillLlc(0, {0x8000});
    mem.tick(0);
    DataAccessResult warm = mem.dataAccess(0, 0x1, 0x8000, false, 0);
    DataAccessResult cold = mem.dataAccess(0, 0x2, 0x20040, false, 0);
    EXPECT_EQ(warm.readyCycle, cfg.llcLatency + cfg.l1dHitLatency);
    EXPECT_EQ(cold.readyCycle,
              cfg.llcLatency + cfg.memLatency + cfg.l1dHitLatency);
}

TEST(Hierarchy, MshrMergeSameBlock)
{
    MemoryHierarchy mem(fullMachine());
    mem.tick(0);
    DataAccessResult a = mem.dataAccess(0, 0x1, 0x40000, false, 0);
    mem.tick(1);
    DataAccessResult b = mem.dataAccess(0, 0x2, 0x40020, false, 1);
    EXPECT_EQ(a.kind, DataAccessKind::Miss);
    EXPECT_EQ(b.kind, DataAccessKind::Miss);
    // The merged access completes with the original fill.
    EXPECT_EQ(b.readyCycle, a.readyCycle);
    EXPECT_EQ(mem.outstandingDemandMisses(0), 1u);
}

TEST(Hierarchy, MshrQuotaExhaustion)
{
    HierarchyConfig cfg = fullMachine();
    cfg.mshrQuota = {2, 2};
    MemoryHierarchy mem(cfg);
    mem.tick(0);
    EXPECT_EQ(mem.dataAccess(0, 0x1, 0x100000, false, 0).kind,
              DataAccessKind::Miss);
    mem.tick(1);
    EXPECT_EQ(mem.dataAccess(0, 0x2, 0x200000, false, 1).kind,
              DataAccessKind::Miss);
    mem.tick(2);
    EXPECT_EQ(mem.dataAccess(0, 0x3, 0x300000, false, 2).kind,
              DataAccessKind::MshrFull);
    EXPECT_EQ(mem.mshrFullStalls(0), 1u);
}

TEST(Hierarchy, MshrQuotaPerThread)
{
    HierarchyConfig cfg = fullMachine();
    cfg.llcWayPartition = {8, 8};
    cfg.mshrQuota = {1, 1};
    MemoryHierarchy mem(cfg);
    mem.tick(0);
    EXPECT_EQ(mem.dataAccess(0, 0x1, 0x100000, false, 0).kind,
              DataAccessKind::Miss);
    // Thread 1 has its own quota even with a shared L1-D.
    mem.tick(1);
    EXPECT_EQ(mem.dataAccess(1, 0x2, 0x10200000, false, 1).kind,
              DataAccessKind::Miss);
    mem.tick(2);
    EXPECT_EQ(mem.dataAccess(0, 0x3, 0x300000, false, 2).kind,
              DataAccessKind::MshrFull);
}

TEST(Hierarchy, FillInstallsIntoL1)
{
    MemoryHierarchy mem(fullMachine());
    mem.tick(0);
    DataAccessResult r = mem.dataAccess(0, 0x1, 0x40000, false, 0);
    Cycle fill = r.readyCycle;
    mem.tick(fill + 1);
    EXPECT_EQ(mem.outstandingDemandMisses(0), 0u);
    DataAccessResult r2 = mem.dataAccess(0, 0x1, 0x40000, false, fill + 1);
    EXPECT_EQ(r2.kind, DataAccessKind::Hit);
}

TEST(Hierarchy, BankConflictSameCycle)
{
    MemoryHierarchy mem(fullMachine());
    mem.prefillLlc(0, {0x1000, 0x1080});
    mem.tick(0);
    // 0x1000 and 0x1080 map to the same bank (block addrs 0x40, 0x42).
    DataAccessResult a = mem.dataAccess(0, 0x1, 0x1000, false, 0);
    DataAccessResult b = mem.dataAccess(0, 0x2, 0x1080, false, 0);
    EXPECT_NE(a.kind, DataAccessKind::BankBusy);
    EXPECT_EQ(b.kind, DataAccessKind::BankBusy);
    // Different bank in the same cycle is fine.
    DataAccessResult d = mem.dataAccess(0, 0x3, 0x1040, false, 0);
    EXPECT_NE(d.kind, DataAccessKind::BankBusy);
    // Next cycle the bank is free again.
    mem.tick(1);
    EXPECT_NE(mem.dataAccess(0, 0x2, 0x1080, false, 1).kind,
              DataAccessKind::BankBusy);
}

TEST(Hierarchy, StoresCompleteImmediately)
{
    MemoryHierarchy mem(fullMachine());
    mem.tick(0);
    DataAccessResult r = mem.dataAccess(0, 0x1, 0x40000, true, 0);
    EXPECT_EQ(r.kind, DataAccessKind::Miss);
    EXPECT_EQ(r.readyCycle, 1u); // store buffer absorbs the miss
    // A store-only miss is not a demand load for MLP purposes.
    EXPECT_EQ(mem.outstandingDemandMisses(0), 0u);
}

TEST(Hierarchy, LoadMergingIntoStoreMissCountsAsDemand)
{
    MemoryHierarchy mem(fullMachine());
    mem.tick(0);
    mem.dataAccess(0, 0x1, 0x40000, true, 0); // store allocates MSHR
    mem.tick(1);
    mem.dataAccess(0, 0x2, 0x40008, false, 1); // load merges
    EXPECT_EQ(mem.outstandingDemandMisses(0), 1u);
}

TEST(Hierarchy, MlpCountsOnlyMemoryLevelMisses)
{
    MemoryHierarchy mem(fullMachine());
    mem.prefillLlc(0, {0x9000});
    mem.tick(0);
    mem.dataAccess(0, 0x1, 0x9000, false, 0); // LLC hit: short miss
    EXPECT_EQ(mem.outstandingDemandMisses(0), 0u);
    mem.dataAccess(0, 0x2, 0x50040, false, 0); // memory-level miss
    EXPECT_EQ(mem.outstandingDemandMisses(0), 1u);
}

TEST(Hierarchy, PrefetchReservesDemandMshrs)
{
    HierarchyConfig cfg = fullMachine();
    cfg.prefetchEnable = true;
    cfg.mshrQuota = {4, 4};
    MemoryHierarchy mem(cfg);
    // Train a stride stream so prefetches fire on every access; space the
    // accesses so demand fills drain, leaving only prefetch MSHRs (capped
    // at quota-2) in flight.
    Cycle t = 0;
    for (int i = 0; i < 8; ++i) {
        mem.tick(t);
        mem.dataAccess(0, 0x77, 0x100000 + i * 64, false, t);
        t += 300;
    }
    // Two demand misses to fresh blocks must still find MSHRs.
    mem.tick(t);
    EXPECT_EQ(mem.dataAccess(0, 0x1, 0x900000, false, t).kind,
              DataAccessKind::Miss);
    EXPECT_EQ(mem.dataAccess(0, 0x2, 0xa00040, false, t).kind,
              DataAccessKind::Miss);
}

TEST(Hierarchy, PrivateL1dIsolation)
{
    HierarchyConfig cfg = fullMachine();
    cfg.sharedL1d = false;
    MemoryHierarchy mem(cfg);
    mem.tick(0);
    DataAccessResult r = mem.dataAccess(0, 0x1, 0x40000, false, 0);
    mem.tick(r.readyCycle + 1);
    // Thread 0 now hits; thread 1 misses in its own private L1-D.
    EXPECT_EQ(mem.dataAccess(0, 0x1, 0x40000, false, r.readyCycle + 1).kind,
              DataAccessKind::Hit);
    EXPECT_NE(mem.dataAccess(1, 0x1, 0x40000, false, r.readyCycle + 1).kind,
              DataAccessKind::Hit);
}

TEST(Hierarchy, SharedL1dCapacityContention)
{
    MemoryHierarchy mem(fullMachine());
    mem.tick(0);
    DataAccessResult r = mem.dataAccess(0, 0x1, 0x40000, false, 0);
    mem.tick(r.readyCycle + 1);
    // With a shared L1-D, thread 1 hits on thread 0's block.
    EXPECT_EQ(mem.dataAccess(1, 0x1, 0x40000, false, r.readyCycle + 1).kind,
              DataAccessKind::Hit);
}

TEST(Hierarchy, InstrFetchLatencies)
{
    HierarchyConfig cfg = fullMachine();
    MemoryHierarchy mem(cfg);
    mem.prefillLlc(0, {0x2000});
    EXPECT_EQ(mem.instrFetch(0, 0x2000, 100), 100u + cfg.llcLatency);
    // Now resident in the L1-I.
    EXPECT_EQ(mem.instrFetch(0, 0x2000, 200), 200u);
    // Unprefetched code pays the full memory latency.
    EXPECT_EQ(mem.instrFetch(0, 0x90000, 300),
              300u + cfg.llcLatency + cfg.memLatency);
}

TEST(Hierarchy, LlcWayPartitionIsolation)
{
    HierarchyConfig cfg = fullMachine();
    cfg.llcWayPartition = {8, 8};
    MemoryHierarchy mem(cfg);
    // Fill thread 1's partition with one block, then thrash thread 0's
    // partition within the same LLC set; thread 1's block must survive.
    Addr t1_block = 1ull << 20;
    mem.prefillLlc(1, {t1_block});
    std::vector<Addr> thrash;
    std::uint64_t set_stride = (8ull << 20) / 16 / 64 * 64; // LLC set wrap
    for (int i = 0; i < 64; ++i)
        thrash.push_back(t1_block + i * set_stride * 16);
    mem.prefillLlc(0, thrash);
    mem.tick(0);
    DataAccessResult r = mem.dataAccess(1, 0x1, t1_block, false, 0);
    EXPECT_EQ(r.readyCycle, cfg.llcLatency + cfg.l1dHitLatency);
}

TEST(Hierarchy, StatsAndClear)
{
    MemoryHierarchy mem(fullMachine());
    mem.tick(0);
    mem.dataAccess(0, 0x1, 0x40000, false, 0);
    EXPECT_EQ(mem.l1dMisses(0), 1u);
    EXPECT_EQ(mem.llcMisses(0), 1u);
    mem.clearStats();
    EXPECT_EQ(mem.l1dMisses(0), 0u);
    EXPECT_EQ(mem.llcMisses(0), 0u);
    // In-flight state survives a stats clear.
    EXPECT_EQ(mem.outstandingDemandMisses(0), 1u);
}

TEST(Hierarchy, Reset)
{
    MemoryHierarchy mem(fullMachine());
    mem.tick(0);
    mem.dataAccess(0, 0x1, 0x40000, false, 0);
    mem.reset();
    EXPECT_EQ(mem.outstandingDemandMisses(0), 0u);
    EXPECT_EQ(mem.l1dMisses(0), 0u);
}

/** A load or store retried every cycle until the hierarchy takes it. */
struct PendingAccess
{
    ThreadId tid = 0;
    Addr pc = 0;
    Addr addr = 0;
    bool store = false;
    std::uint64_t fullEpoch = 0; ///< mshrEpoch at its last MshrFull
};

/**
 * Drive one seeded access stream into two hierarchies: @p full always
 * takes dataAccess, @p fast takes repeatMshrFull whenever the epoch
 * allows it. Returns how many accesses took the repeat path.
 */
unsigned
compareRepeatWithFullPath(const HierarchyConfig &cfg, std::uint64_t seed)
{
    MemoryHierarchy full(cfg);
    MemoryHierarchy fast(cfg);
    Rng rng(seed);
    std::vector<PendingAccess> queue;
    unsigned repeats = 0;
    for (Cycle now = 0; now < 20000; ++now) {
        full.tick(now);
        fast.tick(now);
        while (queue.size() < 16 && rng.chance(0.6)) {
            PendingAccess a;
            a.tid = static_cast<ThreadId>(rng.below(2));
            a.pc = 0x400 + 4 * rng.below(24);
            a.store = rng.chance(0.2);
            // Strided pcs train the prefetcher; the rest pick a block
            // another access waits on (either thread), a small hot
            // region, a region both threads share, or cold blocks.
            Addr region = Addr(a.tid + 1) << 32;
            if (!queue.empty() && rng.chance(0.15))
                a.addr = queue[rng.below(queue.size())].addr;
            else if (a.pc < 0x420)
                a.addr = region + (now / 8) * 64 * (a.pc - 0x3fc) / 4;
            else if (rng.chance(0.3))
                a.addr = region + 64 * rng.below(64);
            else if (rng.chance(0.2))
                a.addr = (Addr(3) << 32) + 64 * rng.below(32);
            else
                a.addr = region + (Addr(1) << 24) + 64 * rng.below(1 << 16);
            queue.push_back(a);
        }
        // Start at a random point, so new accesses also claim banks
        // ahead of the repeats.
        std::rotate(queue.begin(), queue.begin() + rng.below(queue.size()),
                    queue.end());
        std::vector<PendingAccess> keep;
        for (PendingAccess &a : queue) {
            DataAccessResult want =
                full.dataAccess(a.tid, a.pc, a.addr, a.store, now);
            bool repeat = a.fullEpoch == fast.mshrEpoch(a.tid);
            DataAccessResult got =
                repeat ? fast.repeatMshrFull(a.tid, a.addr, now)
                       : fast.dataAccess(a.tid, a.pc, a.addr, a.store, now);
            repeats += repeat;
            EXPECT_EQ(got.kind, want.kind) << "cycle " << now;
            EXPECT_EQ(got.readyCycle, want.readyCycle) << "cycle " << now;
            if (got.kind == DataAccessKind::MshrFull)
                a.fullEpoch = fast.mshrEpoch(a.tid);
            if (got.kind == DataAccessKind::MshrFull ||
                got.kind == DataAccessKind::BankBusy)
                keep.push_back(a);
        }
        queue.swap(keep);
        for (ThreadId t = 0; t < numSmtThreads; ++t) {
            EXPECT_EQ(fast.l1dHits(t), full.l1dHits(t));
            EXPECT_EQ(fast.l1dMisses(t), full.l1dMisses(t));
            EXPECT_EQ(fast.l1iMisses(t), full.l1iMisses(t));
            EXPECT_EQ(fast.llcHits(t), full.llcHits(t));
            EXPECT_EQ(fast.llcMisses(t), full.llcMisses(t));
            EXPECT_EQ(fast.mshrFullStalls(t), full.mshrFullStalls(t));
            EXPECT_EQ(fast.outstandingDemandMisses(t),
                      full.outstandingDemandMisses(t));
        }
        EXPECT_EQ(fast.prefetchesIssued(), full.prefetchesIssued());
        if (testing::Test::HasFailure())
            break;
    }
    return repeats;
}

TEST(Hierarchy, RepeatedMshrFullMatchesFullAccess)
{
    HierarchyConfig shared;
    shared.mshrQuota = {5, 4};
    EXPECT_GT(compareRepeatWithFullPath(shared, 11), 10000u);

    HierarchyConfig priv = shared;
    priv.sharedL1d = false;
    priv.mshrQuota = {10, 6};
    EXPECT_GT(compareRepeatWithFullPath(priv, 12), 10000u);
}

} // namespace
} // namespace stretch
