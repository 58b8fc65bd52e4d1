/**
 * @file
 * Unit tests for the SMT core model: pipeline throughput and latency
 * behaviour, partition enforcement, fetch policies, and SMT interaction,
 * using hand-built micro-op streams.
 */

#include <memory>

#include <gtest/gtest.h>

#include "core/smt_core.h"
#include "workload/generator.h"
#include "workload/profiles.h"

namespace stretch
{
namespace
{

/** A minimal machine wrapper for core tests. */
struct Machine
{
    explicit Machine(CoreParams params = {},
                     HierarchyConfig hcfg = fullMachineHierarchy())
        : mem(hcfg), bp(), core(params, mem, bp)
    {
    }

    static HierarchyConfig
    fullMachineHierarchy()
    {
        HierarchyConfig cfg;
        cfg.llcWayPartition = {8, 8};
        cfg.mshrQuota = {5, 5};
        return cfg;
    }

    MemoryHierarchy mem;
    BranchUnit bp;
    SmtCore core;
};

/** Profile emitting pure independent ALU ops (no memory, no branches). */
SynthProfile
aluOnlyProfile(unsigned dep_distance = 32)
{
    SynthProfile p;
    p.name = "alu_only";
    p.loadFrac = 0.0;
    p.storeFrac = 0.0;
    p.branchFrac = 0.0;
    p.fpFrac = 0.0;
    p.mulFrac = 0.0;
    p.depDistance = dep_distance;
    p.longChainFrac = 0.0;
    p.codeBytes = 4096;
    return p;
}

/** Profile that is one long serial dependence chain. */
SynthProfile
serialChainProfile()
{
    SynthProfile p = aluOnlyProfile(1);
    p.name = "serial_chain";
    p.longChainFrac = 1.0;
    return p;
}

/** Pointer-chase-only loads to memory (single chain). */
SynthProfile
chaseProfile()
{
    SynthProfile p;
    p.name = "pure_chase";
    p.loadFrac = 0.10;
    p.storeFrac = 0.0;
    p.branchFrac = 0.0;
    p.hotFrac = 0.0;
    p.warmFrac = 0.0;
    p.chaseFrac = 1.0;
    p.chaseChains = 1;
    p.coldBytes = 256ull << 20;
    p.depDistance = 32;
    p.codeBytes = 4096;
    return p;
}

TEST(Core, IndependentAluApproachesIntAluWidth)
{
    Machine m;
    TraceGenerator gen(aluOnlyProfile(), 1, 0);
    m.core.attachThread(0, &gen);
    m.core.configureRob(ShareMode::Partitioned, 192, 192);
    m.core.runUntilCommitted(0, 4000); // warm the I-side
    m.core.clearStats();
    m.core.runUntilCommitted(0, 20000);
    // Four integer ALUs bound throughput; expect to get close.
    EXPECT_GT(m.core.uipc(0), 3.2);
    EXPECT_LE(m.core.uipc(0), 4.05);
}

TEST(Core, SerialChainBoundByLatency)
{
    Machine m;
    TraceGenerator gen(serialChainProfile(), 1, 0);
    m.core.attachThread(0, &gen);
    m.core.configureRob(ShareMode::Partitioned, 192, 192);
    m.core.runUntilCommitted(0, 3000); // warm the I-side
    m.core.clearStats();
    m.core.runUntilCommitted(0, 5000);
    // Every op depends on the previous one: IPC ~= 1 (1-cycle ALU).
    EXPECT_GT(m.core.uipc(0), 0.85);
    EXPECT_LT(m.core.uipc(0), 1.15);
}

TEST(Core, ChaseLoadsSerialiseAtMemoryLatency)
{
    Machine m;
    TraceGenerator gen(chaseProfile(), 1, 0);
    m.core.attachThread(0, &gen);
    m.core.configureRob(ShareMode::Partitioned, 192, 192);
    m.core.runUntilCommitted(0, 4000);
    // One chase load every 10 ops, serialised at ~216+ cycles per miss:
    // IPC is bounded by 10/216 ~ 0.046, with slack for L1/LLC reuse hits.
    EXPECT_LT(m.core.uipc(0), 0.12);
    // MLP must be ~1: almost never 2+ outstanding.
    const ThreadStats &st = m.core.stats(0);
    std::uint64_t ge2 = 0, total = 0;
    for (std::size_t i = 0; i < st.mlpCycles.size(); ++i) {
        total += st.mlpCycles[i];
        if (i >= 2)
            ge2 += st.mlpCycles[i];
    }
    EXPECT_LT(double(ge2) / double(total), 0.02);
}

TEST(Core, RobLimitCapsOccupancy)
{
    Machine m;
    TraceGenerator gen(chaseProfile(), 1, 0);
    m.core.attachThread(0, &gen);
    m.core.configureRob(ShareMode::Partitioned, 48, 144);
    for (int i = 0; i < 5000; ++i) {
        m.core.cycle();
        ASSERT_LE(m.core.robOccupancy(0), 48u);
    }
    // The window actually fills up to its limit behind the misses.
    EXPECT_EQ(m.core.rob().limit(0), 48u);
    const ThreadStats &st = m.core.stats(0);
    EXPECT_GT(st.robOccupancySum / m.core.windowCycles(), 30u);
}

TEST(Core, LsqLimitStallsDispatch)
{
    CoreParams params;
    Machine m(params);
    SynthProfile p = chaseProfile();
    p.loadFrac = 0.6; // memory-heavy: LSQ is the binding constraint
    p.chaseFrac = 0.0;
    p.hotFrac = 1.0;
    p.hotBytes = 4096;
    TraceGenerator gen(p, 1, 0);
    m.core.attachThread(0, &gen);
    m.core.configureRob(ShareMode::Partitioned, 192, 192);
    m.core.configureLsq(ShareMode::Partitioned, 8, 56);
    m.core.runUntilCommitted(0, 4000);
    EXPECT_GT(m.core.stats(0).dispatchStallLsq, 100u);
}

TEST(Core, BiggerRobHelpsIndependentMisses)
{
    SynthProfile p;
    p.name = "mlp_stream";
    p.loadFrac = 0.25;
    p.hotFrac = 0.9;
    p.warmFrac = 0.0;
    p.chaseFrac = 0.0;
    p.streamFrac = 0.0;
    p.branchFrac = 0.0;
    p.storeFrac = 0.0;
    p.coldBytes = 512ull << 20;
    p.depDistance = 32;
    p.codeBytes = 4096;

    auto uipcWith = [&](unsigned rob) {
        Machine m;
        TraceGenerator gen(p, 1, 0);
        m.core.attachThread(0, &gen);
        m.core.configureRob(ShareMode::Partitioned, rob, rob);
        m.core.configureLsq(ShareMode::Partitioned, 64, 64);
        m.core.runUntilCommitted(0, 8000);
        return m.core.uipc(0);
    };
    double small = uipcWith(48);
    double large = uipcWith(192);
    EXPECT_GT(large, small * 1.2);
}

TEST(Core, BranchMispredictsCostCycles)
{
    SynthProfile easy = aluOnlyProfile();
    easy.branchFrac = 0.2;
    easy.hardBranchFrac = 0.0;
    easy.loopPeriod = 1000000; // essentially perfectly biased
    easy.jumpFarFrac = 0.0;
    easy.callFrac = 0.0;
    SynthProfile hard = easy;
    hard.hardBranchFrac = 1.0; // every branch is a coin toss

    auto uipcWith = [&](const SynthProfile &p) {
        Machine m;
        TraceGenerator gen(p, 3, 0);
        m.core.attachThread(0, &gen);
        m.core.configureRob(ShareMode::Partitioned, 192, 192);
        m.core.runUntilCommitted(0, 10000);
        return m.core.uipc(0);
    };
    double predictable = uipcWith(easy);
    double unpredictable = uipcWith(hard);
    EXPECT_GT(predictable, unpredictable * 2.0);
}

TEST(Core, MispredictStatsCounted)
{
    SynthProfile p = aluOnlyProfile();
    p.branchFrac = 0.2;
    p.hardBranchFrac = 1.0;
    Machine m;
    TraceGenerator gen(p, 3, 0);
    m.core.attachThread(0, &gen);
    m.core.runUntilCommitted(0, 5000);
    const ThreadStats &st = m.core.stats(0);
    EXPECT_GT(st.branches, 800u);
    // Coin-toss branches mispredict roughly half the time.
    double rate = double(st.branchMispredicts) / double(st.branches);
    EXPECT_GT(rate, 0.3);
    EXPECT_LT(rate, 0.7);
    EXPECT_GT(st.fetchStallBranchResolve, 1000u);
}

TEST(Core, SmtIdenticalThreadsShareFairly)
{
    Machine m;
    TraceGenerator g0(aluOnlyProfile(), 7, 0);
    TraceGenerator g1(aluOnlyProfile(), 7, 1);
    m.core.attachThread(0, &g0);
    m.core.attachThread(1, &g1);
    m.core.runUntilTotalCommitted(8000); // warm the I-side
    m.core.clearStats();
    m.core.runUntilTotalCommitted(40000);
    double u0 = m.core.uipc(0), u1 = m.core.uipc(1);
    EXPECT_NEAR(u0 / u1, 1.0, 0.1);
    // Combined throughput still bounded by the 4 integer ALUs.
    EXPECT_LE(u0 + u1, 4.1);
    EXPECT_GT(u0 + u1, 3.0);
}

TEST(Core, DynamicSharingJointCap)
{
    Machine m;
    TraceGenerator g0(chaseProfile(), 1, 0);
    TraceGenerator g1(chaseProfile(), 2, 1);
    m.core.attachThread(0, &g0);
    m.core.attachThread(1, &g1);
    m.core.configureRob(ShareMode::Dynamic, 192, 192);
    m.core.configureLsq(ShareMode::Dynamic, 64, 64);
    for (int i = 0; i < 4000; ++i) {
        m.core.cycle();
        ASSERT_LE(m.core.robOccupancy(0) + m.core.robOccupancy(1), 192u);
    }
}

TEST(Core, ThrottlePolicyStarvesThrottledThread)
{
    CoreParams params;
    params.fetchPolicy = FetchPolicy::Throttle;
    params.throttleRatio = 16;
    params.throttledThread = 0;
    Machine m(params);
    TraceGenerator g0(aluOnlyProfile(), 7, 0);
    TraceGenerator g1(aluOnlyProfile(), 8, 1);
    m.core.attachThread(0, &g0);
    m.core.attachThread(1, &g1);
    m.core.configureRob(ShareMode::Dynamic, 192, 192);
    m.core.configureLsq(ShareMode::Dynamic, 64, 64);
    m.core.runUntilTotalCommitted(40000);
    // The throttled thread gets roughly 1/(1+16) of the fetch slots.
    EXPECT_LT(m.core.uipc(0), m.core.uipc(1) * 0.25);
}

TEST(Core, RoundRobinFetchAlternates)
{
    CoreParams params;
    params.fetchPolicy = FetchPolicy::RoundRobin;
    Machine m(params);
    TraceGenerator g0(aluOnlyProfile(), 7, 0);
    TraceGenerator g1(aluOnlyProfile(), 8, 1);
    m.core.attachThread(0, &g0);
    m.core.attachThread(1, &g1);
    m.core.runUntilTotalCommitted(20000);
    EXPECT_NEAR(m.core.uipc(0) / m.core.uipc(1), 1.0, 0.15);
}

TEST(Core, WindowStatsReset)
{
    Machine m;
    TraceGenerator gen(aluOnlyProfile(), 9, 0);
    m.core.attachThread(0, &gen);
    m.core.run(500);
    EXPECT_GT(m.core.stats(0).committedOps, 0u);
    m.core.clearStats();
    EXPECT_EQ(m.core.stats(0).committedOps, 0u);
    EXPECT_EQ(m.core.windowCycles(), 0u);
    m.core.run(100);
    EXPECT_EQ(m.core.windowCycles(), 100u);
}

TEST(Core, DetachedThreadIdles)
{
    Machine m;
    TraceGenerator gen(aluOnlyProfile(), 9, 0);
    m.core.attachThread(0, &gen);
    m.core.run(1000);
    EXPECT_EQ(m.core.stats(1).committedOps, 0u);
    EXPECT_EQ(m.core.robOccupancy(1), 0u);
}

TEST(Core, MulAndFpLatenciesRespected)
{
    SynthProfile p = aluOnlyProfile(1);
    p.name = "fp_chain";
    p.longChainFrac = 1.0;
    p.fpFrac = 1.0; // every op is an FP op in one serial chain
    Machine m;
    TraceGenerator gen(p, 11, 0);
    m.core.attachThread(0, &gen);
    m.core.configureRob(ShareMode::Partitioned, 192, 192);
    m.core.runUntilCommitted(0, 2000); // warm the I-side
    m.core.clearStats();
    m.core.runUntilCommitted(0, 2000);
    // 4-cycle FP latency on a serial chain: IPC ~= 0.25.
    EXPECT_NEAR(m.core.uipc(0), 0.25, 0.05);
}

void
expectSameStats(const ThreadStats &a, const ThreadStats &b)
{
    EXPECT_EQ(a.committedOps, b.committedOps);
    EXPECT_EQ(a.fetchedOps, b.fetchedOps);
    EXPECT_EQ(a.branches, b.branches);
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts);
    EXPECT_EQ(a.btbTargetMisses, b.btbTargetMisses);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.dispatchStallRob, b.dispatchStallRob);
    EXPECT_EQ(a.dispatchStallLsq, b.dispatchStallLsq);
    EXPECT_EQ(a.robOccupancySum, b.robOccupancySum);
    EXPECT_EQ(a.mlpCycles, b.mlpCycles);
    EXPECT_EQ(a.fetchStallICache, b.fetchStallICache);
    EXPECT_EQ(a.fetchStallBranchResolve, b.fetchStallBranchResolve);
    EXPECT_EQ(a.fetchStallBtbRedirect, b.fetchStallBtbRedirect);
}

void
expectSameMachine(const Machine &a, const Machine &b)
{
    EXPECT_EQ(a.core.now(), b.core.now());
    for (ThreadId t = 0; t < numSmtThreads; ++t) {
        SCOPED_TRACE(testing::Message() << "thread " << unsigned(t));
        expectSameStats(a.core.stats(t), b.core.stats(t));
        EXPECT_EQ(a.core.robOccupancy(t), b.core.robOccupancy(t));
        EXPECT_EQ(a.core.lsq().usage(t), b.core.lsq().usage(t));
        EXPECT_EQ(a.mem.l1dHits(t), b.mem.l1dHits(t));
        EXPECT_EQ(a.mem.l1dMisses(t), b.mem.l1dMisses(t));
        EXPECT_EQ(a.mem.l1iMisses(t), b.mem.l1iMisses(t));
        EXPECT_EQ(a.mem.llcMisses(t), b.mem.llcMisses(t));
        EXPECT_EQ(a.mem.mshrFullStalls(t), b.mem.mshrFullStalls(t));
        EXPECT_EQ(a.mem.outstandingDemandMisses(t),
                  b.mem.outstandingDemandMisses(t));
    }
}

/** run() and runUntilCommitted() jump over idle cycles; the result must
 *  equal stepping cycle() one at a time, under every fetch policy. */
TEST(Core, IdleSkipMatchesSteppedCycles)
{
    struct Variant
    {
        const char *name;
        FetchPolicy policy;
        ThreadId throttled;
        bool colocated;
        bool sharedL1d;
    };
    const Variant variants[] = {
        {"icount", FetchPolicy::Icount, 0, true, true},
        {"round-robin", FetchPolicy::RoundRobin, 0, true, true},
        {"throttle thread 0", FetchPolicy::Throttle, 0, true, true},
        {"throttle thread 1", FetchPolicy::Throttle, 1, true, true},
        {"private l1d", FetchPolicy::Icount, 0, true, false},
        {"isolated", FetchPolicy::Icount, 0, false, true},
    };
    for (const Variant &v : variants) {
        SCOPED_TRACE(v.name);
        CoreParams params;
        params.fetchPolicy = v.policy;
        params.throttleRatio = 4;
        params.throttledThread = v.throttled;
        HierarchyConfig hcfg = Machine::fullMachineHierarchy();
        hcfg.sharedL1d = v.sharedL1d;
        Machine stepped(params, hcfg);
        Machine skipping(params, hcfg);
        TraceGenerator s0(workloads::byName("web_search"), 1, 0);
        TraceGenerator s1(workloads::byName("mcf"), 2, 1);
        TraceGenerator k0(workloads::byName("web_search"), 1, 0);
        TraceGenerator k1(workloads::byName("mcf"), 2, 1);
        stepped.mem.prefillLlc(0, s0.steadyStateBlocks());
        skipping.mem.prefillLlc(0, k0.steadyStateBlocks());
        stepped.core.attachThread(0, &s0);
        skipping.core.attachThread(0, &k0);
        if (v.colocated) {
            stepped.mem.prefillLlc(1, s1.steadyStateBlocks());
            skipping.mem.prefillLlc(1, k1.steadyStateBlocks());
            stepped.core.attachThread(1, &s1);
            skipping.core.attachThread(1, &k1);
        }

        for (int i = 0; i < 20000; ++i)
            stepped.core.cycle();
        skipping.core.run(20000);
        expectSameMachine(stepped, skipping);

        stepped.core.clearStats();
        skipping.core.clearStats();
        std::uint64_t target = 3000;
        std::uint64_t cycles = 0;
        while (stepped.core.stats(0).committedOps < target) {
            stepped.core.cycle();
            ++cycles;
        }
        EXPECT_EQ(skipping.core.runUntilCommitted(0, target), cycles);
        expectSameMachine(stepped, skipping);

        // A cycle cap ends the run at the same cycle.
        EXPECT_EQ(skipping.core.runUntilCommitted(0, 1000000, 777), 777u);
        for (int i = 0; i < 777; ++i)
            stepped.core.cycle();
        expectSameMachine(stepped, skipping);
    }
}

TEST(Core, IdleSkipStillReportsDeadlock)
{
    // Nothing attached: every cycle is idle and nothing is ever due.
    Machine m;
    EXPECT_DEATH(m.core.runUntilCommitted(0, 1), "pipeline deadlock");
    m.core.run(250000);
    EXPECT_EQ(m.core.now(), 250000u);
}

} // namespace
} // namespace stretch
