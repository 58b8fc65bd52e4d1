/**
 * @file
 * Unit tests for the util substrate: deterministic RNG, Zipf sampling,
 * hierarchical seed derivation, the log-bucketed latency histogram, and
 * parallelFor.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/histogram.h"
#include "util/parallel_for.h"
#include "util/rng.h"
#include "util/seed_stream.h"
#include "util/types.h"

namespace stretch
{
namespace
{

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1), b(2);
    unsigned same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_EQ(same, 0u);
}

TEST(Rng, StreamsDecorrelated)
{
    Rng a(7, 0), b(7, 1);
    EXPECT_NE(a.next(), b.next());
}

TEST(Rng, BelowInRange)
{
    Rng rng(3);
    for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
    EXPECT_EQ(rng.below(0), 0u);
}

TEST(Rng, BetweenInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        auto v = rng.between(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformMean)
{
    Rng rng(11);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(13);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(4.0);
    EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Rng, LognormalMean)
{
    Rng rng(17);
    double sigma = 0.5;
    double mean_target = 10.0;
    double mu = std::log(mean_target) - sigma * sigma / 2;
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.lognormal(mu, sigma);
    EXPECT_NEAR(sum / n, mean_target, 0.25);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(19);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Zipf, MostPopularItemDominates)
{
    Rng rng(23);
    ZipfSampler zipf(1000, 0.9);
    std::vector<unsigned> counts(1000, 0);
    for (int i = 0; i < 50000; ++i)
        ++counts[zipf.sample(rng)];
    // Rank 0 must be the clear leader and the tail must still be touched.
    EXPECT_GT(counts[0], counts[100]);
    EXPECT_GT(counts[0], 50000 / 100);
    unsigned tail_hits = 0;
    for (std::size_t i = 500; i < 1000; ++i)
        tail_hits += counts[i];
    EXPECT_GT(tail_hits, 0u);
}

TEST(Zipf, InRange)
{
    Rng rng(29);
    ZipfSampler zipf(64, 0.5);
    for (int i = 0; i < 5000; ++i)
        EXPECT_LT(zipf.sample(rng), 64u);
}

TEST(Zipf, LargeItemCountUsesApproximateZeta)
{
    Rng rng(31);
    ZipfSampler zipf(1 << 20, 0.8);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(zipf.sample(rng), 1u << 20);
}

TEST(Histogram, CountMeanMinMax)
{
    Histogram h;
    h.record(1.0);
    h.record(2.0);
    h.record(3.0);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_NEAR(h.mean(), 2.0, 1e-9);
    EXPECT_NEAR(h.min(), 1.0, 1e-9);
    EXPECT_NEAR(h.max(), 3.0, 1e-9);
}

TEST(Histogram, PercentileAccuracy)
{
    Histogram h;
    std::vector<double> values;
    Rng rng(37);
    for (int i = 0; i < 100000; ++i) {
        double v = rng.lognormal(2.0, 0.8);
        values.push_back(v);
        h.record(v);
    }
    std::sort(values.begin(), values.end());
    for (double pct : {50.0, 90.0, 95.0, 99.0, 99.9}) {
        double exact = values[static_cast<std::size_t>(
            pct / 100.0 * (values.size() - 1))];
        double approx = h.percentile(pct);
        // Log-bucketed histogram: ~1% relative error budget.
        EXPECT_NEAR(approx / exact, 1.0, 0.02) << "pct " << pct;
    }
}

TEST(Histogram, PercentileBounds)
{
    Histogram h;
    h.record(5.0);
    h.record(50.0);
    EXPECT_NEAR(h.percentile(0.0), 5.0, 1e-9);
    EXPECT_NEAR(h.percentile(100.0), 50.0, 1e-9);
    EXPECT_LE(h.percentile(99.0), 50.0);
}

TEST(Histogram, EmptyIsZero)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentile(99.0), 0.0);
    EXPECT_EQ(h.mean(), 0.0);
}

TEST(Histogram, WeightedRecord)
{
    Histogram h;
    h.record(1.0, 99);
    h.record(100.0, 1);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_LT(h.percentile(50.0), 2.0);
    EXPECT_GT(h.percentile(99.5), 50.0);
}

TEST(Histogram, Merge)
{
    Histogram a, b;
    for (int i = 1; i <= 100; ++i)
        a.record(i);
    for (int i = 101; i <= 200; ++i)
        b.record(i);
    a.merge(b);
    EXPECT_EQ(a.count(), 200u);
    EXPECT_NEAR(a.max(), 200.0, 1e-9);
    EXPECT_NEAR(a.percentile(50.0) / 100.0, 1.0, 0.05);
}

TEST(Histogram, Reset)
{
    Histogram h;
    h.record(10.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.max(), 0.0);
}

TEST(Histogram, NegativeClamped)
{
    Histogram h;
    h.record(-5.0);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_GE(h.percentile(50.0), 0.0);
}

TEST(Types, BlockAddr)
{
    EXPECT_EQ(blockAddr(0), 0u);
    EXPECT_EQ(blockAddr(63), 0u);
    EXPECT_EQ(blockAddr(64), 1u);
    EXPECT_EQ(blockAddr(130), 2u);
}

TEST(Types, NsToCycles)
{
    // 75 ns at 2.5 GHz = 187.5 -> rounds up to 188 (Table II memory).
    EXPECT_EQ(nsToCycles(75.0), 188u);
    EXPECT_EQ(nsToCycles(0.4), 1u);
    EXPECT_EQ(nsToCycles(0.0), 0u);
}

TEST(MixSeed, Distinct)
{
    EXPECT_NE(mixSeed(1, 2), mixSeed(2, 1));
    EXPECT_NE(mixSeed(1, 2), mixSeed(1, 3));
    EXPECT_EQ(mixSeed(5, 9), mixSeed(5, 9));
}

TEST(DeriveSeed, TwoArgFormIsMixSeedCompatible)
{
    // Every historical mixSeed(seed, i) call site must keep its stream.
    EXPECT_EQ(util::deriveSeed(42, 7), mixSeed(42, 7));
    EXPECT_EQ(util::deriveSeed(0, 0), mixSeed(0, 0));
}

TEST(DeriveSeed, RightFoldPrependsHierarchyLevels)
{
    // A new outer level (cluster seed -> node stream -> node index)
    // wraps the tail without disturbing streams derived from it.
    EXPECT_EQ(util::deriveSeed(1, 2, 3), mixSeed(1, mixSeed(2, 3)));
    EXPECT_EQ(util::deriveSeed(1, 2, 3, 4),
              mixSeed(1, util::deriveSeed(2, 3, 4)));
}

TEST(DeriveSeed, DistinctPathsDecorrelate)
{
    EXPECT_NE(util::deriveSeed(1, 2, 3), util::deriveSeed(1, 3, 2));
    EXPECT_NE(util::deriveSeed(1, 2, 3), util::deriveSeed(2, 2, 3));
    // Path length matters too: (a, b) and (a, b, 0) are different
    // streams.
    EXPECT_NE(util::deriveSeed(1, 2), util::deriveSeed(1, 2, 0));
    // Usable at compile time (node streams are constexpr tags).
    static_assert(util::deriveSeed(0x4e0d, 1, 2) ==
                      mixSeed(0x4e0d, mixSeed(1, 2)),
                  "deriveSeed must fold right");
}

TEST(ParallelFor, CoversEveryIndexOnce)
{
    std::vector<std::atomic<int>> touched(64);
    for (auto &t : touched)
        t = 0;
    parallelFor(4, touched.size(), [&](std::size_t i) { ++touched[i]; });
    for (auto &t : touched)
        EXPECT_EQ(t.load(), 1);
}

TEST(ParallelFor, RethrowsFirstErrorAfterEveryIndexRan)
{
    // Serial and parallel alike: a throwing index must not stop the
    // others from running, and the call must still report the failure.
    for (unsigned threads : {1u, 4u}) {
        std::vector<std::atomic<int>> ran(200);
        for (auto &r : ran)
            r = 0;
        auto body = [&](std::size_t i) {
            ++ran[i];
            if (i % 7 == 0)
                throw std::runtime_error("index failed");
        };
        EXPECT_THROW(parallelFor(threads, ran.size(), body),
                     std::runtime_error)
            << "threads " << threads;
        for (std::size_t i = 0; i < ran.size(); ++i)
            EXPECT_EQ(ran[i].load(), 1) << "threads " << threads << " i " << i;
    }
}

TEST(ParallelFor, NestedLoopsComplete)
{
    // Production nests loops: Sweep::run runs variants in parallel and
    // each variant's runFleet runs its cores in parallel.
    std::vector<std::atomic<int>> touched(8 * 8);
    for (auto &t : touched)
        t = 0;
    parallelFor(4, 8, [&](std::size_t i) {
        parallelFor(4, 8, [&](std::size_t j) { ++touched[i * 8 + j]; });
    });
    for (auto &t : touched)
        EXPECT_EQ(t.load(), 1);
}

} // namespace
} // namespace stretch
