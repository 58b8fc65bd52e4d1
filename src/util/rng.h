/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in the simulator (workload synthesis, arrival
 * processes, service-time draws) flows through these generators so that a
 * (seed, stream) pair fully determines a run. This is what makes the paper's
 * "same sampling points across all colocations" methodology (Section V-C)
 * reproducible here: each sample index derives a fixed seed, and every
 * colocation replays it.
 */

#ifndef STRETCH_UTIL_RNG_H
#define STRETCH_UTIL_RNG_H

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace stretch
{

/**
 * SplitMix64: used for seeding and cheap hashing of (seed, stream) pairs.
 */
class SplitMix64
{
  public:
    constexpr explicit SplitMix64(std::uint64_t seed) : state(seed) {}

    /** Next 64-bit value. */
    constexpr std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

  private:
    std::uint64_t state;
};

/** Stateless 64-bit mix of two values; used to derive per-stream seeds.
 *  Prefer `util::deriveSeed` (util/seed_stream.h) for multi-level stream
 *  paths — it right-folds over this mix, so the two-argument forms agree. */
constexpr std::uint64_t
mixSeed(std::uint64_t a, std::uint64_t b)
{
    SplitMix64 sm(a ^ (b * 0x9e3779b97f4a7c15ull) ^ 0x2545f4914f6cdd1dull);
    return sm.next();
}

/**
 * xoshiro256** — fast, high-quality generator for simulation use.
 */
class Rng
{
  public:
    /** Construct from a seed; state expanded via SplitMix64. */
    explicit Rng(std::uint64_t seed = 0x5eedull)
    {
        SplitMix64 sm(seed);
        for (auto &word : s)
            word = sm.next();
    }

    /** Construct a named sub-stream, decorrelated from other streams. */
    Rng(std::uint64_t seed, std::uint64_t stream)
        : Rng(mixSeed(seed, stream))
    {
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
        const std::uint64_t t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). Returns 0 when bound == 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        if (bound == 0)
            return 0;
        // Lemire's multiply-shift rejection-free-enough reduction.
        unsigned __int128 m =
            static_cast<unsigned __int128>(next()) * bound;
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    between(std::int64_t lo, std::int64_t hi)
    {
        return lo + static_cast<std::int64_t>(
            below(static_cast<std::uint64_t>(hi - lo + 1)));
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability p of returning true. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /** Exponentially distributed value with the given mean. */
    double
    exponential(double mean)
    {
        return exponentialOf(uniform(), mean);
    }

    /** The exponential(mean) value that uniform draw @p u maps to. */
    static double
    exponentialOf(double u, double mean)
    {
        // Guard the log against u == 0.
        if (u <= 0.0)
            u = 0x1.0p-53;
        return -mean * std::log(u);
    }

    /** Standard normal via Box-Muller (uses two uniforms per call). */
    double
    gaussian()
    {
        double u1 = uniform();
        if (u1 <= 0.0)
            u1 = 0x1.0p-53;
        double u2 = uniform();
        return std::sqrt(-2.0 * std::log(u1)) *
               std::cos(2.0 * 3.14159265358979323846 * u2);
    }

    /**
     * Lognormal draw parameterised by the mean and sigma of the underlying
     * normal (i.e. exp(N(mu, sigma))).
     */
    double
    lognormal(double mu, double sigma)
    {
        return std::exp(mu + sigma * gaussian());
    }

    /**
     * Fill @p out with @p count exponential(mean) draws: exactly the
     * values @p count sequential exponential() calls would produce (each
     * draw consumes one uniform, so prefetching a block never perturbs
     * the stream). Callers that own a single-purpose stream use it to
     * hoist the per-draw call overhead out of hot loops — mirroring
     * ArrivalProcess::fill.
     */
    void
    fillExponential(double mean, double *out, std::size_t count)
    {
        for (std::size_t i = 0; i < count; ++i)
            out[i] = exponential(mean);
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s[4];
};

/**
 * Zipfian sampler over [0, n) with skew parameter theta (0 = uniform).
 *
 * Used for request popularity (Web Search / Web Serving clients send
 * Zipf-distributed requests per Section V-B) and for workload footprint
 * hot/cold skew. Implementation follows the classic Gray et al. bounded
 * rejection-inversion-free approach with precomputed zeta values.
 */
class ZipfSampler
{
  public:
    ZipfSampler(std::uint64_t n, double theta)
        : n(n), theta(theta), alpha(1.0 / (1.0 - theta)),
          zetan(zeta(n, theta)),
          eta((1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
              (1.0 - zeta(2, theta) / zetan))
    {
    }

    /** Draw an item index in [0, n); index 0 is the most popular. */
    std::uint64_t
    sample(Rng &rng) const
    {
        double u = rng.uniform();
        double uz = u * zetan;
        if (uz < 1.0)
            return 0;
        if (uz < 1.0 + std::pow(0.5, theta))
            return 1;
        auto idx = static_cast<std::uint64_t>(
            static_cast<double>(n) *
            std::pow(eta * u - eta + 1.0, alpha));
        return idx >= n ? n - 1 : idx;
    }

    /** Number of items. */
    std::uint64_t itemCount() const { return n; }

  private:
    static double
    zeta(std::uint64_t n, double theta)
    {
        // Direct sum for small n, Euler-Maclaurin style approximation above.
        if (n <= 4096) {
            double sum = 0.0;
            for (std::uint64_t i = 1; i <= n; ++i)
                sum += 1.0 / std::pow(static_cast<double>(i), theta);
            return sum;
        }
        double sum = zeta(4096, theta);
        double a = 4096.0, b = static_cast<double>(n);
        // Integral approximation of the tail.
        sum += (std::pow(b, 1.0 - theta) - std::pow(a, 1.0 - theta)) /
               (1.0 - theta);
        return sum;
    }

    std::uint64_t n;
    double theta;
    double alpha;
    double zetan;
    double eta;
};

} // namespace stretch

#endif // STRETCH_UTIL_RNG_H
