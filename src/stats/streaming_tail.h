/**
 * @file
 * Streaming log-scale latency histogram and the exact/streaming recorder
 * the fleet dispatcher records into.
 *
 * Dispatching used to push every completion latency into per-run,
 * per-class, and per-bucket `std::vector<double>`s and fully sort each at
 * the end of the run — O(n log n) and one allocation stream per vector.
 * StreamingTail replaces that with an HDR-style fixed-bin log histogram:
 * O(1) record with no log()/pow() on the hot path (the bin index is read
 * straight out of the IEEE-754 bit pattern), percentile queries by bin
 * walk, and cheap merging across cores, classes, and timeline buckets.
 *
 * Accuracy trade-off: each power-of-two range is split into
 * 2^kSubBucketBits = 128 bins, so any quantile is reported as its bin's
 * geometric midpoint — a guaranteed relative error below 2^-8 (~0.4%),
 * and strictly within one bin width of the exact order statistic.
 * Summaries that must be bit-identical to the sort-based numbers opt
 * into TailRecorder's exact mode (`sim::DispatchSpec::exactTailQuantiles`
 * for a dispatch), which keeps the raw samples and sorts once at query
 * time.
 */

#ifndef STRETCH_STATS_STREAMING_TAIL_H
#define STRETCH_STATS_STREAMING_TAIL_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "stats/summary.h"

namespace stretch::stats
{

/**
 * Fixed-bin log-scale histogram with O(1) record and mergeable bins.
 *
 * Bins are addressed by (biased exponent, top mantissa bits) of the
 * recorded double, so consecutive bins have a constant relative width of
 * 2^-kSubBucketBits. Storage is a dense counter window that grows lazily
 * to span only the observed index range (latencies in one run cover a few
 * decades, not the full double range).
 *
 * Thread-compatible: one writer per instance; merge partials afterwards.
 */
class StreamingTail
{
  public:
    /// Bins per power-of-two range = 2^kSubBucketBits.
    static constexpr int kSubBucketBits = 7;

    /** Record one non-negative observation. O(1), allocation-free once
     *  the observed range is stable. */
    void
    record(double v)
    {
        ++n;
        total += v;
        if (n == 1 || v < minSeen)
            minSeen = v;
        if (n == 1 || v > maxSeen)
            maxSeen = v;
        bump(binIndex(v));
    }

    /** Number of observations. */
    std::size_t count() const { return n; }
    /** Arithmetic mean (exact; 0 when empty). */
    double mean() const { return n ? total / static_cast<double>(n) : 0.0; }
    /** Smallest observation (exact; 0 when empty). */
    double min() const { return n ? minSeen : 0.0; }
    /** Largest observation (exact; 0 when empty). */
    double max() const { return n ? maxSeen : 0.0; }

    /**
     * Quantile estimate by ceil-rank bin walk: the value returned is the
     * geometric midpoint of the bin holding the ceil(pct/100 * count)-th
     * smallest sample, clamped to the exact observed [min, max].
     *
     * @param pct percentile in [0, 100].
     */
    double percentile(double pct) const;

    /** Fold @p other into this histogram (bin-wise add; exact count,
     *  sum, min, and max combine losslessly). */
    void merge(const StreamingTail &other);

    /** Five-number + tails summary with histogram-resolution quantiles
     *  (count/mean/min/max are exact). */
    ViolinSummary summarize() const;

    /**
     * Global bin index of @p v: the top bits of its IEEE-754
     * representation, i.e. (biasedExponent << kSubBucketBits) | top
     * mantissa bits — monotone in v for positive finite doubles.
     * Non-positive and non-finite inputs clamp to the ends of the range.
     */
    static std::uint32_t
    binIndex(double v)
    {
        // Smallest positive normal; zeros/subnormals/negatives all land
        // in the first bin (latencies are non-negative by contract).
        if (!(v >= 2.2250738585072014e-308))
            return 0;
        if (v > 1.7976931348623157e308) // +inf
            return kMaxIndex;
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        return static_cast<std::uint32_t>(bits >> (52 - kSubBucketBits));
    }

    /** Lower edge of global bin @p index (inverse of binIndex). */
    static double binLowerEdge(std::uint32_t index);

  private:
    static constexpr std::uint32_t kMaxIndex =
        (2046u << kSubBucketBits) | ((1u << kSubBucketBits) - 1u);

    void bump(std::uint32_t index);

    std::vector<std::uint64_t> bins; ///< counters for [base, base+size)
    std::uint32_t base = 0;          ///< global index of bins[0]
    std::size_t n = 0;
    double total = 0.0;
    double minSeen = 0.0;
    double maxSeen = 0.0;
};

/**
 * Latency recorder with a streaming default and an exactness escape
 * hatch.
 *
 * Streaming mode records into a StreamingTail (O(1), bounded memory).
 * Exact mode keeps every sample and reproduces the historical
 * sort-then-type-7-interpolate quantiles bit-for-bit — golden tests and
 * figure benches that compare summaries across runs use it.
 */
class TailRecorder
{
  public:
    explicit TailRecorder(bool exact = false) : exactMode(exact) {}

    /** Pre-size the exact-sample buffer (no-op in streaming mode). */
    void
    reserve(std::size_t expected)
    {
        if (exactMode)
            samples.reserve(expected);
    }

    /** Record one observation. */
    void
    record(double v)
    {
        if (exactMode)
            samples.push_back(v);
        else
            tail.record(v);
    }

    /** Number of observations. */
    std::size_t
    count() const
    {
        return exactMode ? samples.size() : tail.count();
    }

    /** Whether this recorder keeps raw samples. */
    bool exact() const { return exactMode; }

    /** Fold @p other into this recorder (modes must match). */
    void merge(const TailRecorder &other);

    /** Fold this recorder's observations into histogram @p out,
     *  regardless of mode (exact samples are re-recorded one by one).
     *  Lets the metric registry absorb either recorder flavour. */
    void mergeInto(StreamingTail &out) const;

    /** Percentile: exact type-7 in exact mode, bin-resolution otherwise. */
    double percentile(double pct) const;

    /** Mean (exact in both modes). */
    double mean() const;

    /** Violin summary (see percentile() for quantile semantics). */
    ViolinSummary summarize() const;

  private:
    bool exactMode;
    StreamingTail tail;
    mutable std::vector<double> samples; ///< sorted lazily at query time
    mutable bool sorted = false;

    void ensureSorted() const;
};

} // namespace stretch::stats

#endif // STRETCH_STATS_STREAMING_TAIL_H
