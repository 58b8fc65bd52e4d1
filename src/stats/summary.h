/**
 * @file
 * Sample-set summary statistics used by the benches.
 *
 * The paper reports distributions as violin plots annotated with median and
 * interquartile range (Figures 3 and 9); ViolinSummary carries exactly those
 * annotations so bench output mirrors the paper's figures.
 */

#ifndef STRETCH_STATS_SUMMARY_H
#define STRETCH_STATS_SUMMARY_H

#include <cstddef>
#include <vector>

namespace stretch::stats
{

/**
 * Streaming mean/variance accumulator (Welford's algorithm).
 */
class RunningStat
{
  public:
    /** Add one observation. */
    void
    add(double x)
    {
        ++n;
        double delta = x - meanAcc;
        meanAcc += delta / static_cast<double>(n);
        m2 += delta * (x - meanAcc);
        if (n == 1 || x < minSeen)
            minSeen = x;
        if (n == 1 || x > maxSeen)
            maxSeen = x;
    }

    /** Number of observations. */
    std::size_t count() const { return n; }
    /** Arithmetic mean (0 when empty). */
    double mean() const { return n ? meanAcc : 0.0; }
    /** Unbiased sample variance (0 for n < 2). */
    double
    variance() const
    {
        return n > 1 ? m2 / static_cast<double>(n - 1) : 0.0;
    }
    /** Sample standard deviation. */
    double stddev() const;
    /** Minimum observation (0 when empty). */
    double min() const { return n ? minSeen : 0.0; }
    /** Maximum observation (0 when empty). */
    double max() const { return n ? maxSeen : 0.0; }

  private:
    std::size_t n = 0;
    double meanAcc = 0.0;
    double m2 = 0.0;
    double minSeen = 0.0;
    double maxSeen = 0.0;
};

/**
 * Five-number summary plus mean for a sample set; matches the annotations on
 * the paper's violin plots (median + interquartile box + range).
 */
struct ViolinSummary
{
    std::size_t count = 0;
    double min = 0.0;
    double q1 = 0.0;
    double median = 0.0;
    double q3 = 0.0;
    double max = 0.0;
    double mean = 0.0;
    /// @name Tail percentiles (fleet QoS reporting: SLOs bind at the tail;
    /// mirrors queueing::LatencyResult p95/p99/p999).
    /// @{
    double p95 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;
    /// @}
};

/**
 * Exact percentile of a sample set via linear interpolation between order
 * statistics (the "linear" / type-7 rule used by numpy).
 *
 * @param values sample set; taken by value because it is reordered.
 * @param pct percentile in [0, 100].
 */
double percentile(std::vector<double> values, double pct);

/**
 * percentile() in place: selects the two order statistics it needs
 * instead of sorting a copy, and returns the identical value. Leaves
 * @p values in an unspecified order.
 */
double selectPercentile(std::vector<double> &values, double pct);

/**
 * Exact type-7 percentile of an already-sorted sample set (no copy, no
 * sort). Shared by summarize() and the exact path of stats::TailRecorder.
 */
double percentileSorted(const std::vector<double> &sorted, double pct);

/** Build a violin summary from a sample set. */
ViolinSummary summarize(const std::vector<double> &values);

/** Build a violin summary from an already-sorted sample set. */
ViolinSummary summarizeSorted(const std::vector<double> &sorted);

/** Arithmetic mean of a vector (0 when empty). */
double mean(const std::vector<double> &values);

/** Geometric mean of a vector of positive values (0 when empty). */
double geomean(const std::vector<double> &values);

} // namespace stretch::stats

#endif // STRETCH_STATS_SUMMARY_H
