#include "stats/summary.h"

#include <algorithm>
#include <cmath>

#include "util/log.h"

namespace stretch::stats
{

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

double
percentileSorted(const std::vector<double> &sorted, double pct)
{
    if (sorted.empty())
        return 0.0;
    STRETCH_ASSERT(pct >= 0.0 && pct <= 100.0, "percentile out of range: ",
                   pct);
    if (sorted.size() == 1)
        return sorted.front();
    double rank = pct / 100.0 * static_cast<double>(sorted.size() - 1);
    auto lo = static_cast<std::size_t>(std::floor(rank));
    auto hi = static_cast<std::size_t>(std::ceil(rank));
    double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double
selectPercentile(std::vector<double> &values, double pct)
{
    STRETCH_ASSERT(pct >= 0.0 && pct <= 100.0, "percentile out of range: ",
                   pct);
    if (values.size() > 1) {
        // percentileSorted reads only order statistics floor(rank) and
        // ceil(rank): select the first, then the smallest value after it.
        const double rank =
            pct / 100.0 * static_cast<double>(values.size() - 1);
        const auto lo =
            values.begin() + static_cast<std::ptrdiff_t>(std::floor(rank));
        std::nth_element(values.begin(), lo, values.end());
        if (lo + 1 != values.end())
            std::iter_swap(lo + 1, std::min_element(lo + 1, values.end()));
    }
    return percentileSorted(values, pct);
}

double
percentile(std::vector<double> values, double pct)
{
    return selectPercentile(values, pct);
}

ViolinSummary
summarizeSorted(const std::vector<double> &sorted)
{
    ViolinSummary s;
    s.count = sorted.size();
    if (sorted.empty())
        return s;
    s.min = sorted.front();
    s.max = sorted.back();
    s.q1 = percentileSorted(sorted, 25.0);
    s.median = percentileSorted(sorted, 50.0);
    s.q3 = percentileSorted(sorted, 75.0);
    s.p95 = percentileSorted(sorted, 95.0);
    s.p99 = percentileSorted(sorted, 99.0);
    s.p999 = percentileSorted(sorted, 99.9);
    double sum = 0.0;
    for (double v : sorted)
        sum += v;
    s.mean = sum / static_cast<double>(sorted.size());
    return s;
}

ViolinSummary
summarize(const std::vector<double> &values)
{
    std::vector<double> sorted(values);
    std::sort(sorted.begin(), sorted.end());
    return summarizeSorted(sorted);
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double logsum = 0.0;
    for (double v : values) {
        STRETCH_ASSERT(v > 0.0, "geomean requires positive values, got ", v);
        logsum += std::log(v);
    }
    return std::exp(logsum / static_cast<double>(values.size()));
}

} // namespace stretch::stats
