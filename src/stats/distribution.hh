/**
 * @file
 * Sampled-distribution statistics: moment tracking.
 */

#ifndef RASIM_STATS_DISTRIBUTION_HH
#define RASIM_STATS_DISTRIBUTION_HH

#include <cstdint>
#include <vector>

#include "stats/stat.hh"

namespace rasim
{
namespace stats
{

/**
 * Tracks count, mean, min, max and standard deviation of samples
 * without storing them.
 */
class Distribution : public Stat
{
  public:
    using Stat::Stat;

    void sample(double v, std::uint64_t count = 1);

    std::uint64_t count() const { return count_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double minValue() const;
    double maxValue() const;
    double stddev() const;
    double sum() const { return sum_; }

    /** Raw accumulators for checkpointing (min/max without the
     *  count-guard that minValue()/maxValue() apply). */
    double sumSq() const { return sum_sq_; }
    double rawMin() const { return min_; }
    double rawMax() const { return max_; }

    /** Overwrite the raw accumulators (checkpoint restore). */
    void
    setState(std::uint64_t count, double sum, double sum_sq, double min,
             double max)
    {
        count_ = count;
        sum_ = sum;
        sum_sq_ = sum_sq;
        min_ = min;
        max_ = max;
    }

    std::vector<std::pair<std::string, double>> values() const override;

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double sum_sq_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

} // namespace stats
} // namespace rasim

#endif // RASIM_STATS_DISTRIBUTION_HH
