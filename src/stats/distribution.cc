#include "stats/distribution.hh"

#include <algorithm>
#include <cmath>

namespace rasim
{
namespace stats
{

void
Distribution::sample(double v, std::uint64_t count)
{
    if (count_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    count_ += count;
    sum_ += v * count;
    sum_sq_ += v * v * count;
}

double
Distribution::minValue() const
{
    return count_ ? min_ : 0.0;
}

double
Distribution::maxValue() const
{
    return count_ ? max_ : 0.0;
}

double
Distribution::stddev() const
{
    if (count_ < 2)
        return 0.0;
    double n = static_cast<double>(count_);
    double var = (sum_sq_ - sum_ * sum_ / n) / (n - 1.0);
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

std::vector<std::pair<std::string, double>>
Distribution::values() const
{
    return {{"mean", mean()},
            {"min", minValue()},
            {"max", maxValue()},
            {"stddev", stddev()},
            {"count", static_cast<double>(count_)}};
}

} // namespace stats
} // namespace rasim
