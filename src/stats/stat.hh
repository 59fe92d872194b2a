/**
 * @file
 * Scalar statistics. Components declare stats as members and register
 * them with their Group (usually the owning SimObject).
 */

#ifndef RASIM_STATS_STAT_HH
#define RASIM_STATS_STAT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace rasim
{
namespace stats
{

class Group;

/**
 * Base class of all statistics. A stat has a name and description and
 * renders itself as one or more (sub-name, value) pairs.
 */
class Stat
{
  public:
    Stat(Group *parent, std::string name, std::string desc);
    virtual ~Stat();

    Stat(const Stat &) = delete;
    Stat &operator=(const Stat &) = delete;

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

    /**
     * Flatten to (sub-name, value) pairs. Scalars produce one pair with
     * an empty sub-name; distributions produce mean/min/max/etc.
     */
    virtual std::vector<std::pair<std::string, double>> values() const = 0;

  private:
    Group *parent_;
    std::string name_;
    std::string desc_;
};

/** A simple accumulating counter/gauge. */
class Scalar : public Stat
{
  public:
    using Stat::Stat;

    Scalar &
    operator+=(double v)
    {
        value_ += v;
        return *this;
    }

    Scalar &
    operator++()
    {
        value_ += 1.0;
        return *this;
    }

    void set(double v) { value_ = v; }
    double value() const { return value_; }

    std::vector<std::pair<std::string, double>> values() const override;

  private:
    double value_ = 0.0;
};

/** Mean of sampled values (reports mean and sample count). */
class Average : public Stat
{
  public:
    using Stat::Stat;

    void
    sample(double v)
    {
        sum_ += v;
        ++count_;
    }

    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }

    /** Overwrite the raw accumulators (checkpoint restore). */
    void
    setState(double sum, std::uint64_t count)
    {
        sum_ = sum;
        count_ = count;
    }

    std::vector<std::pair<std::string, double>> values() const override;

  private:
    double sum_ = 0.0;
    std::uint64_t count_ = 0;
};

/**
 * A derived value computed at dump time from other state, e.g.
 * occupancy ratios or rates.
 */
class Value : public Stat
{
  public:
    Value(Group *parent, std::string name, std::string desc,
          std::function<double()> fn);

    double value() const { return fn_ ? fn_() : 0.0; }

    std::vector<std::pair<std::string, double>> values() const override;

  private:
    std::function<double()> fn_;
};

} // namespace stats
} // namespace rasim

#endif // RASIM_STATS_STAT_HH
