/**
 * @file
 * Hierarchical registry of statistics mirroring the component tree.
 */

#ifndef RASIM_STATS_GROUP_HH
#define RASIM_STATS_GROUP_HH

#include <string>
#include <vector>

namespace rasim
{
namespace stats
{

class Stat;

/**
 * A named node in the statistics tree. SimObject derives from Group so
 * each component's stats dump under its hierarchical name. Groups hold
 * non-owning pointers; stats and children deregister on destruction.
 */
class Group
{
  public:
    Group(Group *parent, std::string name);
    virtual ~Group();

    Group(const Group &) = delete;
    Group &operator=(const Group &) = delete;

    const std::string &groupName() const { return name_; }

    /** Fully qualified dotted path from the root. */
    std::string path() const;

    void addStat(Stat *s);
    void removeStat(Stat *s);
    void addChild(Group *g);
    void removeChild(Group *g);

    const std::vector<Stat *> &statList() const { return stats_; }
    const std::vector<Group *> &children() const { return children_; }

  private:
    Group *parent_;
    std::string name_;
    std::vector<Stat *> stats_;
    std::vector<Group *> children_;
};

} // namespace stats
} // namespace rasim

#endif // RASIM_STATS_GROUP_HH
