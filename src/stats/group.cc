#include "stats/group.hh"

#include <algorithm>
#include <utility>

#include "stats/stat.hh"

namespace rasim
{
namespace stats
{

Group::Group(Group *parent, std::string name)
    : parent_(parent), name_(std::move(name))
{
    if (parent_)
        parent_->addChild(this);
}

Group::~Group()
{
    if (parent_)
        parent_->removeChild(this);
}

std::string
Group::path() const
{
    if (!parent_)
        return name_;
    std::string p = parent_->path();
    return p.empty() ? name_ : p + "." + name_;
}

void
Group::addStat(Stat *s)
{
    stats_.push_back(s);
}

void
Group::removeStat(Stat *s)
{
    stats_.erase(std::remove(stats_.begin(), stats_.end(), s),
                 stats_.end());
}

void
Group::addChild(Group *g)
{
    children_.push_back(g);
}

void
Group::removeChild(Group *g)
{
    children_.erase(std::remove(children_.begin(), children_.end(), g),
                    children_.end());
}

} // namespace stats
} // namespace rasim
