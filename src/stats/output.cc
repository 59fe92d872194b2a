#include "stats/output.hh"

#include <functional>
#include <iomanip>
#include <limits>
#include <ostream>

#include "stats/group.hh"
#include "stats/stat.hh"

namespace rasim
{
namespace stats
{

namespace
{

/** Visit every (full path, value, description) triple in the subtree. */
void
visit(const Group &g, const std::string &prefix,
      const std::function<void(const std::string &, double,
                               const std::string &)> &fn)
{
    std::string base = prefix.empty() ? g.groupName()
                                      : prefix + "." + g.groupName();
    for (const Stat *s : g.statList()) {
        for (const auto &[sub, v] : s->values()) {
            std::string path = base + "." + s->name();
            if (!sub.empty())
                path += "::" + sub;
            fn(path, v, s->desc());
        }
    }
    for (const Group *c : g.children())
        visit(*c, base, fn);
}

} // namespace

void
dumpText(std::ostream &os, const Group &root)
{
    visit(root, "", [&os](const std::string &path, double v,
                          const std::string &desc) {
        os << std::left << std::setw(56) << path << " " << std::setw(16)
           << v;
        if (!desc.empty())
            os << " # " << desc;
        os << "\n";
    });
}

double
findValue(const Group &root, const std::string &path)
{
    double result = std::numeric_limits<double>::quiet_NaN();
    visit(root, "", [&](const std::string &p, double v,
                        const std::string &) {
        if (p == path)
            result = v;
    });
    return result;
}

} // namespace stats
} // namespace rasim
