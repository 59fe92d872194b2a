/**
 * @file
 * Rendering of a statistics tree as aligned text.
 */

#ifndef RASIM_STATS_OUTPUT_HH
#define RASIM_STATS_OUTPUT_HH

#include <iosfwd>
#include <string>

namespace rasim
{
namespace stats
{

class Group;

/**
 * Dump the subtree rooted at @p root as "path value  # description"
 * lines, one per (stat, sub-value).
 */
void dumpText(std::ostream &os, const Group &root);

/** Find a stat value by full dotted path (for tests); NaN if missing. */
double findValue(const Group &root, const std::string &path);

} // namespace stats
} // namespace rasim

#endif // RASIM_STATS_OUTPUT_HH
