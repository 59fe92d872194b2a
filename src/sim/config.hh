/**
 * @file
 * Hierarchical key/value configuration with typed accessors.
 *
 * Keys are dotted paths ("noc.vcs_per_vnet"). Values are strings parsed
 * on demand. Sources: programmatic set(), command-line style "key=value"
 * arguments, and simple config files (one "key = value" per line, '#'
 * comments).
 */

#ifndef RASIM_SIM_CONFIG_HH
#define RASIM_SIM_CONFIG_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace rasim
{

class Config
{
  public:
    Config() = default;

    /** Set (or overwrite) one key. */
    void set(const std::string &key, const std::string &value);

    /** Convenience overloads for non-string values. */
    void set(const std::string &key, std::int64_t value);
    void set(const std::string &key, std::uint64_t value);
    void set(const std::string &key, int value);
    void set(const std::string &key, double value);
    void set(const std::string &key, bool value);

    /**
     * Typed getters. The value must parse as the requested type or the
     * run aborts with fatal() — a misconfiguration, not a bug.
     */
    std::string getString(const std::string &key,
                          const std::string &dflt) const;
    std::int64_t getInt(const std::string &key, std::int64_t dflt) const;
    std::uint64_t getUInt(const std::string &key, std::uint64_t dflt) const;
    double getDouble(const std::string &key, double dflt) const;
    bool getBool(const std::string &key, bool dflt) const;

    /** Parse one "key=value" token; fatal() on malformed input. */
    void parseArg(const std::string &arg);

    /** Parse argv-style arguments, skipping non "key=value" tokens. */
    void parseArgs(int argc, char **argv);

    /** Load "key = value" lines from @p path; fatal() if unreadable. */
    void loadFile(const std::string &path);

    /**
     * Config hygiene: keys under @p prefix that were set but never
     * consulted by any getter — almost always a misspelling
     * ("noc.colums"). Every getter marks its key as read, so call
     * this only after the parsers ran.
     */
    std::vector<std::string>
    unreadKeysWithPrefix(const std::string &prefix) const;

    /** warn() once per key no getter consulted. */
    void warnUnread() const;

  private:
    const std::string *find(const std::string &key) const;

    std::map<std::string, std::string> values_;
    /** Keys consulted by getters; mutable read-side bookkeeping. */
    mutable std::set<std::string> read_;
};

} // namespace rasim

#endif // RASIM_SIM_CONFIG_HH
