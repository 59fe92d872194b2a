#include "sim/config.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "sim/logging.hh"
#include "sim/serialize.hh"

namespace rasim
{

namespace
{

std::string
trim(const std::string &s)
{
    auto b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos)
        return "";
    auto e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
}

} // namespace

Config::Config(const config::Record &record)
{
    for (const config::Entry &e : record)
        set(e.key, e.value);
}

void
Config::set(const std::string &key, const std::string &value)
{
    values_[key] = value;
}

const std::string *
Config::find(const std::string &key) const
{
    read_.insert(key);
    auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second;
}

std::string
Config::getString(const std::string &key, const std::string &dflt) const
{
    const std::string *v = find(key);
    return v ? *v : dflt;
}

std::int64_t
Config::getInt(const std::string &key, std::int64_t dflt) const
{
    const std::string *v = find(key);
    if (!v)
        return dflt;
    try {
        std::size_t pos = 0;
        std::int64_t r = std::stoll(*v, &pos, 0);
        if (pos != v->size())
            throw std::invalid_argument(*v);
        return r;
    } catch (const std::exception &) {
        fatal("config key '", key, "': '", *v, "' is not an integer");
    }
}

std::uint64_t
Config::getUInt(const std::string &key, std::uint64_t dflt) const
{
    const std::string *v = find(key);
    if (!v)
        return dflt;
    try {
        std::size_t pos = 0;
        if (!v->empty() && (*v)[0] == '-')
            throw std::invalid_argument(*v);
        std::uint64_t r = std::stoull(*v, &pos, 0);
        if (pos != v->size())
            throw std::invalid_argument(*v);
        return r;
    } catch (const std::exception &) {
        fatal("config key '", key, "': '", *v,
              "' is not an unsigned integer");
    }
}

double
Config::getDouble(const std::string &key, double dflt) const
{
    const std::string *v = find(key);
    if (!v)
        return dflt;
    // strtod, not stod: it returns an overflow such as "1e999" as
    // ±inf, which is refused below with nan and inf. Those would pass
    // every validate() written as "x < 0".
    char *end = nullptr;
    double r = std::strtod(v->c_str(), &end);
    if (v->empty() || end != v->c_str() + v->size())
        fatal("config key '", key, "': '", *v, "' is not a number");
    if (!std::isfinite(r))
        fatal("config key '", key, "': '", *v, "' is not a finite number");
    return r;
}

bool
Config::getBool(const std::string &key, bool dflt) const
{
    const std::string *v = find(key);
    if (!v)
        return dflt;
    std::string s = *v;
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (s == "true" || s == "1" || s == "yes" || s == "on")
        return true;
    if (s == "false" || s == "0" || s == "no" || s == "off")
        return false;
    fatal("config key '", key, "': '", *v, "' is not a boolean");
}

void
Config::parseArg(const std::string &arg)
{
    auto eq = arg.find('=');
    if (eq == std::string::npos || eq == 0)
        fatal("malformed config argument '", arg, "' (want key=value)");
    set(trim(arg.substr(0, eq)), trim(arg.substr(eq + 1)));
}

void
Config::parseArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a.find('=') != std::string::npos)
            parseArg(a);
    }
}

std::vector<std::string>
Config::unreadKeysWithPrefix(const std::string &prefix) const
{
    std::vector<std::string> out;
    for (const auto &[k, v] : values_)
        if (k.rfind(prefix, 0) == 0 && read_.count(k) == 0)
            out.push_back(k);
    return out;
}

void
Config::warnUnread() const
{
    for (const std::string &k : unreadKeysWithPrefix(""))
        warn("unknown config key '", k,
             "' was never consulted (misspelled?)");
}

void
Config::refuseUnread() const
{
    std::vector<std::string> unread = unreadKeysWithPrefix("");
    if (!unread.empty())
        fatal("unknown config key '", unread.front(), "'");
}

namespace config
{

Record
stateShaping(const Record &r)
{
    Record out;
    for (const Entry &e : r)
        if (!e.neutral)
            out.push_back(e);
    return out;
}

std::string
firstDifference(const Record &a, const Record &b)
{
    // Both records list their keys in declaration order, so where
    // they first part, a key that only @p a declares (one retired
    // since @p a was written) is the difference; otherwise b's key is.
    auto declares = [](const Record &r, const std::string &key) {
        return std::any_of(r.begin(), r.end(),
                           [&](const Entry &e) { return e.key == key; });
    };
    for (std::size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
        if (i >= b.size() || (i < a.size() && a[i] != b[i] &&
                              !declares(b, a[i].key)))
            return a[i].key;
        if (i >= a.size() || a[i] != b[i])
            return b[i].key;
    }
    return "";
}

void
putRecord(ArchiveWriter &aw, const Record &r)
{
    aw.putU64(r.size());
    for (const Entry &e : r) {
        aw.putString(e.key);
        aw.putString(e.value);
    }
}

Record
getRecord(ArchiveReader &ar)
{
    // No reserve: a forged count runs the reader past its section
    // end (a panic) long before it could exhaust memory.
    Record r;
    for (std::uint64_t n = ar.getU64(); n > 0; --n) {
        Entry e;
        e.key = ar.getString();
        e.value = ar.getString();
        r.push_back(std::move(e));
    }
    return r;
}

} // namespace config

} // namespace rasim
