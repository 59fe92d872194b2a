#include "sim/config.hh"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

#include "sim/logging.hh"

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

void
Config::set(const std::string &key, const std::string &value)
{
    values_[key] = value;
}

void
Config::set(const std::string &key, std::int64_t value)
{
    values_[key] = std::to_string(value);
}

void
Config::set(const std::string &key, std::uint64_t value)
{
    values_[key] = std::to_string(value);
}

void
Config::set(const std::string &key, int value)
{
    values_[key] = std::to_string(value);
}

void
Config::set(const std::string &key, double value)
{
    std::ostringstream os;
    os.precision(17);
    os << value;
    values_[key] = os.str();
}

void
Config::set(const std::string &key, bool value)
{
    values_[key] = value ? "true" : "false";
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
    try {
        std::size_t pos = 0;
        double r = std::stod(*v, &pos);
        if (pos != v->size())
            throw std::invalid_argument(*v);
        return r;
    } catch (const std::exception &) {
        fatal("config key '", key, "': '", *v, "' is not a number");
    }
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

void
Config::loadFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open config file '", path, "'");
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        auto hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trim(line);
        if (line.empty())
            continue;
        auto eq = line.find('=');
        if (eq == std::string::npos)
            fatal("config file '", path, "' line ", lineno,
                  ": missing '='");
        set(trim(line.substr(0, eq)), trim(line.substr(eq + 1)));
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

} // namespace rasim
