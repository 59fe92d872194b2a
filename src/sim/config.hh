/**
 * @file
 * Hierarchical key/value configuration with typed accessors, and the
 * binder that ties every options struct to its keys.
 *
 * Keys are dotted paths ("section.knob"). Values are strings parsed
 * on demand. Sources: programmatic set() and command-line style
 * "key=value" arguments.
 *
 * Each options struct lists its keys once, in a member
 *
 *     void keys(config::Binder &v)
 *     {
 *         v("part.size", size);
 *         v(sub_options);   // a nested struct's own keys
 *     }
 *
 * whose default is the member initialiser. config::parse() reads the
 * keys into a struct and runs its validate(); config::record() writes
 * the struct back out as the run's configuration record, the form a
 * checkpoint's "meta" section and a remote Hello carry.
 */

#ifndef RASIM_SIM_CONFIG_HH
#define RASIM_SIM_CONFIG_HH

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace rasim
{

class ArchiveReader;
class ArchiveWriter;

namespace config
{

/** One declared key and its value, spelled the way Config parses it. */
struct Entry
{
    std::string key;
    std::string value;
    /** Declared config::neutral: a checkpoint may resume under another
     *  value of this key. */
    bool neutral = false;

    bool operator==(const Entry &) const = default;
};

/** An options struct written out, one entry per key in declaration
 *  order. */
using Record = std::vector<Entry>;

/** How Config stores a number or a boolean: "true"/"false", decimal
 *  integers, and the shortest spelling that parses back to the same
 *  double. */
template <class T>
    requires std::is_arithmetic_v<T>
std::string
spell(T v)
{
    if constexpr (std::is_same_v<T, bool>) {
        return v ? "true" : "false";
    } else if constexpr (std::is_floating_point_v<T>) {
        char buf[32];
        return std::string(buf, std::to_chars(buf, buf + 32, v).ptr);
    } else {
        return std::to_string(v);
    }
}

} // namespace config

class Config
{
  public:
    Config() = default;

    /** A config holding every entry of @p record. */
    explicit Config(const config::Record &record);

    /** Set (or overwrite) one key. */
    void set(const std::string &key, const std::string &value);

    /** Set a number or a boolean, spelled by config::spell. */
    template <class T>
        requires std::is_arithmetic_v<T>
    void
    set(const std::string &key, T value)
    {
        set(key, config::spell(value));
    }

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

    /** fatal() naming the first key no getter consulted, if any. */
    void refuseUnread() const;

  private:
    const std::string *find(const std::string &key) const;

    std::map<std::string, std::string> values_;
    /** Keys consulted by getters; mutable read-side bookkeeping. */
    mutable std::set<std::string> read_;
};

namespace config
{

/** Tag of a key that shapes no simulated state (a path, an address, a
 *  wall-clock budget, transport chaos, or an engine or SIMD choice the
 *  determinism contract makes result-neutral): a checkpoint resumes
 *  under any value of it, while every other key must match. */
struct Neutral
{
};
inline constexpr Neutral neutral{};

/** The spelling of one value of an enum bound through a name table. */
template <class E>
struct Name
{
    const char *name;
    E value;
};

template <class E, std::size_t N>
const char *
nameOf(E value, const Name<E> (&names)[N])
{
    for (const Name<E> &n : names)
        if (n.value == value)
            return n.name;
    return "unknown";
}

/** The value @p name spells; fatal() naming @p what and every legal
 *  spelling otherwise. */
template <class E, std::size_t N>
E
valueOf(const std::string &name, const Name<E> (&names)[N],
        const char *what)
{
    std::string want;
    for (std::size_t i = 0; i < N; ++i) {
        if (name == names[i].name)
            return names[i].value;
        want += i == 0 ? "" : i + 1 == N ? " or " : ", ";
        want += names[i].name;
    }
    fatal("unknown ", what, " '", name, "' (want ", want, ")");
}

class Binder;

template <class T>
concept Keyed = requires(T &t, Binder &b) { t.keys(b); };

/**
 * Visits the keys an options struct declares, in one of two roles:
 * reading each from a Config (an unset key keeps its member's default)
 * and validating every struct once read, or writing each to a Record.
 */
class Binder
{
  public:
    explicit Binder(const Config &cfg) : cfg_(&cfg) {}
    explicit Binder(Record &out) : out_(&out) {}

    /** Bind @p key to @p f. @p opt is empty, config::neutral, an enum's
     *  name table, or a default that depends on a key bound before. */
    template <class F, class... Opt>
    void
    operator()(const char *key, F &f, const Opt &...opt)
    {
        if (cfg_) {
            read(key, f, opt...);
        } else {
            out_->push_back(
                {key, spell(f, opt...),
                 neutral_ || (std::is_same_v<Opt, Neutral> || ...)});
        }
    }

    /** Bind a nested struct's keys. */
    template <Keyed T, class... Opt>
    void
    operator()(T &nested, const Opt &...)
    {
        bool outer = neutral_;
        neutral_ = outer || (std::is_same_v<Opt, Neutral> || ...);
        nested.keys(*this);
        neutral_ = outer;
        if constexpr (requires { nested.validate(); })
            if (cfg_)
                nested.validate();
    }

    /** A key kept only to refuse every value but @p only. */
    void
    retired(const char *key, const char *only)
    {
        if (!cfg_)
            return;
        std::string v = cfg_->getString(key, only);
        if (v != only)
            fatal("unknown ", key, " '", v, "' (", only,
                  " is its only value)");
    }

  private:
    template <class F>
    void
    read(const char *key, F &f, Neutral = {})
    {
        if constexpr (std::is_same_v<F, bool>)
            f = cfg_->getBool(key, f);
        else if constexpr (std::is_same_v<F, std::string>)
            f = cfg_->getString(key, f);
        else if constexpr (std::is_floating_point_v<F>)
            f = cfg_->getDouble(key, f);
        else if constexpr (std::is_signed_v<F>)
            f = narrow<F>(key, cfg_->getInt(key, f));
        else
            f = narrow<F>(key, cfg_->getUInt(key, f));
    }
    template <class F>
    void
    read(const char *key, F &f, const std::type_identity_t<F> &dflt)
    {
        f = dflt;
        read(key, f);
    }
    template <class E, std::size_t N>
    void
    read(const char *key, E &f, const Name<E> (&names)[N])
    {
        f = valueOf(cfg_->getString(key, nameOf(f, names)), names, key);
    }

    template <class F, class V>
    static F
    narrow(const char *key, V v)
    {
        if (!std::in_range<F>(v))
            fatal("config key '", key, "': ", v, " is out of range");
        return static_cast<F>(v);
    }

    template <class F, class... Opt>
    static std::string
    spell(const F &f, const Opt &...names)
    {
        if constexpr (std::is_enum_v<F>)
            return nameOf(f, names...);
        else if constexpr (std::is_same_v<F, std::string>)
            return f;
        else
            return config::spell(f);
    }

    const Config *cfg_ = nullptr;
    Record *out_ = nullptr;
    bool neutral_ = false;
};

/** Read a T from @p cfg: every declared key, then the validate() of T
 *  and of each struct nested in it. */
template <class T>
T
parse(const Config &cfg)
{
    T o;
    Binder b(cfg);
    b(o);
    return o;
}

/** @p o written out as its configuration record. (A Binder that
 *  writes does not modify what it visits.) */
template <class T>
Record
record(const T &o)
{
    Record out;
    Binder b(out);
    b(const_cast<T &>(o));
    return out;
}

/** The entries of @p r that are not config::neutral. */
Record stateShaping(const Record &r);

/** The first key whose value differs between @p a and @p b, or that
 *  only one of them holds; "" when they agree. */
std::string firstDifference(const Record &a, const Record &b);

/** A record as an archive field: the entry count, then each key and
 *  value. The neutral marks are not stored. */
void putRecord(ArchiveWriter &aw, const Record &r);
Record getRecord(ArchiveReader &ar);

} // namespace config

} // namespace rasim

#endif // RASIM_SIM_CONFIG_HH
