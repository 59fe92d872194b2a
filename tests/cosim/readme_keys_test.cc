/**
 * @file
 * Keeps README's configuration-key table in step with the code: the
 * keys it lists must be exactly the keys the options structs declare,
 * so a retired key's row cannot outlive the key and a new key cannot
 * go undocumented.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cosim/full_system.hh"
#include "gpu/gpu_model.hh"
#include "sim/config.hh"

namespace
{

using namespace rasim;

/** The cells of one "| a | b | ... |" table row, trimmed. */
std::vector<std::string>
cells(const std::string &row)
{
    std::vector<std::string> out;
    std::istringstream in(row.substr(1));
    std::string cell;
    while (std::getline(in, cell, '|')) {
        auto b = cell.find_first_not_of(' ');
        auto e = cell.find_last_not_of(' ');
        out.push_back(b == std::string::npos ? ""
                                             : cell.substr(b, e - b + 1));
    }
    return out;
}

/** Every `backticked` word of @p cell: "`noc.columns`, `noc.rows`"
 *  names two keys. */
std::vector<std::string>
backticked(const std::string &cell)
{
    std::vector<std::string> out;
    for (auto a = cell.find('`'); a != std::string::npos;) {
        auto b = cell.find('`', a + 1);
        if (b == std::string::npos)
            break;
        out.push_back(cell.substr(a + 1, b - a - 1));
        a = cell.find('`', b + 1);
    }
    return out;
}

/** The key table's rows: each key with its "may differ on resume"
 *  cell. */
std::map<std::string, std::string>
readmeKeys()
{
    std::ifstream in(RASIM_README_PATH);
    EXPECT_TRUE(in) << "cannot open " << RASIM_README_PATH;
    std::map<std::string, std::string> keys;
    std::string line;
    bool in_table = false;
    while (std::getline(in, line)) {
        if (!in_table) {
            in_table = line.rfind("| key | default |", 0) == 0;
            continue;
        }
        if (line.empty() || line[0] != '|')
            break;
        std::vector<std::string> row = cells(line);
        if (row.size() < 3 || row[0].rfind("---", 0) == 0)
            continue;
        for (const std::string &k : backticked(row[0]))
            EXPECT_TRUE(keys.emplace(k, row[2]).second)
                << k << " has two rows";
    }
    EXPECT_FALSE(keys.empty()) << "no key table in README.md";
    return keys;
}

TEST(Readme, KeyTableListsExactlyTheDeclaredKeys)
{
    std::map<std::string, std::string> readme = readmeKeys();

    config::Record fs = config::record(cosim::FullSystemOptions());
    config::Record dev = config::record(gpu::GpuDeviceParams());
    std::set<std::string> declared;
    for (const config::Record *r : {&fs, &dev})
        for (const config::Entry &e : *r)
            declared.insert(e.key);
    // A retired binding with a row: read only to refuse any value but
    // soa. (remote.model, retired into noc.router, has none.)
    declared.insert("network.kernel");

    std::vector<std::string> undocumented, stale;
    for (const std::string &k : declared)
        if (!readme.count(k))
            undocumented.push_back(k);
    for (const auto &[k, resume] : readme)
        if (!declared.count(k))
            stale.push_back(k);
    EXPECT_EQ(undocumented, std::vector<std::string>())
        << "declared keys with no README row";
    EXPECT_EQ(stale, std::vector<std::string>())
        << "README rows naming no declared key";

    // "yes" in the resume column is exactly config::neutral.
    for (const config::Entry &e : fs) {
        auto it = readme.find(e.key);
        if (it != readme.end()) {
            EXPECT_EQ(it->second == "yes", e.neutral) << e.key;
        }
    }
}

} // namespace
