/**
 * @file
 * Threads of this process, read from /proc/self/status (Linux).
 */

#ifndef RASIM_TESTS_COMMON_THREAD_COUNT_HH
#define RASIM_TESTS_COMMON_THREAD_COUNT_HH

#include <chrono>
#include <fstream>
#include <string>
#include <thread>

namespace rasim
{
namespace test
{

/** Threads of this process; -1 when /proc is unreadable. */
inline int
threadCount()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("Threads:", 0) == 0)
            return std::stoi(line.substr(8));
    return -1;
}

/** threadCount() once it reaches @p expected, or after a second: a
 *  joined thread can stay listed until the kernel has reaped it. */
inline int
threadCountSettlingAt(int expected)
{
    for (int i = 0; i < 1000 && threadCount() != expected; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return threadCount();
}

} // namespace test
} // namespace rasim

#endif // RASIM_TESTS_COMMON_THREAD_COUNT_HH
