/**
 * @file
 * LocalServer: an in-process rasim-nocd on a per-process Unix socket,
 * serving on its own thread for the life of the object.
 */

#ifndef RASIM_TESTS_COMMON_LOCAL_SERVER_HH
#define RASIM_TESTS_COMMON_LOCAL_SERVER_HH

#include <unistd.h>

#include <memory>
#include <string>
#include <thread>

#include "ipc/nocd_server.hh"

namespace rasim
{
namespace test
{

struct LocalServer
{
    LocalServer()
        : address("unix:/tmp/rasim-fs-test-" + std::to_string(::getpid()) +
                  ".sock")
    {
        ipc::NocServerOptions opts;
        opts.address = address;
        server = std::make_unique<ipc::NocServer>(opts);
        thread = std::thread([this] { server->run(); });
    }
    ~LocalServer()
    {
        server->stop();
        thread.join();
    }
    LocalServer(const LocalServer &) = delete;
    LocalServer &operator=(const LocalServer &) = delete;

    std::string address;
    std::unique_ptr<ipc::NocServer> server;
    std::thread thread;
};

} // namespace test
} // namespace rasim

#endif // RASIM_TESTS_COMMON_LOCAL_SERVER_HH
