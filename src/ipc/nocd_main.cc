/**
 * @file
 * rasim-nocd: the out-of-process NoC backend daemon. Hosts one
 * cycle-level network per connection behind a Unix-domain or TCP
 * socket, serving concurrent connections on their own threads;
 * RemoteNetwork clients (network.backend=remote) drive it with the
 * quantum-RPC protocol.
 *
 * Usage: rasim-nocd [address]
 *
 * The address is the only setting: everything a session simulates
 * arrives from its client in the Hello. Any other argument (a flag, a
 * key=value setting, a second address) exits with status 2 before the
 * daemon listens.
 *
 * Signals: SIGTERM and SIGINT both stop the daemon at once. A client
 * whose connection is cut mid-quantum rebuilds its session on a new
 * server from its own recovery lineage.
 *
 * The default address is unix:/tmp/rasim-nocd.sock. The server prints
 * "rasim-nocd listening on <address>" once it is connectable, so
 * scripts can wait on that line instead of sleeping.
 */

#include <csignal>
#include <cstdio>
#include <cstring>
#include <utility>

#include "ipc/nocd_server.hh"
#include "sim/sim_error.hh"

namespace
{

rasim::ipc::NocServer *running_server = nullptr;

void
onSignal(int)
{
    if (running_server)
        running_server->stop(); // a plain atomic store: safe here
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [address]\n"
                 "  address    unix:/path, tcp:host:port, or a bare "
                 "path (default unix:/tmp/rasim-nocd.sock)\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    rasim::ipc::NocServerOptions opts;
    if (argc > 2)
        return usage(argv[0]);
    if (argc == 2) {
        const char *arg = argv[1];
        if (arg[0] == '-' || std::strchr(arg, '=') != nullptr)
            return usage(argv[0]);
        opts.address = arg;
    }

    // A client that dies mid-reply must not kill the server (sendAll
    // also passes MSG_NOSIGNAL; this covers platforms without it).
    std::signal(SIGPIPE, SIG_IGN);

    try {
        rasim::ipc::NocServer server(std::move(opts));
        running_server = &server;
        std::signal(SIGINT, onSignal);
        std::signal(SIGTERM, onSignal);
        std::printf("rasim-nocd listening on %s\n",
                    server.address().c_str());
        std::fflush(stdout);
        server.run();
        running_server = nullptr;
        std::printf("rasim-nocd served %llu session(s), exiting\n",
                    static_cast<unsigned long long>(
                        server.sessionsServed()));
        return 0;
    } catch (const rasim::SimError &err) {
        std::fprintf(stderr, "rasim-nocd: %s\n", err.what());
        return 1;
    }
}
