/**
 * @file
 * rasim-nocd: the out-of-process NoC backend daemon. Hosts one
 * cycle-level network per session behind a Unix-domain or TCP socket,
 * serving many concurrent sessions on their own threads; RemoteNetwork
 * clients (network.backend=remote) drive it with the quantum-RPC
 * protocol.
 *
 * Usage: rasim-nocd [address] [--once] [--serve-limit N]
 *                   [--max-sessions N] [--max-active N]
 *                   [--quota-frames N] [--max-batch-packets N]
 *                   [--io-timeout-ms MS] [--drain-timeout MS]
 *                   [--session-timeout-ms MS] [key=value ...]
 *
 *   --once / --serve-limit   exit after serving N sessions (tooling)
 *   --max-sessions           concurrent-session admission cap
 *   --max-active             sessions computing at once (0 = auto)
 *   --quota-frames           consecutive grants before a forced yield
 *   --max-batch-packets      per-batch quota (refused as backpressure)
 *   --io-timeout-ms          drop a session silent for this long
 *   --drain-timeout          SIGTERM grace period for live sessions
 *   --session-timeout-ms     watchdog: reap frame-less sessions
 *
 * Every flag (and the positional address) is another spelling of one
 * "server.*" config key, so flags and key=value arguments go through
 * the one validated parser, NocServerOptions::fromConfig — which also
 * reads the shared "fault.transport.*" chaos keys. Flags win over
 * key=value settings. A malformed or out-of-range value, an unknown
 * flag or a flag without its value exits with status 2 before the
 * daemon listens.
 *
 * Signals: SIGTERM drains — the daemon stops accepting, lets every
 * live session finish its in-flight request and close at a frame
 * boundary (no torn frames on the wire), and hard-stops stragglers
 * after the drain timeout. SIGINT stops immediately.
 *
 * The default address is unix:/tmp/rasim-nocd.sock. The server prints
 * "rasim-nocd listening on <address>" once it is connectable, so
 * scripts can wait on that line instead of sleeping.
 */

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include "ipc/nocd_server.hh"
#include "sim/config.hh"
#include "sim/logging.hh"
#include "sim/sim_error.hh"

namespace
{

rasim::ipc::NocServer *running_server = nullptr;

void
onTerm(int)
{
    if (running_server)
        running_server->drain(); // plain atomic stores: safe here
}

void
onInt(int)
{
    if (running_server)
        running_server->stop(); // plain atomic stores: safe here
}

/** The config key each value-taking flag spells. */
struct FlagKey
{
    const char *flag;
    const char *key;
};

constexpr FlagKey flag_keys[] = {
    {"--serve-limit", "server.serve_limit"},
    {"--max-sessions", "server.max_sessions"},
    {"--max-active", "server.max_active"},
    {"--quota-frames", "server.quota_frames"},
    {"--max-batch-packets", "server.max_batch_packets"},
    {"--io-timeout-ms", "server.io_timeout_ms"},
    {"--drain-timeout", "server.drain_timeout_ms"},
    {"--session-timeout-ms", "server.session_timeout_ms"},
};

const char *
keyOfFlag(const char *flag)
{
    for (const FlagKey &fk : flag_keys)
        if (std::strcmp(flag, fk.flag) == 0)
            return fk.key;
    return nullptr;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [address] [--once] [--serve-limit N] "
                 "[--max-sessions N] [--max-active N] "
                 "[--quota-frames N] [--max-batch-packets N] "
                 "[--io-timeout-ms MS] [--drain-timeout MS] "
                 "[--session-timeout-ms MS] [key=value ...]\n"
                 "  address    unix:/path, tcp:host:port, or a bare "
                 "path (default unix:/tmp/rasim-nocd.sock)\n"
                 "  key=value  any server.* or fault.transport.* "
                 "config setting\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    rasim::Config cfg;
    rasim::ipc::NocServerOptions opts;
    try {
        // Config errors throw instead of exiting, so every bad value
        // gets the same status 2 as a bad flag.
        rasim::logging::ThrowOnError guard;
        // key=value settings first, so the flags below override them.
        cfg.parseArgs(argc, argv);
        for (int i = 1; i < argc; ++i) {
            const char *arg = argv[i];
            if (std::strchr(arg, '=') != nullptr)
                continue; // consumed by parseArgs above
            if (std::strcmp(arg, "--once") == 0) {
                cfg.set("server.serve_limit", std::string("1"));
            } else if (const char *key = keyOfFlag(arg)) {
                if (i + 1 >= argc)
                    return usage(argv[0]);
                cfg.set(key, std::string(argv[++i]));
            } else if (arg[0] == '-') {
                return usage(argv[0]);
            } else {
                cfg.set("server.address", std::string(arg));
            }
        }
        opts = rasim::ipc::NocServerOptions::fromConfig(cfg);
    } catch (const rasim::SimError &err) {
        std::fprintf(stderr, "rasim-nocd: %s\n", err.what());
        return 2;
    }
    // Hygiene: a misspelled fault.transport.* / server.* key should
    // not silently configure nothing.
    cfg.warnUnread({"server.", "fault."});

    // A client that dies mid-reply must not kill the server (sendAll
    // also passes MSG_NOSIGNAL; this covers platforms without it).
    std::signal(SIGPIPE, SIG_IGN);

    try {
        rasim::ipc::NocServer server(std::move(opts));
        running_server = &server;
        std::signal(SIGINT, onInt);
        std::signal(SIGTERM, onTerm);
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
