// atum-serve: the long-lived multi-tenant capture daemon.
//
// Usage:
//   atum-serve --dir DIR [--socket PATH] [--workers N]
//              [--max-queue N] [--max-per-tenant N]
//              [--default-max-instructions N] [--max-instructions-cap N]
//              [--max-trace-bytes-cap N] [--watchdog-ucycles N]
//              [--checkpoint-every-fills N] [--keep-checkpoints N]
//              [--max-connections N] [--max-conns-per-tenant N]
//              [--conn-idle-ms N] [--trace-out SPANS.json]
//   atum-serve --version
//
// Accepts capture jobs over a Unix-domain socket (default DIR/serve.sock,
// protocol atum-serve-v1 — docs/SERVE.md) and runs them on a shared
// worker pool, each under its own instruction/byte/deadline quota with
// rotating checkpoints. Every job transition is fsynced into
// DIR/serve.journal before it is acted on, so a SIGKILL at any instant
// is survivable: the next start re-admits queued jobs, resumes
// interrupted captures from their newest checkpoint, and salvages what
// cannot resume. SIGTERM (or an `op:drain` request) drains gracefully —
// running jobs stop at their next slice boundary behind a final
// checkpoint, queued jobs stay journaled for the next instance.
//
// The accept loop is poll-multiplexed and governed (docs/SERVE.md
// "Network failure model"): many concurrent connections, a global cap
// and a per-tenant connection share (excess accepts are answered with a
// structured resource-exhausted error — client exit 8 — then closed),
// slowloris eviction for connections silent past --conn-idle-ms, a
// per-connection buffer bound, and poison-frame handling that answers
// with a structured error before dropping the connection whenever the
// framing still permits an answer. Garbage bytes never wedge the daemon
// or its SIGTERM drain.
//
// DIR/serve.status.json is rewritten atomically on every transition for
// `atum-top --serve DIR`; the `op:metrics` request serves serve.* (and
// everything else in the registry) as Prometheus text.
//
// --trace-out FILE exports the daemon's span trace (job lifecycle
// instants, per-job and per-sweep-row spans across the worker pool) as
// Chrome trace-event JSON at shutdown. A tracer degrade, quota kill or
// crash dumps the flight recorder to DIR/serve.flight.json
// (docs/TRACING.md).
//
// Exit codes (the shared tool contract): 0 clean shutdown, 2 usage
// error, 3 unusable directory/socket, 7 environment unavailable.
// Clients see 7 (unavailable, retryable) while draining and 8
// (resource-exhausted) when admission sheds their job or the connection
// caps shed their dial.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include <poll.h>
#include <unistd.h>

#include "cli.h"
#include "io/posix.h"
#include "io/stream.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/spans.h"
#include "serve/server.h"
#include "serve/socket.h"
#include "util/logging.h"
#include "util/signals.h"
#include "util/status.h"

namespace atum {
namespace {

volatile std::sig_atomic_t g_stop = 0;

struct Options {
    serve::ServeConfig config;
    serve::ConnGovernorConfig governor;
    std::string socket_path;
    std::string trace_out;  // Chrome trace-event export at shutdown
};

Options
ParseArgs(int argc, char** argv)
{
    Options opts;
    opts.config.dir.clear();
    cli::ArgReader args("atum-serve", argc, argv);
    while (args.Next()) {
        const std::string& arg = args.arg();
        if (arg == "--dir")
            opts.config.dir = args.Value();
        else if (arg == "--socket")
            opts.socket_path = args.Value();
        else if (arg == "--workers")
            opts.config.workers = args.Uint<unsigned>();
        else if (arg == "--max-queue")
            opts.config.admission.max_queue_depth = args.Uint<uint32_t>();
        else if (arg == "--max-per-tenant")
            opts.config.admission.max_per_tenant = args.Uint<uint32_t>();
        else if (arg == "--default-max-instructions")
            opts.config.admission.default_max_instructions =
                args.Uint<uint64_t>();
        else if (arg == "--max-instructions-cap")
            opts.config.admission.max_instructions_cap = args.Uint<uint64_t>();
        else if (arg == "--max-trace-bytes-cap")
            opts.config.admission.max_trace_bytes_cap = args.Uint<uint64_t>();
        else if (arg == "--watchdog-ucycles")
            opts.config.watchdog_ucycles = args.Uint<uint64_t>();
        else if (arg == "--checkpoint-every-fills")
            opts.config.checkpoint_every_fills = args.Uint<uint64_t>();
        else if (arg == "--keep-checkpoints")
            opts.config.keep_checkpoints = args.Uint<uint32_t>();
        else if (arg == "--max-connections")
            opts.governor.max_connections = args.Uint<uint32_t>();
        else if (arg == "--max-conns-per-tenant")
            opts.governor.max_per_tenant = args.Uint<uint32_t>();
        else if (arg == "--conn-idle-ms")
            opts.governor.idle_timeout_ms = args.Uint<uint64_t>();
        else if (arg == "--trace-out")
            opts.trace_out = args.Value();
        else
            args.Fail("unknown argument: ", arg);
    }
    if (opts.config.dir.empty())
        args.Fail("usage: atum-serve --dir DIR [--socket PATH] "
                  "[--workers N] [--max-queue N] ...");
    if (opts.config.workers == 0)
        args.Fail("--workers must be >= 1 (0 is the in-process drill "
                  "mode, not a daemon)");
    if (opts.governor.max_connections == 0 ||
        opts.governor.max_per_tenant == 0)
        args.Fail("connection caps must be >= 1");
    if (opts.socket_path.empty())
        opts.socket_path = opts.config.dir + "/serve.sock";
    return opts;
}

uint64_t
NowMs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** One live client connection in the multiplexed accept loop. */
struct Connection {
    int fd;
    serve::Conversation talk;  ///< the per-connection protocol
};

/**
 * The governed accept loop: listener + every live connection in one
 * poll set. Requests are sub-millisecond (the expensive work happens on
 * the worker pool), so a single thread multiplexes every conversation —
 * and a peer that trickles bytes, sends garbage, or never reads its
 * response can only hurt its own connection, never the daemon. What a
 * connection's bytes mean is serve::Conversation's business; this loop
 * owns poll, accept, fd reads and writes, and idle eviction.
 */
class ConnectionLoop
{
  public:
    ConnectionLoop(serve::ServeCore& core, serve::UnixListener& listener,
                   serve::ConnGovernorConfig governor_config)
        : core_(core), listener_(listener), governor_(governor_config),
          registry_(core.registry())
    {
    }

    ~ConnectionLoop()
    {
        // Best-effort drain of queued answers (the drain response itself
        // travels this path), then close.
        while (!conns_.empty()) {
            if (Flush(conns_.begin(), NowMs()))
                Close(conns_.begin());
        }
    }

    void Run()
    {
        while (g_stop == 0 && !core_.draining()) {
            std::vector<pollfd> pfds;
            std::vector<uint64_t> ids;  // pfds[i+1] -> connection id
            pfds.push_back({listener_.fd(), POLLIN, 0});
            for (auto& [id, conn] : conns_) {
                short events = POLLIN;
                if (!conn.talk.Unsent().empty())
                    events |= POLLOUT;
                pfds.push_back({conn.fd, events, 0});
                ids.push_back(id);
            }
            const int ready =
                ::poll(pfds.data(), pfds.size(), /*timeout=*/200);
            if (ready < 0 && errno != EINTR) {
                Warn("atum-serve: poll: ", std::strerror(errno));
                break;
            }
            const uint64_t now = NowMs();
            if (ready > 0) {
                for (size_t i = 1; i < pfds.size(); ++i) {
                    if (pfds[i].revents != 0)
                        ServiceConnection(ids[i - 1], pfds[i].revents,
                                          now);
                }
                if ((pfds[0].revents & POLLIN) != 0)
                    AcceptOne(now);
            }
            EvictIdle(now);
        }
    }

  private:
    using ConnIt = std::map<uint64_t, Connection>::iterator;

    void AcceptOne(uint64_t now)
    {
        util::StatusOr<int> fd = listener_.Accept(/*timeout_ms=*/0);
        if (!fd.ok() || *fd < 0)
            return;
        const uint64_t id = next_conn_id_++;
        if (util::Status s = governor_.OnAccept(id, now); !s.ok()) {
            // Shed with a structured answer (client exit 8), not a
            // silent RST: the peer learns to back off, not to retry.
            registry_.GetCounter("serve.net.conns.shed").Add();
            io::FdStream stream(*fd);
            (void)serve::WriteFrameStream(stream, serve::ErrorResponse(s));
            io::CloseFd(*fd, "shed connection");
            return;
        }
        registry_.GetCounter("serve.net.conns.accepted").Add();
        conns_.try_emplace(
            id, Connection{*fd, serve::Conversation(core_, governor_, id)});
    }

    void ServiceConnection(uint64_t id, short revents, uint64_t now)
    {
        auto it = conns_.find(id);
        if (it == conns_.end())
            return;
        Connection& conn = it->second;

        if ((revents & POLLOUT) != 0 && !Flush(it, now))
            return;
        if ((revents & (POLLIN | POLLHUP | POLLERR)) == 0)
            return;
        io::FdStream stream(conn.fd);
        char buf[4096];
        util::StatusOr<size_t> n = stream.Read(buf, sizeof buf);
        if (!n.ok() || *n == 0) {
            // Peer hung up (or the read failed): if it tore a frame in
            // half first, that is its loss, never the daemon's.
            Close(it);
            return;
        }
        governor_.OnActivity(id, now);
        if (!conn.talk.Receive(buf, *n)) {
            Close(it);  // over its buffer bound: evicted
            return;
        }
        // Flush opportunistically; POLLOUT picks up whatever remains.
        Flush(it, now);
    }

    /**
     * Writes queued answers until the socket stops taking them, and
     * closes a condemned connection once its answer is out. False when
     * the connection was closed.
     */
    bool Flush(ConnIt it, uint64_t now)
    {
        Connection& conn = it->second;
        io::FdStream stream(conn.fd);
        for (std::string_view out; !(out = conn.talk.Unsent()).empty();) {
            util::StatusOr<size_t> n = stream.Write(out.data(), out.size());
            if (!n.ok()) {
                Close(it);
                return false;
            }
            const bool partial = *n < out.size();
            conn.talk.Sent(*n);
            governor_.OnActivity(it->first, now);
            if (partial)
                break;
        }
        if (conn.talk.condemned() && conn.talk.Unsent().empty()) {
            Close(it);
            return false;
        }
        return true;
    }

    void EvictIdle(uint64_t now)
    {
        for (uint64_t id : governor_.IdleConnections(now)) {
            auto it = conns_.find(id);
            if (it == conns_.end())
                continue;
            registry_.GetCounter("serve.net.conns.evicted").Add();
            io::FdStream stream(it->second.fd);
            (void)serve::WriteFrameStream(
                stream,
                serve::ErrorResponse(util::Unavailable(
                    "connection idle past ",
                    governor_.config().idle_timeout_ms, " ms; evicted")));
            Close(it);
        }
    }

    void Close(ConnIt it)
    {
        io::CloseFd(it->second.fd, "connection");
        governor_.OnClose(it->first);
        conns_.erase(it);
    }

    serve::ServeCore& core_;
    serve::UnixListener& listener_;
    serve::ConnGovernor governor_;
    obs::Registry& registry_;
    std::map<uint64_t, Connection> conns_;
    uint64_t next_conn_id_ = 1;
};

int
Run(const Options& opts)
{
    serve::ServeConfig config = opts.config;
    config.external_stop = &g_stop;

    const std::string flight_path = config.dir + "/serve.flight.json";
    obs::flight::SetDumpPath(flight_path.c_str());
    obs::flight::InstallCrashHandler();

    serve::ServeCore core(config, io::RealVfs());
    if (util::Status s = core.Start(); !s.ok()) {
        std::fprintf(stderr, "atum-serve: cannot start: %s\n",
                     s.ToString().c_str());
        return util::ExitCodeFor(s);
    }

    util::StatusOr<std::unique_ptr<serve::UnixListener>> listener =
        serve::UnixListener::Bind(opts.socket_path);
    if (!listener.ok()) {
        std::fprintf(stderr, "atum-serve: %s\n",
                     listener.status().ToString().c_str());
        return util::ExitCodeFor(listener.status());
    }
    (*listener)->set_stop_flag(&g_stop);
    Inform("atum-serve: listening on ", opts.socket_path, " (dir ",
           config.dir, ", ", config.workers, " workers, ",
           opts.governor.max_connections, " connections)");

    {
        ConnectionLoop loop(core, **listener, opts.governor);
        loop.Run();
        // ~ConnectionLoop flushes queued answers (the drain/shutdown
        // responses) before closing every connection.
    }

    Inform("atum-serve: draining (",
           g_stop != 0 ? "signal" : "drain request", ")");
    (*listener)->Close();
    core.Shutdown();

    if (!opts.trace_out.empty()) {
        // After Shutdown the worker pool has joined: the collection-at-
        // quiescence contract holds and every ring is final.
        const util::Status spans_status =
            obs::WriteSpansFile(opts.trace_out, "atum-serve");
        if (spans_status.ok())
            Inform("atum-serve: spans ", opts.trace_out);
        else
            Warn("atum-serve: writing span trace: ",
                 spans_status.ToString());
    }
    return util::kExitOk;
}

}  // namespace
}  // namespace atum

int
main(int argc, char** argv)
{
    atum::util::IgnoreSigpipe();
    atum::util::InstallStopSignalHandlers(&atum::g_stop);
    return atum::util::FinishStdout(atum::Run(atum::ParseArgs(argc, argv)));
}
