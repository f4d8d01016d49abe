#include "serve/socket.h"

#include <cerrno>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "io/posix.h"
#include "serve/server.h"

namespace atum::serve {

namespace {

util::Status
SocketErrno(int err, const std::string& what)
{
    return util::Unavailable(what, ": ", std::strerror(err));
}

util::StatusOr<int>
MakeSocket()
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return SocketErrno(errno, "socket(AF_UNIX)");
    return fd;
}

util::Status
FillAddr(const std::string& path, sockaddr_un* addr)
{
    if (path.size() >= sizeof(addr->sun_path))
        return util::InvalidArgument("socket path too long (", path.size(),
                                     " bytes): ", path);
    std::memset(addr, 0, sizeof *addr);
    addr->sun_family = AF_UNIX;
    std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
    return util::OkStatus();
}

/** Poll slice for an unbounded Accept: long enough to idle cheaply,
 *  short enough that a SIGTERM drain never waits noticeably. */
constexpr int kAcceptSliceMs = 200;

}  // namespace

util::Status
WriteFrameStream(io::Stream& stream, const std::string& payload)
{
    const std::string frame = EncodeFrame(payload);
    return io::WriteAll(stream, frame.data(), frame.size());
}

util::StatusOr<std::string>
ReadFrameStream(io::Stream& stream, FrameParser& parser)
{
    std::string payload;
    char buf[4096];
    for (;;) {
        util::StatusOr<bool> got = parser.Next(&payload);
        if (!got.ok())
            return got.status();
        if (*got)
            return payload;
        util::StatusOr<size_t> n = stream.Read(buf, sizeof buf);
        if (!n.ok())
            return n.status();
        if (*n == 0) {
            if (parser.pending_bytes() == 0)
                return util::Unavailable("peer closed the connection");
            return util::DataLoss("connection closed mid-frame (",
                                  parser.pending_bytes(),
                                  " bytes buffered)");
        }
        parser.Feed(buf, *n);
    }
}

util::StatusOr<std::unique_ptr<UnixListener>>
UnixListener::Bind(const std::string& path)
{
    sockaddr_un addr;
    if (util::Status s = FillAddr(path, &addr); !s.ok())
        return s;
    util::StatusOr<int> fd = MakeSocket();
    if (!fd.ok())
        return fd.status();
    // A stale socket file from a crashed daemon blocks bind(2); the
    // journal is what carries identity across restarts, so the file is
    // safe to clear.
    ::unlink(path.c_str());
    if (::bind(*fd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) != 0) {
        const int err = errno;
        io::CloseFd(*fd, path);
        return SocketErrno(err, "bind " + path);
    }
    if (::listen(*fd, 16) != 0) {
        const int err = errno;
        io::CloseFd(*fd, path);
        return SocketErrno(err, "listen " + path);
    }
    return std::unique_ptr<UnixListener>(new UnixListener(*fd, path));
}

UnixListener::~UnixListener()
{
    Close();
    ::unlink(path_.c_str());
}

util::StatusOr<int>
UnixListener::Accept(int timeout_ms)
{
    // An unbounded wait is really a loop of bounded ones: each slice
    // re-checks the stop flag and the listener fd, so a SIGTERM (or a
    // concurrent Close) during an idle wait ends the accept loop instead
    // of parking in accept(2) until the next client happens to dial.
    const bool unbounded = timeout_ms < 0;
    for (;;) {
        if (fd_ < 0)
            return util::Unavailable("listener is closed");
        if (stop_flag_ != nullptr && *stop_flag_ != 0)
            return util::Interrupted("listener stopped");
        pollfd pfd{};
        pfd.fd = fd_;
        pfd.events = POLLIN;
        const int slice = unbounded ? kAcceptSliceMs : timeout_ms;
        const int ready = ::poll(&pfd, 1, slice);
        if (ready < 0 && errno != EINTR)
            return SocketErrno(errno, "poll");
        if (ready <= 0) {
            if (!unbounded)
                return -1;  // timeout (or signal): no connection
            continue;  // next slice; the stop flag is re-checked above
        }
        const int fd = ::accept(fd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR || errno == ECONNABORTED)
                continue;  // the dialer gave up; keep listening
            return SocketErrno(errno, "accept");
        }
        return fd;
    }
}

void
UnixListener::Close()
{
    if (fd_ >= 0) {
        io::CloseFd(fd_, path_);
        fd_ = -1;
    }
}

util::StatusOr<std::unique_ptr<UnixClient>>
UnixClient::Connect(const std::string& path)
{
    sockaddr_un addr;
    if (util::Status s = FillAddr(path, &addr); !s.ok())
        return s;
    util::StatusOr<int> fd = MakeSocket();
    if (!fd.ok())
        return fd.status();
    if (::connect(*fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
        const int err = errno;
        io::CloseFd(*fd, path);
        return SocketErrno(err, "connect " + path);
    }
    return std::unique_ptr<UnixClient>(new UnixClient(*fd));
}

UnixClient::~UnixClient()
{
    if (fd_ >= 0)
        io::CloseFd(fd_, "client socket");
}

util::StatusOr<std::string>
UnixClient::Call(const std::string& payload)
{
    io::FdStream stream(fd_);
    if (util::Status s = WriteFrameStream(stream, payload); !s.ok())
        return s;
    FrameParser parser;
    return ReadFrameStream(stream, parser);
}

util::Status
ConnGovernor::OnAccept(uint64_t conn_id, uint64_t now_ms)
{
    if (conns_.size() >= config_.max_connections)
        return util::ResourceExhausted(
            "connection limit reached (", config_.max_connections,
            " open); retry after one closes");
    Conn& conn = conns_[conn_id];
    conn.last_activity_ms = now_ms;
    return util::OkStatus();
}

util::Status
ConnGovernor::OnTenant(uint64_t conn_id, const std::string& tenant)
{
    auto it = conns_.find(conn_id);
    if (it == conns_.end())
        return util::NotFound("unknown connection ", conn_id);
    if (it->second.tenant == tenant)
        return util::OkStatus();
    auto count = tenant_conns_.find(tenant);
    if (count != tenant_conns_.end() &&
        count->second >= config_.max_per_tenant)
        return util::ResourceExhausted(
            "tenant '", tenant, "' holds its connection share (",
            config_.max_per_tenant, "); retry after one closes");
    if (!it->second.tenant.empty()) {
        auto old = tenant_conns_.find(it->second.tenant);
        if (old != tenant_conns_.end() && --old->second == 0)
            tenant_conns_.erase(old);
    }
    it->second.tenant = tenant;
    ++tenant_conns_[tenant];
    return util::OkStatus();
}

void
ConnGovernor::OnActivity(uint64_t conn_id, uint64_t now_ms)
{
    auto it = conns_.find(conn_id);
    if (it != conns_.end())
        it->second.last_activity_ms = now_ms;
}

void
ConnGovernor::OnClose(uint64_t conn_id)
{
    auto it = conns_.find(conn_id);
    if (it == conns_.end())
        return;
    if (!it->second.tenant.empty()) {
        auto count = tenant_conns_.find(it->second.tenant);
        if (count != tenant_conns_.end() && --count->second == 0)
            tenant_conns_.erase(count);
    }
    conns_.erase(it);
}

std::vector<uint64_t>
ConnGovernor::IdleConnections(uint64_t now_ms) const
{
    std::vector<uint64_t> idle;
    for (const auto& [id, conn] : conns_) {
        if (now_ms - conn.last_activity_ms >= config_.idle_timeout_ms)
            idle.push_back(id);
    }
    return idle;
}

bool
Conversation::Receive(const char* data, size_t len)
{
    if (condemned_)
        return true;  // the framing is lost; nothing more is answered
    parser_.Feed(data, len);
    std::string payload;
    for (;;) {
        util::StatusOr<bool> got = parser_.Next(&payload);
        if (!got.ok()) {
            // Poison frame (oversized/garbage length): the framing is
            // unrecoverable, but the length prefix arrived intact enough
            // to diagnose — answer with a structured error, then the
            // caller drops the connection.
            core_.registry().GetCounter("serve.net.poison_frames").Add();
            Answer(ErrorResponse(got.status()));
            condemned_ = true;
            break;
        }
        if (!*got)
            break;
        // The tenant's connection share is charged before the request
        // reaches the core: a tenant at its cap gets a structured shed
        // on this connection but keeps the connection (its other
        // requests may name a different tenant).
        util::StatusOr<Request> request = ParseRequest(payload);
        if (request.ok() && (request->op == RequestOp::kSubmit ||
                             request->op == RequestOp::kSweep)) {
            if (util::Status s = governor_.OnTenant(id_, request->tenant);
                !s.ok()) {
                core_.registry().GetCounter("serve.net.conns.shed").Add();
                Answer(ErrorResponse(s));
                continue;
            }
        }
        // Malformed JSON inside an intact frame is answered in-band by
        // the core (error response, connection survives).
        Answer(core_.HandleRequest(payload));
    }
    // Bounded buffers: a peer that stuffs requests without reading
    // answers (or trickles an endless frame) is evicted before its
    // connection grows into the daemon's memory.
    if (parser_.pending_bytes() + unsent_bytes_ >
        governor_.config().max_buffered_bytes) {
        core_.registry().GetCounter("serve.net.conns.evicted").Add();
        return false;
    }
    return true;
}

std::string_view
Conversation::Unsent() const
{
    if (outbox_.empty())
        return {};
    return std::string_view(outbox_.front()).substr(front_sent_);
}

void
Conversation::Sent(size_t n)
{
    unsent_bytes_ -= n;
    front_sent_ += n;
    if (front_sent_ == outbox_.front().size()) {
        outbox_.pop_front();
        front_sent_ = 0;
    }
}

void
Conversation::Answer(const std::string& payload)
{
    outbox_.push_back(EncodeFrame(payload));
    unsent_bytes_ += outbox_.back().size();
}

}  // namespace atum::serve
