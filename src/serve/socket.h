#ifndef ATUM_SERVE_SOCKET_H_
#define ATUM_SERVE_SOCKET_H_

/**
 * @file
 * The POSIX rind around ServeCore: a Unix-domain stream listener, the
 * matching client, frame I/O over the io::Stream seam, the connection
 * governor that keeps a hostile peer from wedging or starving the
 * daemon, and the Conversation that answers one peer's frames.
 *
 * Everything with job-level behavior worth testing lives in ServeCore;
 * this layer owns the connection-level robustness contract instead
 * (docs/SERVE.md "Network failure model"):
 *
 *  - Conversation is the daemon's whole per-connection protocol: frame
 *    extraction, poison frames, the tenant's connection share and the
 *    buffer bound. atum-serve's poll loop and the hostile-network drill
 *    (chaos/campaign.cc) both drive it, so invariants N1-N3 are proven
 *    on the code the daemon ships; each owns only its transport;
 *  - frame I/O is written against io::Stream: FdStream in production,
 *    ChaosNet's pipes in the drills;
 *  - raw fd work goes through the EINTR-retrying wrappers in
 *    io/posix.h, never bare read(2)/write(2);
 *  - ConnGovernor bounds how many connections exist at once (globally
 *    and per tenant), tracks per-connection activity for slowloris
 *    eviction, and is pure bookkeeping over an injected clock so tests
 *    need no wall time.
 */

#include <cstdint>
#include <csignal>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "io/stream.h"
#include "serve/protocol.h"
#include "util/status.h"

namespace atum::serve {

class ServeCore;

/** Writes one length-prefixed frame through `stream` (loops partials). */
util::Status WriteFrameStream(io::Stream& stream,
                              const std::string& payload);

/**
 * Reads one complete frame through `stream` into `parser` (which holds
 * any read-ahead for the next call — one parser per connection).
 * kUnavailable on orderly close before any byte, kDataLoss on close
 * mid-frame, kInvalidArgument once the parser is poisoned by an
 * oversized frame.
 */
util::StatusOr<std::string> ReadFrameStream(io::Stream& stream,
                                            FrameParser& parser);

/** A bound, listening Unix-domain stream socket. */
class UnixListener
{
  public:
    /**
     * Binds and listens on `path`, replacing a stale socket file from a
     * previous (dead) daemon — the journal, not the socket, is the
     * authority on daemon identity.
     */
    static util::StatusOr<std::unique_ptr<UnixListener>> Bind(
        const std::string& path);

    ~UnixListener();
    UnixListener(const UnixListener&) = delete;
    UnixListener& operator=(const UnixListener&) = delete;

    /**
     * Accepts one connection and returns its fd; the caller owns and
     * closes it. `timeout_ms` bounds the wait: -1 is returned when it
     * elapses with no connection, so a daemon can re-check its SIGTERM
     * flag between accepts. `timeout_ms < 0` waits "forever" — but in
     * bounded poll slices, re-checking the stop flag installed with
     * set_stop_flag() each slice, so a SIGTERM during an idle wait
     * returns kInterrupted instead of parking in accept(2) until the
     * next client happens to dial. kUnavailable on a closed listener.
     */
    util::StatusOr<int> Accept(int timeout_ms = -1);

    /** Stop latch consulted by an unbounded Accept between poll slices
     *  (point it at the daemon's SIGTERM flag). May be null. */
    void set_stop_flag(volatile std::sig_atomic_t* flag)
    {
        stop_flag_ = flag;
    }

    /** Closes the listening socket (thread-safe wakeup for Accept). */
    void Close();

    int fd() const { return fd_; }
    const std::string& path() const { return path_; }

  private:
    UnixListener(int fd, std::string path) : fd_(fd), path_(std::move(path))
    {
    }

    int fd_;
    std::string path_;
    volatile std::sig_atomic_t* stop_flag_ = nullptr;
};

/** One client connection: connect, then Call() per request. */
class UnixClient
{
  public:
    static util::StatusOr<std::unique_ptr<UnixClient>> Connect(
        const std::string& path);

    ~UnixClient();
    UnixClient(const UnixClient&) = delete;
    UnixClient& operator=(const UnixClient&) = delete;

    /** Sends one request payload, returns the response payload. */
    util::StatusOr<std::string> Call(const std::string& payload);

    int fd() const { return fd_; }

  private:
    explicit UnixClient(int fd) : fd_(fd) {}

    int fd_;
};

/** Connection-governance knobs (docs/SERVE.md "Network failure model"). */
struct ConnGovernorConfig {
    /** Open connections across all tenants; past it, accepts shed. */
    uint32_t max_connections = 64;
    /** Open connections one tenant may hold (its connection share). */
    uint32_t max_per_tenant = 16;
    /** A connection silent this long is a slowloris and is evicted. */
    uint64_t idle_timeout_ms = 30'000;
    /** Bytes one connection may hold buffered (parser read-ahead plus
     *  unsent responses) before it is evicted as a memory hog. */
    size_t max_buffered_bytes = 4u << 20;
};

/**
 * Per-connection bookkeeping for the daemon's accept loop: admission
 * against the global and per-tenant connection caps, last-activity
 * tracking for slowloris eviction. Pure state over caller-supplied
 * timestamps (monotonic ms), so the net drill governs its simulated
 * connections with the same instance type atum-serve runs, and unit
 * tests need no wall clock. Not thread-safe; the accept loop is
 * single-threaded by design.
 */
class ConnGovernor
{
  public:
    explicit ConnGovernor(ConnGovernorConfig config)
        : config_(config)
    {
    }

    /**
     * Admits connection `conn_id` at `now_ms`; kResourceExhausted when
     * the global cap is reached (the caller answers with a structured
     * shed error, then closes — exit 8 on the client).
     */
    util::Status OnAccept(uint64_t conn_id, uint64_t now_ms);

    /**
     * Charges the connection to `tenant` (first request names it; a
     * later request may re-name it, moving the charge).
     * kResourceExhausted when the tenant's connection share is full.
     */
    util::Status OnTenant(uint64_t conn_id, const std::string& tenant);

    /** Any byte read from or written to the connection. */
    void OnActivity(uint64_t conn_id, uint64_t now_ms);

    /** Releases the connection (close or eviction). */
    void OnClose(uint64_t conn_id);

    /** Connections silent since before `now_ms - idle_timeout_ms`. */
    std::vector<uint64_t> IdleConnections(uint64_t now_ms) const;

    size_t open_connections() const { return conns_.size(); }
    const ConnGovernorConfig& config() const { return config_; }

  private:
    struct Conn {
        std::string tenant;
        uint64_t last_activity_ms = 0;
    };

    ConnGovernorConfig config_;
    std::map<uint64_t, Conn> conns_;
    std::map<std::string, uint32_t> tenant_conns_;
};

/**
 * The daemon's side of one connection: bytes read from the peer in,
 * answer frames out, and the verdict on when the connection must close.
 * No I/O happens here — the caller reads, writes and closes, so
 * atum-serve drives it from its poll loop and the net drill from its
 * ChaosNet pipes.
 *
 * Every complete frame is answered in order. A submit or sweep is first
 * charged to its tenant's connection share (ConnGovernor::OnTenant); a
 * tenant at its share gets a structured shed and the connection stays
 * open. A poison frame (a length over kMaxFrameBytes) is answered with
 * a structured invalid-argument error, counted in
 * serve.net.poison_frames, and condemns the connection: nothing after
 * it is answered, and the caller closes once the answer is out.
 */
class Conversation
{
  public:
    /** `conn_id` is already admitted by `governor` (OnAccept). */
    Conversation(ServeCore& core, ConnGovernor& governor, uint64_t conn_id)
        : core_(core), governor_(governor), id_(conn_id)
    {
    }

    /**
     * Takes `len` bytes read from the peer and answers every complete
     * frame in them. False when the connection must close now: its
     * buffered bytes (parser read-ahead plus unsent answers) passed
     * max_buffered_bytes, counted in serve.net.conns.evicted.
     */
    bool Receive(const char* data, size_t len);

    /** The unsent rest of the oldest answer frame; empty when every
     *  answer is on the wire. */
    std::string_view Unsent() const;

    /** The caller put the first `n` bytes of Unsent() on the wire. */
    void Sent(size_t n);

    /** A poison frame was answered: close once Unsent() is empty. */
    bool condemned() const { return condemned_; }

    uint64_t id() const { return id_; }

  private:
    void Answer(const std::string& payload);

    ServeCore& core_;
    ConnGovernor& governor_;
    uint64_t id_;
    FrameParser parser_;
    std::deque<std::string> outbox_;  ///< encoded answer frames, oldest first
    size_t front_sent_ = 0;   ///< bytes of outbox_.front() already sent
    size_t unsent_bytes_ = 0;
    bool condemned_ = false;
};

}  // namespace atum::serve

#endif  // ATUM_SERVE_SOCKET_H_
