#ifndef ATUM_SERVE_PROTOCOL_H_
#define ATUM_SERVE_PROTOCOL_H_

/**
 * @file
 * The atum-serve wire protocol: length-prefixed JSON frames.
 *
 * Every message — request or response — is one JSON document preceded by
 * a 4-byte little-endian payload length. The length bounds what a peer
 * must buffer (kMaxFrameBytes); anything larger is a protocol error and
 * the connection dies rather than the daemon's memory. Versioning is
 * in-band: every request carries `"v": "atum-serve-v1"` and the daemon
 * rejects versions it does not speak, so a stale client fails loudly at
 * its first frame instead of corrupting a job.
 *
 * Requests (docs/SERVE.md has the full schema):
 *
 *   {"v":"atum-serve-v1","op":"ping"}
 *   {"v":"atum-serve-v1","op":"submit","tenant":"t","workload":"grep",
 *    "scale":1,"max_instructions":200000,"max_trace_bytes":0,
 *    "deadline_ms":0,"token":"c0ffee-1"}   — token: idempotency key
 *   {"v":"atum-serve-v1","op":"sweep","tenant":"t","of":7,
 *    "configs":[{"kind":"cache","size_kb":64,"block":16,"assoc":2},...],
 *    "timeout_ms":0,"retries":1}                   — replay job 7's trace
 *   {"v":"atum-serve-v1","op":"status"}            — all jobs
 *   {"v":"atum-serve-v1","op":"status","id":7}     — one job
 *   {"v":"atum-serve-v1","op":"cancel","id":7}
 *   {"v":"atum-serve-v1","op":"metrics"}           — Prometheus text
 *   {"v":"atum-serve-v1","op":"drain"}             — graceful shutdown
 *
 * Responses are `{"ok":true,...}` or `{"ok":false,"code":"<status-code
 * name>","error":"..."}`; the code maps back onto util::Status so
 * atum-submit exits with the shared exit-code contract (7 unavailable,
 * 8 resource-exhausted).
 */

#include <cstdint>
#include <string>
#include <vector>

#include "replay/config_spec.h"
#include "replay/sweep.h"
#include "util/status.h"

namespace atum::serve {

/** Hard bound on configs per sweep: keeps the submission's journal
 *  record far below the journal's record-size sanity limit. */
inline constexpr uint32_t kMaxSweepConfigs = 64;

/** The one protocol version this daemon speaks. */
inline constexpr char kProtocolVersion[] = "atum-serve-v1";

/** Hard bound on one frame's JSON payload (requests are tiny; status
 *  responses grow with job count but stay far below this). */
inline constexpr uint32_t kMaxFrameBytes = 1u << 20;

/** Prepends the 4-byte little-endian length to `payload`. */
std::string EncodeFrame(const std::string& payload);

/**
 * Incremental frame decoder for a byte stream of unknown chunking —
 * feed whatever arrived, take complete payloads out. Oversized and
 * malformed lengths poison the parser permanently (the peer is broken;
 * the connection must be dropped, not resynchronized).
 */
class FrameParser
{
  public:
    /** Appends raw bytes from the stream. */
    void Feed(const void* data, size_t len);

    /**
     * Extracts the next complete payload into `payload`. Returns OK with
     * `true` when one was extracted, OK with `false` when more bytes are
     * needed, kInvalidArgument forever after a frame declared a length
     * over kMaxFrameBytes.
     */
    util::StatusOr<bool> Next(std::string* payload);

    /** Bytes buffered but not yet extracted (tear detection at EOF). */
    size_t pending_bytes() const { return buffer_.size(); }

  private:
    std::string buffer_;
    bool poisoned_ = false;
};

/** Everything a client can ask of the daemon. */
enum class RequestOp : uint8_t {
    kPing,
    kSubmit,
    kSweep,
    kStatus,
    kCancel,
    kMetrics,
    kDrain,
};

/** Resource limits one job runs under (0 = server default / unlimited). */
struct JobQuota {
    uint64_t max_instructions = 0;  ///< guest instruction budget
    uint64_t max_trace_bytes = 0;   ///< durable ATF2 bytes before stop
    uint64_t deadline_ms = 0;       ///< wall-clock budget
};

/** A parsed, validated request frame. */
struct Request {
    RequestOp op = RequestOp::kPing;
    // -- submit ------------------------------------------------------------
    std::string tenant = "default";
    std::string workload = "grep";
    uint32_t scale = 1;
    JobQuota quota;
    /** Idempotency key (1..128 chars, empty = none): a retry carrying
     *  the same token is answered with the original job id instead of
     *  double-running — see docs/SERVE.md "Network failure model". */
    std::string client_token;
    // -- sweep -------------------------------------------------------------
    uint64_t sweep_of = 0;  ///< finished capture job whose trace to replay
    std::vector<replay::ConfigSpec> sweep_configs;
    uint64_t sweep_timeout_ms = 0;  ///< per-config wall budget; 0 = off
    uint64_t sweep_retries = 1;     ///< extra attempts per retryable row
    // -- status / cancel ---------------------------------------------------
    uint64_t id = 0;
    bool has_id = false;
};

/**
 * Parses and validates one request payload. kInvalidArgument for
 * malformed JSON, a wrong/missing version, an unknown op or out-of-range
 * fields — the daemon answers with an error frame and keeps serving.
 */
util::StatusOr<Request> ParseRequest(const std::string& payload);

/** Serializes `request` to its canonical JSON payload (client side). */
std::string SerializeRequest(const Request& request);

/** `{"ok":false,"code":...,"error":...}` for a failed operation. */
std::string ErrorResponse(const util::Status& status);

/**
 * Extracts the Status a response frame carries: OK for `"ok":true`,
 * the embedded code/message for `"ok":false`, kInvalidArgument when the
 * frame is not a valid response at all.
 */
util::Status ResponseStatus(const std::string& payload);

/**
 * The canonical result row for one finished sweep config: the exact
 * bytes journaled, streamed into the status file, and compared
 * bit-for-bit by the S4/S5 drills, so the daemon, the recovery path and
 * the chaos checker share this one function. `records` is the
 * input-trace record count the config replayed (the input fingerprint
 * recovery uses to detect a trace that changed underneath journaled
 * rows).
 */
std::string SweepRowJson(uint32_t config_index, uint64_t records,
                         const replay::ConfigSpec& spec,
                         const replay::SweepResult& result);

}  // namespace atum::serve

#endif  // ATUM_SERVE_PROTOCOL_H_
