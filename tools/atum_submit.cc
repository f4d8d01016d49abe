// atum-submit: client for the atum-serve daemon.
//
// Usage:
//   atum-submit --socket PATH submit [--tenant T] [--workload W]
//               [--scale N] [--max-instructions N] [--max-trace-bytes N]
//               [--deadline-ms N] [--token T] [--wait]
//               [--wait-timeout-ms N]
//   atum-submit --socket PATH sweep --of ID --config SPEC [--config SPEC]...
//               [--tenant T] [--sweep-timeout-ms N] [--sweep-retries N]
//               [--wait] [--wait-timeout-ms N]
//   atum-submit --socket PATH status [--id N]
//   atum-submit --socket PATH cancel --id N
//   atum-submit --socket PATH ping | metrics | drain
//   atum-submit --socket PATH probe-garbage | probe-slow [--hold-ms N]
//   atum-submit --version
//
// Common flags: --retries N (default 5), --retry-base-ms N (default 50),
// --retry-budget-ms N (overall wall-clock cap on the retry loop; 0 =
// uncapped, the default).
//
// Every submit carries an idempotency token (auto-generated; --token
// overrides it, e.g. for a job-control system that owns its own retry
// loop). The token makes ambiguous transport failures — the connection
// died after the request was sent but before the response arrived, so
// the daemon may or may not have accepted the job — safe to retry: a
// duplicate submit with the same token is answered with the original
// job id (docs/SERVE.md "Network failure model", invariant N1). Without
// a token such failures would NOT be retried; with one they are.
//
// probe-garbage and probe-slow are hostile-client probes for the serve
// CLI gate (scripts/test_serve.sh): the first sends a poison frame (an
// oversized declared length) and expects a structured invalid-argument
// answer before the daemon drops the connection; the second sends a
// partial frame and then stalls like a slowloris, expecting the daemon
// to evict it with a structured unavailable answer.
//
// `sweep` replays a finished capture's trace across many simulator
// configs. Each --config is one spec in the replay-config grammar
// (replay/config_spec.h): `kind[:key=val]...` or the cache alias
// `SIZE_KB:BLOCK:ASSOC`, e.g.
//   --config cache:size_kb=128:assoc=2 --config tlb:entries=32:ways=4
// With --wait, each config's result row streams to stdout as a JSONL
// line the moment the daemon completes (and journals) it — a sweep
// killed mid-flight resumes on the next daemon from its journaled rows,
// and the stream simply continues where it stopped. The final line is
// the full status document, like a waited capture.
//
// --wait-timeout-ms bounds how long --wait polls; on expiry the job is
// left running and the client exits 7 (unavailable): the result was not
// ready, not wrong.
//
// Speaks atum-serve-v1 (docs/SERVE.md) over the daemon's Unix socket.
// A kUnavailable answer — daemon draining, restarting, or not yet
// listening — is retried with jittered exponential backoff, because
// unavailability is the daemon keeping its crash-tolerance promise, not
// an error: the next instance will be there. kResourceExhausted
// (admission shed the job) is NOT retried blindly; backpressure is the
// caller's to honor.
//
// Exit codes (the shared tool contract): 0 success, 1 job failed or
// sweep only partially succeeded (--wait), 2 usage error, 5 job
// cancelled (--wait), 7 daemon unavailable after all retries or
// --wait-timeout-ms expired, 8 admission refused (queue full / tenant
// over its fair share).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <set>
#include <string>
#include <thread>

#include <unistd.h>

#include "cli.h"
#include "io/posix.h"
#include "io/stream.h"

#include "replay/config_spec.h"
#include "serve/protocol.h"
#include "serve/socket.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/signals.h"
#include "util/status.h"

namespace atum {
namespace {

struct Options {
    std::string socket_path;
    serve::Request request;
    bool wait = false;
    uint64_t wait_timeout_ms = 0;  ///< 0 = wait forever
    uint32_t retries = 5;
    uint64_t retry_base_ms = 50;
    uint64_t retry_budget_ms = 0;  ///< overall retry wall cap; 0 = off
    /** Retry ambiguous post-send transport failures (connection died
     *  before the response): safe only for token-carrying submits. */
    bool retry_ambiguous = false;
    // -- hostile-client probes (probe-garbage / probe-slow) ----------------
    bool probe_garbage = false;
    bool probe_slow = false;
    uint64_t hold_ms = 2000;  ///< how long probe-slow stalls mid-frame
};

/** A fresh idempotency token: unique per invocation, stable across the
 *  retries within it — which is exactly what makes the retries safe. */
std::string
MakeToken()
{
    std::mt19937_64 rng(
        std::random_device{}() ^
        (static_cast<uint64_t>(::getpid()) << 32) ^
        static_cast<uint64_t>(
            std::chrono::steady_clock::now().time_since_epoch().count()));
    char buf[sizeof "submit-" + 32];  // prefix + 32 hex digits + NUL
    std::snprintf(buf, sizeof buf, "submit-%016llx%016llx",
                  static_cast<unsigned long long>(rng()),
                  static_cast<unsigned long long>(rng()));
    return buf;
}

Options
ParseArgs(int argc, char** argv)
{
    Options opts;
    bool have_op = false;
    cli::ArgReader args("atum-submit", argc, argv);
    while (args.Next()) {
        const std::string& arg = args.arg();
        if (arg == "--socket")
            opts.socket_path = args.Value();
        else if (arg == "--tenant")
            opts.request.tenant = args.Value();
        else if (arg == "--workload")
            opts.request.workload = args.Value();
        else if (arg == "--scale")
            opts.request.scale = args.Uint<uint32_t>();
        else if (arg == "--max-instructions")
            opts.request.quota.max_instructions = args.Uint<uint64_t>();
        else if (arg == "--max-trace-bytes")
            opts.request.quota.max_trace_bytes = args.Uint<uint64_t>();
        else if (arg == "--deadline-ms")
            opts.request.quota.deadline_ms = args.Uint<uint64_t>();
        else if (arg == "--id") {
            opts.request.id = args.Uint<uint64_t>();
            opts.request.has_id = true;
        }
        else if (arg == "--wait")
            opts.wait = true;
        else if (arg == "--wait-timeout-ms")
            opts.wait_timeout_ms = args.Uint<uint64_t>();
        else if (arg == "--of")
            opts.request.sweep_of = args.Uint<uint64_t>();
        else if (arg == "--config") {
            util::StatusOr<replay::ConfigSpec> spec =
                replay::ParseConfigSpecText(args.Value());
            if (!spec.ok())
                args.Fail("--config: ", spec.status().message());
            opts.request.sweep_configs.push_back(std::move(*spec));
        }
        else if (arg == "--sweep-timeout-ms")
            opts.request.sweep_timeout_ms = args.Uint<uint64_t>();
        else if (arg == "--sweep-retries")
            opts.request.sweep_retries = args.Uint<uint64_t>();
        else if (arg == "--token")
            opts.request.client_token = args.Value();
        else if (arg == "--retries")
            opts.retries = args.Uint<uint32_t>();
        else if (arg == "--retry-base-ms")
            opts.retry_base_ms = args.Uint<uint64_t>();
        else if (arg == "--retry-budget-ms")
            opts.retry_budget_ms = args.Uint<uint64_t>();
        else if (arg == "--hold-ms")
            opts.hold_ms = args.Uint<uint64_t>();
        else if (!have_op && !arg.empty() && arg[0] != '-') {
            have_op = true;
            if (arg == "ping")
                opts.request.op = serve::RequestOp::kPing;
            else if (arg == "submit")
                opts.request.op = serve::RequestOp::kSubmit;
            else if (arg == "sweep")
                opts.request.op = serve::RequestOp::kSweep;
            else if (arg == "status")
                opts.request.op = serve::RequestOp::kStatus;
            else if (arg == "cancel")
                opts.request.op = serve::RequestOp::kCancel;
            else if (arg == "metrics")
                opts.request.op = serve::RequestOp::kMetrics;
            else if (arg == "drain")
                opts.request.op = serve::RequestOp::kDrain;
            else if (arg == "probe-garbage")
                opts.probe_garbage = true;
            else if (arg == "probe-slow")
                opts.probe_slow = true;
            else
                args.Fail("unknown operation: ", arg);
        }
        else
            args.Fail("unknown argument: ", arg);
    }
    if (opts.socket_path.empty())
        args.Fail("usage: atum-submit --socket PATH "
                  "submit|status|cancel|ping|metrics|drain [flags]");
    if (!have_op)
        args.Fail("an operation is required "
                  "(submit|sweep|status|cancel|ping|metrics|drain)");
    if (opts.request.op == serve::RequestOp::kCancel &&
        !opts.request.has_id)
        args.Fail("cancel requires --id");
    if (opts.request.op == serve::RequestOp::kSweep) {
        if (opts.request.sweep_of == 0)
            args.Fail("sweep requires --of (the finished job id)");
        if (opts.request.sweep_configs.empty())
            args.Fail("sweep requires at least one --config SPEC");
    }
    if (opts.request.op == serve::RequestOp::kSubmit &&
        !opts.probe_garbage && !opts.probe_slow) {
        if (opts.request.client_token.empty())
            opts.request.client_token = MakeToken();
        // The token is what makes an ambiguous "sent but no response"
        // failure safe to retry — the daemon answers a duplicate with
        // the original id instead of running the job twice.
        opts.retry_ambiguous = true;
    }
    return opts;
}

/**
 * One request/response exchange, retrying kUnavailable (from connect,
 * transport, or the daemon's answer) with jittered exponential backoff:
 * base * 2^attempt, plus up to one base of jitter so a herd of clients
 * hammering a restarting daemon spreads out.
 *
 * With retry_ambiguous (token-carrying submits), post-send transport
 * failures — the connection died after the request left but before the
 * response arrived, so the daemon may or may not hold the job — are
 * retried too: the idempotency token guarantees the retry is answered
 * with the original job id, never a second job. Without a token those
 * failures return as-is; retrying them blind could double-run.
 *
 * retry_budget_ms caps the whole loop's wall time (0 = uncapped): once
 * the next backoff would overrun it, the last failure returns.
 */
util::StatusOr<std::string>
CallWithRetry(const Options& opts, const std::string& payload)
{
    std::mt19937_64 rng(std::random_device{}());
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(opts.retry_budget_ms);
    util::Status last = util::Unavailable("no attempt made");
    for (uint32_t attempt = 0;; ++attempt) {
        bool sent = false;
        util::StatusOr<std::unique_ptr<serve::UnixClient>> client =
            serve::UnixClient::Connect(opts.socket_path);
        if (client.ok()) {
            sent = true;  // the request may reach the daemon from here on
            util::StatusOr<std::string> response =
                (*client)->Call(payload);
            if (response.ok()) {
                last = serve::ResponseStatus(*response);
                if (last.code() != util::StatusCode::kUnavailable)
                    return *response;  // success or a non-retryable error
            } else {
                last = response.status();
            }
        } else {
            last = client.status();
        }
        const bool ambiguous =
            sent && (last.code() == util::StatusCode::kDataLoss ||
                     last.code() == util::StatusCode::kIoError);
        const bool retryable =
            last.code() == util::StatusCode::kUnavailable ||
            (opts.retry_ambiguous && ambiguous);
        if (!retryable || attempt >= opts.retries)
            return last;
        const uint64_t shift = attempt < 6 ? attempt : 6;
        const uint64_t backoff = opts.retry_base_ms << shift;
        const uint64_t jitter =
            opts.retry_base_ms > 0 ? rng() % opts.retry_base_ms : 0;
        if (opts.retry_budget_ms != 0 &&
            std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(backoff + jitter) >=
                deadline)
            return util::Status(
                last.code(),
                internal::StrCat("retry budget (", opts.retry_budget_ms,
                                 " ms) exhausted; last failure: ",
                                 last.message()));
        std::this_thread::sleep_for(
            std::chrono::milliseconds(backoff + jitter));
    }
}

/** Re-serializes one parsed JSON value (object keys in map order). */
void
DumpJson(const util::JsonValue& value, util::JsonWriter& w)
{
    switch (value.kind()) {
      case util::JsonValue::Kind::kNull:
        w.Null();
        break;
      case util::JsonValue::Kind::kBool:
        w.Value(value.AsBool());
        break;
      case util::JsonValue::Kind::kNumber:
        w.Value(value.AsDouble());
        break;
      case util::JsonValue::Kind::kString:
        w.Value(value.AsString());
        break;
      case util::JsonValue::Kind::kArray:
        w.BeginArray();
        for (const util::JsonValue& entry : value.AsArray())
            DumpJson(entry, w);
        w.EndArray();
        break;
      case util::JsonValue::Kind::kObject:
        w.BeginObject();
        for (const auto& [key, entry] : value.AsObject()) {
            w.Key(key);
            DumpJson(entry, w);
        }
        w.EndObject();
        break;
    }
}

int
ExitFor(const util::Status& status)
{
    if (status.ok())
        return util::kExitOk;
    std::fprintf(stderr, "atum-submit: %s\n", status.ToString().c_str());
    return util::ExitCodeFor(status);
}

/**
 * Polls `status --id` until the job reaches a terminal state, streaming
 * a sweep's per-config result rows as JSONL the moment they appear —
 * the daemon journals each row before reporting it, so every line
 * printed here is durable and survives a daemon kill mid-sweep. With a
 * wait timeout, expiry exits 7 (unavailable) and leaves the job running.
 */
int
WaitForJob(const Options& opts, uint64_t id)
{
    serve::Request poll;
    poll.op = serve::RequestOp::kStatus;
    poll.id = id;
    poll.has_id = true;
    const std::string payload = SerializeRequest(poll);
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(opts.wait_timeout_ms);
    std::set<uint64_t> streamed;  // config indices already printed
    for (;;) {
        util::StatusOr<std::string> response =
            CallWithRetry(opts, payload);
        if (!response.ok())
            return ExitFor(response.status());
        util::StatusOr<util::JsonValue> doc =
            util::JsonValue::Parse(*response);
        if (!doc.ok())
            return ExitFor(util::DataLoss("unparseable status response"));
        const util::JsonValue& jobs = doc->Get("jobs");
        if (!jobs.is_array() || jobs.AsArray().empty())
            return ExitFor(util::NotFound("job ", id, " disappeared"));
        const util::JsonValue& job = jobs.AsArray().front();

        // Mergeable partial results: new rows stream as they finish.
        const util::JsonValue& rows = job.Get("rows");
        if (rows.is_array()) {
            for (const util::JsonValue& row : rows.AsArray()) {
                const uint64_t index = row.Get("config").AsU64();
                if (!streamed.insert(index).second)
                    continue;
                util::JsonWriter line;
                DumpJson(row, line);
                std::printf("%s\n", line.TakeStr().c_str());
                std::fflush(stdout);
            }
        }

        const std::string state = job.Get("state").AsString();
        if (state == "done" || state == "failed" || state == "cancelled") {
            std::printf("%s\n", response->c_str());
            if (state == "cancelled")
                return util::kExitInterrupted;
            // A partial sweep delivered every row it could but isolated
            // failures remain; 1 tells scripts to look at the rows.
            if (state != "done" ||
                job.Get("outcome").AsString() == "partial")
                return util::kExitError;
            return util::kExitOk;
        }
        if (opts.wait_timeout_ms != 0 &&
            std::chrono::steady_clock::now() >= deadline)
            return ExitFor(util::Unavailable(
                "job ", id, " not terminal within ", opts.wait_timeout_ms,
                " ms (still ", state, "; it keeps running)"));
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
}

/**
 * Hostile-client probe: sends a poison frame (a length prefix declaring
 * ~4 GiB) and expects the daemon to answer with a structured
 * invalid-argument error before dropping the connection — exit 4 — and
 * to keep serving everyone else.
 */
int
ProbeGarbage(const Options& opts)
{
    util::StatusOr<std::unique_ptr<serve::UnixClient>> client =
        serve::UnixClient::Connect(opts.socket_path);
    if (!client.ok())
        return ExitFor(client.status());
    const char poison[] = {'\xff', '\xff', '\xff', '\xff',
                           'j',    'u',    'n',    'k'};
    io::FdStream stream((*client)->fd());
    if (util::Status s = io::WriteAll(stream, poison, sizeof poison);
        !s.ok())
        return ExitFor(s);
    util::StatusOr<std::string> answer =
        serve::ReadFrameFd((*client)->fd());
    if (!answer.ok())
        return ExitFor(util::Status(
            util::StatusCode::kInternal,
            "daemon dropped the poison frame without a structured "
            "answer: " +
                std::string(answer.status().message())));
    std::printf("%s\n", answer->c_str());
    return ExitFor(serve::ResponseStatus(*answer));
}

/**
 * Slowloris probe: sends half a length prefix, then trickles nothing.
 * Expects the daemon to evict the connection with a structured
 * unavailable answer (exit 7) within --hold-ms; a daemon that lets the
 * stall live past the budget exits 6 (wedged) — that is the bug the
 * probe exists to catch.
 */
int
ProbeSlow(const Options& opts)
{
    util::StatusOr<std::unique_ptr<serve::UnixClient>> client =
        serve::UnixClient::Connect(opts.socket_path);
    if (!client.ok())
        return ExitFor(client.status());
    const char stub[] = {'\x08', '\x00'};  // half a frame header
    io::FdStream stream((*client)->fd(),
                        static_cast<int>(opts.hold_ms));
    if (util::Status s = io::WriteAll(stream, stub, sizeof stub); !s.ok())
        return ExitFor(s);
    serve::FrameParser parser;
    util::StatusOr<std::string> answer =
        serve::ReadFrameStream(stream, parser);
    if (!answer.ok()) {
        if (answer.status().code() == util::StatusCode::kUnavailable &&
            answer.status().message().find("peer silent") !=
                std::string::npos) {
            std::fprintf(stderr,
                         "atum-submit: daemon tolerated a stalled "
                         "connection for the whole %llu ms hold\n",
                         static_cast<unsigned long long>(opts.hold_ms));
            return util::kExitWedged;
        }
        return ExitFor(answer.status());
    }
    std::printf("%s\n", answer->c_str());
    return ExitFor(serve::ResponseStatus(*answer));
}

int
Run(const Options& opts)
{
    if (opts.probe_garbage)
        return ProbeGarbage(opts);
    if (opts.probe_slow)
        return ProbeSlow(opts);
    const std::string payload = SerializeRequest(opts.request);
    util::StatusOr<std::string> response = CallWithRetry(opts, payload);
    if (!response.ok())
        return ExitFor(response.status());

    // A transported error ({"ok":false,...}) still prints — the caller
    // gets the full response — but the exit code follows the embedded
    // status (8 for a shed job, and so on), not the transport's success.
    if (util::Status embedded = serve::ResponseStatus(*response);
        !embedded.ok()) {
        std::printf("%s\n", response->c_str());
        return ExitFor(embedded);
    }

    if (opts.request.op == serve::RequestOp::kMetrics) {
        // Unwrap the Prometheus text body; everything else prints JSON.
        util::StatusOr<util::JsonValue> doc =
            util::JsonValue::Parse(*response);
        if (doc.ok() && doc->Has("text")) {
            std::printf("%s", doc->Get("text").AsString().c_str());
            return util::kExitOk;
        }
    }
    std::printf("%s\n", response->c_str());

    if (opts.wait && (opts.request.op == serve::RequestOp::kSubmit ||
                      opts.request.op == serve::RequestOp::kSweep)) {
        util::StatusOr<util::JsonValue> doc =
            util::JsonValue::Parse(*response);
        if (!doc.ok() || !doc->Has("id"))
            return ExitFor(util::DataLoss("submit response carries no id"));
        return WaitForJob(opts, doc->Get("id").AsU64());
    }
    return util::kExitOk;
}

}  // namespace
}  // namespace atum

int
main(int argc, char** argv)
{
    atum::util::IgnoreSigpipe();
    return atum::util::FinishStdout(atum::Run(atum::ParseArgs(argc, argv)));
}
