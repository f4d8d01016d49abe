#include "serve/protocol.h"

#include "util/bitops.h"
#include "util/json.h"

namespace atum::serve {

std::string
EncodeFrame(const std::string& payload)
{
    std::string frame(4, '\0');
    StoreLe(reinterpret_cast<uint8_t*>(frame.data()),
            static_cast<uint32_t>(payload.size()));
    frame += payload;
    return frame;
}

void
FrameParser::Feed(const void* data, size_t len)
{
    buffer_.append(static_cast<const char*>(data), len);
}

util::StatusOr<bool>
FrameParser::Next(std::string* payload)
{
    if (poisoned_)
        return util::InvalidArgument("frame stream poisoned by an "
                                     "oversized frame; drop the connection");
    if (buffer_.size() < 4)
        return false;
    const uint32_t len = LoadLe<uint32_t>(
        reinterpret_cast<const uint8_t*>(buffer_.data()));
    if (len > kMaxFrameBytes) {
        poisoned_ = true;
        return util::InvalidArgument("frame declares ", len,
                                     " bytes, over the ", kMaxFrameBytes,
                                     "-byte limit");
    }
    if (buffer_.size() < 4 + static_cast<size_t>(len))
        return false;
    payload->assign(buffer_, 4, len);
    buffer_.erase(0, 4 + static_cast<size_t>(len));
    return true;
}

namespace {

/** A non-negative integral field, defaulting when absent. */
util::StatusOr<uint64_t>
U64Field(const util::JsonValue& doc, const std::string& key,
         uint64_t fallback)
{
    if (!doc.Has(key))
        return fallback;
    const util::JsonValue& v = doc.Get(key);
    if (!v.is_number() || v.AsDouble() < 0)
        return util::InvalidArgument("field '", key,
                                     "' must be a non-negative number");
    return v.AsU64();
}

}  // namespace

util::StatusOr<Request>
ParseRequest(const std::string& payload)
{
    util::StatusOr<util::JsonValue> doc = util::JsonValue::Parse(payload);
    if (!doc.ok())
        return util::InvalidArgument("request is not valid JSON: ",
                                     doc.status().message());
    if (!doc->is_object())
        return util::InvalidArgument("request must be a JSON object");
    const std::string version = doc->Get("v").AsString();
    if (version != kProtocolVersion)
        return util::InvalidArgument("unsupported protocol version '",
                                     version, "' (this daemon speaks ",
                                     kProtocolVersion, ")");

    Request req;
    const std::string op = doc->Get("op").AsString();
    if (op == "ping") {
        req.op = RequestOp::kPing;
    } else if (op == "submit") {
        req.op = RequestOp::kSubmit;
        if (doc->Has("tenant"))
            req.tenant = doc->Get("tenant").AsString();
        if (req.tenant.empty() || req.tenant.size() > 64)
            return util::InvalidArgument(
                "tenant must be 1..64 characters");
        if (doc->Has("workload"))
            req.workload = doc->Get("workload").AsString();
        util::StatusOr<uint64_t> field = U64Field(*doc, "scale", 1);
        if (!field.ok())
            return field.status();
        if (*field == 0 || *field > 1024)
            return util::InvalidArgument("scale must be in 1..1024");
        req.scale = static_cast<uint32_t>(*field);
        if (!(field = U64Field(*doc, "max_instructions", 0)).ok())
            return field.status();
        req.quota.max_instructions = *field;
        if (!(field = U64Field(*doc, "max_trace_bytes", 0)).ok())
            return field.status();
        req.quota.max_trace_bytes = *field;
        if (!(field = U64Field(*doc, "deadline_ms", 0)).ok())
            return field.status();
        req.quota.deadline_ms = *field;
        if (doc->Has("token")) {
            req.client_token = doc->Get("token").AsString();
            if (req.client_token.empty() || req.client_token.size() > 128)
                return util::InvalidArgument(
                    "token must be 1..128 characters when present");
        }
    } else if (op == "sweep") {
        req.op = RequestOp::kSweep;
        if (doc->Has("tenant"))
            req.tenant = doc->Get("tenant").AsString();
        if (req.tenant.empty() || req.tenant.size() > 64)
            return util::InvalidArgument(
                "tenant must be 1..64 characters");
        util::StatusOr<uint64_t> field = U64Field(*doc, "of", 0);
        if (!field.ok())
            return field.status();
        req.sweep_of = *field;
        if (req.sweep_of == 0)
            return util::InvalidArgument(
                "sweep requires 'of': the finished job whose trace to "
                "replay");
        if (!(field = U64Field(*doc, "timeout_ms", 0)).ok())
            return field.status();
        req.sweep_timeout_ms = *field;
        if (!(field = U64Field(*doc, "retries", 1)).ok())
            return field.status();
        req.sweep_retries = *field;
        const util::JsonValue& configs = doc->Get("configs");
        if (!configs.is_array() || configs.AsArray().empty())
            return util::InvalidArgument(
                "sweep requires a non-empty 'configs' array");
        if (configs.AsArray().size() > kMaxSweepConfigs)
            return util::InvalidArgument("sweep is limited to ",
                                         kMaxSweepConfigs,
                                         " configs per job");
        for (const util::JsonValue& entry : configs.AsArray()) {
            util::StatusOr<replay::ConfigSpec> spec =
                replay::ParseConfigSpec(entry);
            if (!spec.ok())
                return spec.status();
            req.sweep_configs.push_back(std::move(*spec));
        }
    } else if (op == "status" || op == "cancel") {
        req.op = op == "status" ? RequestOp::kStatus : RequestOp::kCancel;
        if (doc->Has("id")) {
            util::StatusOr<uint64_t> id = U64Field(*doc, "id", 0);
            if (!id.ok())
                return id.status();
            req.id = *id;
            req.has_id = true;
        }
        if (req.op == RequestOp::kCancel && !req.has_id)
            return util::InvalidArgument("cancel requires a job id");
    } else if (op == "metrics") {
        req.op = RequestOp::kMetrics;
    } else if (op == "drain") {
        req.op = RequestOp::kDrain;
    } else {
        return util::InvalidArgument("unknown op '", op, "'");
    }
    return req;
}

std::string
SerializeRequest(const Request& request)
{
    util::JsonWriter w;
    w.BeginObject();
    w.KeyValue("v", kProtocolVersion);
    switch (request.op) {
      case RequestOp::kPing:
        w.KeyValue("op", "ping");
        break;
      case RequestOp::kSubmit:
        w.KeyValue("op", "submit");
        w.KeyValue("tenant", request.tenant);
        w.KeyValue("workload", request.workload);
        w.KeyValue("scale", request.scale);
        if (request.quota.max_instructions != 0)
            w.KeyValue("max_instructions", request.quota.max_instructions);
        if (request.quota.max_trace_bytes != 0)
            w.KeyValue("max_trace_bytes", request.quota.max_trace_bytes);
        if (request.quota.deadline_ms != 0)
            w.KeyValue("deadline_ms", request.quota.deadline_ms);
        if (!request.client_token.empty())
            w.KeyValue("token", request.client_token);
        break;
      case RequestOp::kSweep:
        w.KeyValue("op", "sweep");
        w.KeyValue("tenant", request.tenant);
        w.KeyValue("of", request.sweep_of);
        if (request.sweep_timeout_ms != 0)
            w.KeyValue("timeout_ms", request.sweep_timeout_ms);
        w.KeyValue("retries", request.sweep_retries);
        w.Key("configs");
        w.BeginArray();
        for (const replay::ConfigSpec& spec : request.sweep_configs)
            spec.WriteJson(w);
        w.EndArray();
        break;
      case RequestOp::kStatus:
        w.KeyValue("op", "status");
        if (request.has_id)
            w.KeyValue("id", request.id);
        break;
      case RequestOp::kCancel:
        w.KeyValue("op", "cancel");
        w.KeyValue("id", request.id);
        break;
      case RequestOp::kMetrics:
        w.KeyValue("op", "metrics");
        break;
      case RequestOp::kDrain:
        w.KeyValue("op", "drain");
        break;
    }
    w.EndObject();
    return w.TakeStr();
}

std::string
ErrorResponse(const util::Status& status)
{
    util::JsonWriter w;
    w.BeginObject();
    w.KeyValue("ok", false);
    w.KeyValue("code", util::StatusCodeName(status.code()));
    w.KeyValue("error", status.message());
    w.EndObject();
    return w.TakeStr();
}

util::Status
ResponseStatus(const std::string& payload)
{
    util::StatusOr<util::JsonValue> doc = util::JsonValue::Parse(payload);
    if (!doc.ok() || !doc->is_object() || !doc->Has("ok"))
        return util::InvalidArgument("malformed response frame");
    if (doc->Get("ok").AsBool())
        return util::OkStatus();
    const std::string code = doc->Get("code").AsString();
    const std::string error = doc->Get("error").AsString();
    // Map the few codes a client acts on; everything else is internal.
    if (code == "resource-exhausted")
        return util::ResourceExhausted(error);
    if (code == "unavailable")
        return util::Unavailable(error);
    if (code == "invalid-argument")
        return util::InvalidArgument(error);
    if (code == "not-found")
        return util::NotFound(error);
    if (code == "failed-precondition")
        return util::FailedPrecondition(error);
    return util::InternalError(error);
}

std::string
SweepRowJson(uint32_t config_index, uint64_t records,
             const replay::ConfigSpec& spec, const replay::SweepResult& result)
{
    util::JsonWriter w;
    w.BeginObject();
    w.KeyValue("config", config_index);
    w.KeyValue("kind", spec.kind);
    w.KeyValue("label", result.label);
    w.KeyValue("records", records);
    if (!result.status.ok()) {
        w.KeyValue("status",
                   util::StatusCodeName(result.status.code()));
        w.KeyValue("error", result.status.message());
        w.EndObject();
        return w.TakeStr();
    }
    w.KeyValue("status", "ok");
    w.KeyValue("accesses", result.Accesses());
    switch (result.kind) {
      case replay::SweepConfig::Kind::kCache:
        w.KeyValue("misses", result.cache_stats.misses);
        w.KeyValue("fed", result.fed);
        w.KeyValue("filtered", result.filtered);
        break;
      case replay::SweepConfig::Kind::kHierarchy:
        w.KeyValue("l1i_misses", result.l1i_stats.misses);
        w.KeyValue("l1d_misses", result.l1d_stats.misses);
        w.KeyValue("l2_misses", result.l2_stats.misses);
        w.KeyValue("memory_accesses", result.memory_accesses);
        w.KeyValue("amat", result.amat);
        break;
      case replay::SweepConfig::Kind::kTlb:
        w.KeyValue("misses", result.tlb_stats.misses);
        w.KeyValue("flushes", result.tlb_stats.flushes);
        break;
    }
    w.KeyValue("miss_rate", result.MissRate());
    w.EndObject();
    return w.TakeStr();
}

}  // namespace atum::serve
