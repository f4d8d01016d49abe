#include "serve/journal.h"

#include "util/bitops.h"
#include "util/crc32.h"
#include "util/json.h"
#include "util/serialize.h"

namespace atum::serve {

namespace {

/** Records are small; anything claiming more is noise, not a record. */
constexpr uint32_t kMaxRecordBytes = 64u << 10;

}  // namespace

const char*
JournalKindName(JournalKind kind)
{
    switch (kind) {
      case JournalKind::kSubmitted:
        return "submitted";
      case JournalKind::kStarted:
        return "started";
      case JournalKind::kFinished:
        return "finished";
      case JournalKind::kCancelled:
        return "cancelled";
      case JournalKind::kSweepConfig:
        return "sweep-config";
    }
    return "?";
}

std::string
SerializeJournalRecord(const JournalRecord& record)
{
    util::JsonWriter w;
    w.BeginObject();
    w.KeyValue("kind", JournalKindName(record.kind));
    w.KeyValue("id", record.id);
    if (record.kind == JournalKind::kSubmitted) {
        if (record.job != "capture")
            w.KeyValue("job", record.job);
        if (!record.client_token.empty())
            w.KeyValue("token", record.client_token);
        w.KeyValue("tenant", record.tenant);
        w.KeyValue("workload", record.workload);
        w.KeyValue("scale", record.scale);
        w.KeyValue("max_instructions", record.quota.max_instructions);
        w.KeyValue("max_trace_bytes", record.quota.max_trace_bytes);
        w.KeyValue("deadline_ms", record.quota.deadline_ms);
        if (record.job == "sweep") {
            w.KeyValue("of", record.sweep_of);
            if (record.sweep_timeout_ms != 0)
                w.KeyValue("timeout_ms", record.sweep_timeout_ms);
            w.KeyValue("retries", record.sweep_retries);
            w.Key("configs");
            w.BeginArray();
            for (const replay::ConfigSpec& spec : record.configs)
                spec.WriteJson(w);
            w.EndArray();
        }
    }
    if (record.kind == JournalKind::kSweepConfig) {
        w.KeyValue("config", record.config_index);
        // The canonical row travels as an escaped string, not a nested
        // object: string escaping round-trips byte-for-byte, while a
        // re-serialized object would reorder keys — and S4/S5 compare
        // the journaled row against the streamed row as raw bytes.
        w.KeyValue("row", record.row);
    }
    if (!record.outcome.empty())
        w.KeyValue("outcome", record.outcome);
    if (!record.detail.empty())
        w.KeyValue("detail", record.detail);
    w.EndObject();
    return w.TakeStr();
}

util::StatusOr<JournalRecord>
ParseJournalRecord(const std::string& payload)
{
    util::StatusOr<util::JsonValue> doc = util::JsonValue::Parse(payload);
    if (!doc.ok())
        return util::DataLoss("journal record is not valid JSON: ",
                              doc.status().message());
    if (!doc->is_object() || !doc->Has("kind") || !doc->Has("id"))
        return util::DataLoss("journal record missing kind/id");

    JournalRecord record;
    const std::string kind = doc->Get("kind").AsString();
    if (kind == "submitted")
        record.kind = JournalKind::kSubmitted;
    else if (kind == "started")
        record.kind = JournalKind::kStarted;
    else if (kind == "finished")
        record.kind = JournalKind::kFinished;
    else if (kind == "cancelled")
        record.kind = JournalKind::kCancelled;
    else if (kind == "sweep-config")
        record.kind = JournalKind::kSweepConfig;
    else
        return util::DataLoss("unknown journal record kind '", kind, "'");
    record.id = doc->Get("id").AsU64();
    if (record.id == 0)
        return util::DataLoss("journal record with id 0");
    if (doc->Has("job"))
        record.job = doc->Get("job").AsString();
    if (doc->Has("token"))
        record.client_token = doc->Get("token").AsString();
    if (record.job != "capture" && record.job != "sweep")
        return util::DataLoss("unknown journal job kind '", record.job,
                              "'");
    if (record.job == "sweep" &&
        record.kind == JournalKind::kSubmitted) {
        record.sweep_of = doc->Get("of").AsU64();
        record.sweep_timeout_ms = doc->Get("timeout_ms").AsU64();
        if (doc->Has("retries"))
            record.sweep_retries = doc->Get("retries").AsU64();
        const util::JsonValue& configs = doc->Get("configs");
        if (!configs.is_array() || configs.AsArray().empty() ||
            configs.AsArray().size() > kMaxSweepConfigs)
            return util::DataLoss(
                "sweep submission record without a sane config list");
        for (const util::JsonValue& entry : configs.AsArray()) {
            util::StatusOr<replay::ConfigSpec> spec =
                replay::ParseConfigSpec(entry);
            if (!spec.ok())
                return util::DataLoss("sweep submission config: ",
                                      spec.status().message());
            record.configs.push_back(std::move(*spec));
        }
    }
    if (record.kind == JournalKind::kSweepConfig) {
        if (!doc->Has("config") || !doc->Has("row"))
            return util::DataLoss(
                "sweep-config record missing config/row");
        record.config_index =
            static_cast<uint32_t>(doc->Get("config").AsU64());
        record.row = doc->Get("row").AsString();
    }
    record.tenant = doc->Get("tenant").AsString();
    record.workload = doc->Get("workload").AsString();
    record.scale =
        static_cast<uint32_t>(doc->Get("scale").AsU64());
    record.quota.max_instructions =
        doc->Get("max_instructions").AsU64();
    record.quota.max_trace_bytes = doc->Get("max_trace_bytes").AsU64();
    record.quota.deadline_ms = doc->Get("deadline_ms").AsU64();
    record.outcome = doc->Get("outcome").AsString();
    record.detail = doc->Get("detail").AsString();
    return record;
}

std::vector<JournalRecord>
ScanJournalBytes(const std::string& bytes, uint64_t* valid_bytes,
                 bool* dropped)
{
    std::vector<JournalRecord> records;
    size_t pos = 0;
    bool cut = false;
    while (bytes.size() - pos >= 8) {
        const auto* b = reinterpret_cast<const uint8_t*>(bytes.data() + pos);
        const uint32_t len = LoadLe<uint32_t>(b);
        const uint32_t crc = LoadLe<uint32_t>(b + 4);
        if (len > kMaxRecordBytes || bytes.size() - pos - 8 < len) {
            cut = true;  // torn final write or garbage length
            break;
        }
        const char* payload = bytes.data() + pos + 8;
        if (util::Crc32c(payload, len) != crc) {
            cut = true;  // bit rot or a torn overwrite; stop trusting here
            break;
        }
        util::StatusOr<JournalRecord> record =
            ParseJournalRecord(std::string(payload, len));
        if (!record.ok()) {
            cut = true;  // checksummed but semantically broken: same rule
            break;
        }
        records.push_back(std::move(*record));
        pos += 8 + len;
    }
    if (pos < bytes.size())
        cut = true;  // trailing sub-header bytes are a torn frame too
    if (valid_bytes)
        *valid_bytes = pos;
    if (dropped)
        *dropped = cut;
    return records;
}

JobJournal::JobJournal(std::string path, io::Vfs& vfs)
    : path_(std::move(path)), vfs_(vfs)
{
}

util::StatusOr<std::unique_ptr<JobJournal>>
JobJournal::Open(const std::string& path, io::Vfs& vfs)
{
    std::unique_ptr<JobJournal> journal(new JobJournal(path, vfs));
    util::StatusOr<std::string> bytes = io::ReadFile(vfs, path);
    if (!bytes.ok() && bytes.status().code() != util::StatusCode::kNotFound)
        return bytes.status();

    if (!bytes.ok()) {
        // First boot: nothing to recover.
        util::StatusOr<std::unique_ptr<io::WritableFile>> file =
            vfs.Create(path);
        if (!file.ok())
            return file.status();
        journal->file_ = std::move(*file);
        return journal;
    }

    uint64_t valid = 0;
    journal->recovered_ =
        ScanJournalBytes(*bytes, &valid, &journal->tail_dropped_);
    util::StatusOr<std::unique_ptr<io::WritableFile>> file =
        vfs.OpenForAppendAt(path, valid);
    if (!file.ok())
        return file.status();
    journal->file_ = std::move(*file);
    journal->durable_bytes_ = valid;
    return journal;
}

util::Status
JobJournal::Append(const JournalRecord& record)
{
    if (!file_)
        return util::FailedPrecondition("journal ", path_, " is not open");
    const std::string payload = SerializeJournalRecord(record);
    util::StateWriter frame;
    frame.U32(static_cast<uint32_t>(payload.size()));
    frame.U32(util::Crc32c(payload.data(), payload.size()));
    frame.Bytes(payload.data(), payload.size());
    util::Status s = file_->Write(frame.bytes().data(), frame.bytes().size());
    // J1: the record must be durable before the daemon acts on it.
    if (s.ok())
        s = file_->Sync();
    if (!s.ok()) {
        // A failed append may have torn a partial frame onto the tail.
        // Were the next append to land after that garbage, the scan would
        // stop at the tear and every later record — including acked
        // submissions — would silently vanish from recovery. Truncate
        // back to the last known-durable byte before accepting more; if
        // even that fails, the journal stays closed and later appends
        // fail loudly (the submit path then refuses the ack).
        file_.reset();
        util::StatusOr<std::unique_ptr<io::WritableFile>> reopened =
            vfs_.OpenForAppendAt(path_, durable_bytes_);
        if (reopened.ok())
            file_ = std::move(*reopened);
        return s;
    }
    durable_bytes_ += frame.bytes().size();
    return util::OkStatus();
}

}  // namespace atum::serve
