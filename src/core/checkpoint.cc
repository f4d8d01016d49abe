#include "core/checkpoint.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string_view>
#include <utility>

#include "util/crc32.h"
#include "util/parse.h"
#include "util/serialize.h"

namespace atum::core {

namespace {

/** Every checkpoint of a rotation series is named BASE.NNNNNN.atck. */
constexpr char kSeriesSuffix[] = ".atck";

using SeriesName = std::pair<std::string, uint64_t>;  // BASE, NNNNNN

std::optional<SeriesName>
SplitSeriesPath(std::string_view path)
{
    if (!path.ends_with(kSeriesSuffix))
        return std::nullopt;
    path.remove_suffix(sizeof kSeriesSuffix - 1);
    const size_t dot = path.rfind('.');
    if (dot == std::string_view::npos)
        return std::nullopt;
    util::StatusOr<uint64_t> seq = util::ParseUint(path.substr(dot + 1));
    if (!seq.ok())
        return std::nullopt;
    return SeriesName(path.substr(0, dot), *seq);
}

// -- little-endian helpers over raw frame buffers ---------------------------

void
Put16(std::vector<uint8_t>& out, uint16_t v)
{
    out.push_back(static_cast<uint8_t>(v));
    out.push_back(static_cast<uint8_t>(v >> 8));
}

void
Put32(std::vector<uint8_t>& out, uint32_t v)
{
    Put16(out, static_cast<uint16_t>(v));
    Put16(out, static_cast<uint16_t>(v >> 16));
}

void
Put64(std::vector<uint8_t>& out, uint64_t v)
{
    Put32(out, static_cast<uint32_t>(v));
    Put32(out, static_cast<uint32_t>(v >> 32));
}

uint16_t
Get16(const uint8_t* p)
{
    return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

uint32_t
Get32(const uint8_t* p)
{
    return static_cast<uint32_t>(Get16(p)) |
           (static_cast<uint32_t>(Get16(p + 2)) << 16);
}

uint64_t
Get64(const uint8_t* p)
{
    return static_cast<uint64_t>(Get32(p)) |
           (static_cast<uint64_t>(Get32(p + 4)) << 32);
}

// -- meta section payload ---------------------------------------------------

/** Meta slots that once held the ifetch, PTE, TB-miss and exception
 *  record flags. The tracer records every kind, so each holds 1. */
constexpr int kAlwaysRecordedSlots = 4;

void
SerializeMeta(const CheckpointMeta& meta, util::StateWriter& w)
{
    w.U32(meta.machine_config.mem_bytes);
    w.U32(static_cast<uint32_t>(meta.machine_config.tlb_sets));
    w.U32(static_cast<uint32_t>(meta.machine_config.tlb_ways));
    w.U32(meta.machine_config.timer_reload);

    const AtumConfig& t = meta.tracer_config;
    w.U32(t.buffer_bytes);
    w.U32(t.cost_per_record);
    w.U32(t.drain_pause_ucycles);
    for (int i = 0; i < kAlwaysRecordedSlots; ++i)
        w.Bool(true);
    w.Bool(t.record_opcodes);
    w.U32(kDrainMaxRetries);
    w.U32(kDrainRetryUcycles);

    w.U64(meta.sequence);
    w.U64(meta.instructions);
    w.U64(meta.instructions_remaining);
    w.Str(meta.trace_path);
    w.Bool(meta.has_sink_state);
}

util::Status
DeserializeMeta(const std::vector<uint8_t>& bytes, CheckpointMeta* meta)
{
    util::StateReader r(bytes);
    meta->machine_config.mem_bytes = r.U32();
    meta->machine_config.tlb_sets = r.U32();
    meta->machine_config.tlb_ways = r.U32();
    meta->machine_config.timer_reload = r.U32();

    AtumConfig& t = meta->tracer_config;
    t.buffer_bytes = r.U32();
    t.cost_per_record = r.U32();
    t.drain_pause_ucycles = r.U32();
    bool all_recorded = true;
    for (int i = 0; i < kAlwaysRecordedSlots; ++i)
        all_recorded = r.U8() == 1 && all_recorded;
    t.record_opcodes = r.Bool();
    const uint32_t max_retries = r.U32();
    const uint32_t retry_ucycles = r.U32();

    meta->sequence = r.U64();
    meta->instructions = r.U64();
    meta->instructions_remaining = r.U64();
    meta->trace_path = r.Str();
    meta->has_sink_state = r.Bool();
    if (!r.ok())
        return r.status();
    if (!r.AtEnd())
        return util::DataLoss("checkpoint meta section has ", r.remaining(),
                              " trailing bytes");
    // Resuming a capture whose stream left out a record kind, or whose
    // drains retried differently, would join a different stream onto
    // the trace's prefix.
    if (!all_recorded)
        return util::DataLoss("checkpoint meta leaves a record kind out; "
                              "this tracer records every kind");
    if (max_retries != kDrainMaxRetries ||
        retry_ucycles != kDrainRetryUcycles)
        return util::DataLoss("checkpoint meta drain retry policy ",
                              max_retries, "x", retry_ucycles,
                              " ucycles is not this tracer's ",
                              kDrainMaxRetries, "x", kDrainRetryUcycles);
    return util::OkStatus();
}

// -- sink section payload ---------------------------------------------------

void
SerializeSink(const trace::Atf2ResumeState& state, util::StateWriter& w)
{
    w.U64(state.file_bytes);
    w.U32(state.chunks);
    w.U64(state.records);
    w.U32(state.chunk_records);
    w.Blob(state.pending.data(), state.pending.size());
}

util::Status
DeserializeSink(const std::vector<uint8_t>& bytes,
                trace::Atf2ResumeState* state)
{
    util::StateReader r(bytes);
    state->file_bytes = r.U64();
    state->chunks = r.U32();
    state->records = r.U64();
    state->chunk_records = r.U32();
    state->pending = r.Blob();
    if (!r.ok())
        return r.status();
    if (!r.AtEnd())
        return util::DataLoss("checkpoint sink section has ", r.remaining(),
                              " trailing bytes");
    if (state->pending.size() % trace::kRecordBytes != 0)
        return util::DataLoss("checkpoint open-chunk bytes (",
                              state->pending.size(),
                              ") are not a whole number of records");
    // The writer packs the open chunk into a buffer of exactly this
    // capacity, so outside bytes must not exceed it.
    if (state->chunk_records == 0 ||
        state->chunk_records > trace::kAtf2MaxChunkRecords)
        return util::DataLoss("checkpoint chunk capacity ",
                              state->chunk_records, " is out of range");
    if (state->pending.size() >
        size_t{state->chunk_records} * trace::kRecordBytes)
        return util::DataLoss("checkpoint open chunk holds ",
                              state->pending.size() / trace::kRecordBytes,
                              " records, more than its capacity of ",
                              state->chunk_records);
    return util::OkStatus();
}

// -- framing ----------------------------------------------------------------

util::Status
WriteSection(io::WritableFile& out, CheckpointSection id,
             const std::vector<uint8_t>& payload, uint32_t* sections,
             uint64_t* payload_total)
{
    std::vector<uint8_t> header;
    header.reserve(kCheckpointSectionHeaderBytes);
    Put32(header, kCheckpointSectionMagic);
    Put32(header, static_cast<uint32_t>(id));
    Put64(header, payload.size());
    Put32(header, util::Crc32c(payload.data(), payload.size()));
    Put32(header, util::Crc32c(header.data(), header.size()));

    util::Status status = out.Write(header.data(), header.size());
    if (!status.ok())
        return status;
    status = out.Write(payload.data(), payload.size());
    if (!status.ok())
        return status;
    ++*sections;
    *payload_total += payload.size();
    return util::OkStatus();
}

/** Reads exactly `len` bytes or fails with data-loss. */
util::Status
ReadExact(io::ReadableFile& in, uint8_t* dst, size_t len,
          const char* what)
{
    size_t got = 0;
    while (got < len) {
        util::StatusOr<size_t> n = in.Read(dst + got, len - got);
        if (!n.ok())
            return n.status();
        if (*n == 0)
            return util::DataLoss("checkpoint truncated in ", what, " (",
                                  got, " of ", len, " bytes)");
        got += *n;
    }
    return util::OkStatus();
}

}  // namespace

util::Status
WriteCheckpoint(io::WritableFile& out, const CheckpointMeta& meta,
                const cpu::Machine& machine, const AtumTracer& tracer,
                const trace::Atf2ResumeState* sink_state)
{
    const uint32_t section_count = sink_state ? 4 : 3;

    std::vector<uint8_t> header;
    header.reserve(kCheckpointHeaderBytes);
    header.insert(header.end(), kCheckpointMagic, kCheckpointMagic + 8);
    Put16(header, kCheckpointVersion);
    Put16(header, 0);  // flags
    Put32(header, section_count);
    while (header.size() < kCheckpointHeaderBytes - 4)
        header.push_back(0);  // reserved
    Put32(header, util::Crc32c(header.data(), header.size()));
    util::Status status = out.Write(header.data(), header.size());
    if (!status.ok())
        return status;

    uint32_t sections = 0;
    uint64_t payload_total = 0;

    {
        util::StateWriter w;
        CheckpointMeta stamped = meta;
        stamped.has_sink_state = sink_state != nullptr;
        SerializeMeta(stamped, w);
        status = WriteSection(out, CheckpointSection::kMeta, w.bytes(),
                              &sections, &payload_total);
        if (!status.ok())
            return status;
    }
    {
        util::StateWriter w;
        status = machine.Save(w);
        if (!status.ok())
            return status;
        status = WriteSection(out, CheckpointSection::kMachine, w.bytes(),
                              &sections, &payload_total);
        if (!status.ok())
            return status;
    }
    {
        util::StateWriter w;
        status = tracer.Save(w);
        if (!status.ok())
            return status;
        status = WriteSection(out, CheckpointSection::kTracer, w.bytes(),
                              &sections, &payload_total);
        if (!status.ok())
            return status;
    }
    if (sink_state) {
        util::StateWriter w;
        SerializeSink(*sink_state, w);
        status = WriteSection(out, CheckpointSection::kSink, w.bytes(),
                              &sections, &payload_total);
        if (!status.ok())
            return status;
    }

    std::vector<uint8_t> footer;
    footer.reserve(kCheckpointFooterBytes);
    Put32(footer, kCheckpointFooterMagic);
    Put32(footer, sections);
    Put64(footer, payload_total);
    Put32(footer, 0);  // reserved
    Put32(footer, util::Crc32c(footer.data(), footer.size()));
    return out.Write(footer.data(), footer.size());
}

namespace {
bool g_checkpoint_dirsync_enabled = true;
}  // namespace

void
SetCheckpointDirSyncForTest(bool enabled)
{
    g_checkpoint_dirsync_enabled = enabled;
}

util::Status
WriteCheckpointFile(const std::string& path, const CheckpointMeta& meta,
                    const cpu::Machine& machine, const AtumTracer& tracer,
                    const trace::Atf2ResumeState* sink_state, io::Vfs& vfs)
{
    // Atomic publish: write a sibling temp file, fsync it, then rename
    // over the target. A crash at any point leaves either the previous
    // checkpoint or a stray .tmp — never a half-written file under the
    // real name.
    const std::string tmp = path + ".tmp";
    {
        util::StatusOr<std::unique_ptr<trace::FileByteSink>> out =
            trace::FileByteSink::Open(tmp, vfs);
        if (!out.ok())
            return out.status();
        util::Status status =
            WriteCheckpoint(**out, meta, machine, tracer, sink_state);
        if (status.ok())
            status = (*out)->Sync();
        const util::Status close_status = (*out)->Close();
        if (status.ok())
            status = close_status;
        if (!status.ok()) {
            (void)vfs.Unlink(tmp);
            return status;
        }
    }
    if (util::Status status = vfs.Rename(tmp, path); !status.ok()) {
        (void)vfs.Unlink(tmp);
        return status;
    }
    // The rename is only a promise until the directory itself is synced:
    // without this, a power cut can roll the namespace back and silently
    // un-publish a checkpoint the session already counted as written.
    if (g_checkpoint_dirsync_enabled) {
        if (util::Status status = vfs.DirSync(path); !status.ok())
            return status;
    }
    return util::OkStatus();
}

util::StatusOr<Checkpoint>
Checkpoint::Read(io::ReadableFile& in)
{
    uint8_t header[kCheckpointHeaderBytes];
    util::Status status = ReadExact(in, header, sizeof header, "header");
    if (!status.ok())
        return status;
    if (std::memcmp(header, kCheckpointMagic, 8) != 0)
        return util::InvalidArgument("not an ATUM checkpoint file");
    if (Get32(&header[kCheckpointHeaderBytes - 4]) !=
        util::Crc32c(header, kCheckpointHeaderBytes - 4))
        return util::DataLoss("checkpoint header CRC mismatch");
    const uint16_t version = Get16(&header[8]);
    if (version != kCheckpointVersion)
        return util::InvalidArgument("unsupported checkpoint version ",
                                     version);
    const uint32_t section_count = Get32(&header[12]);
    if (section_count < 3 || section_count > 16)
        return util::DataLoss("implausible checkpoint section count ",
                              section_count);

    Checkpoint ckpt;
    bool have[5] = {};
    uint64_t payload_total = 0;
    for (uint32_t i = 0; i < section_count; ++i) {
        uint8_t sh[kCheckpointSectionHeaderBytes];
        status = ReadExact(in, sh, sizeof sh, "section header");
        if (!status.ok())
            return status;
        if (Get32(&sh[0]) != kCheckpointSectionMagic)
            return util::DataLoss("bad section marker in checkpoint");
        if (Get32(&sh[20]) != util::Crc32c(sh, 20))
            return util::DataLoss("checkpoint section header CRC mismatch");
        const uint32_t id = Get32(&sh[4]);
        const uint64_t len = Get64(&sh[8]);
        const uint32_t payload_crc = Get32(&sh[16]);
        if (len > (64u << 20))
            return util::DataLoss("implausible checkpoint section size ",
                                  len);
        std::vector<uint8_t> payload(len);
        status = ReadExact(in, payload.data(), len, "section payload");
        if (!status.ok())
            return status;
        if (util::Crc32c(payload.data(), payload.size()) != payload_crc)
            return util::DataLoss("checkpoint section ", id,
                                  " payload CRC mismatch");
        payload_total += len;

        switch (static_cast<CheckpointSection>(id)) {
        case CheckpointSection::kMeta:
            status = DeserializeMeta(payload, &ckpt.meta_);
            if (!status.ok())
                return status;
            have[1] = true;
            break;
        case CheckpointSection::kMachine:
            ckpt.machine_bytes_ = std::move(payload);
            have[2] = true;
            break;
        case CheckpointSection::kTracer:
            ckpt.tracer_bytes_ = std::move(payload);
            have[3] = true;
            break;
        case CheckpointSection::kSink:
            status = DeserializeSink(payload, &ckpt.sink_state_);
            if (!status.ok())
                return status;
            have[4] = true;
            break;
        default:
            // Unknown section ids from a future minor revision are
            // skipped (their CRC was still verified above).
            break;
        }
    }

    uint8_t footer[kCheckpointFooterBytes];
    status = ReadExact(in, footer, sizeof footer, "footer");
    if (!status.ok())
        return status;
    if (Get32(&footer[0]) != kCheckpointFooterMagic)
        return util::DataLoss("checkpoint footer marker missing");
    if (Get32(&footer[kCheckpointFooterBytes - 4]) !=
        util::Crc32c(footer, kCheckpointFooterBytes - 4))
        return util::DataLoss("checkpoint footer CRC mismatch");
    if (Get32(&footer[4]) != section_count ||
        Get64(&footer[8]) != payload_total)
        return util::DataLoss("checkpoint footer totals disagree with body");

    if (!have[1] || !have[2] || !have[3])
        return util::DataLoss("checkpoint is missing a required section");
    if (ckpt.meta_.has_sink_state && !have[4])
        return util::DataLoss(
            "checkpoint promises trace-sink state but has none");
    return ckpt;
}

util::StatusOr<Checkpoint>
Checkpoint::Load(const std::string& path, io::Vfs& vfs)
{
    util::StatusOr<std::unique_ptr<trace::FileByteSource>> in =
        trace::FileByteSource::Open(path, vfs);
    if (!in.ok())
        return in.status();
    return Read(**in);
}

util::Status
Checkpoint::RestoreMachine(cpu::Machine& machine) const
{
    util::StateReader r(machine_bytes_);
    util::Status status = machine.Restore(r);
    if (!status.ok())
        return status;
    if (!r.AtEnd())
        return util::DataLoss("checkpoint machine section has ",
                              r.remaining(), " trailing bytes");
    return util::OkStatus();
}

util::Status
Checkpoint::RestoreTracer(AtumTracer& tracer) const
{
    util::StateReader r(tracer_bytes_);
    util::Status status = tracer.Restore(r);
    if (!status.ok())
        return status;
    if (!r.AtEnd())
        return util::DataLoss("checkpoint tracer section has ",
                              r.remaining(), " trailing bytes");
    return util::OkStatus();
}

CheckpointRotator::CheckpointRotator(std::string base, uint32_t keep,
                                     uint64_t next_seq, io::Vfs& vfs)
    : base_(std::move(base)), keep_(keep == 0 ? 1 : keep),
      seq_(next_seq == 0 ? 1 : next_seq), vfs_(&vfs)
{
}

std::string
CheckpointRotator::PathFor(uint64_t seq) const
{
    char suffix[32];
    std::snprintf(suffix, sizeof suffix, ".%06" PRIu64 "%s", seq,
                  kSeriesSuffix);
    return base_ + suffix;
}

util::Status
CheckpointRotator::Write(CheckpointMeta meta, const cpu::Machine& machine,
                         const AtumTracer& tracer,
                         const trace::Atf2ResumeState* sink_state)
{
    meta.sequence = seq_;
    const std::string path = PathFor(seq_);
    const util::Status status =
        WriteCheckpointFile(path, meta, machine, tracer, sink_state, *vfs_);
    if (!status.ok())
        return status;
    last_path_ = path;
    ++written_;
    ++seq_;
    if (seq_ > keep_ + 1) {
        // The checkpoint that just fell out of the retention window. A
        // failed remove is harmless (the file may belong to an earlier
        // series or already be gone).
        (void)vfs_->Unlink(PathFor(seq_ - 1 - keep_));
    }
    return util::OkStatus();
}

std::optional<std::string>
CheckpointSeriesBase(const std::string& path)
{
    const std::optional<SeriesName> split = SplitSeriesPath(path);
    return split ? std::optional(split->first) : std::nullopt;
}

util::StatusOr<Checkpoint>
FindNewestCheckpoint(const std::string& base, io::Vfs& vfs)
{
    util::StatusOr<std::vector<std::string>> names =
        vfs.ListDir(io::DirOf(base));
    if (!names.ok())
        return names.status();
    // ListDir returns basenames; base's own spelling of its directory
    // turns one back into the path PathFor wrote.
    const size_t stem = base.find_last_of('/') + 1;
    std::vector<std::pair<uint64_t, std::string>> series;
    for (const std::string& name : *names) {
        const std::optional<SeriesName> split = SplitSeriesPath(name);
        if (split && split->first == base.substr(stem))
            series.emplace_back(split->second, base.substr(0, stem) + name);
    }
    std::sort(series.rbegin(), series.rend());
    for (const std::pair<uint64_t, std::string>& entry : series) {
        util::StatusOr<Checkpoint> ckpt = Checkpoint::Load(entry.second, vfs);
        // A damaged newest checkpoint is expected after a crash; the one
        // before it is the durable truth.
        if (ckpt.ok() && ckpt->meta().has_sink_state)
            return ckpt;
    }
    return util::NotFound("no loadable checkpoint in series ", base);
}

util::StatusOr<ResumedCapture>
ResumeCapture(const Checkpoint& checkpoint, const std::string& trace_path,
              io::Vfs& vfs)
{
    const CheckpointMeta& meta = checkpoint.meta();
    if (!meta.has_sink_state)
        return util::DataLoss("checkpoint carries no trace-sink state; "
                              "nothing to resume into");
    ResumedCapture capture;
    util::StatusOr<std::unique_ptr<trace::FileSink>> sink =
        trace::FileSink::OpenResumed(trace_path, checkpoint.sink_state(),
                                     vfs);
    if (!sink.ok())
        return util::Status(sink.status().code(),
                            "reopening " + trace_path + ": " +
                                sink.status().message());
    capture.sink = std::move(*sink);

    // Construction order matters: the tracer's buffer reservation must
    // exist before the memory image is restored over it, and both must
    // match the geometry recorded in the checkpoint meta.
    capture.machine = std::make_unique<cpu::Machine>(meta.machine_config);
    capture.tracer = std::make_unique<AtumTracer>(
        *capture.machine, *capture.sink, meta.tracer_config);
    util::Status status = checkpoint.RestoreMachine(*capture.machine);
    if (status.ok())
        status = checkpoint.RestoreTracer(*capture.tracer);
    if (!status.ok())
        return util::Status(status.code(),
                            "restoring the capture: " + status.message());
    capture.next_sequence = meta.sequence + 1;
    capture.instructions_remaining = meta.instructions_remaining;
    return capture;
}

}  // namespace atum::core
