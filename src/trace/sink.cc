#include "trace/sink.h"

#include <chrono>
#include <utility>

#include "util/logging.h"

namespace atum::trace {

MeteredByteSink::MeteredByteSink(std::unique_ptr<ByteSink> inner)
    : inner_(std::move(inner)),
      bytes_(&obs::Registry::Global().GetCounter("trace.sink.bytes")),
      writes_(&obs::Registry::Global().GetCounter("trace.sink.writes")),
      fsyncs_(&obs::Registry::Global().GetCounter("trace.sink.fsyncs")),
      write_us_(&obs::Registry::Global().GetHistogram("trace.sink.write_us"))
{
}

util::Status
MeteredByteSink::Write(const void* data, size_t len)
{
    const auto t0 = std::chrono::steady_clock::now();
    util::Status status = inner_->Write(data, len);
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    write_us_->Add(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
            .count()));
    writes_->Add(1);
    if (status.ok())
        bytes_->Add(len);
    return status;
}

util::Status
MeteredByteSink::Sync()
{
    util::Status status = inner_->Sync();
    fsyncs_->Add(1);
    return status;
}

FileSink::FileSink(const std::string& path)
{
    util::StatusOr<std::unique_ptr<FileByteSink>> out =
        FileByteSink::Open(path);
    if (!out.ok())
        Fatal(out.status().message());
    out_ = std::make_unique<MeteredByteSink>(std::move(*out));
    writer_ = std::make_unique<Atf2Writer>(*out_);
}

FileSink::FileSink(std::unique_ptr<ByteSink> out,
                   const Atf2WriterOptions& options)
    : out_(std::make_unique<MeteredByteSink>(std::move(out)))
{
    writer_ = std::make_unique<Atf2Writer>(*out_, options);
}

util::StatusOr<std::unique_ptr<FileSink>>
FileSink::Open(const std::string& path, const Atf2WriterOptions& options,
               io::Vfs& vfs)
{
    util::StatusOr<std::unique_ptr<FileByteSink>> out =
        FileByteSink::Open(path, vfs);
    if (!out.ok())
        return out.status();
    return std::unique_ptr<FileSink>(
        new FileSink(std::move(*out), options));
}

FileSink::FileSink(std::unique_ptr<ByteSink> out,
                   const Atf2ResumeState& state)
    : out_(std::make_unique<MeteredByteSink>(std::move(out)))
{
    writer_ = std::make_unique<Atf2Writer>(*out_, Atf2Writer::ResumeFrom{state});
}

util::StatusOr<std::unique_ptr<FileSink>>
FileSink::OpenResumed(const std::string& path, const Atf2ResumeState& state,
                      io::Vfs& vfs)
{
    util::StatusOr<std::unique_ptr<FileByteSink>> out =
        FileByteSink::OpenAt(path, state.file_bytes, vfs);
    if (!out.ok())
        return out.status();
    return std::unique_ptr<FileSink>(new FileSink(std::move(*out), state));
}

util::StatusOr<Atf2ResumeState>
FileSink::SaveState()
{
    if (closed_)
        return util::FailedPrecondition("SaveState on a closed FileSink");
    const util::Status status = out_->Sync();
    if (!status.ok())
        return status;
    return writer_->SaveState();
}

FileSink::~FileSink()
{
    const util::Status status = Close();
    if (!status.ok())
        Warn("closing trace sink: ", status.ToString());
}

util::Status
FileSink::Append(const Record& record)
{
    if (closed_)
        return util::FailedPrecondition("Append on a closed FileSink");
    return writer_->Append(record);
}

util::Status
FileSink::Close()
{
    if (closed_)
        return close_status_;
    closed_ = true;
    close_status_ = writer_->Seal();
    const util::Status out_status = out_->Close();
    if (close_status_.ok())
        close_status_ = out_status;
    return close_status_;
}

void
FileSink::PublishMetrics(obs::Registry& reg) const
{
    if (!writer_)
        return;
    reg.GetCounter("trace.sink.records").Set(writer_->records());
    reg.GetCounter("trace.sink.chunks").Set(writer_->chunks_written());
    reg.GetCounter("trace.sink.file_bytes").Set(writer_->bytes_written());
}

util::StatusOr<std::unique_ptr<FileSource>>
FileSource::Open(const std::string& path, io::Vfs& vfs)
{
    util::StatusOr<std::unique_ptr<FileByteSource>> in =
        FileByteSource::Open(path, vfs);
    if (!in.ok())
        return in.status();

    std::unique_ptr<FileSource> source(new FileSource);
    source->report_ = ScanTrace(**in, &source->records_);
    if (!source->report_.recognized)
        return util::InvalidArgument("not an ATUM trace file: ", path);
    if (!source->report_.intact()) {
        const auto& issues = source->report_.issues;
        source->status_ = util::DataLoss(
            path, ": ", issues.empty() ? "damaged" : issues[0].error, " (",
            source->report_.records_salvaged, " records salvageable)");
    }
    return source;
}

std::optional<Record>
FileSource::Next()
{
    if (pos_ >= records_.size())
        return std::nullopt;
    return records_[pos_++];
}

util::Status
WriteTraceFile(const std::string& path, const std::vector<Record>& records)
{
    util::StatusOr<std::unique_ptr<FileSink>> sink = FileSink::Open(path);
    if (!sink.ok())
        return sink.status();
    for (const Record& r : records) {
        util::Status status = (*sink)->Append(r);
        if (!status.ok())
            return status;
    }
    return (*sink)->Close();
}

std::vector<Record>
ReadTraceFile(const std::string& path)
{
    util::StatusOr<std::vector<Record>> records = LoadTrace(path);
    if (!records.ok())
        Fatal(records.status().ToString());
    return std::move(*records);
}

}  // namespace atum::trace
