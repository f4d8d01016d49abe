#include "trace/sink.h"

#include <chrono>
#include <utility>

#include "util/logging.h"

namespace atum::trace {

namespace {

/**
 * WritableFile decorator that meters the host-side write path: bytes and
 * write calls (`trace.sink.bytes`, `trace.sink.writes`), fsyncs
 * (`trace.sink.fsyncs`) and per-Write wall latency (`trace.sink.write_us`
 * log2-µs histogram), all in the global metrics registry. Pure
 * pass-through otherwise — statuses (including injected faults)
 * propagate unchanged.
 */
class MeteredFile : public io::WritableFile
{
  public:
    explicit MeteredFile(std::unique_ptr<io::WritableFile> inner)
        : inner_(std::move(inner)),
          bytes_(&obs::Registry::Global().GetCounter("trace.sink.bytes")),
          writes_(&obs::Registry::Global().GetCounter("trace.sink.writes")),
          fsyncs_(&obs::Registry::Global().GetCounter("trace.sink.fsyncs")),
          write_us_(
              &obs::Registry::Global().GetHistogram("trace.sink.write_us"))
    {
    }

    util::Status Write(const void* data, size_t len) override
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

    util::Status Sync() override
    {
        util::Status status = inner_->Sync();
        fsyncs_->Add(1);
        return status;
    }

    util::Status Close() override { return inner_->Close(); }

  private:
    std::unique_ptr<io::WritableFile> inner_;
    obs::Counter* bytes_;
    obs::Counter* writes_;
    obs::Counter* fsyncs_;
    obs::Histogram* write_us_;
};

}  // namespace

FileSink::FileSink(std::unique_ptr<io::WritableFile> out,
                   const Atf2WriterOptions& options)
    : out_(std::make_unique<MeteredFile>(std::move(out)))
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

FileSink::FileSink(std::unique_ptr<io::WritableFile> out,
                   const Atf2ResumeState& state)
    : out_(std::make_unique<MeteredFile>(std::move(out)))
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
FileSink::ClosedError()
{
    return util::FailedPrecondition("Append on a closed FileSink");
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

}  // namespace atum::trace
