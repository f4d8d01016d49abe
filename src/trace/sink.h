#ifndef ATUM_TRACE_SINK_H_
#define ATUM_TRACE_SINK_H_

/**
 * @file
 * Trace consumers and producers: where drained trace-buffer contents go
 * (sinks) and where analyzers read records from (sources).
 *
 * Sinks report failure through Status instead of dying: the captured
 * trace is the single most valuable artifact this system produces, and a
 * full disk must never take the (simulated) machine down with it — the
 * tracer's drain path retries and degrades instead (core/atum_tracer.h).
 *
 * File-backed sinks write the checksummed ATF2 container
 * (trace/container.h); file sources read ATF2.
 */

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "trace/container.h"
#include "trace/record.h"
#include "util/status.h"

namespace atum::trace {

/**
 * ByteSink decorator that meters the host-side write path: bytes and
 * write calls (`trace.sink.bytes`, `trace.sink.writes`), fsyncs
 * (`trace.sink.fsyncs`) and per-Write wall latency (`trace.sink.write_us`
 * log2-µs histogram), all in the global metrics registry. Pure
 * pass-through otherwise — statuses (including injected faults)
 * propagate unchanged.
 */
class MeteredByteSink : public ByteSink
{
  public:
    explicit MeteredByteSink(std::unique_ptr<ByteSink> inner);

    util::Status Write(const void* data, size_t len) override;
    util::Status Flush() override { return inner_->Flush(); }
    util::Status Sync() override;
    util::Status Close() override { return inner_->Close(); }

  private:
    std::unique_ptr<ByteSink> inner_;
    obs::Counter* bytes_;
    obs::Counter* writes_;
    obs::Counter* fsyncs_;
    obs::Histogram* write_us_;
};

/** Receives records drained from the trace buffer. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;
    /**
     * Accepts one record. A non-OK status means the record was NOT
     * consumed; the caller owns the retry/degrade decision and may call
     * again with the same record once the sink recovers.
     */
    virtual util::Status Append(const Record& record) = 0;
};

/** Accumulates records in memory. */
class VectorSink : public TraceSink
{
  public:
    util::Status Append(const Record& record) override
    {
        records_.push_back(record);
        return util::OkStatus();
    }

    const std::vector<Record>& records() const { return records_; }
    std::vector<Record> TakeRecords() { return std::move(records_); }

  private:
    std::vector<Record> records_;
};

/** Counts records without storing them (for long capacity runs). */
class CountingSink : public TraceSink
{
  public:
    util::Status Append(const Record&) override
    {
        ++count_;
        return util::OkStatus();
    }
    uint64_t count() const { return count_; }

  private:
    uint64_t count_ = 0;
};

/** Streams records into an ATF2 container file. */
class FileSink : public TraceSink
{
  public:
    /**
     * Opens `path` for writing; Fatal when the file cannot be created
     * (kept for the quickstart path — use Open() where a recoverable
     * error is wanted).
     */
    explicit FileSink(const std::string& path);

    /** Recoverable open; `vfs` selects the filesystem (chaos tests). */
    static util::StatusOr<std::unique_ptr<FileSink>> Open(
        const std::string& path, const Atf2WriterOptions& options = {},
        io::Vfs& vfs = io::RealVfs());

    /**
     * Re-opens an interrupted capture's trace file for continuation:
     * truncates it back to the checkpointed high-water mark and
     * reconstructs the container writer (including the open chunk's
     * buffered records) so continued appends are byte-identical to a
     * capture that was never interrupted.
     */
    static util::StatusOr<std::unique_ptr<FileSink>> OpenResumed(
        const std::string& path, const Atf2ResumeState& state,
        io::Vfs& vfs = io::RealVfs());

    /** Writes the container into an arbitrary byte sink (fault tests). */
    explicit FileSink(std::unique_ptr<ByteSink> out,
                      const Atf2WriterOptions& options = {});

    /** Closes (seal + fsync) if still open; failure is a warning only. */
    ~FileSink() override;

    FileSink(const FileSink&) = delete;
    FileSink& operator=(const FileSink&) = delete;

    /** Appends one record; after Close() returns failed-precondition. */
    util::Status Append(const Record& record) override;

    /**
     * Seals the container, fsyncs and closes the file. Idempotent: a
     * second Close() is a no-op returning the first outcome.
     */
    util::Status Close();

    uint64_t count() const { return writer_ ? writer_->records() : 0; }

    /** Bytes of durable container prefix so far — what a trace-byte
     *  quota meters (buffered open-chunk records not yet included). */
    uint64_t bytes_written() const
    {
        return writer_ ? writer_->bytes_written() : 0;
    }

    /**
     * Makes the durable prefix crash-safe (fsync) and returns the
     * writer's mid-stream state for a checkpoint. Called between drains;
     * fails after Close().
     */
    util::StatusOr<Atf2ResumeState> SaveState();

    /**
     * Publishes container-level tallies into `reg` as `trace.sink.*`
     * counters (records, chunks, file_bytes). The byte-path metrics
     * (bytes/writes/fsyncs/write_us) are event-driven via
     * MeteredByteSink and need no publishing.
     */
    void PublishMetrics(obs::Registry& reg) const;

  private:
    FileSink(std::unique_ptr<ByteSink> out, const Atf2ResumeState& state);

    std::unique_ptr<ByteSink> out_;
    std::unique_ptr<Atf2Writer> writer_;
    bool closed_ = false;
    util::Status close_status_;
};

/** Sequential record reader. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;
    /** Returns the next record, or nullopt at end of trace. */
    virtual std::optional<Record> Next() = 0;
};

/** Reads from an in-memory record vector (borrowed, not owned). */
class VectorSource : public TraceSource
{
  public:
    explicit VectorSource(const std::vector<Record>& records)
        : records_(records)
    {
    }

    std::optional<Record> Next() override
    {
        if (pos_ >= records_.size())
            return std::nullopt;
        return records_[pos_++];
    }

    void Reset() { pos_ = 0; }

  private:
    const std::vector<Record>& records_;
    size_t pos_ = 0;
};

/**
 * Reads an ATF2 trace file. Damage does not kill the stream: Next()
 * serves every checksum-verified record and then stops; status() tells
 * whether that end was a clean EOF (OK) or a tear (data-loss), and
 * report() has the per-chunk detail.
 */
class FileSource : public TraceSource
{
  public:
    static util::StatusOr<std::unique_ptr<FileSource>> Open(
        const std::string& path, io::Vfs& vfs = io::RealVfs());

    std::optional<Record> Next() override;

    /** OK while every record so far came from verified, complete data. */
    const util::Status& status() const { return status_; }
    const ScanReport& report() const { return report_; }

  private:
    FileSource() = default;

    std::vector<Record> records_;
    size_t pos_ = 0;
    ScanReport report_;
    util::Status status_;
};

/**
 * Writes `records` to `path` as a sealed ATF2 container.
 * The returned status may be ignored by legacy callers; nothing aborts.
 */
util::Status WriteTraceFile(const std::string& path,
                            const std::vector<Record>& records);

/**
 * Reads an entire trace file into memory; Fatal on any error (legacy
 * convenience — prefer LoadTrace (trace/container.h) in new code).
 */
std::vector<Record> ReadTraceFile(const std::string& path);

}  // namespace atum::trace

#endif  // ATUM_TRACE_SINK_H_
