// atum_perfbench: the repository benchmark (README.md beside this file).
//
// Captures seeded guest mixes through the ATUM patch into sealed ATF2
// files and replays them, through the same library entry points as
// atum-capture (core::RunSupervised into a trace::FileSink) and
// atum-report (ScanTrace, LoadTrace, SweepRunner, the analyzers), and
// checks every output.
//
// Usage:
//   atum_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--out DIR] [--smoke]
//
// --trace 0 measures the end-to-end metrics with spans off. --trace 1
// alternates those span-off repetitions with ledger passes that record
// an obs span around every public call and report per-layer self times.
// --smoke runs the same code at scale 1 (the benchmark's own test).
//
// Progress, the build and host tag and every failed check go to stderr.
// The last stdout line is one JSON object: correct, attempted, failed and
// metrics. The full result (samples, tags, ledger) is written to
// DIR/<workload>-seed<N>-trace<T>.json; --trace 1 also writes a Perfetto
// span file and the ledger capture's RUN.json beside it.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/crosscheck.h"
#include "analysis/stack_distance.h"
#include "cache/cache.h"
#include "core/atum_tracer.h"
#include "core/session.h"
#include "cpu/machine.h"
#include "kernel/boot.h"
#include "obs/metrics.h"
#include "obs/spans.h"
#include "obs/stats_emitter.h"
#include "replay/sweep.h"
#include "tlbsim/tlb_sim.h"
#include "trace/container.h"
#include "trace/record.h"
#include "trace/sink.h"
#include "trace/stats.h"
#include "util/build_info.h"
#include "util/crc32.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/status.h"
#include "workloads/workloads.h"

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace atum::perfbench {
namespace {

/** The seed whose deterministic counts are pinned (PinsFor). */
constexpr uint64_t kDefaultSeed = 1;
constexpr uint64_t kMaxInstructions = 2'000'000'000;
/** Span ring slots per thread (log2): a ledger pass records ~8 K spans on
 *  the main thread, and the default 4 K ring would drop the oldest. */
constexpr int kSpanRingLog2 = 15;
/** replay_pipeline repeats its set-up this often; setup_s is the median. */
constexpr int kReplaySetups = 5;

uint64_t
Now()
{
    return obs::MonotonicNowNs();
}

double
Seconds(uint64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

double
Median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Workloads and their seeded inputs.

struct WorkloadSpec {
    std::string name;
    std::vector<std::string> guests;
    uint32_t scale;   ///< guest size multiplier of a full run
    uint32_t mem_mb;  ///< simulated physical memory
    bool replay;      ///< capture during set-up, replay in the timed loop
};

const std::vector<WorkloadSpec>&
Specs()
{
    // capture_adversarial is scaled until a traced run lasts about as long
    // as capture_mix; below 16 MB its tlbthrash and iostorm guests die of
    // memory exhaustion. replay_pipeline replays the compute mix at 3/8 of
    // the reference scale so a dozen passes fit in one run.
    static const std::vector<WorkloadSpec> kSpecs = {
        {"capture_mix",
         {"matrix", "sort", "listproc", "grep", "hash", "fft"}, 8, 4, false},
        {"capture_adversarial",
         {"server", "iostorm", "forkwave", "tlbthrash", "smc"}, 80, 16,
         false},
        {"replay_pipeline",
         {"matrix", "sort", "listproc", "grep", "hash", "fft"}, 3, 4, true},
    };
    return kSpecs;
}

struct Inputs {
    std::vector<std::string> guests;  ///< boot order (seeded)
    uint32_t scale = 1;
    uint32_t mem_mb = 4;
    uint32_t timer = 2000;  ///< instructions per timer tick (seeded)
};

/** The seed picks the boot order and the timer quantum. */
Inputs
MakeInputs(const WorkloadSpec& spec, uint64_t seed, bool smoke)
{
    Rng rng(seed);
    Inputs in;
    in.guests = spec.guests;
    for (size_t i = in.guests.size(); i > 1; --i)
        std::swap(in.guests[i - 1],
                  in.guests[rng.Below(static_cast<uint32_t>(i))]);
    in.timer = rng.Range(1900, 2100);
    in.scale = smoke ? 1 : spec.scale;
    in.mem_mb = spec.mem_mb;
    return in;
}

/** A clean run prints each guest's exit letter and one '+' per forkwave
 *  child, in an order the scheduler decides; returned sorted. */
std::string
ExpectedConsole(const Inputs& in)
{
    static const std::map<std::string, char> kExitLetter = {
        {"matrix", 'm'},  {"sort", 's'},    {"listproc", 'l'},
        {"grep", 'g'},    {"hash", 'c'},    {"fft", 'f'},
        {"server", 'v'},  {"iostorm", 'd'}, {"forkwave", 'w'},
        {"tlbthrash", 't'}, {"smc", 'x'},
    };
    std::string s;
    for (const std::string& guest : in.guests) {
        s += kExitLetter.at(guest);
        if (guest == "forkwave")
            s.append(std::min(12u * in.scale, 48u), '+');
    }
    std::sort(s.begin(), s.end());
    return s;
}

/** Deterministic counts of a full-size run at kDefaultSeed. */
struct Pins {
    uint64_t instructions;
    uint64_t ucycles;
    uint64_t records;
    uint64_t file_bytes;
    std::vector<uint64_t> sweep_misses;  ///< replay_pipeline only
};

const Pins&
PinsFor(const std::string& workload)
{
    static const std::map<std::string, Pins> kPins = {
        {"capture_mix", {13483646, 1263384847, 17511465, 140639024, {}}},
        {"capture_adversarial",
         {9588221, 1247279028, 17518932, 140698984, {}}},
        {"replay_pipeline",
         {4269448, 395117758, 5439274, 43684232,
          {265482, 194833, 127639, 112175, 50195, 16532, 7069, 6419}}},
    };
    return kPins.at(workload);
}

/** The 8-config sweep every replay runs (atum-report --sweep form). */
std::vector<replay::SweepConfig>
SweepConfigs()
{
    struct Geometry {
        uint32_t kib, block, assoc;
    };
    static constexpr Geometry kGeometries[] = {
        {4, 16, 1},  {8, 16, 1},  {16, 16, 1}, {16, 16, 2},
        {32, 16, 2}, {64, 16, 2}, {64, 32, 4}, {128, 32, 4},
    };
    std::vector<replay::SweepConfig> configs;
    for (const Geometry& g : kGeometries) {
        cache::CacheConfig config;
        config.size_bytes = g.kib << 10;
        config.block_bytes = g.block;
        config.assoc = g.assoc;
        configs.push_back(replay::MakeCacheJob(config));
    }
    return configs;
}

/** The sweep row whose serial ReplayOne time gives cache.mrec_s. */
constexpr size_t kOneConfig = 3;

// ---------------------------------------------------------------------------
// Spans and the per-layer ledger.

class LayerSpan;

/** Self time per span name over one ledger pass. */
class Ledger
{
  public:
    /** Books a completed interval as a child of the innermost open span. */
    void AddChild(const char* name, uint64_t start_ns, uint64_t dur_ns);

    double self_s(const std::string& name) const
    {
        const auto it = self_ns.find(name);
        return it == self_ns.end() ? 0.0 : Seconds(it->second);
    }

    std::map<std::string, uint64_t> self_ns;
    std::map<std::string, uint64_t> calls;

  private:
    friend class LayerSpan;
    LayerSpan* open_ = nullptr;
};

/**
 * Times one public call. With a ledger it is also an obs span (category
 * "bench") whose self time — its duration minus the spans it encloses —
 * is booked under its name. Without one it is a plain timer.
 */
class LayerSpan
{
  public:
    LayerSpan(Ledger* ledger, const char* name)
        : ledger_(ledger), name_(name), span_("bench", name)
    {
        if (ledger_ != nullptr) {
            parent_ = ledger_->open_;
            ledger_->open_ = this;
        }
        start_ns_ = Now();
    }

    ~LayerSpan() { Close(); }

    LayerSpan(const LayerSpan&) = delete;
    LayerSpan& operator=(const LayerSpan&) = delete;

    /** Ends the span (idempotent); returns its duration in seconds. */
    double Close()
    {
        if (open_) {
            open_ = false;
            dur_ns_ = Now() - start_ns_;
            span_.Close();
            if (ledger_ != nullptr) {
                ledger_->self_ns[name_] += dur_ns_ - child_ns_;
                ++ledger_->calls[name_];
                if (parent_ != nullptr)
                    parent_->child_ns_ += dur_ns_;
                ledger_->open_ = parent_;
            }
        }
        return Seconds(dur_ns_);
    }

  private:
    friend class Ledger;

    Ledger* ledger_;
    const char* name_;
    obs::ScopedSpan span_;
    LayerSpan* parent_ = nullptr;
    uint64_t start_ns_ = 0;
    uint64_t dur_ns_ = 0;
    uint64_t child_ns_ = 0;
    bool open_ = true;
};

void
Ledger::AddChild(const char* name, uint64_t start_ns, uint64_t dur_ns)
{
    obs::RecordSpan("bench", name, start_ns, dur_ns, nullptr, nullptr, 0,
                    nullptr, 0);
    self_ns[name] += dur_ns;
    ++calls[name];
    if (open_ != nullptr)
        open_->child_ns_ += dur_ns;
}

// ---------------------------------------------------------------------------
// Capture.

/** CRC32C over the packed 8-byte form of a record stream. */
class RecordDigest
{
  public:
    void Add(const trace::Record& record)
    {
        trace::PackRecord(record, &buf_[used_]);
        used_ += trace::kRecordBytes;
        if (used_ == buf_.size())
            Flush();
    }

    uint32_t value()
    {
        Flush();
        return crc_;
    }

  private:
    void Flush()
    {
        crc_ = util::Crc32cExtend(crc_, buf_.data(), used_);
        used_ = 0;
    }

    std::vector<uint8_t> buf_ = std::vector<uint8_t>(64 << 10);
    size_t used_ = 0;
    uint32_t crc_ = 0;
};

/**
 * Forwards drained records to the file sink and, with a ledger, times
 * each drain. The tracer drains a full buffer (`burst` records) at a
 * time, so the clock is read at a burst's first and last Append only: a
 * read per record would cost about as much as the CRC being measured.
 */
class BurstSink : public trace::TraceSink
{
  public:
    BurstSink(trace::TraceSink& inner, uint32_t burst, Ledger* ledger,
              RecordDigest* digest)
        : inner_(inner), burst_(burst), ledger_(ledger), digest_(digest)
    {
    }

    util::Status Append(const trace::Record& record) override
    {
        if (pos_ == 0 && ledger_ != nullptr)
            start_ns_ = Now();
        util::Status status = inner_.Append(record);
        if (!status.ok())
            return status;  // consumed nothing; the tracer retries
        if (digest_ != nullptr)
            digest_->Add(record);
        ++count_;
        if (++pos_ == burst_)
            EndBurst();
        return status;
    }

    /** Closes the open burst (the final, partial drain). */
    void EndBurst()
    {
        if (pos_ == 0)
            return;
        if (ledger_ != nullptr)
            ledger_->AddChild("trace.drain", start_ns_, Now() - start_ns_);
        pos_ = 0;
    }

    uint64_t count() const { return count_; }

  private:
    trace::TraceSink& inner_;
    uint32_t burst_;
    Ledger* ledger_;
    RecordDigest* digest_;
    uint32_t pos_ = 0;
    uint64_t start_ns_ = 0;
    uint64_t count_ = 0;
};

enum class SinkKind { kNone, kCounting, kFile };

struct CaptureRun {
    SinkKind kind = SinkKind::kNone;
    util::Status status;  ///< sink open / seal
    core::SessionResult result;
    std::string console;
    cpu::EventCounters counters;
    uint64_t exceptions = 0;
    uint64_t tb_misses = 0;
    uint64_t sink_records = 0;  ///< records the sink accepted
    uint64_t file_bytes = 0;
    uint32_t digest = 0;  ///< of the accepted records, when asked for
    double setup_s = 0;   ///< guest images, machine, sink, tracer, boot
    double run_s = 0;     ///< the run, drains included
    double seal_s = 0;    ///< FileSink::Close: seal + fsync
    std::vector<obs::PhaseProfiler::Row> phases;
    uint64_t phase_run_ns = 0;
    double phase_coverage = 0;
};

const char*
RunSpanName(SinkKind kind)
{
    switch (kind) {
    case SinkKind::kNone:
        return "cpu.run_untraced";
    case SinkKind::kCounting:
        return "core.run_counting";
    case SinkKind::kFile:
        return "core.run_file";
    }
    return "?";
}

/**
 * Boots the guests and runs them to completion: untraced (RunUntraced),
 * or under the ATUM patch (RunSupervised) into a CountingSink or into a
 * FileSink at `path`, sealed and fsynced as atum-capture does.
 */
CaptureRun
Capture(const Inputs& in, SinkKind kind, const std::string& path,
        Ledger* ledger, bool digest, bool profile)
{
    CaptureRun out;
    out.kind = kind;
    std::error_code ec;
    if (kind == SinkKind::kFile)
        std::filesystem::remove(path, ec);  // freeing a file is not set-up
    LayerSpan setup(ledger, "kernel.setup");
    std::vector<kernel::GuestProgram> programs;
    for (const std::string& name : in.guests)
        programs.push_back(workloads::MakeWorkload(name, in.scale));
    cpu::Machine::Config config;
    config.mem_bytes = in.mem_mb << 20;
    config.timer_reload = in.timer;
    cpu::Machine machine(config);

    trace::CountingSink counting;
    std::unique_ptr<trace::FileSink> file;
    RecordDigest record_digest;
    std::optional<BurstSink> burst;
    const core::AtumConfig tracer_config;  // atum-capture's defaults
    if (kind == SinkKind::kFile) {
        util::StatusOr<std::unique_ptr<trace::FileSink>> opened =
            trace::FileSink::Open(path);
        if (!opened.ok()) {
            out.status = opened.status();
            return out;
        }
        file = std::move(*opened);
        burst.emplace(*file, tracer_config.buffer_bytes / trace::kRecordBytes,
                      ledger, digest ? &record_digest : nullptr);
    }
    // The tracer reserves its buffer before boot, so it is built first.
    std::optional<core::AtumTracer> tracer;
    if (kind == SinkKind::kCounting)
        tracer.emplace(machine, counting, tracer_config);
    else if (kind == SinkKind::kFile)
        tracer.emplace(machine, *burst, tracer_config);
    kernel::BootSystem(machine, programs);
    out.setup_s = setup.Close();

    obs::PhaseProfiler profiler;
    {
        LayerSpan run(ledger, RunSpanName(kind));
        if (!tracer) {
            out.result = core::RunUntraced(machine, kMaxInstructions);
        } else {
            core::SupervisorOptions sup;
            sup.max_instructions = kMaxInstructions;
            if (profile)
                sup.profiler = &profiler;
            out.result = core::RunSupervised(machine, *tracer, sup);
            if (burst)
                burst->EndBurst();
        }
        out.run_s = run.Close();
    }
    if (file) {
        LayerSpan seal(ledger, "trace.seal");
        out.status = file->Close();
        out.seal_s = seal.Close();
        out.file_bytes = std::filesystem::file_size(path, ec);
        out.sink_records = burst->count();
        if (digest)
            out.digest = record_digest.value();
    } else if (kind == SinkKind::kCounting) {
        out.sink_records = counting.count();
    }
    out.console = machine.console_output();
    out.counters = machine.event_counters();
    out.exceptions = machine.exceptions_dispatched();
    out.tb_misses = machine.mmu().tlb().misses();
    if (profile) {
        out.phases = profiler.Breakdown();
        out.phase_run_ns = profiler.run_ns();
        out.phase_coverage = profiler.CoverageFraction();
    }
    return out;
}

// ---------------------------------------------------------------------------
// Replay.

enum Stage : unsigned {
    kCrc = 1u << 0,     ///< util::Crc32c over the file's bytes (ledger)
    kVerify = 1u << 1,  ///< ScanTrace, no output
    kStats = 1u << 2,   ///< TraceStats summary
    kSweep = 1u << 3,   ///< SweepRunner over the 8 configs
    kSerial = 1u << 4,  ///< the same configs through ReplayOne, serially
    kStackDistance = 1u << 5,
    kTlb = 1u << 6,
    kCrosscheck = 1u << 7,
    kDigest = 1u << 8,  ///< CRC32C of the loaded records (a check; untimed)
    kLoad = 1u << 9,    ///< LoadTrace; the stages after it need it
};

/** The capture workloads' timed read-back of each file they write. */
constexpr unsigned kReadBackStages = kVerify;
/** Their full check of a file, once per run, untimed. */
constexpr unsigned kCheckStages =
    kVerify | kLoad | kStats | kCrosscheck | kDigest;
/** replay_pipeline's timed pass. */
constexpr unsigned kPipelineStages = kVerify | kLoad | kStats | kSweep |
                                     kStackDistance | kTlb | kCrosscheck |
                                     kDigest;
/** A ledger pass times every layer and skips the digest check. */
constexpr unsigned kLedgerStages = kCrc | kVerify | kLoad | kStats | kSweep |
                                   kSerial | kStackDistance | kTlb |
                                   kCrosscheck;

struct ReplayRun {
    util::Status status;
    trace::ScanReport scan;
    uint64_t records = 0;
    uint64_t stats_total = 0;
    uint32_t file_crc = 0;
    uint32_t digest = 0;
    bool crosscheck_passed = false;
    uint64_t crosscheck_records = 0;
    std::vector<replay::SweepResult> sweep;
    std::vector<replay::SweepResult> serial;
    std::vector<double> serial_s;  ///< per config
    uint64_t sd_accesses = 0;
    uint64_t sd_cold = 0;
    uint64_t sd_distinct = 0;
    tlbsim::TlbSimStats tlb;
    /** Seconds spent in each Stage that ran. */
    std::map<unsigned, double> stage_s;

    /** Seconds spent in `stages`; kDigest is never timed. */
    double Seconds(unsigned stages) const
    {
        double s = 0;
        for (const auto& [stage, sec] : stage_s)
            if (stage & stages)
                s += sec;
        return s;
    }
};

std::vector<char>
ReadFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::error_code ec;
    std::vector<char> bytes(std::filesystem::file_size(path, ec));
    if (ec || !in.read(bytes.data(), static_cast<std::streamsize>(bytes.size())))
        bytes.clear();
    return bytes;
}

/** Verifies, loads and analyzes the trace at `path`, as atum-report does. */
ReplayRun
Replay(const std::string& path, const cpu::EventCounters& counters,
       unsigned stages, unsigned jobs, Ledger* ledger)
{
    ReplayRun out;
    if (stages & kCrc) {
        std::vector<char> bytes;
        {
            LayerSpan read(ledger, "bench.read_file");
            bytes = ReadFile(path);
        }
        LayerSpan span(ledger, "util.crc32c");
        out.file_crc = util::Crc32c(bytes.data(), bytes.size());
        out.stage_s[kCrc] = span.Close();
    }
    if (stages & kVerify) {
        LayerSpan span(ledger, "trace.verify");
        util::StatusOr<std::unique_ptr<trace::FileByteSource>> source =
            trace::FileByteSource::Open(path);
        if (!source.ok()) {
            out.status = source.status();
            return out;
        }
        out.scan = trace::ScanTrace(**source, nullptr);
        out.stage_s[kVerify] = span.Close();
        out.records = out.scan.records_salvaged;
    }
    if (!(stages & kLoad))
        return out;
    std::vector<trace::Record> records;
    {
        LayerSpan span(ledger, "trace.load");
        util::StatusOr<std::vector<trace::Record>> loaded =
            trace::LoadTrace(path);
        if (!loaded.ok()) {
            out.status = loaded.status();
            return out;
        }
        records = std::move(*loaded);
        out.stage_s[kLoad] = span.Close();
    }
    out.records = records.size();
    if (stages & kStats) {
        LayerSpan span(ledger, "trace.stats");
        trace::TraceStats stats;
        for (const trace::Record& r : records)
            stats.Accumulate(r);
        out.stats_total = stats.total();
        out.stage_s[kStats] = span.Close();
    }
    const std::vector<replay::SweepConfig> configs = SweepConfigs();
    if (stages & kSweep) {
        LayerSpan span(ledger, "replay.sweep");
        out.sweep = replay::SweepRunner(jobs).Run(records, configs);
        out.stage_s[kSweep] = span.Close();
    }
    if (stages & kSerial) {
        for (const replay::SweepConfig& config : configs) {
            LayerSpan span(ledger, "cache.replay_one");
            out.serial.push_back(replay::ReplayOne(records, config));
            out.serial_s.push_back(span.Close());
            out.stage_s[kSerial] += out.serial_s.back();
        }
    }
    if (stages & kStackDistance) {
        LayerSpan span(ledger, "analysis.stack_distance");
        analysis::StackDistanceAnalyzer sd(4);
        for (const trace::Record& r : records)
            sd.Feed(r);
        out.sd_accesses = sd.total_accesses();
        out.sd_cold = sd.cold_misses();
        out.sd_distinct = sd.distinct_blocks();
        out.stage_s[kStackDistance] = span.Close();
    }
    if (stages & kTlb) {
        LayerSpan span(ledger, "tlbsim.feed");
        tlbsim::TlbSim sim({.entries = 64});
        for (const trace::Record& r : records)
            sim.Feed(r);
        out.tlb = sim.stats();
        out.stage_s[kTlb] = span.Close();
    }
    if (stages & kCrosscheck) {
        LayerSpan span(ledger, "analysis.crosscheck");
        const analysis::CrosscheckReport report =
            analysis::Crosscheck(records, counters);
        out.crosscheck_passed = report.passed();
        out.crosscheck_records = report.records;
        out.stage_s[kCrosscheck] = span.Close();
    }
    if (stages & kDigest) {
        RecordDigest digest;
        for (const trace::Record& r : records)
            digest.Add(r);
        out.digest = digest.value();
    }
    return out;
}

bool
SameRow(const replay::SweepResult& a, const replay::SweepResult& b)
{
    const cache::CacheStats& x = a.cache_stats;
    const cache::CacheStats& y = b.cache_stats;
    return a.status.ok() && b.status.ok() && a.label == b.label &&
           a.fed == b.fed && a.filtered == b.filtered &&
           x.accesses == y.accesses && x.misses == y.misses &&
           x.reads == y.reads && x.read_misses == y.read_misses &&
           x.writes == y.writes && x.write_misses == y.write_misses &&
           x.writebacks == y.writebacks && x.flushes == y.flushes &&
           x.flushed_blocks == y.flushed_blocks &&
           x.prefetch_fills == y.prefetch_fills;
}

// ---------------------------------------------------------------------------
// Output checks, counted as failed operations against attempted ones.

class Checks
{
  public:
    /** Starts an operation; it fails if any Expect inside it fails. */
    void Begin(std::string op)
    {
        op_ = std::move(op);
        op_failed_ = false;
        ++attempted_;
    }

    void Expect(bool ok, const std::string& what)
    {
        if (ok)
            return;
        std::fprintf(stderr, "perfbench: check failed: %s: %s\n",
                     op_.c_str(), what.c_str());
        failures_.push_back(op_ + ": " + what);
        if (!op_failed_) {
            op_failed_ = true;
            ++failed_;
        }
    }

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }
    const std::vector<std::string>& failures() const { return failures_; }

  private:
    std::string op_;
    bool op_failed_ = false;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    std::vector<std::string> failures_;
};

std::string
U64(uint64_t v)
{
    return std::to_string(v);
}

/** Checks one capture; `ref` is an earlier run of the same inputs. */
void
CheckCapture(Checks& c, const Inputs& in, const CaptureRun& run,
             const CaptureRun* ref)
{
    c.Expect(run.status.ok(), "trace sink: " + run.status.ToString());
    c.Expect(run.result.halted, "guest did not halt");
    std::string console = run.console;
    std::sort(console.begin(), console.end());
    c.Expect(console == ExpectedConsole(in),
             "console \"" + run.console + "\" does not match the guests");
    c.Expect(run.result.drain_status.ok(),
             "drain: " + run.result.drain_status.ToString());
    c.Expect(run.result.lost_records == 0,
             U64(run.result.lost_records) + " records lost");
    c.Expect(run.sink_records == run.result.records,
             "sink received " + U64(run.sink_records) + " of " +
                 U64(run.result.records) + " records");
    if (ref == nullptr)
        return;
    c.Expect(run.result.instructions == ref->result.instructions &&
                 run.result.ucycles == ref->result.ucycles &&
                 run.result.records == ref->result.records,
             "not deterministic: instructions/ucycles/records " +
                 U64(run.result.instructions) + "/" +
                 U64(run.result.ucycles) + "/" + U64(run.result.records) +
                 " vs " + U64(ref->result.instructions) + "/" +
                 U64(ref->result.ucycles) + "/" + U64(ref->result.records));
    if (run.kind == SinkKind::kFile && ref->kind == SinkKind::kFile)
        c.Expect(run.file_bytes == ref->file_bytes,
                 "file bytes " + U64(run.file_bytes) + " vs " +
                     U64(ref->file_bytes));
}

/** Checks a replay of the file `cap` wrote; `digest` is the reference. */
void
CheckReplay(Checks& c, const ReplayRun& rr, const CaptureRun& cap,
            unsigned stages, uint32_t digest)
{
    c.Expect(rr.status.ok(), "load: " + rr.status.ToString());
    if (!rr.status.ok())
        return;
    if (stages & kVerify) {
        c.Expect(rr.scan.intact() && rr.scan.sealed,
                 "ScanTrace: file not intact and sealed");
        c.Expect(rr.scan.footer_records == cap.sink_records,
                 "footer counts " + U64(rr.scan.footer_records) +
                     " records, sink received " + U64(cap.sink_records));
    }
    c.Expect(rr.records == cap.sink_records,
             "read " + U64(rr.records) + " records, sink received " +
                 U64(cap.sink_records));
    if (stages & kStats)
        c.Expect(rr.stats_total == rr.records, "TraceStats total differs");
    if (stages & kDigest)
        c.Expect(rr.digest == digest, "loaded records' CRC32C differs from "
                                      "what the sink received");
    if (stages & kCrosscheck)
        c.Expect(rr.crosscheck_passed &&
                     rr.crosscheck_records == rr.records,
                 "crosscheck against the machine's EventCounters failed");
    for (const replay::SweepResult& row : rr.sweep)
        c.Expect(row.status.ok(), "sweep row " + row.label + ": " +
                                      row.status.ToString());
    if ((stages & kSweep) && (stages & kSerial)) {
        c.Expect(rr.sweep.size() == rr.serial.size(), "sweep row count");
        for (size_t i = 0; i < rr.sweep.size() && i < rr.serial.size(); ++i)
            c.Expect(SameRow(rr.sweep[i], rr.serial[i]),
                     "SweepRunner row " + rr.sweep[i].label +
                         " differs from serial ReplayOne");
    }
}

/** Replays of one file must agree on every simulated statistic. */
void
CheckSameReplay(Checks& c, const ReplayRun& a, const ReplayRun& b)
{
    bool same = a.sweep.size() == b.sweep.size() &&
                a.sd_accesses == b.sd_accesses && a.sd_cold == b.sd_cold &&
                a.sd_distinct == b.sd_distinct &&
                a.tlb.accesses == b.tlb.accesses &&
                a.tlb.misses == b.tlb.misses;
    for (size_t i = 0; same && i < a.sweep.size(); ++i)
        same = SameRow(a.sweep[i], b.sweep[i]);
    c.Expect(same, "replay statistics differ between passes");
}

// ---------------------------------------------------------------------------
// Build and host tag.

struct HostProbe {
    unsigned nproc = 1;
    double compute_mops = 0;           ///< one thread
    double memcpy_gb_s = 0;
    std::vector<double> speedup;       ///< 1..nproc threads, same loop each
};

/** Where the probe loops leave their results, so none is optimized out. */
std::atomic<uint64_t> g_probe_sink{0};

void
ComputeLoop(uint64_t iterations, uint64_t seed)
{
    uint64_t x = seed;
    for (uint64_t i = 0; i < iterations; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        x ^= x >> 29;
    }
    g_probe_sink.fetch_add(x, std::memory_order_relaxed);
}

/** Wall seconds for `threads` threads each running the compute loop. */
double
TimeThreads(unsigned threads, uint64_t iterations)
{
    const uint64_t start = Now();
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back([t, iterations] { ComputeLoop(iterations, t + 1); });
    for (std::thread& th : pool)
        th.join();
    return Seconds(Now() - start);
}

/** Separates a slow host from a slow layer; takes ~0.5 s. */
HostProbe
ProbeHost()
{
    constexpr uint64_t kIterations = 20'000'000;
    HostProbe h;
    h.nproc = std::max(1u, std::thread::hardware_concurrency());
    std::vector<double> one;
    for (int i = 0; i < 3; ++i)
        one.push_back(TimeThreads(1, kIterations));
    const double t1 = Median(one);
    h.compute_mops = static_cast<double>(kIterations) / t1 / 1e6;
    for (unsigned n = 1; n <= std::min(h.nproc, 8u); ++n)
        h.speedup.push_back(n * t1 / TimeThreads(n, kIterations));

    std::vector<char> src(32 << 20, 1);
    std::vector<char> dst(src.size());
    std::vector<double> copies;
    for (size_t i = 0; i < 5; ++i) {
        const uint64_t start = Now();
        std::memcpy(dst.data(), src.data(), src.size());
        copies.push_back(Seconds(Now() - start));
        g_probe_sink.fetch_add(static_cast<uint64_t>(dst[i]),
                               std::memory_order_relaxed);
    }
    h.memcpy_gb_s = static_cast<double>(src.size()) / Median(copies) / 1e9;
    return h;
}

// ---------------------------------------------------------------------------
// The benchmark.

struct Options {
    std::string workload;
    uint64_t seed = kDefaultSeed;
    double seconds = 10;
    bool trace = false;
    bool smoke = false;
    std::string out = ".bench_out";
};

struct MetricDef {
    const char* name;
    const char* unit;
    /** How a run's samples become its value: true for a rate over the
     *  whole run (see RunRate), false for their median. */
    bool rate = false;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"capture_mips", "MIPS", true},
    {"untraced_mips", "MIPS", true},
    {"trace_bytes_per_record", "B/record"},
    {"replay_mrec_s", "Mrec/s", true},
    {"peak_rss_mb", "MB"},
};

/**
 * Total work over total time of a run's samples of one rate. Every sample
 * of a run does the same work (one seed), so this is their harmonic mean.
 * On a host whose speed flips between a slow and a fast state for
 * seconds at a time, the median of a handful of samples jumps between the
 * two; the run's total rate moves smoothly with the share of time spent
 * slow, which narrowed the run-to-run spread by up to a third.
 */
double
RunRate(const std::vector<double>& rates)
{
    double inverse = 0;
    for (double r : rates)
        inverse += 1.0 / r;
    return rates.empty() ? 0.0 : static_cast<double>(rates.size()) / inverse;
}

constexpr MetricDef kPerLayer[] = {
    {"cpu.mips", "MIPS"},
    {"cpu.untraced_s", "s"},
    {"cpu.instructions", "count"},
    {"cpu.ucycles", "count"},
    {"cpu.exceptions", "count"},
    {"mmu.tb_misses", "count"},
    {"core.patch_ns_per_record", "ns/record"},
    {"core.records_per_instr", "records/instr"},
    {"trace.drain_s", "s"},
    {"trace.drain_mb_s", "MB/s"},
    {"trace.seal_s", "s"},
    {"util.crc32c_mb_s", "MB/s"},
    {"trace.verify_mb_s", "MB/s"},
    {"trace.load_mb_s", "MB/s"},
    {"trace.stats_mrec_s", "Mrec/s"},
    {"cache.mrec_s", "Mrec/s"},
    {"replay.sweep_s", "s"},
    {"replay.configs_per_s", "1/s"},
    {"replay.parallel_efficiency", "ratio"},
    {"analysis.stack_distance_mrec_s", "Mrec/s"},
    {"analysis.crosscheck_mrec_s", "Mrec/s"},
    {"tlbsim.mrec_s", "Mrec/s"},
    {"capture.residual_s", "s"},
    {"replay.residual_s", "s"},
    {"bench.capture_span_overhead_pct", "%"},
    {"bench.replay_span_overhead_pct", "%"},
};

class Bench
{
  public:
    Bench(const Options& opts, const WorkloadSpec& spec)
        : opts_(opts), spec_(spec),
          in_(MakeInputs(spec, opts.seed, opts.smoke)),
          jobs_(std::min(4u, std::max(1u, std::thread::hardware_concurrency()))),
          stem_(opts.out + "/" + spec.name + "-seed" +
                std::to_string(opts.seed) + "-trace" +
                (opts.trace ? "1" : "0")),
          trace_path_(stem_ + ".atf"),
          ledger_path_(stem_ + ".ledger.atf")
    {
    }

    int Run();

  private:
    /** Keeps looping until the budget is spent, at least `min_reps`. */
    bool Continue(int reps, int min_reps, uint64_t start) const;
    void CaptureWorkload();
    void ReplayWorkload();
    CaptureRun UntracedRun();
    CaptureRun FileCapture(bool digest);
    void AddCaptureSample(const CaptureRun& cap);
    void ReferenceCapture();
    void CaptureRep();
    void ReplayPass();
    void LedgerPass();
    void CheckPins(const CaptureRun& cap);
    void CheckSweepPins(const ReplayRun& rr);
    std::string ResultJson(const HostProbe& host,
                           const std::vector<std::pair<std::string, double>>& metrics,
                           const std::string& line) const;

    const Options& opts_;
    const WorkloadSpec& spec_;
    const Inputs in_;
    const unsigned jobs_;
    const std::string stem_;
    const std::string trace_path_;
    const std::string ledger_path_;
    Checks checks_;
    std::map<std::string, std::vector<double>> e2e_;
    std::map<std::string, std::vector<double>> layer_;
    std::optional<CaptureRun> ref_;           ///< first traced file capture
    std::optional<CaptureRun> untraced_ref_;  ///< first untraced run
    std::optional<ReplayRun> first_replay_;
    std::vector<double> capture_wall_s_;  ///< span-off capture run + seal
    std::vector<double> replay_wall_s_;   ///< span-off replay pass
    std::string ledger_json_;             ///< of the last ledger pass
};

bool
Bench::Continue(int reps, int min_reps, uint64_t start) const
{
    if (reps < min_reps)
        return true;
    // Stop when another repetition of the average length would overrun.
    const double elapsed = Seconds(Now() - start);
    return elapsed + elapsed / reps <= opts_.seconds;
}

void
Bench::CheckPins(const CaptureRun& cap)
{
    if (opts_.smoke || opts_.seed != kDefaultSeed)
        return;
    const Pins& pins = PinsFor(spec_.name);
    checks_.Expect(cap.result.instructions == pins.instructions &&
                       cap.result.ucycles == pins.ucycles &&
                       cap.result.records == pins.records &&
                       cap.file_bytes == pins.file_bytes,
                   "pinned counts differ: instructions/ucycles/records/bytes " +
                       U64(cap.result.instructions) + "/" +
                       U64(cap.result.ucycles) + "/" +
                       U64(cap.result.records) + "/" + U64(cap.file_bytes));
}

void
Bench::CheckSweepPins(const ReplayRun& rr)
{
    if (opts_.smoke || opts_.seed != kDefaultSeed)
        return;
    std::string misses;
    std::vector<uint64_t> got;
    for (const replay::SweepResult& row : rr.sweep) {
        got.push_back(row.cache_stats.misses);
        misses += (misses.empty() ? "" : ",") + U64(row.cache_stats.misses);
    }
    checks_.Expect(got == PinsFor(spec_.name).sweep_misses,
                   "pinned sweep misses differ: " + misses);
}

/** An untraced run of the guests: one untraced_mips sample. */
CaptureRun
Bench::UntracedRun()
{
    checks_.Begin("untraced run");
    CaptureRun run = Capture(in_, SinkKind::kNone, "", nullptr, false, false);
    CheckCapture(checks_, in_, run, untraced_ref_ ? &*untraced_ref_ : nullptr);
    if (!untraced_ref_)
        untraced_ref_ = run;
    e2e_["untraced_mips"].push_back(
        static_cast<double>(run.result.instructions) / run.run_s / 1e6);
    return run;
}

/**
 * A traced capture into the sealed trace file: one capture_mips sample.
 * With `digest` the sink digests what it receives, which must equal the
 * reference capture's digest.
 */
CaptureRun
Bench::FileCapture(bool digest)
{
    checks_.Begin("traced capture");
    CaptureRun cap =
        Capture(in_, SinkKind::kFile, trace_path_, nullptr, digest, false);
    CheckCapture(checks_, in_, cap, &*ref_);
    if (digest)
        checks_.Expect(cap.digest == ref_->digest,
                       "trace differs from the reference capture");
    AddCaptureSample(cap);
    return cap;
}

void
Bench::AddCaptureSample(const CaptureRun& cap)
{
    const double capture_s = cap.run_s + cap.seal_s;
    e2e_["capture_mips"].push_back(
        static_cast<double>(cap.result.instructions) / capture_s / 1e6);
    e2e_["trace_bytes_per_record"].push_back(
        static_cast<double>(cap.file_bytes) /
        static_cast<double>(std::max<uint64_t>(1, cap.sink_records)));
    capture_wall_s_.push_back(capture_s);
}

/** The first capture of the inputs, whose sink digests every record it
 *  receives: every later capture must load back to the same digest. */
void
Bench::ReferenceCapture()
{
    checks_.Begin("reference capture");
    ref_ = Capture(in_, SinkKind::kFile, trace_path_, nullptr, true, false);
    CheckCapture(checks_, in_, *ref_, nullptr);
    CheckPins(*ref_);
}

/**
 * One repetition of a capture workload: an untraced run, a traced capture
 * into a sealed file, that file verified (ScanTrace), another untraced
 * run. No untraced run follows a capture directly: on a 4-vCPU VM, a run
 * in the second after a 140 MB fsync was up to 40% slower, most likely
 * while the host wrote the file back. Untraced runs at both ends of a
 * repetition sample the host's slow and fast phases more evenly.
 */
void
Bench::CaptureRep()
{
    const CaptureRun untraced = UntracedRun();
    const CaptureRun traced = FileCapture(false);
    checks_.Begin("read-back");
    const ReplayRun rb =
        Replay(trace_path_, traced.counters, kReadBackStages, jobs_, nullptr);
    CheckReplay(checks_, rb, traced, kReadBackStages, 0);
    const CaptureRun untraced2 = UntracedRun();

    for (const CaptureRun* run : {&untraced, &traced, &untraced2})
        e2e_["setup_s"].push_back(run->setup_s);
    const double pass_s = rb.Seconds(kReadBackStages);
    e2e_["replay_mrec_s"].push_back(static_cast<double>(rb.records) /
                                    pass_s / 1e6);
    replay_wall_s_.push_back(pass_s);
}

void
Bench::CaptureWorkload()
{
    // The reference capture doubles as the untimed warm-up.
    ReferenceCapture();
    const uint64_t start = Now();
    for (int rep = 0; Continue(rep, 2, start); ++rep) {
        if (opts_.trace && rep % 2 == 1)
            LedgerPass();
        else
            CaptureRep();
    }
    // Untimed: the last file, loaded, must hold exactly what the reference
    // capture's sink received and agree with the machine's counters.
    checks_.Begin("full read-back");
    const ReplayRun rr =
        Replay(trace_path_, ref_->counters, kCheckStages, jobs_, nullptr);
    CheckReplay(checks_, rr, *ref_, kCheckStages, ref_->digest);
}

/** One timed replay_pipeline pass over the set-up trace. */
void
Bench::ReplayPass()
{
    checks_.Begin("replay pass");
    const ReplayRun rr =
        Replay(trace_path_, ref_->counters, kPipelineStages, jobs_, nullptr);
    CheckReplay(checks_, rr, *ref_, kPipelineStages, ref_->digest);
    if (!first_replay_) {
        first_replay_ = rr;
        CheckSweepPins(rr);
    } else {
        CheckSameReplay(checks_, rr, *first_replay_);
    }
    const double pass_s = rr.Seconds(kPipelineStages);
    e2e_["replay_mrec_s"].push_back(static_cast<double>(rr.records) /
                                    pass_s / 1e6);
    replay_wall_s_.push_back(pass_s);
}

void
Bench::ReplayWorkload()
{
    // Set-up, repeated so setup_s is a median: build the images, boot and
    // capture the input trace.
    ReferenceCapture();
    AddCaptureSample(*ref_);
    e2e_["setup_s"].push_back(ref_->setup_s + ref_->run_s + ref_->seal_s);
    for (int i = 1; i < kReplaySetups; ++i) {
        const CaptureRun cap = FileCapture(true);
        e2e_["setup_s"].push_back(cap.setup_s + cap.run_s + cap.seal_s);
    }

    // An untraced run after each pass gives untraced_mips, sampled across
    // the whole run rather than in one burst; it is not part of the pass.
    const uint64_t start = Now();
    for (int rep = 0; Continue(rep, 2, start); ++rep) {
        if (opts_.trace && rep % 2 == 1) {
            LedgerPass();
        } else {
            ReplayPass();
            UntracedRun();
        }
    }
    if (!opts_.trace) {
        // Untimed: the parallel sweep must equal serial ReplayOne rows.
        checks_.Begin("sweep vs serial ReplayOne");
        ReplayRun serial = Replay(trace_path_, ref_->counters,
                                  kLoad | kSerial, jobs_, nullptr);
        serial.sweep = first_replay_->sweep;
        CheckReplay(checks_, serial, *ref_, kSweep | kSerial, 0);
    }
}

/**
 * The traced run: every public call of the whole pipeline inside a span,
 * on this workload's guests. Self times add up to the pass's wall time;
 * the two residuals are what no layer span covers.
 */
void
Bench::LedgerPass()
{
    Ledger ledger;
    obs::SetSpansEnabled(true);
    std::optional<CaptureRun> untraced, counting, file;
    std::optional<ReplayRun> rr;
    double pass_s = 0;
    {
        LayerSpan pass(&ledger, "bench.ledger_pass");
        {
            LayerSpan capture(&ledger, "capture.pass");
            checks_.Begin("ledger: untraced run");
            untraced = Capture(in_, SinkKind::kNone, "", &ledger, false, false);
            CheckCapture(checks_, in_, *untraced, &*untraced_ref_);
            checks_.Begin("ledger: counting capture");
            counting =
                Capture(in_, SinkKind::kCounting, "", &ledger, false, false);
            CheckCapture(checks_, in_, *counting, &*ref_);
            checks_.Begin("ledger: file capture");
            file = Capture(in_, SinkKind::kFile, ledger_path_, &ledger, false,
                           true);
            CheckCapture(checks_, in_, *file, &*ref_);
        }
        {
            LayerSpan replay(&ledger, "replay.pass");
            checks_.Begin("ledger: replay");
            rr = Replay(ledger_path_, file->counters, kLedgerStages, jobs_,
                        &ledger);
            CheckReplay(checks_, *rr, *file, kLedgerStages, 0);
        }
        pass_s = pass.Close();
    }
    obs::SetSpansEnabled(false);

    auto self = [&](const char* name) { return ledger.self_s(name); };
    auto add = [&](const char* name, double v) { layer_[name].push_back(v); };
    const double mb = static_cast<double>(file->file_bytes) / 1e6;
    const double mrec = static_cast<double>(rr->records) / 1e6;
    const double sweep_s = self("replay.sweep");
    add("cpu.untraced_s", self("cpu.run_untraced"));
    add("cpu.mips", static_cast<double>(untraced->result.instructions) / 1e6 /
                        self("cpu.run_untraced"));
    add("cpu.instructions", static_cast<double>(file->result.instructions));
    add("cpu.ucycles", static_cast<double>(file->result.ucycles));
    add("cpu.exceptions", static_cast<double>(file->exceptions));
    add("mmu.tb_misses", static_cast<double>(file->tb_misses));
    add("core.patch_ns_per_record",
        (self("core.run_counting") - self("cpu.run_untraced")) * 1e9 /
            static_cast<double>(std::max<uint64_t>(1, counting->result.records)));
    add("core.records_per_instr",
        static_cast<double>(file->result.records) /
            static_cast<double>(file->result.instructions));
    add("trace.drain_s", self("trace.drain"));
    add("trace.drain_mb_s", static_cast<double>(file->sink_records) *
                                trace::kRecordBytes / 1e6 /
                                self("trace.drain"));
    add("trace.seal_s", self("trace.seal"));
    add("util.crc32c_mb_s", mb / self("util.crc32c"));
    add("trace.verify_mb_s", mb / self("trace.verify"));
    add("trace.load_mb_s", mb / self("trace.load"));
    add("trace.stats_mrec_s", mrec / self("trace.stats"));
    add("cache.mrec_s", mrec / rr->serial_s.at(kOneConfig));
    add("replay.sweep_s", sweep_s);
    add("replay.configs_per_s", static_cast<double>(rr->sweep.size()) / sweep_s);
    add("replay.parallel_efficiency",
        self("cache.replay_one") / (jobs_ * sweep_s));
    add("analysis.stack_distance_mrec_s", mrec / self("analysis.stack_distance"));
    add("analysis.crosscheck_mrec_s", mrec / self("analysis.crosscheck"));
    add("tlbsim.mrec_s", mrec / self("tlbsim.feed"));
    const double capture_residual = self("capture.pass");
    const double replay_residual =
        self("replay.pass") + self("bench.read_file");
    add("capture.residual_s", capture_residual);
    add("replay.residual_s", replay_residual);

    // Tracing overhead: the same calls timed with spans off in this run.
    const double file_capture_s = file->run_s + file->seal_s;
    add("bench.capture_span_overhead_pct",
        100.0 * (file_capture_s / Median(capture_wall_s_) - 1.0));
    const unsigned e2e_stages =
        spec_.replay ? kPipelineStages : kReadBackStages;
    add("bench.replay_span_overhead_pct",
        100.0 * (rr->Seconds(e2e_stages) / Median(replay_wall_s_) - 1.0));

    // Ledger consistency: every nanosecond of the pass is booked to exactly
    // one row, the unbooked share stays small, and the capture-side split
    // agrees with the phase profiler that writes RUN.json's phases block.
    std::vector<std::string> problems;
    double booked_s = 0;
    for (const auto& [name, ns] : ledger.self_ns)
        booked_s += Seconds(ns);
    if (std::abs(booked_s - pass_s) > 1e-3 + 1e-4 * pass_s)
        problems.push_back("self times sum to " + std::to_string(booked_s) +
                         " s, pass took " + std::to_string(pass_s) + " s");
    const double unbooked_s =
        capture_residual + replay_residual + self("bench.ledger_pass");
    if (unbooked_s > 0.05 * pass_s)
        problems.push_back("residual " + std::to_string(unbooked_s) +
                         " s exceeds 5% of the pass");
    double profiler_drain_s = 0;
    for (const obs::PhaseProfiler::Row& row : file->phases)
        if (row.phase == obs::Phase::kDrain)
            profiler_drain_s = Seconds(row.ns);
    const double ledger_drain_s = self("trace.drain");
    if (std::abs(profiler_drain_s - ledger_drain_s) >
        0.005 + 0.1 * ledger_drain_s)
        problems.push_back("drain: phase profiler " +
                         std::to_string(profiler_drain_s) + " s, ledger " +
                         std::to_string(ledger_drain_s) + " s");
    const double profiler_run_s = Seconds(file->phase_run_ns);
    if (std::abs(profiler_run_s - file->run_s) > 0.01 + 0.05 * file->run_s)
        problems.push_back("run: phase profiler " +
                         std::to_string(profiler_run_s) + " s, ledger " +
                         std::to_string(file->run_s) + " s");
    for (const std::string& problem : problems)
        std::fprintf(stderr, "perfbench: ledger disagrees (a benchmark bug): %s\n",
                     problem.c_str());

    // The RUN.json an atum-capture of the same guests would write.
    obs::RunManifest manifest;
    manifest.tool = "atum_perfbench";
    manifest.version = util::kGitDescribe;
    manifest.build_type = util::kBuildType;
    manifest.trace_path = ledger_path_;
    manifest.stop_cause = core::StopCauseName(file->result.stop_cause);
    for (const obs::PhaseProfiler::Row& row : file->phases)
        manifest.phase_ns.emplace_back(row.name, row.ns);
    manifest.phase_coverage_pct = 100.0 * file->phase_coverage;
    manifest.finals = obs::Registry::Global().Snapshot();
    const util::Status manifest_status =
        obs::WriteRunManifest(ledger_path_ + ".run.json", manifest);
    if (!manifest_status.ok())
        std::fprintf(stderr, "perfbench: writing RUN.json: %s\n",
                     manifest_status.ToString().c_str());

    util::JsonWriter w;
    w.BeginObject();
    w.KeyValue("wall_s", pass_s);
    w.KeyValue("booked_s", booked_s);
    w.KeyValue("capture_residual_s", capture_residual);
    w.KeyValue("replay_residual_s", replay_residual);
    w.KeyValue("consistent", problems.empty());
    w.KeyValue("file_crc32c", static_cast<uint64_t>(rr->file_crc));
    w.Key("problems");
    w.BeginArray();
    for (const std::string& problem : problems)
        w.Value(problem);
    w.EndArray();
    w.Key("rows");
    w.BeginArray();
    for (const auto& [name, ns] : ledger.self_ns) {
        w.BeginObject();
        w.KeyValue("name", name);
        w.KeyValue("layer", name.substr(0, name.find('.')));
        w.KeyValue("self_s", Seconds(ns));
        w.KeyValue("calls", ledger.calls[name]);
        w.EndObject();
    }
    w.EndArray();
    w.Key("phases");
    w.BeginObject();
    w.KeyValue("run_s", profiler_run_s);
    w.KeyValue("coverage_pct", 100.0 * file->phase_coverage);
    for (const obs::PhaseProfiler::Row& row : file->phases)
        w.KeyValue(std::string(row.name) + "_s", Seconds(row.ns));
    w.EndObject();
    w.EndObject();
    ledger_json_ = w.str();
}

std::string
Bench::ResultJson(const HostProbe& host,
                  const std::vector<std::pair<std::string, double>>& metrics,
                  const std::string& line) const
{
    util::JsonWriter w;
    w.BeginObject();
    w.KeyValue("schema", "atum-perfbench-v1");
    w.KeyValue("workload", spec_.name);
    w.KeyValue("seed", opts_.seed);
    w.KeyValue("seconds", opts_.seconds);
    w.KeyValue("trace", opts_.trace);
    w.KeyValue("smoke", opts_.smoke);
    w.Key("inputs");
    w.BeginObject();
    w.Key("guests");
    w.BeginArray();
    for (const std::string& g : in_.guests)
        w.Value(g);
    w.EndArray();
    w.KeyValue("scale", in_.scale);
    w.KeyValue("mem_mb", in_.mem_mb);
    w.KeyValue("timer", in_.timer);
    w.KeyValue("sweep_jobs", jobs_);
    w.EndObject();
    w.Key("build");
    w.BeginObject();
    w.KeyValue("git_describe", util::kGitDescribe);
    w.KeyValue("build_type", util::kBuildType);
    w.KeyValue("compiler", util::kCompiler);
    w.KeyValue("flags", PERFBENCH_CXX_FLAGS);
    w.EndObject();
    w.Key("host");
    w.BeginObject();
    w.KeyValue("nproc", host.nproc);
    w.KeyValue("compute_mops_1t", host.compute_mops);
    w.KeyValue("memcpy_gb_s", host.memcpy_gb_s);
    w.Key("thread_speedup");
    w.BeginArray();
    for (double s : host.speedup)
        w.Value(s);
    w.EndArray();
    w.EndObject();
    if (ref_) {
        w.Key("counts");
        w.BeginObject();
        w.KeyValue("instructions", ref_->result.instructions);
        w.KeyValue("ucycles", ref_->result.ucycles);
        w.KeyValue("records", ref_->result.records);
        w.KeyValue("file_bytes", ref_->file_bytes);
        if (first_replay_) {
            w.Key("sweep_misses");
            w.BeginArray();
            for (const replay::SweepResult& row : first_replay_->sweep)
                w.Value(row.cache_stats.misses);
            w.EndArray();
        }
        w.EndObject();
    }
    w.Key("failures");
    w.BeginArray();
    for (const std::string& f : checks_.failures())
        w.Value(f);
    w.EndArray();
    w.Key("samples");
    w.BeginObject();
    for (const auto* set : {&e2e_, &layer_}) {
        for (const auto& [name, values] : *set) {
            w.Key(name);
            w.BeginArray();
            for (double v : values)
                w.Value(v);
            w.EndArray();
        }
    }
    w.EndObject();
    w.Key("metrics");
    w.BeginObject();
    for (const auto& [name, value] : metrics)
        w.KeyValue(name, value);
    w.EndObject();
    if (!ledger_json_.empty()) {
        w.Key("ledger");
        w.RawValue(ledger_json_);
    }
    w.Key("result");
    w.RawValue(line);
    w.EndObject();
    return w.str();
}

int
Bench::Run()
{
    const HostProbe host = ProbeHost();
    std::string speedup;
    for (double s : host.speedup)
        speedup += (speedup.empty() ? "" : ",") + std::to_string(s);
    std::fprintf(stderr,
                 "perfbench: %s seed=%llu timer=%u scale=%u guests=%zu | "
                 "build %s %s (%s) [%s] | host nproc=%u compute=%.0f Mop/s "
                 "memcpy=%.1f GB/s speedup=%s\n",
                 spec_.name.c_str(), static_cast<unsigned long long>(opts_.seed),
                 in_.timer, in_.scale, in_.guests.size(), util::kGitDescribe,
                 util::kBuildType, util::kCompiler, PERFBENCH_CXX_FLAGS,
                 host.nproc, host.compute_mops, host.memcpy_gb_s,
                 speedup.c_str());

    std::filesystem::create_directories(opts_.out);
    obs::SetSpansEnabled(false);
    if (opts_.trace)
        obs::SetSpanRingLog2ForTest(kSpanRingLog2);
    if (spec_.replay)
        ReplayWorkload();
    else
        CaptureWorkload();

    std::vector<std::pair<std::string, double>> metrics;
    std::vector<const char*> units;
    if (opts_.trace) {
        for (const MetricDef& m : kPerLayer) {
            metrics.emplace_back(m.name, Median(layer_[m.name]));
            units.push_back(m.unit);
        }
    } else {
        struct rusage usage {};
        getrusage(RUSAGE_SELF, &usage);
        e2e_["peak_rss_mb"].push_back(static_cast<double>(usage.ru_maxrss) /
                                      1024.0);
        for (const MetricDef& m : kEndToEnd) {
            const std::vector<double>& samples = e2e_[m.name];
            metrics.emplace_back(m.name,
                                 m.rate ? RunRate(samples) : Median(samples));
            units.push_back(m.unit);
        }
    }

    util::JsonWriter line;
    line.BeginObject();
    line.KeyValue("correct", checks_.failed() == 0 && checks_.attempted() > 0);
    line.KeyValue("attempted", checks_.attempted());
    line.KeyValue("failed", checks_.failed());
    line.Key("metrics");
    line.BeginObject();
    for (size_t i = 0; i < metrics.size(); ++i) {
        line.Key(metrics[i].first);
        line.BeginObject();
        line.KeyValue("value", metrics[i].second);
        line.KeyValue("unit", units[i]);
        line.EndObject();
        std::fprintf(stderr, "  %-34s %14.6g %s\n", metrics[i].first.c_str(),
                     metrics[i].second, units[i]);
    }
    line.EndObject();
    line.EndObject();

    std::ofstream(stem_ + ".json") << ResultJson(host, metrics, line.str())
                                   << "\n";
    if (opts_.trace) {
        const util::Status status =
            obs::WriteSpansFile(stem_ + ".spans.json", "atum_perfbench");
        if (!status.ok())
            std::fprintf(stderr, "perfbench: writing spans: %s\n",
                         status.ToString().c_str());
    }
    std::filesystem::remove(trace_path_);
    std::filesystem::remove(ledger_path_);
    std::printf("%s\n", line.str().c_str());
    return checks_.failed() == 0 ? 0 : 1;
}

[[noreturn]] void
Usage(const std::string& why)
{
    std::fprintf(stderr,
                 "atum_perfbench: %s\nusage: atum_perfbench --workload "
                 "NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR] "
                 "[--smoke]\n",
                 why.c_str());
    std::exit(util::kExitUsage);
}

Options
ParseArgs(int argc, char** argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                Usage(arg + " requires a value");
            return argv[++i];
        };
        if (arg == "--workload")
            opts.workload = next();
        else if (arg == "--seed")
            opts.seed = std::strtoull(next().c_str(), nullptr, 0);
        else if (arg == "--seconds")
            opts.seconds = std::strtod(next().c_str(), nullptr);
        else if (arg == "--trace")
            opts.trace = next() != "0";
        else if (arg == "--out")
            opts.out = next();
        else if (arg == "--smoke")
            opts.smoke = true;
        else
            Usage("unknown argument: " + arg);
    }
    return opts;
}

}  // namespace
}  // namespace atum::perfbench

int
main(int argc, char** argv)
{
    using namespace atum::perfbench;
    const Options opts = ParseArgs(argc, argv);
    for (const WorkloadSpec& spec : Specs())
        if (spec.name == opts.workload)
            return Bench(opts, spec).Run();
    Usage("unknown workload '" + opts.workload + "'");
}
