#ifndef ATUM_OBS_SPANS_H_
#define ATUM_OBS_SPANS_H_

/**
 * @file
 * Causal span tracing + the sampling hot-path phase profiler.
 *
 * Two instruments share this header because they share one clock
 * (CLOCK_MONOTONIC, see MonotonicNowNs) and one consumer (the Chrome
 * trace-event / Perfetto JSON exporter):
 *
 *  1. **Spans** — begin/end scoped regions and point instants, recorded
 *     into lock-free thread-local overwrite-oldest rings. A span records
 *     two relaxed timestamps and a fixed-size payload; there is no
 *     allocation, no lock and no syscall on the record path. Rings are
 *     heap-allocated and owned by a process-wide collector so spans from
 *     exited pool workers survive until export. Collection is meant for
 *     quiescent points (tool shutdown, after joins): the collector reads
 *     live rings without synchronizing with their single writer, which is
 *     benign for a diagnostics dump but not for exact accounting.
 *
 *  2. **PhaseProfiler** — a 1-in-N sampling profiler the supervised run
 *     loop drives around each retired instruction. A sampled window
 *     attributes its wall time across phases (ucode dispatch, TB/MMU
 *     translate, memory, tracer append) via a flat innermost-wins phase
 *     stack; rare heavy sections inside a window (tracer drain,
 *     checkpoint publish) are timed *exactly* and excised from the
 *     sampled window (SkipTime) so scaling by N cannot multiply them.
 *     Single-threaded by design: only the supervisor loop touches it.
 *
 * Everything here compiles out with `-DATUM_TRACING=OFF`
 * (ATUM_TRACING_ENABLED=0): ScopedSpan becomes an empty object, the
 * record functions and PhaseProfiler methods become empty inlines, and
 * the hot paths carry exactly zero instructions. The export entry points
 * (CollectSpans/SpansToChromeJson/WriteSpansFile) keep working in both
 * modes — an OFF build writes a valid document with
 * `otherData.tracing == "off"` and no events, so tooling never needs to
 * know which build it is talking to.
 *
 * The always-on crash flight recorder lives separately in obs/flight.h;
 * span completions are mirrored into it once a dump path is armed.
 */

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "io/vfs.h"
#include "util/status.h"

#ifndef ATUM_TRACING_ENABLED
#define ATUM_TRACING_ENABLED 1
#endif

namespace atum::obs {

/**
 * Nanoseconds on CLOCK_MONOTONIC. Async-signal-safe (POSIX lists
 * clock_gettime) and shared by spans, the phase profiler, the flight
 * recorder and the StatsEmitter `mono_us` field — one time axis for
 * every telemetry stream this process emits.
 */
uint64_t MonotonicNowNs();

/** One completed span or instant, as stored in a ring slot. */
struct SpanEvent {
    const char* name = nullptr;      ///< interned string literal
    const char* category = nullptr;  ///< interned string literal
    uint64_t start_ns = 0;           ///< MonotonicNowNs at begin
    uint64_t dur_ns = 0;             ///< 0 and kind==kInstant for instants
    uint32_t tid = 0;                ///< small process-local thread id
    uint8_t kind = 0;                ///< 0 = complete ("X"), 1 = instant ("i")
    /** Optional dynamic label (sweep config, job id); "" when unused. */
    char detail[48] = {0};
    const char* arg_name0 = nullptr;  ///< optional named u64 args
    uint64_t arg0 = 0;
    const char* arg_name1 = nullptr;
    uint64_t arg1 = 0;
};

/** Everything CollectSpans hands the exporter. */
struct SpanDump {
    std::vector<SpanEvent> events;  ///< sorted by start_ns
    /** tid → human name ("main", "pool-worker", ...). */
    std::vector<std::pair<uint32_t, std::string>> threads;
    uint64_t recorded = 0;  ///< total ever recorded, across all rings
    uint64_t dropped = 0;   ///< overwritten by ring wraparound
};

/**
 * Serializes a dump as Chrome trace-event JSON (catapult / Perfetto
 * "JSON trace" format): process/thread metadata events plus "X" and "i"
 * events with microsecond ts/dur relative to the earliest span.
 * `otherData` carries tool name, tracing on/off, the monotonic and
 * wall-clock anchors, and recorded/dropped totals.
 */
std::string SpansToChromeJson(const SpanDump& dump,
                              const std::string& process_name);

/** CollectSpans + SpansToChromeJson + one Create/Write/Sync/Close. */
util::Status WriteSpansFile(const std::string& path,
                            const std::string& process_name,
                            io::Vfs& vfs = io::RealVfs());

/**
 * The hot-path phases the profiler attributes time across. The first
 * four are *sampled* (accumulated inside 1-in-N instruction windows,
 * scaled by N when read); the last three are *exact* (timed at every
 * occurrence — they are rare and heavy, the worst case for sampling).
 */
enum class Phase : uint8_t {
    kDispatch = 0,    ///< ucode fetch/decode/execute + supervision checks
    kTranslate = 1,   ///< TB/MMU address translation
    kMemory = 2,      ///< guest memory reads/writes
    kTracer = 3,      ///< trace-record append (FireMemAccess fan-out)
    kDrain = 4,       ///< tracer ring drain to the sink (exact)
    kCheckpoint = 5,  ///< checkpoint publish (exact)
    kIo = 6,          ///< metrics emit + manifest I/O (exact)
};
inline constexpr int kPhaseCount = 7;

/** Stable lower-case name ("dispatch", "translate", ...). */
const char* PhaseName(Phase phase);

#if ATUM_TRACING_ENABLED

/** Runtime kill switch for span recording (default on when compiled
 *  in). Lets one binary measure its own tracing overhead. */
void SetSpansEnabled(bool enabled);
bool SpansEnabled();

/**
 * Names the calling thread in exports ("pool-worker", "serve-conn"). A
 * thread that records no span has no ring and does not appear.
 */
void SetCurrentThreadName(const char* name);

/** Records a completed span ending now-ish; called by ~ScopedSpan. */
void RecordSpan(const char* category, const char* name, uint64_t start_ns,
                uint64_t dur_ns, const char* detail, const char* arg_name0,
                uint64_t arg0, const char* arg_name1, uint64_t arg1);

/** Records a zero-duration instant ("job submitted"). */
void RecordInstant(const char* category, const char* name,
                   const char* detail = nullptr, const char* arg_name0 = nullptr,
                   uint64_t arg0 = 0);

/**
 * Snapshots every ring (live and orphaned), oldest-first per ring,
 * merged and sorted by start time. Meant for quiescent points.
 */
SpanDump CollectSpans();

/** Test hooks: ring capacity (power of two) and a full reset. */
void SetSpanRingLog2ForTest(int log2_capacity);
void ResetSpansForTest();

class ScopedSpan
{
  public:
    ScopedSpan(const char* category, const char* name)
        : category_(category), name_(name),
          start_ns_(SpansEnabled() ? MonotonicNowNs() : 0)
    {
    }

    ~ScopedSpan() { Close(); }

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    /** Ends the span before scope exit (idempotent). */
    void Close()
    {
        if (start_ns_ != 0) {
            RecordSpan(category_, name_, start_ns_,
                       MonotonicNowNs() - start_ns_,
                       detail_[0] ? detail_ : nullptr, arg_name_[0],
                       arg_[0], arg_name_[1], arg_[1]);
            start_ns_ = 0;
        }
    }

    /** Attaches a dynamic label (truncated to the slot payload). */
    void set_detail(const char* detail)
    {
        if (start_ns_ == 0 || detail == nullptr) return;
        std::strncpy(detail_, detail, sizeof detail_ - 1);
        detail_[sizeof detail_ - 1] = '\0';
    }
    void set_detail(const std::string& detail) { set_detail(detail.c_str()); }

    /** Attaches up to two named u64 args (extra calls are dropped). */
    void set_arg(const char* name, uint64_t value)
    {
        for (int i = 0; i < 2; ++i) {
            if (arg_name_[i] == nullptr) {
                arg_name_[i] = name;
                arg_[i] = value;
                return;
            }
        }
    }

  private:
    const char* category_;
    const char* name_;
    uint64_t start_ns_;
    char detail_[48] = {0};
    const char* arg_name_[2] = {nullptr, nullptr};
    uint64_t arg_[2] = {0, 0};
};

/**
 * The 1-in-N sampling phase profiler. Owned and driven by exactly one
 * thread (the supervised run loop); see the file comment for the model.
 */
class PhaseProfiler
{
  public:
    /** Samples 1 in (1 << sample_shift) instruction windows. */
    explicit PhaseProfiler(int sample_shift = 6);

    /** Marks the start/end of the measured run (for coverage math). */
    void BeginRun();
    void EndRun();

    /**
     * Opens an instruction window 1 time in N; returns whether this one
     * is sampled. While a window is open, sampling() is true and
     * Enter/Exit attribute time to nested phases; the remainder of the
     * window lands in kDispatch.
     */
    bool BeginSample()
    {
        if ((tick_++ & mask_) != 0) return false;
        ++samples_taken_;
        sampling_ = true;
        depth_ = 1;
        stack_[0] = Phase::kDispatch;
        last_ts_ = Now();
        return true;
    }

    void EndSample()
    {
        if (!sampling_) return;
        Accumulate();
        sampling_ = false;
    }

    /** Cheap guard for instrumented hot paths. */
    bool sampling() const { return sampling_; }

    /** Innermost-wins phase nesting inside a sampled window. */
    void Enter(Phase phase)
    {
        if (!sampling_ || depth_ >= kMaxDepth) return;
        Accumulate();
        stack_[depth_++] = phase;
    }

    void Exit()
    {
        if (!sampling_ || depth_ <= 1) return;
        Accumulate();
        --depth_;
    }

    /** Exact accounting for rare heavy sections (drain, checkpoint). */
    void AddExact(Phase phase, uint64_t ns)
    {
        exact_ns_[static_cast<int>(phase)] += ns;
    }

    /**
     * Excises `ns` from the open sampled window — called right after an
     * exactly-timed section that ran inside it, so scaling by N cannot
     * count the same nanoseconds N times.
     */
    void SkipTime(uint64_t ns)
    {
        if (sampling_) last_ts_ += ns;
    }

    struct Row {
        Phase phase;
        const char* name;    ///< PhaseName(phase)
        uint64_t ns;         ///< estimate (sampled phases) or exact total
        bool sampled;        ///< statistical estimate vs exact timing
    };

    /**
     * Per-phase totals. Sampled phases are estimated gprof-style: the
     * windows' relative proportions, anchored to the wall time left
     * after the exactly-timed sections (drains, checkpoints, I/O).
     */
    std::vector<Row> Breakdown() const;

    /** Wall nanoseconds between BeginRun and EndRun (or now). */
    uint64_t run_ns() const;

    /** Σ Breakdown ns / run_ns — how much wall time is attributed. */
    double CoverageFraction() const;

    /** Sampled windows opened so far. */
    uint64_t samples() const { return samples_taken_; }

    int sample_shift() const { return shift_; }

    /** Deterministic-clock seam for tests; null restores the default. */
    static void SetClockForTest(uint64_t (*now_ns)());

  private:
    static constexpr int kMaxDepth = 8;

    static uint64_t Now();

    void Accumulate()
    {
        const uint64_t now = Now();
        // Each attribution boundary pays one clock read; subtracting the
        // calibrated read cost keeps the ×N-scaled estimate from
        // inflating sampled windows with the profiler's own overhead.
        uint64_t delta = now - last_ts_;
        delta = delta > clock_cost_ns_ ? delta - clock_cost_ns_ : 0;
        sampled_ns_[static_cast<int>(stack_[depth_ - 1])] += delta;
        last_ts_ = now;
    }

    int shift_;
    uint64_t mask_;
    uint64_t tick_ = 0;
    uint64_t samples_taken_ = 0;
    bool sampling_ = false;
    int depth_ = 0;
    Phase stack_[kMaxDepth] = {};
    uint64_t last_ts_ = 0;
    uint64_t clock_cost_ns_ = 0;
    uint64_t run_begin_ns_ = 0;
    uint64_t run_end_ns_ = 0;
    uint64_t sampled_ns_[kPhaseCount] = {0};
    uint64_t exact_ns_[kPhaseCount] = {0};
};

#else  // !ATUM_TRACING_ENABLED — every record path is an empty inline.

inline void SetSpansEnabled(bool) {}
inline bool SpansEnabled() { return false; }
inline void SetCurrentThreadName(const char*) {}
inline void RecordSpan(const char*, const char*, uint64_t, uint64_t,
                       const char*, const char*, uint64_t, const char*,
                       uint64_t)
{
}
inline void RecordInstant(const char*, const char*, const char* = nullptr,
                          const char* = nullptr, uint64_t = 0)
{
}
inline SpanDump CollectSpans() { return {}; }
inline void SetSpanRingLog2ForTest(int) {}
inline void ResetSpansForTest() {}

class ScopedSpan
{
  public:
    ScopedSpan(const char*, const char*) {}
    void Close() {}
    void set_detail(const char*) {}
    void set_detail(const std::string&) {}
    void set_arg(const char*, uint64_t) {}
};

class PhaseProfiler
{
  public:
    explicit PhaseProfiler(int = 6) {}
    void BeginRun() {}
    void EndRun() {}
    bool BeginSample() { return false; }
    void EndSample() {}
    bool sampling() const { return false; }
    void Enter(Phase) {}
    void Exit() {}
    void AddExact(Phase, uint64_t) {}
    void SkipTime(uint64_t) {}
    struct Row {
        Phase phase;
        const char* name;
        uint64_t ns;
        bool sampled;
    };
    std::vector<Row> Breakdown() const { return {}; }
    uint64_t run_ns() const { return 0; }
    double CoverageFraction() const { return 0.0; }
    uint64_t samples() const { return 0; }
    int sample_shift() const { return 0; }
    static void SetClockForTest(uint64_t (*)()) {}
};

#endif  // ATUM_TRACING_ENABLED

// Span macros expand to a ScopedSpan, which is an empty object in OFF
// builds — callers never need #ifdefs.
#define ATUM_SPAN_CONCAT2_(a, b) a##b
#define ATUM_SPAN_CONCAT_(a, b) ATUM_SPAN_CONCAT2_(a, b)
/** Anonymous scoped span covering the rest of the enclosing block. */
#define ATUM_SPAN(category, name) \
    ::atum::obs::ScopedSpan ATUM_SPAN_CONCAT_(atum_span_, \
                                              __COUNTER__)(category, name)
/** Named scoped span, for set_detail/set_arg. */
#define ATUM_SPAN_NAMED(var, category, name) \
    ::atum::obs::ScopedSpan var(category, name)

}  // namespace atum::obs

#endif  // ATUM_OBS_SPANS_H_
